"""Conductance machinery: Q-flows, set expansion, profiles, and the integral
mixing bound for chains in Markovian evolving environments.

Profiles are step functions on the achievable set-mass knots; the mixing-bound
integral is evaluated in closed form per step, so no quadrature error enters a
certified bound.  Certified provenance ("exact-enumerated" or
"analytic-torus-bound") is required by the bound; family-restricted profiles
are diagnostics only.

Exact profiles enumerate subsets through one bit table, `half_mass_subsets`:
chunks of masks as a boolean membership matrix with their masses, so a set
function is evaluated for a whole chunk by a few matrix products.

A set is a bool mask over the states (`as_mask` rejects anything else, so an
index list or an int 0/1 vector is an error, not a different set).  Int
bitmasks are kept only inside `evoset`'s set-law engine, where they are dict
keys and table indices, and as the `masks` column of `half_mass_subsets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, UncertifiedProfileError

CERTIFIED_PROVENANCES = ("exact-enumerated", "analytic-torus-bound")
PROVENANCES = CERTIFIED_PROVENANCES + ("family-restricted",)
# Exhaustive subset enumeration is capped at this many states.
SUBSET_ENUM_MAX_STATES = 24
# Subset enumeration takes masks in chunks of 2^SUBSET_CHUNK_BITS: at 24
# states one chunk's float table is about 50 MB, where all 2^24 sets at once
# would need gigabytes.
SUBSET_CHUNK_BITS = 18


def as_mask(S, n: int) -> np.ndarray:
    """Validate a set given as a bool mask over n states."""
    S = np.asarray(S)
    if S.dtype != bool or S.shape != (n,):
        raise InputError(f"a set must be a bool mask of shape ({n},), "
                         f"got a {S.dtype} array of shape {S.shape}")
    return S


def q_flow(K: np.ndarray, pi: np.ndarray, A, B) -> float:
    """Q(A, B) = sum_{x in A, y in B} pi(x) K(x, y) for bool masks A, B."""
    K = np.asarray(K, dtype=float)
    pi = np.asarray(pi, dtype=float)
    A = as_mask(A, len(pi))
    B = as_mask(B, len(pi))
    return float(pi[A] @ K[np.ix_(A, B)].sum(axis=1))


# _BIT[y] = 1 << y: a bitmask's members are the y with _BIT[y] & mask nonzero.
_BIT = 1 << np.arange(62, dtype=np.int64)
_BIT.setflags(write=False)


def mask_members(masks, m: int) -> np.ndarray:
    """Membership over m states of one bitmask (shape (m,)) or of each of an
    array of bitmasks (one row each), as bools."""
    return (np.asarray(masks, dtype=np.int64)[..., None] & _BIT[:m]).astype(bool)


def half_mass_subsets(pi: np.ndarray):
    """Bit table of the nonempty subsets S with pi(S) <= 1/2.

    Yields (masks, bits, masses) per chunk of at most 2^SUBSET_CHUNK_BITS
    masks, in increasing mask order: `masks` (int64) has bit y set when y is
    in S, `bits[i, y]` is that membership as a bool matrix, `masses = bits @ pi`.
    """
    pi = np.asarray(pi, dtype=float)
    end = 1 << len(pi)
    step = 1 << SUBSET_CHUNK_BITS
    for lo in range(1, end, step):
        masks = np.arange(lo, min(lo + step, end), dtype=np.int64)
        bits = mask_members(masks, len(pi))
        masses = bits @ pi
        keep = masses <= 0.5 + 1e-12
        if keep.any():
            yield masks[keep], bits[keep], masses[keep]


def enumerated_profile(pi: np.ndarray,
                       set_values: Callable[..., np.ndarray]) -> ExpansionProfile:
    """Exact-enumerated profile of a set function over every nonempty S with
    pi(S) <= 1/2; `set_values(masks, bits, masses)` evaluates it on one chunk
    of `half_mass_subsets`."""
    if len(pi) > SUBSET_ENUM_MAX_STATES:
        raise InputError(f"{len(pi)} states exceeds the enumeration cap "
                         f"{SUBSET_ENUM_MAX_STATES}")
    masses, values = [np.empty(0)], [np.empty(0)]
    for masks, bits, mass in half_mass_subsets(pi):
        masses.append(mass)
        values.append(set_values(masks, bits, mass))
    return profile_from_values(np.concatenate(masses), np.concatenate(values),
                               "exact-enumerated", float(np.min(pi)))


def _phi_table(bits: np.ndarray, masses: np.ndarray,
               kernels: Sequence[np.ndarray], pi: np.ndarray) -> np.ndarray:
    """phi_K(S) for every row S of a bit table and every kernel K: (sets, kernels)."""
    weighted = bits * pi
    out = np.empty((len(masses), len(kernels)))
    for j, K in enumerate(kernels):
        flow = weighted @ np.asarray(K, dtype=float)  # Q(S, y) per state y
        flow[bits] = 0.0
        out[:, j] = flow.sum(axis=1) / masses
    return out


def expansion_phi(K: np.ndarray, pi: np.ndarray, S) -> float:
    """phi(S) = Q(S, S^c) / pi(S), the stationary one-step escape probability."""
    pi = np.asarray(pi, dtype=float)
    mask = as_mask(S, len(pi))
    if not mask.any():
        raise InputError("S must be nonempty")
    return q_flow(K, pi, mask, ~mask) / float(pi[mask].sum())


@dataclass(frozen=True)
class ExpansionProfile:
    """Nonincreasing step function r -> phi(r), constant at phi(1/2) for r >= 1/2.

    `knots` are increasing mass values; `values[i]` holds on
    [knots[i], knots[i+1]).  `pi_star` is the smallest stationary mass.
    """

    knots: np.ndarray
    values: np.ndarray
    provenance: str
    pi_star: float

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise InputError(f"unknown provenance {self.provenance!r}")
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.shape != v.shape or k.ndim != 1 or len(k) == 0:
            raise InputError("knots and values must be matching nonempty 1-d arrays")
        if not (np.isfinite(k).all() and np.isfinite(v).all()):
            raise InputError("knots and values must be finite")
        if np.any(np.diff(k) <= 0):
            raise InputError("knots must be strictly increasing")
        if np.any(np.diff(v) > 1e-12):
            raise InputError("profile must be nonincreasing")
        if not 0.0 < self.pi_star <= 1.0:
            raise InputError(f"pi_star must be in (0, 1], got {self.pi_star!r}")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    @property
    def certified(self) -> bool:
        return self.provenance in CERTIFIED_PROVENANCES

    def value(self, u: float) -> float:
        u = min(u, 0.5)  # phi(r) = phi(1/2) above 1/2
        u = max(u, float(self.knots[0]))
        i = int(np.searchsorted(self.knots, u, side="right")) - 1
        return float(self.values[i])

    def serialize(self) -> str:
        head = f"# dynaperc-profile-v1 provenance={self.provenance} pi_star={self.pi_star!r}\n"
        body = "".join(f"{float(k)!r} {float(v)!r}\n"
                       for k, v in zip(self.knots, self.values))
        return head + body

    @classmethod
    def deserialize(cls, text: str) -> "ExpansionProfile":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# dynaperc-profile-v1"):
            raise InputError("not a dynaperc profile")
        fields = dict(tok.partition("=")[::2] for tok in lines[0].split()[2:])
        rows = [ln.split() for ln in lines[1:]]
        if not rows or any(len(r) != 2 for r in rows):
            raise InputError("a profile needs lines of one knot and one value")
        try:
            knots, values = np.array(rows, dtype=float).T
            provenance, pi_star = fields["provenance"], float(fields["pi_star"])
        except KeyError as exc:
            raise InputError(f"profile header lacks {exc}") from exc
        except ValueError as exc:
            raise InputError(f"malformed profile: {exc}") from exc
        return cls(knots, values, provenance, pi_star)


def profile_from_values(masses: Sequence[float], phis: Sequence[float],
                        provenance: str, pi_star: float) -> ExpansionProfile:
    """Build the running-infimum step profile from per-set (mass, phi) pairs.

    Only masses <= 1/2 contribute; phi(r) for r between knots equals the
    infimum over all sets of mass at most the previous knot.
    """
    masses = np.asarray(masses, dtype=float)
    phis = np.asarray(phis, dtype=float)
    keep = masses <= 0.5 + 1e-12
    masses, phis = masses[keep], phis[keep]
    if len(masses) == 0:
        raise InputError("no sets of mass <= 1/2")
    order = np.argsort(masses, kind="stable")
    masses, phis = masses[order], phis[order]
    knots, values = [], []
    running = math.inf
    for m, f in zip(masses, phis):
        running = min(running, f)
        if knots and abs(m - knots[-1]) < 1e-15:
            values[-1] = running
        else:
            knots.append(float(m))
            values.append(running)
    # collapse runs where the infimum did not move (keeps profiles small)
    ks, vs = [knots[0]], [values[0]]
    for k, v in zip(knots[1:], values[1:]):
        if v < vs[-1] - 0.0:
            ks.append(k)
            vs.append(v)
    return ExpansionProfile(np.array(ks), np.array(vs), provenance, pi_star)


def profile_phi_env(R: np.ndarray, kernels: Sequence[np.ndarray],
                    pi: np.ndarray) -> ExpansionProfile:
    """Exact profile phi(r) = inf over env states and pi(S) <= r of phi(zeta, S)."""
    pi = np.asarray(pi, dtype=float)
    # phi(zeta, S) = sum over zeta' with R(zeta, zeta') > 0 of R(zeta, zeta') phi_zeta'(S)
    weights = np.maximum(np.asarray(R, dtype=float), 0.0).T
    return enumerated_profile(
        pi, lambda _, bits, mass: (_phi_table(bits, mass, kernels, pi) @ weights).min(axis=1))


def profile_phi_kernels(kernels: Sequence[np.ndarray], pi: np.ndarray) -> ExpansionProfile:
    """Exact profile over a fixed kernel collection (quenched sequences):
    phi(r) = min over kernels and pi(S) <= r of phi_p(S)."""
    pi = np.asarray(pi, dtype=float)
    return enumerated_profile(
        pi, lambda _, bits, mass: _phi_table(bits, mass, kernels, pi).min(axis=1))


def torus_analytic_profile(d: int, n: int, mu: float, c: float) -> ExpansionProfile:
    """Discretized analytic lower-bound profile r -> c mu^2 / (n r^(1/d)),
    on 16 log-spaced knots per decade of mass.

    The unit-block environment averaging contributes one factor of mu through
    the binomial open-edge bound and one through its probability, hence mu^2.
    Each step takes the value at its right endpoint, so the step profile is a
    pointwise lower bound on the analytic curve.
    """
    pi_star = 1.0 / n ** d
    lo = math.log10(pi_star)
    count = max(2, int(-lo * 16) + 1)
    knots = np.logspace(lo, math.log10(0.5), count)
    knots[0] = pi_star
    knots[-1] = 0.5
    rights = np.append(knots[1:], 0.5)
    values = c * mu ** 2 / (n * rights ** (1.0 / d))
    return ExpansionProfile(knots, values, "analytic-torus-bound", pi_star)


def profile_integral(profile: ExpansionProfile, lo: float, hi: float,
                     power: int = 2) -> float:
    """Closed-form integral of du / (u * phi(u)^power) over [lo, hi]."""
    if hi <= lo:
        return 0.0
    total = 0.0
    # breakpoints: profile knots within (lo, hi), plus the constant tail
    points = [lo] + [float(k) for k in profile.knots if lo < k < hi] + [hi]
    for a, b in zip(points[:-1], points[1:]):
        v = profile.value(a)
        if v <= 0.0:
            raise InputError("profile vanishes; the integral diverges")
        total += math.log(b / a) / v ** power
    return total


def check_eps(eps: float) -> None:
    """InputError unless eps lies in (0, 1), the domain of t_mix(eps) and of
    the integral bounds; NaN is refused too."""
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must be in (0, 1), got {eps!r}")


def integral_mixing_bound(profile: ExpansionProfile, gamma: float,
                          pi_x: float, eps: float) -> int:
    """Smallest step count n >= 1 + (2(1-gamma)^2/gamma^2) *
    integral_{4 pi(x)}^{4/eps} du / (u phi^2(u))."""
    if not 0.0 < gamma <= 0.5:
        raise InputError(f"gamma must be in (0, 1/2], got {gamma}")
    if not pi_x > 0.0:
        raise InputError("pi(x) must be positive")
    check_eps(eps)
    if not profile.certified:
        raise UncertifiedProfileError(
            "family-restricted profiles give upper envelopes only; "
            "the certified bound needs exact-enumerated or analytic-torus-bound")
    integral = profile_integral(profile, 4.0 * pi_x, 4.0 / eps, power=2)
    factor = 2.0 * (1.0 - gamma) ** 2 / gamma ** 2
    raw = 1.0 + factor * integral
    return max(1, int(math.ceil(raw - 1e-9)))


@dataclass(frozen=True)
class PhiLowerBoundRecord:
    phi: float
    beta: float
    pi_S: float
    ratio: Optional[float]   # phi * n * pi(S)^(1/d) / beta, None when beta == 0
    vacuous: bool


def torus_phi_lower_bound_check(env, S, interval: Optional[tuple[float, float]] = None
                                ) -> PhiLowerBoundRecord:
    """Measure phi of a window kernel against the boundary-opening fraction.

    beta is the fraction of boundary edges open throughout the second half of
    the window; the record carries the witness ratio
    phi * n * pi(S)^(1/d) / beta.
    """
    from .dynenv import count_open_throughout
    from .torus import edge_boundary
    from .walk import window_kernel

    g = env.graph
    S = as_mask(S, g.n_vertices)
    pi_S = int(S.sum()) / g.n_vertices
    if not 0.0 < pi_S <= 0.5 + 1e-12:
        raise InputError("need 0 < pi(S) <= 1/2")
    if interval is None:
        interval = (0.0, 1.0)
    a, b = interval
    boundary = edge_boundary(g, S)
    open_cnt = count_open_throughout(env, boundary, (a + b) / 2.0, b)
    beta = open_cnt / len(boundary)
    K = window_kernel(env, (a, b))
    pi = np.full(g.n_vertices, 1.0 / g.n_vertices)
    phi = expansion_phi(K, pi, S)
    if beta == 0.0:
        return PhiLowerBoundRecord(phi=phi, beta=0.0, pi_S=pi_S,
                                   ratio=None, vacuous=True)
    ratio = phi * g.n * pi_S ** (1.0 / g.d) / beta
    return PhiLowerBoundRecord(phi=phi, beta=beta, pi_S=pi_S,
                               ratio=ratio, vacuous=False)
