"""Conductance machinery: Q-flows, set expansion, profiles, and the integral
mixing bound for chains in Markovian evolving environments.

Profiles are step functions on the achievable set-mass knots; the mixing-bound
integral is evaluated in closed form per step, so no quadrature error enters a
certified bound.  Certified provenance ("exact-enumerated" or
"analytic-torus-bound") is required by the bound; family-restricted profiles
are diagnostics only.

Exact profiles enumerate subsets through one enumerator, `half_mass_subsets`:
chunks of int64 bitmasks with their masses, so a set function is evaluated
for a whole chunk at once.  A subset's mass has one rule, `_subset_masses`:
its members' pi summed in increasing state order, the low bits read from one
doubling table of at most 2^SUBSET_CHUNK_BITS masses (`_mass_table`).  The
enumerator, `evoset.set_mass` and the evolving-set laws all read it, so a
set has one mass, the same float in every chunk and call.  The enumerator
builds no membership matrix; a set function that needs one, for the Q-flows
of the phi and psi profiles, unpacks it from the chunk's masks.

A set is a bool mask over the states (`as_mask` rejects anything else, so an
index list or an int 0/1 vector is an error, not a different set).  Int
bitmasks are kept only inside `evoset`'s set-law engine, where they index the
law tables and the weight arrays, and as the `masks` of `half_mass_subsets`
(which `torus.iso_profile` reads by popcount).
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
# Subset masses are read from a table over the low SUBSET_CHUNK_BITS states,
# and enumeration takes masks in aligned chunks of that size: at 24 states a
# table of every mass would take 128 MB, one chunk's 2 MB.
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
    array of bitmasks (one row each), as bools.

    Each mask's little-endian bytes are unpacked to its low m bits, least
    significant first, so column y is bit y."""
    masks = np.asarray(masks, dtype="<i8")
    raw = np.ascontiguousarray(masks).reshape(-1, 1).view(np.uint8)
    bits = np.unpackbits(raw, axis=1, count=m, bitorder="little")
    return bits.view(bool).reshape(masks.shape + (m,))


def _mass_table(pi: np.ndarray, bits: int) -> np.ndarray:
    """pi(S) of every subset S of the first `bits` states, indexed by bitmask:
    t[2^j + x] = t[x] + pi[j] for x < 2^j, so each mass is its members' pi
    summed in increasing state order."""
    t = np.zeros(1 << bits)
    for j in range(bits):
        np.add(t[:1 << j], pi[j], out=t[1 << j:2 << j])
    return t


def _subset_masses(masks, pi: np.ndarray):
    """pi(S) of one bitmask, or of each of an array of bitmasks, in [0, 2^m).

    The one subset-mass rule: the members' pi summed in increasing state
    order.  Few masks (fewer member slots than table entries) sum their
    members directly, adding 0.0 for each non-member, which leaves a mass
    unchanged.  Otherwise the low min(m, SUBSET_CHUNK_BITS) bits are read
    from `_mass_table` and each higher member is added after them, in
    order.  Either way a mask's mass is the same float whichever chunk or
    call computes it."""
    low = min(len(pi), SUBSET_CHUNK_BITS)
    masks = np.asarray(masks, dtype=np.int64)
    if masks.size * len(pi) < 1 << low:
        terms = np.where(mask_members(masks, len(pi)), pi, 0.0)
        return np.cumsum(terms, axis=-1)[..., -1]
    masses = _mass_table(pi, low)[masks & ((1 << low) - 1)]
    for j in range(low, len(pi)):
        masses = masses + np.where(masks >> j & 1, pi[j], 0.0)
    return masses


def half_mass_subsets(pi: np.ndarray):
    """The nonempty subsets S with pi(S) <= 1/2, with their masses.

    Yields (masks, masses) per aligned chunk of 2^SUBSET_CHUNK_BITS masks
    (all 2^m at once for fewer states), in increasing mask order: `masks`
    (int64) has bit y set when y is in S, and `masses` are the
    `_subset_masses` of the masks.  A chunk's masses are the table of its low
    bits plus the chunk's higher members, added in increasing order; no
    membership table is built.
    """
    pi = np.asarray(pi, dtype=float)
    low = min(len(pi), SUBSET_CHUNK_BITS)
    table = _mass_table(pi, low)
    for base in range(0, 1 << len(pi), 1 << low):
        masses = table
        for j in range(low, len(pi)):
            if base >> j & 1:
                masses = masses + pi[j]
        keep = masses <= 0.5 + 1e-12
        if base == 0:
            keep[0] = False  # the empty set
        offsets = np.flatnonzero(keep)
        if len(offsets):
            yield offsets + base, masses[offsets]


def enumerated_profile(pi: np.ndarray,
                       set_values: Callable[..., np.ndarray]) -> ExpansionProfile:
    """Exact-enumerated profile of a set function over every nonempty S with
    pi(S) <= 1/2; `set_values(masks, masses)` evaluates it on one chunk of
    `half_mass_subsets`."""
    if len(pi) > SUBSET_ENUM_MAX_STATES:
        raise InputError(f"{len(pi)} states exceeds the enumeration cap "
                         f"{SUBSET_ENUM_MAX_STATES}")
    masses, values = [np.empty(0)], [np.empty(0)]
    for masks, mass in half_mass_subsets(pi):
        masses.append(mass)
        values.append(set_values(masks, mass))
    return profile_from_values(np.concatenate(masses), np.concatenate(values),
                               "exact-enumerated", float(np.min(pi)))


def _phi_table(masks: np.ndarray, masses: np.ndarray,
               kernels: Sequence[np.ndarray], pi: np.ndarray) -> np.ndarray:
    """phi_K(S) for every bitmask S of `masks` (of mass `masses`) and every
    kernel K: (sets, kernels), from the sets' membership matrix."""
    bits = mask_members(masks, len(pi))
    weighted = bits * pi
    out = np.empty((len(masses), len(kernels)))
    for j, K in enumerate(kernels):
        flow = weighted @ K  # Q(S, y) per state y
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
    infimum over all sets of mass at most the previous knot.  With the sets
    in increasing mass order, a set joins the current knot while its mass is
    within `_KNOT_TIE` of the knot's first mass, and starts a new knot
    otherwise; a knot holds the running infimum at its last set, and a knot
    where the infimum does not move is dropped (keeps profiles small).
    """
    masses = np.asarray(masses, dtype=float)
    phis = np.asarray(phis, dtype=float)
    keep = masses <= 0.5 + 1e-12
    masses, phis = masses[keep], phis[keep]
    if len(masses) == 0:
        raise InputError("no sets of mass <= 1/2")
    order = np.argsort(masses, kind="stable")
    masses = masses[order]
    # fmin skips a NaN value, as a running min(running, f) from +inf does
    running = np.fmin.accumulate(phis[order])
    starts = _knot_starts(masses)
    knots, values = masses[starts[:-1]], running[starts[1:] - 1]
    moved = np.ones(len(knots), dtype=bool)
    moved[1:] = values[1:] < values[:-1]
    return ExpansionProfile(knots[moved], values[moved], provenance, pi_star)


# Masses this close to a knot's first mass join that knot.
_KNOT_TIE = 1e-15


def _knot_starts(masses: np.ndarray) -> np.ndarray:
    """Positions of the sorted `masses` that start a knot, then len(masses):
    the first, and each one at least `_KNOT_TIE` above the start of the knot
    before it, the difference taken in floating point.

    A mass at least `_KNOT_TIE` above the mass before it is a start, since
    every earlier start is at least as far below.  Between two such starts,
    the masses hold more starts only when they span `_KNOT_TIE`, a chain of
    near-ties.  Then each position i has one successor, nxt[i], the first
    position far enough from it; the starts are the orbit of position 0
    under nxt, followed from each sure start by pointer doubling until it
    has reached the next one.
    """
    n = len(masses)
    starts = np.ones(n + 1, dtype=bool)  # position n stands past the last mass
    starts[1:n] = masses[1:] - masses[:-1] >= _KNOT_TIE
    sure = np.flatnonzero(starts)
    if not (masses[sure[1:] - 1] - masses[sure[:-1]] >= _KNOT_TIE).any():
        return sure
    # the first mass above fl(m_i + tie) is far enough from m_i; masses just
    # below it may be too, as the differences round
    nxt = np.searchsorted(masses, np.nextafter(masses + _KNOT_TIE, np.inf))
    back = np.flatnonzero(nxt - 1 > np.arange(n))
    while len(back):
        far = masses[nxt[back] - 1] - masses[back] >= _KNOT_TIE
        back = back[far]
        nxt[back] = np.searchsorted(masses, masses[nxt[back] - 1])  # first of a tie
        back = back[nxt[back] - 1 > back]
    jump = np.append(nxt, n)
    while (jump[sure[:-1]] < sure[1:]).any():
        starts[jump[starts]] = True  # the orbit doubles its reach from each start
        jump = jump[jump]
    return np.flatnonzero(starts)


def profile_phi_kernels(kernels: Sequence[np.ndarray], pi: np.ndarray) -> ExpansionProfile:
    """Exact profile over a fixed kernel collection (quenched sequences):
    phi(r) = min over kernels and pi(S) <= r of phi_p(S); InputError unless
    the kernels share the stationary pi (`evoset.check_chain`)."""
    from .evoset import check_chain

    pi, kernels = check_chain(pi, kernels)
    return enumerated_profile(
        pi, lambda masks, mass: _phi_table(masks, mass, kernels, pi).min(axis=1))


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
