"""Evolving sets for time-inhomogeneous finite chains.

Subsets are Python int bitmasks over the state space, because they are the
dict keys and the table index of the set-law engine.  Outside this module a
set is a bool mask (`mask_members` converts one bitmask);
`expansion.half_mass_subsets` yields both forms.  The one-step law is exact:
sort the distinct threshold values Q(S, y) / pi(y) and read off the
piecewise-constant map U -> S-tilde (non-strict comparison, so U = 0 yields
the full space).  The Doob transform reweights by pi(S') / pi(S); its
normalization is equivalent to the martingale property of pi(S_k).

Exact set-law propagation, here and in the joint certificate of `envlab`,
runs on one law table (`set_law_table`): each (mask, distinct kernel) law
computed once, weights moved through it by one bincount per step.
`psi_profile_kernels` evaluates psi for every subset at once on the bit table
of `expansion.half_mass_subsets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dist import chi
from .errors import CapabilityError, InputError
from .expansion import ExpansionProfile, enumerated_profile, profile_integral

# Exact subset-law propagation caps the state count.
SET_LAW_MAX_STATES = 14
# Mass below this is pruned during propagation and added to the error budget.
PRUNE_EPS = 1e-15


def check_chain(pi, kernels) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Validate walk kernels sharing a stationary pi; return them as float arrays.

    pi must be a finite distribution with full support, and each kernel a
    finite N x N matrix (N = len(pi)) whose rows sum to 1 and which leaves pi
    stationary.  NaN fails every comparison, so finiteness is tested first.
    """
    pi = np.asarray(pi, dtype=float)
    if (pi.ndim != 1 or not np.isfinite(pi).all() or (pi <= 0).any()
            or abs(pi.sum() - 1.0) > 1e-10):
        raise InputError("pi must be a finite, strictly positive distribution")
    ks = tuple(np.asarray(K, dtype=float) for K in kernels)
    for K in ks:
        if K.shape != (len(pi), len(pi)):
            raise InputError("kernel shape mismatch")
        if not np.isfinite(K).all():
            raise InputError("kernels must be finite")
        if np.abs(K.sum(axis=1) - 1.0).max() > 1e-12:
            raise InputError("kernel rows must sum to 1")
        if np.abs(pi @ K - pi).max() > 1e-12:
            raise InputError("pi is not stationary for some kernel")
    return pi, ks


@dataclass(frozen=True)
class InhomChain:
    """A fixed kernel sequence sharing one full-support stationary pi."""

    pi: np.ndarray
    kernels: tuple[np.ndarray, ...]

    def __post_init__(self):
        pi, ks = check_chain(self.pi, self.kernels)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "kernels", ks)

    @property
    def n_states(self) -> int:
        return len(self.pi)

    def kernel(self, k: int) -> np.ndarray:
        """Kernel used for the step from time k to k+1 (0-based)."""
        return self.kernels[k]


# _BIT[y] = 1 << y: a bitmask's members are the y with _BIT[y] & mask nonzero.
_BIT = 1 << np.arange(62, dtype=np.int64)
_BIT.setflags(write=False)


def mask_members(mask: int, m: int) -> np.ndarray:
    return (_BIT[:m] & mask).astype(bool)


def set_mass(mask: int, pi: np.ndarray) -> float:
    return float(pi[mask_members(mask, len(pi))].sum())


def start_mask(x: int, m: int) -> int:
    """{x} as a bitmask; InputError unless x is a state in [0, m)."""
    if not (isinstance(x, (int, np.integer)) and 0 <= x < m):
        raise InputError(f"start state {x!r} outside [0, {m})")
    return 1 << int(x)


def z_statistic(mask: int, pi: np.ndarray) -> float:
    """Z = sqrt(pi(S#)) / pi(S) with S# = S when pi(S) <= 1/2 else S^c."""
    m = len(pi)
    mass = set_mass(mask, pi)
    if mass == 0.0:
        raise InputError("Z is undefined at the empty set")
    # the complement mass can round to -1 ulp when pi sums to just above 1
    sharp = mass if mass <= 0.5 else max(1.0 - mass, 0.0)
    return math.sqrt(sharp) / mass


@dataclass(frozen=True)
class SetLaw:
    """Exact one-step law: distinct subsets with positive probabilities."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        total = sum(p for _, p in self.entries)
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"set law sums to {total}")
        if len({m for m, _ in self.entries}) != len(self.entries):
            raise InputError("duplicate subsets in set law")
        if any(p <= 0 for _, p in self.entries):
            raise InputError("probabilities must be positive")

    def mean_mass(self, pi: np.ndarray) -> float:
        return sum(p * set_mass(m, pi) for m, p in self.entries)


def _ratios(mask: int, K: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """r_y = Q(S, y) / pi(y) for every state y."""
    members = mask_members(mask, len(pi))
    return (pi[members] @ K[members]) / pi


def step_law(mask: int, K: np.ndarray, pi: np.ndarray) -> SetLaw:
    """Exact one-step law of the evolving set."""
    if mask == 0:
        return SetLaw(((0, 1.0),))
    r = _ratios(mask, K, pi)
    # level sets {y : r_y >= v} are prefixes of the states in descending r;
    # each distinct positive v ends one run of ties
    order = np.argsort(-r, kind="stable")
    desc = r[order]
    ends = np.append(desc[1:] != desc[:-1], True) & (desc > 0.0)
    levels = list(zip(np.cumsum(_BIT[order])[ends].tolist(), desc[ends].tolist()))
    # P(S-tilde = set at level v_i) = v_i - v_{i+1}; P(empty) = 1 - v_1
    out = []
    if levels:
        if 1.0 - levels[0][1] > 0.0:
            out.append((0, 1.0 - levels[0][1]))
        for i, (s, v) in enumerate(levels):
            nxt = levels[i + 1][1] if i + 1 < len(levels) else 0.0
            p = v - nxt
            if p > 0.0:
                out.append((s, p))
    else:
        out.append((0, 1.0))
    return SetLaw(tuple(out))


def doob_step_law(mask: int, K: np.ndarray, pi: np.ndarray) -> SetLaw:
    """Doob transform: reweight by pi(S') / pi(S); the empty set gets mass 0."""
    if mask == 0:
        raise InputError("Doob transform undefined from the empty set")
    base = step_law(mask, K, pi)
    mass0 = set_mass(mask, pi)
    out = []
    for s, p in base.entries:
        w = set_mass(s, pi) / mass0
        if w > 0.0:
            out.append((s, p * w))
    return SetLaw(tuple(out))


def expected_sqrt_ratio(mask: int, K: np.ndarray, pi: np.ndarray) -> float:
    """psi_p(S) = 1 - E[sqrt(pi(S-tilde) / pi(S))]."""
    if mask == 0:
        raise InputError("S must be nonempty")
    law = step_law(mask, K, pi)
    mass0 = set_mass(mask, pi)
    e = sum(p * math.sqrt(set_mass(s, pi) / mass0) for s, p in law.entries)
    return 1.0 - e


def _distinct_kernels(kernels: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """The distinct kernels (one copy of each set of equal entries) and, for
    each given kernel, the position of its copy among them."""
    uniq: list[np.ndarray] = []
    which = []
    for K in kernels:
        j = next((i for i, U in enumerate(uniq)
                  if K is U or (K.shape == U.shape and np.array_equal(K, U))), len(uniq))
        if j == len(uniq):
            uniq.append(K)
        which.append(j)
    return uniq, which


def set_law_table(kernels: Sequence[np.ndarray], pi: np.ndarray, s0: int,
                  doob: bool = False) -> tuple[list[int], list[tuple], list[int]]:
    """One-step set laws (Doob laws if `doob`) over the masks reachable from s0.

    Returns (masks, transitions, which): `masks` lists s0 first, then every
    mask reachable from it under any kernel, breadth first; `transitions[j]`
    is the one-step transition of the j-th distinct kernel as flat (rows,
    cols, vals) arrays, P(next = masks[c] | now = masks[r]) = v; the i-th
    given kernel is distinct kernel `which[i]`.  Each (mask, distinct kernel)
    law is computed once.
    """
    m = len(pi)
    if m > SET_LAW_MAX_STATES:
        raise CapabilityError(f"{m} states exceeds the subset-law cap {SET_LAW_MAX_STATES}")
    uniq, which = _distinct_kernels(kernels)
    law = doob_step_law if doob else step_law
    masks = [s0]
    index = {s0: 0}
    entries: list[list[tuple[int, int, float]]] = [[] for _ in uniq]
    for r, mask in enumerate(masks):  # grows while it is walked
        for j, K in enumerate(uniq):
            for s, p in law(mask, K, pi).entries:
                if s not in index:
                    index[s] = len(masks)
                    masks.append(s)
                entries[j].append((r, index[s], p))
    transitions = [tuple(np.array(col) for col in zip(*e)) for e in entries]
    return masks, transitions, which


def propagate_set_law(kernels: Sequence[np.ndarray], pi: np.ndarray, s0: int,
                      doob: bool = False,
                      prune: float = PRUNE_EPS) -> tuple[list[dict[int, float]], float]:
    """Exact subset-law propagation: list of {mask: prob} per step, plus the
    total pruned mass (entries below `prune` after a step; added to the
    caller's error budget)."""
    masks, transitions, which = set_law_table(kernels, pi, s0, doob)
    masks = np.array(masks)
    weights = np.zeros(len(masks))
    weights[0] = 1.0
    laws = [{s0: 1.0}]
    pruned = 0.0
    for j in which:
        rows, cols, vals = transitions[j]
        weights = np.bincount(cols, weights=weights[rows] * vals, minlength=len(masks))
        small = weights < prune
        pruned += float(weights[small].sum())
        weights[small] = 0.0
        live = np.flatnonzero(weights)
        laws.append(dict(zip(masks[live].tolist(), weights[live].tolist())))
    return laws, pruned


def psi_profile_kernels(kernels: Sequence[np.ndarray], pi: np.ndarray) -> ExpansionProfile:
    """Step profile psi(r) = min over kernels and pi(S) <= r of psi_p(S)."""
    m = len(pi)
    if m > SET_LAW_MAX_STATES:
        raise CapabilityError(f"{m} states exceeds the subset-law cap {SET_LAW_MAX_STATES}")
    pi = np.asarray(pi, dtype=float)
    # one scan per distinct kernel keeps cycled sequences cheap
    uniq, _ = _distinct_kernels(kernels)

    def psi(bits, masses):
        weighted = bits * pi
        return np.min([1.0 - _mean_sqrt_ratio(weighted @ K / pi, pi, masses)
                       for K in uniq], axis=0)

    return enumerated_profile(pi, psi)


def _mean_sqrt_ratio(r: np.ndarray, pi: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """E[sqrt(pi(S-tilde) / pi(S))] for each row of ratios r_y = Q(S, y) / pi(y).

    With a row sorted descending, S-tilde is the top j states with probability
    r_(j) - r_(j+1) >= 0, r_(m+1) = 0; tied ratios get probability 0 until
    the last of the tie, so each level set is counted once."""
    if r.max(initial=0.0) > 1.0 + 1e-12:
        raise InputError(f"ratio Q(S, y) / pi(y) = {r.max()!r} exceeds 1")
    order = np.argsort(-r, axis=1, kind="stable")
    gaps = -np.diff(np.take_along_axis(r, order, axis=1), axis=1, append=0.0)
    return (gaps * np.sqrt(np.cumsum(pi[order], axis=1) / masses[:, None])).sum(axis=1)


def psi_step_count(chain: InhomChain, x: int, eps: float) -> int:
    """Step count from the psi-profile integral: the smallest integer
    n >= integral_{4 pi(x)}^{4/eps} du / (u psi(u))."""
    start_mask(x, chain.n_states)
    profile = psi_profile_kernels(chain.kernels, chain.pi)
    integral = profile_integral(profile, 4.0 * float(chain.pi[x]), 4.0 / eps,
                                power=1)
    return max(0, int(math.ceil(integral - 1e-9)))


@dataclass(frozen=True)
class ZBoundReport:
    chi_values: np.ndarray
    z_expectations: np.ndarray
    chi_ok: bool
    psi_steps: Optional[int]
    z_at_psi_steps: Optional[float]
    z_bound_ok: Optional[bool]
    pruned_mass: float


def doob_z_bound_check(chain: InhomChain, x: int,
                       eps: Optional[float] = None) -> ZBoundReport:
    """Exact Doob propagation from {x} over the whole kernel sequence: checks
    chi(law of X_j, pi) <= E-hat[Z_j] per step, and E-hat[Z_n] <= sqrt(eps)
    at the psi-integral step count."""
    pi = chain.pi
    s0 = start_mask(x, chain.n_states)
    k = len(chain.kernels)
    laws, pruned = propagate_set_law(chain.kernels, pi, s0, doob=True)
    z_of = {mask: z_statistic(mask, pi) for mask in set().union(*laws)}
    z_exp = np.array([sum(p * z_of[mask] for mask, p in law.items()) for law in laws])
    chis = np.empty(k + 1)
    vec = np.zeros(chain.n_states)
    vec[x] = 1.0
    for j in range(k + 1):
        chis[j] = chi(vec, pi)
        if j < k:
            vec = vec @ chain.kernel(j)
    slack = 1e-9 + pruned * 10.0
    chi_ok = bool(np.all(chis <= z_exp + slack))
    psi_steps = None
    z_at = None
    z_ok = None
    if eps is not None:
        psi_steps = psi_step_count(chain, x, eps)
        if psi_steps <= k:
            z_at = float(z_exp[psi_steps])
            z_ok = bool(z_at <= math.sqrt(eps) + slack)
    return ZBoundReport(chi_values=chis, z_expectations=z_exp, chi_ok=chi_ok,
                        psi_steps=psi_steps, z_at_psi_steps=z_at,
                        z_bound_ok=z_ok, pruned_mass=pruned)
