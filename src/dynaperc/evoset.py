"""Evolving sets for time-inhomogeneous finite chains.

Subsets are int64 bitmasks over the state space: bit y is set when state y
is in S.  Outside this module a set is a bool mask (`mask_members` converts
bitmasks); `expansion.half_mass_subsets` yields bitmasks with their masses.
A subset's mass has one rule, `expansion._subset_masses`, which `set_mass`
(and through it `z_statistic` and `SetLaw.mean_mass`) and the Doob and psi
mass ratios read, so a set has the same mass everywhere.

The evolving-set step is S' = {y : Q(S, y) / pi(y) >= U}, U uniform on
[0, 1] (non-strict, so U = 0 yields the full space).  One private function,
`_threshold`, applies it to a table of sets under one kernel or a stack of
kernels at once: with the states sorted by decreasing ratio r, S' is the top
j states with probability r_(j) - r_(j+1), where r_(0) = 1 (j = 0 is the
empty set) and r_(m+1) = 0.
Every law reads that table:
- the plain law (`step_law`);
- the Doob transform (`doob_step_law`), which reweights by pi(S') / pi(S)
  and so never reaches the empty set; its normalization is the martingale
  property of pi(S_k);
- psi_p(S) = 1 - E[sqrt(pi(S') / pi(S))] (`expected_sqrt_ratio`, and
  `psi_profile_kernels` for every subset at once).
The one-set functions are the one-row case, and equal the matching row of a
table bit for bit.

Exact set-law propagation, here and in the joint certificate of `envlab`,
runs on one law table (`set_law_table`): the laws of every subset, indexed by
bitmask, for each distinct kernel, all from one threshold pass over the stack
of those kernels.  `propagate_set_law` moves the weights through it by one
bincount per step into one (steps + 1, 2^m) array, which the Doob Z bound
reads as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dist import chi
from .errors import CapabilityError, InputError
from .expansion import (_BIT, ExpansionProfile, _subset_masses, check_eps,
                        enumerated_profile, mask_members, profile_integral)

# Exact subset-law propagation caps the state count.
SET_LAW_MAX_STATES = 14
# Mass below this is pruned during propagation and added to the error budget.
PRUNE_EPS = 1e-15


def check_chain(pi, kernels) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Validate walk kernels sharing a stationary pi; return them as float arrays.

    pi must be a finite distribution with full support, and there must be at
    least one kernel, each a finite N x N matrix (N = len(pi)) whose rows sum
    to 1 and which leaves pi stationary.  NaN fails every comparison, so
    finiteness is tested first.  Kernels with equal entries are validated
    once.
    """
    pi = np.asarray(pi, dtype=float)
    if (pi.ndim != 1 or not np.isfinite(pi).all() or (pi <= 0).any()
            or abs(pi.sum() - 1.0) > 1e-10):
        raise InputError("pi must be a finite, strictly positive distribution")
    ks = tuple(np.asarray(K, dtype=float) for K in kernels)
    if not ks:
        raise InputError("a chain needs at least one kernel")
    for K in _distinct_kernels(ks)[0]:
        _check_kernel(K, pi)
    return pi, ks


def _check_kernel(K: np.ndarray, pi: np.ndarray) -> None:
    if K.shape != (len(pi), len(pi)):
        raise InputError("kernel shape mismatch")
    if not np.isfinite(K).all():
        raise InputError("kernels must be finite")
    if np.abs(K.sum(axis=1) - 1.0).max() > 1e-12:
        raise InputError("kernel rows must sum to 1")
    if np.abs(pi @ K - pi).max() > 1e-12:
        raise InputError("pi is not stationary for some kernel")


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


def set_mass(masks, pi: np.ndarray):
    """pi(S) of one bitmask, or of each of an array of bitmasks, by the one
    subset-mass rule (`expansion._subset_masses`); InputError for a bitmask
    outside [0, 2^m)."""
    pi = np.asarray(pi, dtype=float)
    m = len(pi)
    if isinstance(masks, (int, np.integer)):
        _check_mask(masks, m, nonempty=False)
    else:
        masks = np.asarray(masks)
        if masks.dtype.kind not in "iu" or (
                masks.size and not (masks.min() >= 0 and masks.max() < 1 << m)):
            raise InputError(f"bitmasks must be integers in [0, 2^{m})")
    return _subset_masses(masks, pi)


def start_mask(x: int, m: int) -> int:
    """{x} as a bitmask; InputError unless x is a state in [0, m)."""
    if not (isinstance(x, (int, np.integer)) and 0 <= x < m):
        raise InputError(f"start state {x!r} outside [0, {m})")
    return 1 << int(x)


def _check_mask(mask: int, m: int, nonempty: bool) -> int:
    """A bitmask of a subset of the m states; InputError otherwise, and for
    the empty set if `nonempty`."""
    if not (isinstance(mask, (int, np.integer)) and int(nonempty) <= mask < 1 << m):
        raise InputError(f"bitmask {mask!r} is not a {'nonempty ' * nonempty}"
                         f"subset of {m} states")
    return int(mask)


def z_statistic(masks, pi: np.ndarray):
    """Z = sqrt(pi(S#)) / pi(S) with S# = S when pi(S) <= 1/2 else S^c, for one
    nonempty bitmask (a float) or each of an array of them."""
    mass = set_mass(masks, pi)
    if (mass == 0.0).any():
        raise InputError("Z is undefined at the empty set")
    # the complement mass can round to -1 ulp when pi sums to just above 1
    sharp = np.where(mass <= 0.5, mass, np.maximum(1.0 - mass, 0.0))
    z = np.sqrt(sharp) / mass
    return float(z) if z.ndim == 0 else z


@dataclass(frozen=True)
class SetLaw:
    """Exact one-step law: distinct subsets with positive probabilities."""

    entries: tuple[tuple[int, float], ...]

    def mean_mass(self, pi: np.ndarray) -> float:
        sets, probs = zip(*self.entries)
        return sum(p * mass for p, mass in zip(probs, set_mass(np.array(sets), pi).tolist()))


def _ratios(masks, Ks: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """r_y = Q(S, y) / pi(y) for every bitmask of `masks` (an int or an
    array) and every state y, under one kernel, shape (m, m), or each of a
    stack of kernels, shape (k, m, m): shape (n, m) or (k, n, m).

    Each row's Q(S, .) is its own vector-matrix product over the members of
    S, so a row does not depend on the rows or kernels computed with it (the
    rows of one product W @ K can differ from it in the last bits).  A table
    makes the products of its rows with j members as one stack, the kernels
    a leading axis of it; one row makes its product directly, which is
    cheaper than a stack of one."""
    members = mask_members(np.atleast_1d(masks), len(pi))
    if len(members) == 1:
        return (pi[members[0]] @ Ks[..., members[0], :])[..., None, :] / pi
    size = members.sum(axis=1)
    q = np.zeros(Ks.shape[:-2] + members.shape)
    for j in set(size.tolist()) - {0}:
        rows = size == j
        idx = members[rows].nonzero()[1].reshape(-1, j)  # member ids, increasing
        q[..., rows, :] = np.matmul(pi[idx][:, None], Ks[..., idx, :])[..., 0, :]
    return q / pi


def _threshold(masks: np.ndarray, Ks: np.ndarray, pi: np.ndarray):
    """The threshold rule S' = {y : r_y >= U} for a table of sets under one
    kernel or each of a stack of kernels (`_ratios`).

    Returns (gaps, tops), of shape (n, m + 1) or (k, n, m + 1): one row per
    bitmask of `masks` (and kernel), and one column per j in [0, m].  With
    the states sorted by decreasing ratio, S' is the top j states, bitmask
    tops[..., j], with probability gaps[..., j] = r_(j) - r_(j+1), where
    r_(0) = 1 and r_(m+1) = 0.  So j = 0 is the empty set, with probability
    1 - r_max, and tied ratios give gap 0 until the last of the tie, so each
    level set is counted once.
    """
    neg = -_ratios(masks, Ks, pi)
    m = neg.shape[-1]
    # levels[..., j] = -r_(j) for j in [0, m + 1]; negation is exact, so the
    # gaps are the same floats as r_(j) - r_(j+1)
    levels = np.zeros(neg.shape[:-1] + (m + 2,))
    levels[..., 0] = -1.0
    levels[..., 1:-1] = np.sort(neg, axis=-1)
    gaps = levels[..., 1:] - levels[..., :-1]
    if gaps[..., 0].min(initial=0.0) < -1e-12:
        raise InputError(f"ratio Q(S, y) / pi(y) = {-float(levels[..., 1].min())!r} exceeds 1")
    tops = np.zeros(gaps.shape, dtype=np.int64)
    tops[..., 1:] = np.cumsum(_BIT[np.argsort(neg, axis=-1, kind="stable")], axis=-1)
    return gaps, tops


def _mass_ratios(masks: np.ndarray, tops: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """pi(S') / pi(S) for each level set S' (bitmask tops[..., i, j]) of each
    set S (bitmask masks[i]).

    A table reads one vector of every subset mass; one set reads only the
    masses it needs.  Both are `_subset_masses`, so the floats agree."""
    if len(masks) == 1:
        mass = _subset_masses(np.concatenate((masks, tops.ravel())), pi)
        return mass[1:].reshape(tops.shape) / mass[0]
    mass = _subset_masses(np.arange(1 << len(pi)), pi)
    return mass[tops] / mass[masks][:, None]


def _law_table(masks: np.ndarray, Ks: np.ndarray, pi: np.ndarray, doob: bool):
    """One-step set laws of a table of sets under one kernel or each of a
    stack of kernels (`_ratios`): (sets, probs, keep), of shape (n, m + 1)
    or (k, n, m + 1), whose row for bitmask masks[i] (and kernel) is the law
    sets[..., i, :][keep[..., i, :]] with those probs, the empty set first
    and then by decreasing level.

    The Doob law reweights by pi(S') / pi(S) and so never reaches the empty
    set.  Each law must sum to 1."""
    gaps, sets = _threshold(masks, Ks, pi)
    probs = gaps * _mass_ratios(masks, sets, pi) if doob else gaps
    keep = probs > 0.0
    err = abs(np.add.reduce(probs, axis=-1, where=keep) - 1.0)
    if err.max(initial=0.0) > 1e-12:
        raise InputError(f"set law misses 1 by {err.max():.3e}")
    return sets, probs, keep


def _one_law(mask: int, K: np.ndarray, pi: np.ndarray, doob: bool) -> SetLaw:
    sets, probs, _ = _law_table(np.array([mask], dtype=np.int64), K, pi, doob)
    return SetLaw(tuple((s, p) for s, p in zip(sets[0].tolist(), probs[0].tolist())
                        if p > 0.0))


def step_law(mask: int, K: np.ndarray, pi: np.ndarray) -> SetLaw:
    """Exact one-step law of the evolving set from `mask`, a bitmask in
    [0, 2^m): the empty set first, if reached, then the level sets."""
    return _one_law(_check_mask(mask, len(pi), nonempty=False), K, pi, doob=False)


def doob_step_law(mask: int, K: np.ndarray, pi: np.ndarray) -> SetLaw:
    """Doob transform from a nonempty `mask`: reweight by pi(S') / pi(S), so
    the empty set gets mass 0."""
    return _one_law(_check_mask(mask, len(pi), nonempty=True), K, pi, doob=True)


def _psi(masks: np.ndarray, Ks: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """psi_p(S) = 1 - E[sqrt(pi(S') / pi(S))] for a table of nonempty sets
    under one kernel or each of a stack of kernels (`_ratios`): shape (n,)
    or (k, n)."""
    gaps, tops = _threshold(masks, Ks, pi)
    return 1.0 - (gaps * np.sqrt(_mass_ratios(masks, tops, pi))).sum(axis=-1)


def expected_sqrt_ratio(mask: int, K: np.ndarray, pi: np.ndarray) -> float:
    """psi_p(S) = 1 - E[sqrt(pi(S-tilde) / pi(S))] for a nonempty `mask`."""
    return float(_psi(np.array([_check_mask(mask, len(pi), nonempty=True)]), K, pi)[0])


def _distinct_kernels(kernels: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """The distinct kernels (one copy of each set of equal entries) and, for
    each given kernel, the position of its copy among them.

    A kernel object seen before is matched by identity, so a sequence that
    repeats a few kernels compares each object's entries once."""
    uniq: list[np.ndarray] = []
    which = []
    seen: dict[int, tuple[np.ndarray, int]] = {}  # id -> (kernel, position)
    for K in kernels:
        hit = seen.get(id(K))
        if hit is None:
            j = next((i for i, U in enumerate(uniq)
                      if K.shape == U.shape and np.array_equal(K, U)), len(uniq))
            if j == len(uniq):
                uniq.append(K)
            hit = seen[id(K)] = (K, j)  # holding K keeps its id from reuse
        which.append(hit[1])
    return uniq, which


def _check_cap(m: int) -> None:
    if m > SET_LAW_MAX_STATES:
        raise CapabilityError(f"{m} states exceeds the subset-law cap {SET_LAW_MAX_STATES}")


def set_law_table(kernels: Sequence[np.ndarray], pi: np.ndarray,
                  doob: bool = False) -> tuple[list[tuple], list[int]]:
    """One-step set laws (Doob laws if `doob`) of every subset, by bitmask.

    Returns (transitions, which): `transitions[j]` is the one-step transition
    of the j-th distinct kernel as flat (rows, cols, vals) arrays,
    P(next = c | now = r) = v for bitmasks r, c; the rows are every r in
    [0, 2^m), or [1, 2^m) for Doob laws, in increasing order, each with its
    law's entries in `step_law` order.  The i-th given kernel is distinct
    kernel `which[i]`.  One threshold pass makes the tables of every
    distinct kernel.
    """
    _check_cap(len(pi))
    uniq, which = _distinct_kernels(kernels)
    masks = np.arange(int(doob), 1 << len(pi), dtype=np.int64)
    sets, probs, keep = _law_table(masks, np.stack(uniq), pi, doob)
    rows = np.broadcast_to(masks[:, None], keep.shape[1:])
    transitions = [(rows[kept], s[kept], p[kept]) for s, p, kept in zip(sets, probs, keep)]
    return transitions, which


def propagate_set_law(kernels: Sequence[np.ndarray], pi: np.ndarray, s0: int,
                      doob: bool = False,
                      prune: float = PRUNE_EPS) -> tuple[np.ndarray, float]:
    """Exact subset-law propagation from the set `s0` through each kernel in
    turn: (weights, pruned), where weights[k, S] is P(S_k = S), one row per
    step k in [0, len(kernels)] and one column per bitmask S in [0, 2^m),
    and pruned is the total mass of the entries below `prune` after a step,
    set to 0 there and added to the caller's error budget."""
    s0 = _check_mask(s0, len(pi), nonempty=doob)
    transitions, which = set_law_table(kernels, pi, doob)
    weights = np.zeros((len(which) + 1, 1 << len(pi)))
    weights[0, s0] = 1.0
    pruned = 0.0
    for k, j in enumerate(which):
        rows, cols, vals = transitions[j]
        now = weights[k + 1]
        now[:] = np.bincount(cols, weights=weights[k, rows] * vals, minlength=len(now))
        small = now < prune
        pruned += float(now[small].sum())
        now[small] = 0.0
    return weights, pruned


def psi_profile_kernels(kernels: Sequence[np.ndarray], pi: np.ndarray) -> ExpansionProfile:
    """Step profile psi(r) = min over kernels and pi(S) <= r of psi_p(S);
    InputError unless the kernels share the stationary pi (`check_chain`)."""
    pi, kernels = check_chain(pi, kernels)
    return _psi_profile(kernels, pi)


def _psi_profile(kernels: Sequence[np.ndarray], pi: np.ndarray) -> ExpansionProfile:
    """`psi_profile_kernels` of a chain already checked."""
    _check_cap(len(pi))
    # one table per distinct kernel keeps cycled sequences cheap
    Ks = np.stack(_distinct_kernels(kernels)[0])
    return enumerated_profile(pi, lambda masks, _: _psi(masks, Ks, pi).min(axis=0))


def psi_step_count(chain: InhomChain, x: int, eps: float) -> int:
    """Step count from the psi-profile integral: the smallest integer
    n >= integral_{4 pi(x)}^{4/eps} du / (u psi(u)), for eps in (0, 1)."""
    start_mask(x, chain.n_states)
    check_eps(eps)
    profile = _psi_profile(chain.kernels, chain.pi)
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
    at the psi-integral step count, for eps in (0, 1)."""
    pi = chain.pi
    s0 = start_mask(x, chain.n_states)
    if eps is not None:
        check_eps(eps)
    k = len(chain.kernels)
    weights, pruned = propagate_set_law(chain.kernels, pi, s0, doob=True)
    # the Doob process never reaches the empty set, whose Z is undefined;
    # each expectation sums its terms in increasing bitmask order
    z = np.append(0.0, z_statistic(np.arange(1, weights.shape[1]), pi))
    z_exp = np.cumsum(weights * z, axis=1)[:, -1]
    walk_laws = np.zeros((k + 1, chain.n_states))  # law of X_j in row j
    walk_laws[0, x] = 1.0
    for j in range(k):
        walk_laws[j + 1] = walk_laws[j] @ chain.kernel(j)
    chis = chi(walk_laws, pi)
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
