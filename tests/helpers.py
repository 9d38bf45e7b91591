"""Shared generators for the test suite: random reversible kernels and chains."""

import numpy as np


def random_pi(rng, m, floor=0.2):
    pi = rng.random(m) + floor
    return pi / pi.sum()


def random_reversible_kernel(rng, pi, activity=0.4):
    """K(x,y) = c A(x,y) / pi(x) for symmetric A, diagonal filled to row sum 1.

    Reversible w.r.t. pi by construction; `activity` < 1 keeps diagonals
    positive (lazy enough for gamma > 0).
    """
    m = len(pi)
    A = rng.random((m, m))
    A = A + A.T
    c = activity / max((A.sum(axis=1) / pi).max(), 1e-12)
    K = c * A / pi[:, None]
    K[np.diag_indices(m)] += 1.0 - K.sum(axis=1)
    return K


def random_kernels(rng, pi, k, activity=0.4):
    return tuple(random_reversible_kernel(rng, pi, activity) for _ in range(k))


def lazy(K):
    return 0.5 * (K + np.eye(K.shape[0]))


def dict_propagate_set_law(kernels, pi, s0, doob=False, prune=1e-15):
    """Reference for `evoset.propagate_set_law`: the subset law as a dict,
    with one step-law call per (mask, step) and entries below `prune` moved
    into the pruned total after each step."""
    from dynaperc import evoset

    laws = [{s0: 1.0}]
    pruned = 0.0
    current = {s0: 1.0}
    for K in kernels:
        nxt = {}
        for mask, prob in current.items():
            law = evoset.doob_step_law(mask, K, pi) if doob else evoset.step_law(mask, K, pi)
            for s, p in law.entries:
                nxt[s] = nxt.get(s, 0.0) + prob * p
        if prune > 0.0:
            for s in [s for s, p in nxt.items() if p < prune]:
                pruned += nxt.pop(s)
        current = nxt
        laws.append(dict(current))
    return laws, pruned


def dict_doob_z_expectation(chain, x, zeta0, n, number=float):
    """Reference for the joint Doob certificate: E over env paths from zeta0
    of E-hat[Z_n] from {x}, by a dict over (subset, env state) pairs.

    `number=fractions.Fraction` carries the same float inputs through exact
    rational sums instead of float ones."""
    from dynaperc import evoset

    pi = chain.pi
    laws = {}
    weights = {(1 << x, zeta0): number(1)}
    for _ in range(n):
        nxt = {}
        for (mask, z), w in weights.items():
            for z2 in range(chain.n_env):
                rw = chain.R[z, z2]
                if rw == 0.0:
                    continue
                if (mask, z2) not in laws:
                    laws[mask, z2] = evoset.doob_step_law(mask, chain.kernels[z2], pi).entries
                for s, p in laws[mask, z2]:
                    nxt[s, z2] = nxt.get((s, z2), 0) + w * number(rw) * number(p)
        weights = nxt
    return float(sum(w * number(evoset.z_statistic(mask, pi))
                     for (mask, _), w in weights.items()))


def assert_profiles_close(a, b, tol):
    """Two step profiles agree within tol between their knots.

    Knots within 1e-9 of each other count as one: masses summed in another
    order may differ in the last bits, which moves a knot but not a step."""
    knots = np.unique(np.concatenate([a.knots, b.knots, [0.5]]))
    reps = knots[np.append(True, np.diff(knots) > 1e-9)]
    points = (reps[:-1] + reps[1:]) / 2.0
    gap = max(abs(a.value(u) - b.value(u)) for u in points)
    assert gap <= tol, f"profiles differ by {gap:.3e}"
    assert a.provenance == b.provenance and a.pi_star == b.pi_star
