import math

import numpy as np
import pytest
from scipy.linalg import expm

from dynaperc.dynenv import DynParams, EdgeTrajectory, EnvTrajectory, sample_env
from dynaperc.errors import CapabilityError, HorizonError, InputError
from dynaperc.torus import TorusGraph
from dynaperc.walk import (WalkKernel, block_chain, exact_hitting_profile,
                           exact_quenched_distribution, replay_is_legal,
                           simulate_positions, simulate_walk, step_matrix,
                           window_kernel, quenched_tv_curve)


def _env(d=1, n=6, p=0.5, mu=0.25, horizon=100.0, seed=0, init="stationary"):
    g = TorusGraph(d=d, n=n)
    return sample_env(g, DynParams(p=p, mu=mu, horizon=horizon), init=init, seed=seed)


def test_simulate_walk_reproducible_and_legal():
    env = _env(seed=4)
    p1 = simulate_walk(env, 0, 80.0, seed=9, query_times=[10.0, 50.0])
    p2 = simulate_walk(env, 0, 80.0, seed=9)
    assert np.array_equal(p1.jump_times, p2.jump_times)
    assert np.array_equal(p1.jump_targets, p2.jump_targets)
    assert replay_is_legal(env, p1)
    assert p1.position_at(10.0) == p1.query_positions[0]


def test_simulate_walk_horizon():
    env = _env(horizon=5.0)
    with pytest.raises(HorizonError):
        simulate_walk(env, 0, 6.0, seed=0)


def test_step_matrix_structure():
    g = TorusGraph(d=1, n=4)
    P = step_matrix(g, np.ones(g.n_edges, dtype=bool))
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.allclose(P, P.T)  # symmetric: uniform is reversible
    assert np.allclose(np.diag(P), 0.0)  # d=1: both attempts always succeed
    P0 = step_matrix(g, np.zeros(g.n_edges, dtype=bool))
    assert np.array_equal(P0, np.eye(4))
    one = np.zeros(g.n_edges, dtype=bool)
    one[0] = True  # only edge 0-1 open: its endpoints keep probability 1/2
    P1 = step_matrix(g, one)
    assert P1[0, 1] == 0.5 and P1[0, 0] == 0.5 and P1[2, 2] == 1.0


def test_exact_distribution_matches_generator_exponential():
    # p = 1 from all-open has no flips: the law is expm(t(P - I)) exactly
    env = _env(n=5, p=1.0, mu=0.25, init="all-open", seed=0)
    t = 7.0
    law = exact_quenched_distribution(env, 2, t)
    P = step_matrix(env.graph, np.ones(env.graph.n_edges, dtype=bool))
    ref = expm(t * (P - np.eye(5)))[2]
    assert np.abs(law - ref).max() < 1e-9


def test_exact_distribution_is_distribution():
    env = _env(d=2, n=4, seed=3)
    law = exact_quenched_distribution(env, 0, 40.0)
    assert law.min() >= -1e-12
    assert law.sum() == pytest.approx(1.0, abs=1e-9)


def test_exact_vs_monte_carlo():
    env = _env(n=6, seed=12, horizon=30.0)
    t = 12.0
    law = exact_quenched_distribution(env, 0, t)
    pos = simulate_positions(env, 0, t, 20000, seed=99)
    emp = np.bincount(pos, minlength=6) / len(pos)
    assert 0.5 * np.abs(emp - law).sum() < 0.02


def test_window_kernel_doubly_stochastic():
    env = _env(d=2, n=4, seed=6)
    K = window_kernel(env, (3.0, 9.0))
    assert np.abs(K.matrix.sum(axis=0) - 1.0).max() < 1e-10
    assert np.abs(K.matrix.sum(axis=1) - 1.0).max() < 1e-10


def test_window_kernel_composes():
    env = _env(seed=8)
    K1 = window_kernel(env, (0.0, 5.0)).matrix
    K2 = window_kernel(env, (5.0, 12.0)).matrix
    K12 = window_kernel(env, (0.0, 12.0)).matrix
    assert np.abs(K1 @ K2 - K12).max() < 1e-9


def test_half_lazy_kernel():
    env = _env(seed=2)
    plain = window_kernel(env, (0.0, 4.0)).matrix
    lazy = window_kernel(env, (0.0, 4.0), laziness="half-lazy").matrix
    assert np.allclose(lazy, 0.5 * (plain + np.eye(6)))
    with pytest.raises(InputError):
        WalkKernel(window=(0.0, 1.0), matrix=plain, laziness="bogus")


def test_unit_window_diagonal_floor():
    # within one time unit the walker attempts no jump with probability 1/e
    for seed in range(5):
        env = _env(seed=seed, horizon=10.0)
        K = window_kernel(env, (1.0, 2.0)).matrix
        assert np.diag(K).min() >= 1.0 / math.e - 1e-12


def test_block_chain_product():
    env = _env(seed=5, horizon=20.0)
    blocks = block_chain(env, 4.0)
    assert len(blocks) == 5
    prod = np.eye(6)
    for B in blocks[:3]:
        prod = prod @ B.matrix
    direct = window_kernel(env, (0.0, 12.0)).matrix
    assert np.abs(prod - direct).max() < 1e-9


def test_quenched_tv_curve_monotone_and_stop():
    env = _env(seed=10, horizon=400.0)
    grid = np.arange(4.0, 400.0, 4.0)
    tvs = quenched_tv_curve(env, 0, grid)
    assert np.all(np.diff(tvs) <= 1e-8)
    stopped = quenched_tv_curve(env, 0, grid, stop_below=0.25)
    k = np.nonzero(stopped <= 0.25)[0][0]
    assert np.isnan(stopped[k + 1:]).all()
    assert np.allclose(stopped[:k + 1], tvs[:k + 1])


def test_exact_budget():
    g = TorusGraph(d=2, n=80)
    env = sample_env(g, DynParams(p=0.5, mu=0.25, horizon=1.0), seed=0)
    with pytest.raises(CapabilityError):
        exact_quenched_distribution(env, 0, 0.5)


def test_hitting_profile_static_triangle():
    # p = 1, all open: the static n-cycle (the triangle and two longer ones),
    # where a rate-1 walk from k hits 0 after k(n - k) jumps on average
    for n in (3, 5, 8):
        env = _env(n=n, p=1.0, mu=0.25, init="all-open", seed=0, horizon=400.0)
        A = np.arange(n) == 0
        expected, censored = exact_hitting_profile(env, A, 400.0)
        k = np.arange(n)
        assert expected[0] == 0.0 and censored[0] == 0.0
        assert np.abs(expected - k * (n - k)).max() < 1e-10
        assert censored.max() < 1e-10


def test_hitting_profile_frozen_walker_accrues_time():
    # every edge closed and never flipping: no start off A is ever absorbed
    g = TorusGraph(d=1, n=6)
    edges = [EdgeTrajectory(0, np.empty(0)) for _ in range(g.n_edges)]
    env = EnvTrajectory(g, DynParams(p=0.5, mu=0.25, horizon=70.0), edges,
                        "all-closed", None)
    A = np.arange(6) < 3
    expected, censored = exact_hitting_profile(env, A, 70.0)
    assert np.abs(expected[~A] - 70.0).max() < 1e-8
    assert np.abs(censored[~A] - 1.0).max() < 1e-10
    assert not expected[A].any() and not censored[A].any()


def test_hitting_profile_rejects_mask_of_wrong_length():
    env = _env(n=6, horizon=5.0)
    with pytest.raises(InputError):
        exact_hitting_profile(env, np.zeros(5, dtype=bool), 1.0)


def test_hitting_profile_matches_monte_carlo():
    env = _env(n=6, seed=21, horizon=600.0)
    A = np.zeros(6, dtype=bool)
    A[[0, 3]] = True
    expected, censored = exact_hitting_profile(env, A, 600.0)
    assert censored.max() < 1e-8
    rng_seeds = range(1500)
    samples = []
    for s in rng_seeds:
        path = simulate_walk(env, 1, 600.0, seed=3000 + s)
        hit = 600.0
        if path.start in (0, 3):
            hit = 0.0
        else:
            for t, v in zip(path.jump_times, path.jump_targets):
                if v in (0, 3):
                    hit = t
                    break
        samples.append(hit)
    mc = float(np.mean(samples))
    se = float(np.std(samples) / math.sqrt(len(samples)))
    assert abs(mc - expected[1]) < 4 * se + 1e-6
