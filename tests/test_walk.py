import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from dynaperc.dynenv import DynParams, EdgeTrajectory, EnvTrajectory, sample_env
from dynaperc.errors import CapabilityError, HorizonError, InputError
from dynaperc.torus import TorusGraph
from dynaperc import dist, walk
from dynaperc.walk import (_MAX_SEGMENT, _Evolver,
                           exact_hitting_profile, exact_quenched_distribution,
                           replay_is_legal, simulate_positions, simulate_walk,
                           step_matrix, window_kernel, quenched_tv_curve)
from helpers import rebuild_hitting_profile


def _env(d=1, n=6, p=0.5, mu=0.25, horizon=100.0, seed=0, init="stationary"):
    g = TorusGraph(d=d, n=n)
    return sample_env(g, DynParams(p=p, mu=mu, horizon=horizon), init=init, seed=seed)


def test_simulate_walk_reproducible_and_legal():
    env = _env(seed=4)
    p1 = simulate_walk(env, 0, 80.0, seed=9)
    p2 = simulate_walk(env, 0, 80.0, seed=9)
    assert np.array_equal(p1.jump_times, p2.jump_times)
    assert np.array_equal(p1.jump_targets, p2.jump_targets)
    assert replay_is_legal(env, p1)
    assert len(p1.jump_times) >= 2
    assert p1.position_at(0.0) == p1.start == 0
    t1 = p1.jump_times[1]  # right-continuous: at a jump instant the walk has moved
    assert p1.position_at(t1) == p1.jump_targets[1]
    assert p1.position_at(np.nextafter(t1, 0.0)) == p1.jump_targets[0]
    assert p1.position_at(80.0) == p1.jump_targets[-1]


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


def test_window_kernel_takes_integer_times():
    env = _env(seed=8)
    K = window_kernel(env, (3, 9)).matrix
    assert K.tobytes() == window_kernel(env, (3.0, 9.0)).matrix.tobytes()


def test_unit_window_diagonal_floor():
    # within one time unit the walker attempts no jump with probability 1/e
    for seed in range(5):
        env = _env(seed=seed, horizon=10.0)
        K = window_kernel(env, (1.0, 2.0)).matrix
        assert np.diag(K).min() >= 1.0 / math.e - 1e-12


def test_block_chain_product():
    # window kernels form a semigroup: the kernels of the blocks [0, 4],
    # [4, 8] and [8, 12] multiply to the kernel of [0, 12]
    env = _env(seed=5, horizon=20.0)
    prod = np.eye(6)
    for a in (0.0, 4.0, 8.0):
        prod = prod @ window_kernel(env, (a, a + 4.0)).matrix
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


_EXACT_ENTRY_POINTS = {
    "exact_quenched_distribution": lambda env: exact_quenched_distribution(env, 0, 4.0),
    "window_kernel": lambda env: window_kernel(env, (0.0, 4.0)),
    "quenched_tv_curve": lambda env: quenched_tv_curve(env, 0, [4.0, 8.0]),
    "exact_hitting_profile": lambda env: exact_hitting_profile(env, np.arange(16) < 8, 8.0),
    "annealed_mixing_time": lambda env: dist.annealed_mixing_time(
        env.graph, env.params, 0, 0.25, 2, seed=0),
    "hitting_time_stats": lambda env: dist.hitting_time_stats(
        env.graph, env.params, np.arange(16) < 8, env_samples=2, seed=0),
}


@pytest.mark.parametrize("entry", sorted(_EXACT_ENTRY_POINTS))
def test_every_exact_entry_point_checks_the_size(entry, monkeypatch):
    # the limit is read when an evolver is built or an ensemble requested,
    # before any matrix exists or any environment is drawn
    env = _env(n=16, horizon=8.0)
    monkeypatch.setattr(walk, "EXACT_STATE_BUDGET", 8)

    def no_work(*args, **kwargs):
        raise AssertionError("work started past the size limit")

    monkeypatch.setattr(walk, "step_matrix", no_work)
    monkeypatch.setattr(walk, "_apply_uniformized", no_work)
    monkeypatch.setattr(dist, "sample_env", no_work)
    with pytest.raises(CapabilityError):
        _EXACT_ENTRY_POINTS[entry](env)


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


def _half_target(g, seed):
    A = np.zeros(g.n_vertices, dtype=bool)
    rng = np.random.default_rng(seed)
    A[rng.choice(g.n_vertices, (g.n_vertices + 1) // 2, replace=False)] = True
    return A


def _hand_env(g, horizon, initial, flips):
    """Environment with the given per-edge initial states and flip times."""
    edges = [EdgeTrajectory(int(s), np.asarray(f, dtype=float))
             for s, f in zip(initial, flips)]
    return EnvTrajectory(g, DynParams(p=0.5, mu=0.25, horizon=horizon), edges,
                         "stationary", None)


def _inside_only_env(g, A, horizon, seed):
    """Edges inside A flip at random times; every other edge stays open."""
    rng = np.random.default_rng(seed)
    inside = A[g.edge_uv].all(axis=1)
    flips = [np.sort(rng.uniform(0.0, horizon, 40)) if inside[e] else []
             for e in range(g.n_edges)]
    return _hand_env(g, horizon, np.ones(g.n_edges), flips)


def _hitting_cases():
    cases = []
    for d, n, mu, T, seed in [(1, 12, 0.125, 400.0, 0), (1, 16, 0.125, 2000.0, 1),
                              (2, 4, 0.25, 300.0, 2), (3, 3, 0.25, 200.0, 3)]:
        g = TorusGraph(d, n)
        env = _env(d=d, n=n, mu=mu, horizon=T, seed=seed)
        cases.append((f"sampled-d{d}-n{n}", env, _half_target(g, seed), T))
    for d, n in [(1, 8), (2, 4)]:
        g = TorusGraph(d, n)
        A = np.arange(g.n_vertices) != 5  # all but one vertex
        cases.append((f"all-but-one-d{d}", _env(d=d, n=n, horizon=150.0, seed=d),
                      A, 150.0))
    g = TorusGraph(1, 10)
    A = np.arange(10) < 6
    cases.append(("inside-only", _inside_only_env(g, A, 300.0, 5), A, 300.0))
    g = TorusGraph(2, 4)
    initial = np.arange(g.n_edges) % 3 != 0
    cases.append(("no-flips", _hand_env(g, 250.0, initial, [[]] * g.n_edges),
                  _half_target(g, 6), 250.0))
    g = TorusGraph(1, 12)
    env = _env(n=12, mu=0.125, horizon=500.0, seed=7)
    A = _half_target(g, 7)
    live = ~A[g.edge_uv].all(axis=1)
    times, eids = env.flip_events(0.0, 500.0)
    t_flip = float(times[live[eids]][20])  # a flip the absorbed evolution runs
    cases.append(("horizon-at-flip", env, A, t_flip))
    # rare flips: one chunk holds stretches longer than _MAX_SEGMENT
    g = TorusGraph(1, 10)
    cases.append(("long-gaps", _env(n=10, mu=0.01, horizon=3000.0, seed=9),
                  _half_target(g, 9), 3000.0))
    # several chunks and flip windows before the early stop
    g = TorusGraph(1, 16)
    cases.append(("many-chunks", _env(n=16, mu=0.125, horizon=20000.0, seed=9),
                  _half_target(g, 9), 20000.0))
    return cases


_HITTING_CASES = _hitting_cases()


@pytest.mark.parametrize("name, env, A, horizon", _HITTING_CASES,
                         ids=[c[0] for c in _HITTING_CASES])
def test_hitting_profile_matches_rebuild_reference(name, env, A, horizon):
    # the free block with in-place flips against the N x N absorbed chain
    # rebuilt after every flip.  Skipped flips merge segments and move the
    # truncation points, so allow 1e-12 relative.  The early stop is tested
    # only at flips that reach the free block: where the rebuild stopped at
    # a flip inside A, the free block runs on to the next one, so there both
    # sides are only known to hold less than the 1e-14 stop threshold.
    expected, censored = exact_hitting_profile(env, A, horizon)
    ref_expected, ref_censored = rebuild_hitting_profile(env, A, horizon)
    assert not expected[A].any() and not censored[A].any()
    assert np.all(np.abs(expected - ref_expected) <= 1e-12 * ref_expected)
    bound = np.where(ref_censored < 1e-14, 1e-14, 1e-15 + 1e-12 * ref_censored)
    assert np.all(np.abs(censored - ref_censored) <= bound)


# (segments, terms) of the absorbed evolver on each hitting case, recorded
# with the evolver that ran one series per segment, flip after flip
_ABSORBED_COUNTS = {
    "sampled-d1-n12": (205, 3634), "sampled-d1-n16": (178, 2855),
    "sampled-d2-n4": (699, 7112), "sampled-d3-n3": (1266, 10219),
    "all-but-one-d1": (9, 223), "all-but-one-d2": (41, 675),
    "inside-only": (10, 745), "no-flips": (8, 614), "horizon-at-flip": (21, 325),
    "long-gaps": (44, 2371), "many-chunks": (629, 10379),
}


@pytest.mark.parametrize("chunk", [1, 7, 128])
@pytest.mark.parametrize("name, env, A, horizon", _HITTING_CASES,
                         ids=[c[0] for c in _HITTING_CASES])
def test_absorbed_counters_pinned(name, env, A, horizon, chunk, monkeypatch):
    # chunks of 7 put most early stops inside a chunk; chunks of 1 run each
    # piece's series on the rows.  Every series stops at the term where it
    # stopped alone, and pieces stacked past the stop are not counted.
    expected, _ = exact_hitting_profile(env, A, horizon)
    monkeypatch.setattr(walk, "_CHUNK", chunk)
    ev = _Evolver(env, 0.0, absorbing=A)
    ev.advance(np.eye(int((~A).sum())), horizon)
    assert (ev.segments, ev.terms) == _ABSORBED_COUNTS[name]
    assert 0.0 <= ev.dropped <= ev.spent
    assert np.all(np.abs(ev.occupation - expected[~A]) <= 1e-12 * expected[~A])


def _case(name):
    return next(c for c in _HITTING_CASES if c[0] == name)


def test_chunk_splits_long_stretches(monkeypatch):
    _, env, A, horizon = _case("long-gaps")
    stacks = []
    series = walk._apply_uniformized

    def spy(mat, P, s, tol, occupation=None):
        stacks.append(s)
        return series(mat, P, s, tol, occupation)

    monkeypatch.setattr(walk, "_apply_uniformized", spy)
    exact_hitting_profile(env, A, horizon)
    # one chunk, stacked past the early stop, holding whole _MAX_SEGMENT pieces
    assert len(stacks) == 1 and len(stacks[0]) > _ABSORBED_COUNTS["long-gaps"][0]
    assert stacks[0].count(_MAX_SEGMENT) >= 2  # whole pieces of longer stretches


def test_hitting_reads_flips_a_window_at_a_time(monkeypatch):
    # a fresh environment: the shared cases' streams have been read to the end
    _, env, A, horizon = _case("many-chunks")
    env = sample_env(env.graph, env.params, seed=env.seed)
    windows = []
    flip_events = type(env).flip_events

    def spy(self, t0, t1):
        windows.append((t0, t1))
        return flip_events(self, t0, t1)

    monkeypatch.setattr(type(env), "flip_events", spy)
    ev = _Evolver(env, 0.0, absorbing=A)
    ev.advance(np.eye(int((~A).sum())), horizon)
    assert ev.segments > 4 * walk._CHUNK
    assert len(windows) > 4
    assert all(b == c for (_, b), (c, _) in zip(windows, windows[1:]))
    # the early stop came long before the horizon, and so did the sorting
    assert env._mark < horizon / 10


def test_hitting_skips_flips_inside_target():
    g = TorusGraph(1, 10)
    A = np.arange(10) < 6
    env = _inside_only_env(g, A, 300.0, 5)
    ev = _Evolver(env, 0.0, absorbing=A)
    ev.advance(np.eye(4), 300.0)
    # no flip reaches the free block: one series per _MAX_SEGMENT piece
    assert ev.segments == math.ceil(300.0 / _MAX_SEGMENT)
    assert ev.terms > ev.segments


@pytest.mark.parametrize("d", range(1, 13))
def test_diagonal_steps_are_reversible(d):
    # step_matrix subtracts the rate once per open edge; adding it back
    # returns each value exactly, so +-rate in place stays on those values
    rate = 1.0 / (2 * d)
    diag = [1.0]
    for _ in range(2 * d):
        diag.append(diag[-1] - rate)
    assert all(diag[k + 1] + rate == diag[k] for k in range(2 * d))


@pytest.mark.parametrize("d, n", [(1, 7), (2, 4), (3, 3)])
def test_in_place_flips_match_fresh_step_matrix(d, n):
    g = TorusGraph(d, n)
    env = _env(d=d, n=n, horizon=10.0, seed=d)
    A = _half_target(g, d)
    free = ~A
    forward = _Evolver(env, 3.0)
    absorbed = _Evolver(env, 3.0, absorbing=A)
    mask = env.open_mask_at(3.0)
    rng = np.random.default_rng(d)
    for e in rng.integers(g.n_edges, size=300):
        mask[e] = not mask[e]
        forward._flip(e)
        absorbed._flip(e)
        fresh = step_matrix(g, mask)
        assert np.array_equal(forward.open_mask, mask)
        assert np.array_equal(forward.P, fresh)
        assert np.array_equal(absorbed.P, fresh[np.ix_(free, free)])


@pytest.mark.parametrize("d, n", [(1, 7), (2, 4), (3, 3)])
def test_in_place_flips_match_fresh_stencil_table(d, n, monkeypatch):
    monkeypatch.setattr(walk, "_STENCIL_MIN_STATES", 1)
    g = TorusGraph(d, n)
    env = _env(d=d, n=n, horizon=10.0, seed=d)
    ev = _Evolver(env, 3.0)
    assert isinstance(ev.P, walk._Stencil)
    rows = np.arange(g.n_vertices)
    mask = env.open_mask_at(3.0)
    rng = np.random.default_rng(d)
    for e in rng.integers(g.n_edges, size=300):
        mask[e] = not mask[e]
        ev._flip(e)
        assert np.array_equal(ev.open_mask, mask)
        assert ev._n_open == mask.sum()
        assert np.array_equal(ev.P.D, step_matrix(g, mask)[rows, ev.P.idx])


def _forward_run(env, grid, window):
    """Outputs of the three forward entry points, and an evolver's counters."""
    outs = (quenched_tv_curve(env, 0, grid), window_kernel(env, window).matrix,
            exact_quenched_distribution(env, 1, grid[-1]))
    ev = _Evolver(env, 0.0)
    vec = np.eye(env.graph.n_vertices)[:1]
    for t in grid:
        vec = ev.advance(vec, float(t))
    return outs, (ev.segments, ev.terms, ev.dropped, ev.spent)


@pytest.mark.parametrize("d, n", [(1, 16), (2, 6), (3, 4)])
def test_stencil_matches_dense_operator(d, n, monkeypatch):
    # window_kernel evolves N rows: on the stencil evolver they run the
    # dense products on the scattered table
    env = sample_env(TorusGraph(d, n), DynParams(0.5, 0.5, 40.0), seed=d)
    grid = np.arange(2.0, 40.0, 2.0)
    dense = _forward_run(env, grid, (1.5, 30.0))
    monkeypatch.setattr(walk, "_STENCIL_MIN_STATES", 1)
    stencil = _forward_run(env, grid, (1.5, 30.0))
    for a, b in zip(dense[0], stencil[0]):
        assert np.abs(a - b).max() <= 1e-14
    assert stencil[1] == dense[1]  # same series: segments, terms, dropped, spent


def test_stencil_at_torus_scale(monkeypatch):
    # the d=2, n=16 mixing cell: 256 states, past the crossover
    g = TorusGraph(2, 16)
    env = sample_env(g, DynParams(0.5, 0.5, 90.0), seed=5)
    grid = np.arange(2.0, 90.0, 2.0)
    ev = _Evolver(env, 0.0)
    assert isinstance(ev.P, walk._Stencil)
    vec = np.eye(g.n_vertices)[:1]
    tvs = []
    for t in grid:
        vec = ev.advance(vec, float(t))
        tvs.append(0.5 * np.abs(vec[0] - 1.0 / g.n_vertices).sum())
    assert ev.segments > 10000
    assert 0.0 < ev.dropped <= ev.tol_total
    monkeypatch.setattr(walk, "_STENCIL_MIN_STATES", g.n_vertices + 1)
    assert np.abs(np.array(tvs) - quenched_tv_curve(env, 0, grid)).max() <= 1e-14


def test_dropped_mass_reported_past_the_allowance():
    # 1e-13 over ~1000 segments: the 1e-15 floor hands out more allowance
    # than tol_total, and the mass actually cut is reported beside it
    env = _env(n=8, mu=0.5, horizon=600.0, seed=11)
    ev = _Evolver(env, 0.0, tol_total=1e-13)
    ev.advance(np.eye(8), 600.0)
    assert ev.segments > 1000
    assert ev.spent > ev.tol_total
    assert 0.0 < ev.dropped <= ev.spent


# (d, n, mu, seed) -> sha256 of quenched_tv_curve, window_kernel and
# exact_quenched_distribution outputs, recorded with the evolver that rebuilt
# P after every flip (OpenBLAS on x86-64); they pin the forward path
_FORWARD_HASHES = [
    ((1, 8, 0.25, 0),
     ("1c61876e4155e21b96aeb9e1e6b49590c1517afd89819324ecf21dbad3da7d0f",
      "7813c46f48d17c70ee4872eff85ae2a2195400e12ea760497cbb63158c2cd2ed",
      "e05fcf83a6a764a01dfa0dec6e0837d57ea5a31b23324a8ce5a6d713880b8d55")),
    ((1, 16, 0.125, 1),
     ("f531ab338422dc810bf7ac7475a170205c2366cd3a28d436a1349ad0fd006888",
      "0e60fbdd842df4dff4392e391903bf32dc1e90492f0f5d888eed92afd98ab5a8",
      "fe3bc2196785a7e591af982ce7c968f4e6732b39b5693e34d5b56b1f6abc72b9")),
    ((2, 4, 0.5, 2),
     ("51007e29292b8a0f62faf0730be749bfe1f05fab6f5c0ddd77ed8b70d06f8bca",
      "dbac85e2c56e63db3518500d510c8939c9c3f71993c33a6fe604ea776ff8236d",
      "f8b9e965578957a607e5e7178a6ba097b9ca075a37c1b18fa55f9249b8a190d3")),
    ((3, 3, 0.25, 3),
     ("74aec68c9105d6b9e2b502176c64c361684b4636f9df9850f0940dc4efd8b94a",
      "2563ee8787937d68315cd0ae6b429c7247c866d30c7d21dd8af02f52c8cce2fb",
      "5079d1dcb929c4a34fd4133919be6107c600e6ac04e57a33de0bd24ca679646a")),
]


@pytest.mark.parametrize("case, digests", _FORWARD_HASHES,
                         ids=[str(i) for i in range(len(_FORWARD_HASHES))])
def test_forward_outputs_pinned(case, digests):
    d, n, mu, seed = case
    env = sample_env(TorusGraph(d, n), DynParams(0.5, mu, 60.0), seed=seed)
    outs = (quenched_tv_curve(env, 0, np.arange(2.0, 60.0, 2.0)),
            window_kernel(env, (1.5, 40.0)).matrix,
            exact_quenched_distribution(env, 1, 60.0))
    assert tuple(hashlib.sha256(o.tobytes()).hexdigest() for o in outs) == digests
