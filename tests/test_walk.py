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
                           window_kernel, quenched_tv_curve)
from helpers import rebuild_forward, rebuild_hitting_profile, rebuild_step_matrix


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
    # the reference operator every exact evolver is checked against
    g = TorusGraph(d=1, n=4)
    P = rebuild_step_matrix(g, np.ones(g.n_edges, dtype=bool))
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.allclose(P, P.T)  # symmetric: uniform is reversible
    assert np.allclose(np.diag(P), 0.0)  # d=1: both attempts always succeed
    P0 = rebuild_step_matrix(g, np.zeros(g.n_edges, dtype=bool))
    assert np.array_equal(P0, np.eye(4))
    one = np.zeros(g.n_edges, dtype=bool)
    one[0] = True  # only edge 0-1 open: its endpoints keep probability 1/2
    P1 = rebuild_step_matrix(g, one)
    assert P1[0, 1] == 0.5 and P1[0, 0] == 0.5 and P1[2, 2] == 1.0


def test_exact_distribution_matches_generator_exponential():
    # p = 1 from all-open has no flips: the law is expm(t(P - I)) exactly
    env = _env(n=5, p=1.0, mu=0.25, init="all-open", seed=0)
    t = 7.0
    law = exact_quenched_distribution(env, 2, t)
    P = rebuild_step_matrix(env.graph, np.ones(env.graph.n_edges, dtype=bool))
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

    monkeypatch.setattr(walk, "_Stencil", no_work)
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
    # a fresh operator subtracts the rate once per open edge; adding it back
    # returns each value exactly, so +-rate in place stays on those values
    rate = 1.0 / (2 * d)
    diag = [1.0]
    for _ in range(2 * d):
        diag.append(diag[-1] - rate)
    assert all(diag[k + 1] + rate == diag[k] for k in range(2 * d))


@pytest.mark.parametrize("d, n", [(1, 7), (2, 4), (3, 3)])
def test_in_place_flips_match_fresh_step_matrix(d, n):
    # the operands of the dense products after every flip: a forward
    # evolver's scattered P and the free block an absorbed evolver stacks
    g = TorusGraph(d, n)
    env = _env(d=d, n=n, horizon=10.0, seed=d)
    A = _half_target(g, d)
    free = ~A
    forward = _Evolver(env, 3.0)
    absorbed = _Evolver(env, 3.0, absorbing=A)
    rows = np.eye(int(free.sum()))
    mask = env.open_mask_at(3.0)
    rng = np.random.default_rng(d)
    for e in rng.integers(g.n_edges, size=300):
        mask[e] = not mask[e]
        forward._flip(e)
        absorbed._flip(e)
        fresh = rebuild_step_matrix(g, mask)
        assert np.array_equal(forward.P.matrix(), fresh)
        absorbed._lengths, absorbed._at_flip = [], []  # restack into slot 0
        absorbed._push(rows, 1.0, 1e-10, at_flip=False)
        assert np.array_equal(absorbed._stack[0], fresh[np.ix_(free, free)])


@pytest.mark.parametrize("d, n", [(1, 7), (2, 4), (3, 3)])
def test_in_place_flips_match_fresh_stencil_table(d, n):
    g = TorusGraph(d, n)
    env = _env(d=d, n=n, horizon=10.0, seed=d)
    forward = _Evolver(env, 3.0)
    absorbed = _Evolver(env, 3.0, absorbing=_half_target(g, d))
    rows = np.arange(g.n_vertices)
    mask = env.open_mask_at(3.0)
    rng = np.random.default_rng(d)
    for e in rng.integers(g.n_edges, size=300):
        mask[e] = not mask[e]
        fresh = rebuild_step_matrix(g, mask)[rows, forward.P.idx]
        for ev in (forward, absorbed):
            ev._flip(e)
            assert np.array_equal(ev.open_mask, mask)
            assert ev._n_open == mask.sum()
            assert np.array_equal(ev.P.D, fresh)


@pytest.mark.parametrize("name", ["sampled-d2-n4", "many-chunks"])
def test_stacked_blocks_match_fresh_free_block(name, monkeypatch):
    # every block the absorbed path stacks, over a run of several chunks
    # that reuse their slots, is the free block of P rebuilt for that
    # piece's time, bit for bit: the scatter writes the whole pattern and
    # entries off it stay 0
    _, env, A, horizon = _case(name)
    g = env.graph
    free = ~A
    pieces = []
    run_chunk = _Evolver._run_chunk

    def spy(self, mat, tol):
        m = len(self._lengths)
        pieces.extend(zip(self._lengths, self._stack[:m].copy()))
        return run_chunk(self, mat, tol)

    monkeypatch.setattr(_Evolver, "_run_chunk", spy)
    ev = _Evolver(env, 0.0, absorbing=A)
    ev.advance(np.eye(int(free.sum())), horizon)
    assert len(pieces) > 4 * len(ev._stack)
    t = 0.0
    for h, block in pieces:
        fresh = rebuild_step_matrix(g, env.open_mask_at(t + h / 2))
        assert np.array_equal(block, fresh[np.ix_(free, free)])
        t += h
    # among the flips run, some crossed the boundary of A
    _, eids = env.flip_events(0.0, t)
    assert (A[g.edge_uv[eids]].sum(axis=1) == 1).sum() > 100


def _assert_forward_matches_rebuild(env, grid, window, t_law):
    """The three forward entry points within 1e-14 of `rebuild_forward`."""
    N = env.graph.n_vertices
    eye = np.eye(N)
    ref_tvs = [0.5 * np.abs(row[0] - 1.0 / N).sum()
               for row in rebuild_forward(env, eye[:1], 0.0, grid)]
    a, b = window
    pairs = [(quenched_tv_curve(env, 0, grid), np.array(ref_tvs)),
             (window_kernel(env, window).matrix, rebuild_forward(env, eye, a, [b])[0]),
             (exact_quenched_distribution(env, 1, t_law),
              rebuild_forward(env, eye[1:2], 0.0, [t_law])[0][0])]
    for out, ref in pairs:
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-14


@pytest.mark.parametrize("d, n", [(1, 16), (2, 6), (3, 4)])
def test_stencil_matches_dense_operator(d, n):
    # the dense operator is the reference's, rebuilt after every flip
    env = sample_env(TorusGraph(d, n), DynParams(0.5, 0.5, 40.0), seed=d)
    grid = np.arange(2.0, 40.0, 2.0)
    _assert_forward_matches_rebuild(env, grid, (1.5, 30.0), grid[-1])


def test_stencil_at_torus_scale():
    # the d=2, n=16 mixing cell: 256 states and over 10000 flip segments
    g = TorusGraph(2, 16)
    env = sample_env(g, DynParams(0.5, 0.5, 90.0), seed=5)
    grid = np.arange(2.0, 90.0, 2.0)
    ev = _Evolver(env, 0.0)
    vec = np.eye(g.n_vertices)[:1]
    for t in grid:
        vec = ev.advance(vec, float(t))
    assert ev.segments > 10000
    assert 0.0 < ev.dropped <= ev.tol_total
    # a window kernel's 256 rows on a short window keep the rebuilt
    # reference's dense products affordable
    _assert_forward_matches_rebuild(env, grid, (1.5, 4.0), 20.0)


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
# exact_quenched_distribution outputs (OpenBLAS on x86-64); they pin the
# forward path.  The window-kernel digests were recorded with the evolver
# that rebuilt a dense P after every flip, and the stencil's scattered P
# keeps them.  The TV-curve and law digests were recorded with the one-row
# stencil series, once those outputs were within 6e-16 of `rebuild_forward`.
_FORWARD_HASHES = [
    ((1, 8, 0.25, 0),
     ("b26b3a5bb7daa5ad22a7e6398ed8da03e539e614803c839c46785f46a52efbc3",
      "7813c46f48d17c70ee4872eff85ae2a2195400e12ea760497cbb63158c2cd2ed",
      "f3399f3bb59854e3e3c513f57afe80140a075864daf87029e43bcc302032309a")),
    ((1, 16, 0.125, 1),
     ("b632ef75210ca7e0540a18cab6308930e34b7a89c9979479252c8d1df13387b5",
      "0e60fbdd842df4dff4392e391903bf32dc1e90492f0f5d888eed92afd98ab5a8",
      "4ac8ea68045534d055a50844adbfba77fc5e7f688c82745422828335ac115c60")),
    ((2, 4, 0.5, 2),
     ("a29fa7f9b63225215ccb36e237626204972915f1060f77f4eb16fdbd30b94f92",
      "dbac85e2c56e63db3518500d510c8939c9c3f71993c33a6fe604ea776ff8236d",
      "1f46b2c73aea5874707e9a28492828d91528e8d44fde43c72f448a67ed723e09")),
    ((3, 3, 0.25, 3),
     ("f7db739419452f4f695cbd72c234684813efc3ad27e795ac7bbc7940db574c1b",
      "2563ee8787937d68315cd0ae6b429c7247c866d30c7d21dd8af02f52c8cce2fb",
      "cc206f44a1a5af95ed4dca3606384124f963f85aff599e22eb59e999edc5e610")),
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
