import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dynaperc.dynenv import DynParams, sample_env
from dynaperc.errors import CapabilityError, HorizonError, InputError
from dynaperc.torus import TorusGraph
from dynaperc import dist, walk
from dynaperc.walk import (_MAX_SEGMENT, WalkPath, _Evolver,
                           exact_hitting_profile, exact_quenched_distribution,
                           replay_is_legal, simulate_walks,
                           window_kernel, quenched_tv_curve)
from helpers import (make_env, rebuild_forward, rebuild_hitting_profile,
                     rebuild_neighbour_table, rebuild_step_matrix,
                     scalar_poisson_weights)


def _env(d=1, n=6, p=0.5, mu=0.25, horizon=100.0, seed=0, init="stationary"):
    g = TorusGraph(d=d, n=n)
    return sample_env(g, DynParams(p=p, mu=mu, horizon=horizon), init=init, seed=seed)


def test_simulate_walk_reproducible_and_legal():
    env = _env(seed=4)
    paths = simulate_walks(env, 0, 80.0, 3, seed=9)
    for p1, p2 in zip(paths, simulate_walks(env, 0, 80.0, 3, seed=9)):
        assert np.array_equal(p1.jump_times, p2.jump_times)
        assert np.array_equal(p1.jump_targets, p2.jump_targets)
        assert replay_is_legal(env, p1)
    p1 = paths[0]
    assert len(p1.jump_times) >= 2
    assert p1.position_at(0.0) == p1.start == 0
    t1 = p1.jump_times[1]  # right-continuous: at a jump instant the walk has moved
    assert p1.position_at(t1) == p1.jump_targets[1]
    assert p1.position_at(np.nextafter(t1, 0.0)) == p1.jump_targets[0]
    assert p1.position_at(80.0) == p1.jump_targets[-1]


def test_replay_checks_every_jump():
    # on the 6-cycle, edge 0 (vertices 0 and 1) is closed and every other
    # edge open, with no flips
    g = TorusGraph(1, 6)
    env = make_env(g, DynParams(p=0.5, mu=0.25, horizon=10.0), [0, 1, 1, 1, 1, 1], [[]] * 6)

    def path(times, targets):
        return WalkPath(0, np.array(times, dtype=float), np.array(targets, dtype=np.int64))

    assert replay_is_legal(env, path([], []))
    assert replay_is_legal(env, path([1.0, 2.0, 10.0], [5, 4, 5]))
    assert replay_is_legal(env, path([1.0, 2.0], [5, 0]))
    assert not replay_is_legal(env, path([1.0, 2.0, 3.0], [5, 0, 1]))  # edge 0 is closed
    assert not replay_is_legal(env, path([1.0], [3]))  # not a neighbour
    assert not replay_is_legal(env, path([1.0], [6]))  # off the torus
    with pytest.raises(HorizonError):
        replay_is_legal(env, path([1.0, 10.5], [5, 4]))


_BAD_WALKS = {
    "horizon -5": (0, -5.0, 1, HorizonError),
    "horizon past T": (0, 6.0, 1, HorizonError),
    "horizon nan": (0, math.nan, 1, HorizonError),
    "no walkers": (0, 1.0, 0, InputError),
    "-3 walkers": (0, 1.0, -3, InputError),
    "2.5 walkers": (0, 1.0, 2.5, InputError),
    "start -1": (-1, 1.0, 1, InputError),
    "start 1.5": (1.5, 1.0, 1, InputError),
    "start off the torus": (6, 1.0, 1, InputError),
}


@pytest.mark.parametrize("x0, horizon, n_walkers, error", _BAD_WALKS.values(),
                         ids=list(_BAD_WALKS))
def test_simulate_walks_refuses_bad_input(x0, horizon, n_walkers, error, monkeypatch):
    env = _env(horizon=5.0)

    def no_draw(*args):
        raise AssertionError("walkers drawn for a refused input")

    monkeypatch.setattr(walk, "_attempted_jumps", no_draw)
    with pytest.raises(error):
        simulate_walks(env, x0, horizon, n_walkers, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 63], ids=["-1", "1.5", "2**63"])
def test_simulate_walks_refuses_bad_seeds(seed, monkeypatch):
    # -1 raised numpy's ValueError and 1.5 its TypeError
    monkeypatch.setattr(walk, "_attempted_jumps", None)
    with pytest.raises(InputError):
        simulate_walks(_env(horizon=5.0), 0, 1.0, 1, seed=seed)


# (d, n, p, mu, T, env seed), start, walk horizon, walk seed -> sha256 of a
# walk's jump times and targets, recorded with the loop over single attempts
# that one walker of the batched engine replaces
_WALK_HASHES = [
    ((1, 6, 0.5, 0.25, 100.0, 4), 0, 80.0, 9,
     "916208c10fead1564e25f005eb9509f3c53b61018e7cf81a8ba1c4e9284e0ed9"),
    ((2, 4, 0.5, 0.25, 100.0, 3), 5, 100.0, 17,
     "7fd5bdb3e50fb4145a3a6b4d58227b1e754f09b57c0bbec1dcd741a23dcd2c7d"),
    ((1, 16, 0.4, 0.125, 300.0, 1), 3, 250.0, 0,
     "10ab769f623c6c2c854721cc8508701f71fda7c23314ef87b01f432275069f05"),
]


@pytest.mark.parametrize("case, x0, horizon, seed, digest", _WALK_HASHES,
                         ids=[str(i) for i in range(len(_WALK_HASHES))])
def test_one_walker_pinned(case, x0, horizon, seed, digest):
    d, n, p, mu, T, env_seed = case
    env = sample_env(TorusGraph(d, n), DynParams(p, mu, T), seed=env_seed)
    (path,) = simulate_walks(env, x0, horizon, 1, seed=seed)
    got = hashlib.sha256(path.jump_times.tobytes() + path.jump_targets.tobytes())
    assert got.hexdigest() == digest


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
    t = 12.0
    for d, n in [(1, 6), (2, 4)]:
        env = _env(d=d, n=n, seed=12, horizon=30.0)
        law = exact_quenched_distribution(env, 0, t)
        pos = [path.position_at(t) for path in simulate_walks(env, 0, t, 20000, seed=99)]
        emp = np.bincount(pos, minlength=len(law)) / len(pos)
        assert 0.5 * np.abs(emp - law).sum() < 0.02, (d, n)


def test_window_kernel_doubly_stochastic():
    env = _env(d=2, n=4, seed=6)
    K = window_kernel(env, (3.0, 9.0))
    assert np.abs(K.sum(axis=0) - 1.0).max() < 1e-10
    assert np.abs(K.sum(axis=1) - 1.0).max() < 1e-10


def test_window_kernel_composes():
    env = _env(seed=8)
    K1 = window_kernel(env, (0.0, 5.0))
    K2 = window_kernel(env, (5.0, 12.0))
    K12 = window_kernel(env, (0.0, 12.0))
    assert np.abs(K1 @ K2 - K12).max() < 1e-9


def test_window_kernel_takes_integer_times():
    env = _env(seed=8)
    K = window_kernel(env, (3, 9))
    assert K.tobytes() == window_kernel(env, (3.0, 9.0)).tobytes()


def test_unit_window_diagonal_floor():
    # within one time unit the walker attempts no jump with probability 1/e
    for seed in range(5):
        env = _env(seed=seed, horizon=10.0)
        K = window_kernel(env, (1.0, 2.0))
        assert np.diag(K).min() >= 1.0 / math.e - 1e-12


def test_block_chain_product():
    # window kernels form a semigroup: the kernels of the blocks [0, 4],
    # [4, 8] and [8, 12] multiply to the kernel of [0, 12]
    env = _env(seed=5, horizon=20.0)
    prod = np.eye(6)
    for a in (0.0, 4.0, 8.0):
        prod = prod @ window_kernel(env, (a, a + 4.0))
    direct = window_kernel(env, (0.0, 12.0))
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


def test_quenched_laws_check_the_grid_first(monkeypatch):
    # a 2-d grid gave numpy's bare ValueError, a negative time "cannot
    # evolve backwards", and a decreasing grid that error after its first
    # law; all are refused before an evolver is built
    env = _env(horizon=10.0)

    def no_work(*args, **kwargs):
        raise AssertionError("evolution started on a refused grid")

    monkeypatch.setattr(walk, "_Evolver", no_work)
    with pytest.raises(InputError):
        quenched_tv_curve(env, 0, [[1.0, 2.0]])
    with pytest.raises(HorizonError):
        quenched_tv_curve(env, 0, [-1.0, 2.0])
    with pytest.raises(InputError):
        quenched_tv_curve(env, 0, [2.0, 1.0])
    with pytest.raises(HorizonError):
        exact_quenched_distribution(env, 0, -0.5)


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
    env = make_env(g, DynParams(p=0.5, mu=0.25, horizon=70.0), [0] * 6, [[]] * 6)
    A = np.arange(6) < 3
    expected, censored = exact_hitting_profile(env, A, 70.0)
    assert np.abs(expected[~A] - 70.0).max() < 1e-8
    assert np.abs(censored[~A] - 1.0).max() < 1e-10
    assert not expected[A].any() and not censored[A].any()


@pytest.mark.parametrize("horizon", [math.nan, -1.0, 5.5], ids=["nan", "-1", "past T"])
def test_hitting_profile_refuses_horizon_outside_0_T(horizon):
    # NaN gave all-zero expected times with censored mass 1
    env = _env(n=8, horizon=5.0)
    with pytest.raises(HorizonError):
        exact_hitting_profile(env, np.arange(8) < 4, horizon)


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
    samples = []
    for path in simulate_walks(env, 1, 600.0, 1500, seed=3000):
        hits = np.flatnonzero(A[path.jump_targets])  # the start, 1, is off A
        samples.append(path.jump_times[hits[0]] if len(hits) else 600.0)
    mc = float(np.mean(samples))
    se = float(np.std(samples) / math.sqrt(len(samples)))
    assert abs(mc - expected[1]) < 4 * se + 1e-6


def _half_target(g, seed):
    A = np.zeros(g.n_vertices, dtype=bool)
    rng = np.random.default_rng(seed)
    A[rng.choice(g.n_vertices, (g.n_vertices + 1) // 2, replace=False)] = True
    return A


def _inside_only_env(g, A, horizon, seed):
    """Edges inside A flip at random times; every other edge stays open."""
    rng = np.random.default_rng(seed)
    inside = A[g.edge_uv].all(axis=1)
    flips = [np.sort(rng.uniform(0.0, horizon, 40)) if inside[e] else []
             for e in range(g.n_edges)]
    return make_env(g, DynParams(p=0.5, mu=0.25, horizon=horizon), np.ones(g.n_edges), flips)


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
    cases.append(("no-flips", make_env(g, DynParams(p=0.5, mu=0.25, horizon=250.0), initial,
                                       [[]] * g.n_edges),
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
# with every series stopping at the one 1e-15 tail, once each profile
# matched `rebuild_hitting_profile` on that tail
_ABSORBED_COUNTS = {
    "sampled-d1-n12": (205, 4013), "sampled-d1-n16": (178, 3015),
    "sampled-d2-n4": (699, 7721), "sampled-d3-n3": (1266, 10969),
    "all-but-one-d1": (9, 250), "all-but-one-d2": (41, 760),
    "inside-only": (10, 823), "no-flips": (8, 678), "horizon-at-flip": (21, 377),
    "long-gaps": (44, 2538), "many-chunks": (629, 10478),
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
    assert 0.0 <= ev.dropped <= ev.segments * 1e-15
    assert np.all(np.abs(ev.occupation - expected[~A]) <= 1e-12 * expected[~A])


def _case(name):
    return next(c for c in _HITTING_CASES if c[0] == name)


def test_chunk_splits_long_stretches(monkeypatch):
    _, env, A, horizon = _case("long-gaps")
    stacks = []
    series = _Evolver._chunk_series

    def spy(self, blocks, lengths):
        stacks.append(lengths)
        return series(self, blocks, lengths)

    monkeypatch.setattr(_Evolver, "_chunk_series", spy)
    exact_hitting_profile(env, A, horizon)
    # one chunk, stacked past the early stop, holding whole _MAX_SEGMENT pieces
    assert len(stacks) == 1 and len(stacks[0]) > _ABSORBED_COUNTS["long-gaps"][0]
    assert stacks[0].count(_MAX_SEGMENT) >= 2  # whole pieces of longer stretches


@given(st.lists(st.floats(0.0, _MAX_SEGMENT), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_poisson_table_is_the_scalar_recurrence(lengths):
    # every row bit for bit: its weights, its term count and its dropped mass
    lengths = lengths + [0.0, _MAX_SEGMENT, 19.69, 23.020593414678842]
    W, K, dropped = walk._poisson_table(lengths)
    assert W.flags.c_contiguous
    for i, h in enumerate(lengths):
        ws, k, d = scalar_poisson_weights(h)
        assert (K[i], dropped[i]) == (k, d)
        assert np.array_equal(W[i, :k + 1], ws)


def test_stuck_sums_stop_at_the_first_idle_term():
    # both sums stick just under 1 - 1e-15; their weights underflow only at
    # 373 and 392 terms
    _, K, dropped = walk._poisson_table([19.69, 23.020593414678842])
    assert K.tolist() == [67, 74]
    assert np.all((1e-15 < dropped) & (dropped < 1.2e-15))


@pytest.mark.parametrize("d, n", [(1, 10), (2, 4)])
def test_chunk_series_matches_lone_series(d, n):
    # one Horner pass over a stack against each piece's series on the
    # identity, its occupation summed alongside; lengths from a near-empty
    # piece to a whole _MAX_SEGMENT one and a stuck sum
    g = TorusGraph(d, n)
    env = _env(d=d, n=n, horizon=10.0, seed=d)
    ev = _Evolver(env, 3.0, absorbing=_half_target(g, d))
    k = int((~ev.absorbing).sum())
    rng = np.random.default_rng(d)
    lengths = [1e-9, 0.3, 2.5, 9.0, 23.020593414678842, _MAX_SEGMENT, 0.05]
    for h in lengths:
        ev._push(np.eye(k), h, at_flip=False)
        for e in rng.integers(g.n_edges, size=3):
            ev._flip(e)
    blocks = ev._stack[:len(lengths)]
    A, K, dropped = ev._chunk_series(blocks, lengths)
    W, K_table, dropped_table = walk._poisson_table(lengths)
    assert (K, dropped) == (K_table.tolist(), dropped_table.tolist())
    for r, block in enumerate(blocks):
        J = np.zeros(k)
        E = walk._apply_uniformized(np.eye(k), block, W[r, :K[r] + 1], J)
        assert np.abs(A[r, :k, :k] - E).max() <= 1e-14
        assert np.abs(A[r, :k, k] - J).max() <= 1e-14 * J.max()
        assert np.array_equal(A[r, k], np.eye(k + 1)[k])


@pytest.mark.parametrize("name", ["sampled-d2-n4", "sampled-d3-n3", "long-gaps", "many-chunks"])
def test_tree_chaining_stops_at_the_sequential_flip(name, monkeypatch):
    # each chunk's product tree against chaining its pieces one by one from
    # the same state: the same end and, where the mass fell below 1e-14 at a
    # flip inside the chunk, the same stopping flip and count
    _, env, A, horizon = _case(name)
    chunks = []
    run_chunk = _Evolver._run_chunk

    def spy(self, mat):
        m = len(self._lengths)
        before = (mat.copy(), self.occupation.copy(), list(self._lengths),
                  list(self._at_flip), self._stack[:m].copy(), self.segments)
        out, stopped = run_chunk(self, mat)
        chunks.append((before, out.copy(), self.occupation.copy(), stopped, self.segments))
        return out, stopped

    monkeypatch.setattr(_Evolver, "_run_chunk", spy)
    ev = _Evolver(env, 0.0, absorbing=A)
    ev.advance(np.eye(int((~A).sum())), horizon)
    inside = 0
    for (mat, occ, lengths, at_flip, blocks, counted), out, occ_out, stopped, now in chunks:
        if len(lengths) < 2:
            continue
        pieces, _, _ = ev._chunk_series(blocks, lengths)
        state = np.column_stack((mat, occ))
        ran, hit = len(lengths), False
        for i, piece in enumerate(pieces):
            state = state @ piece
            if at_flip[i] and state[:, :-1].sum(axis=1).max() < 1e-14:
                ran, hit = i + 1, True
                break
        assert (stopped, now - counted) == (hit, ran)
        assert np.abs(out - state[:, :-1]).max() <= 1e-14
        assert np.abs(occ_out - state[:, -1]).max() <= 1e-14 * state[:, -1].max()
        inside += hit and ran < len(lengths)
    assert inside == 1


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


# 2d a power of two at d = 1, 2 and 4, and not at d = 3 and 5
_OPERATOR_SHAPES = [(1, 7), (2, 4), (3, 3), (4, 3), (5, 3)]


@pytest.mark.parametrize("d, n", _OPERATOR_SHAPES)
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
        absorbed._push(rows, 1.0, at_flip=False)
        assert np.array_equal(absorbed._stack[0], fresh[np.ix_(free, free)])


@pytest.mark.parametrize("d, n", _OPERATOR_SHAPES)
def test_in_place_flips_match_fresh_stencil_table(d, n):
    g = TorusGraph(d, n)
    env = _env(d=d, n=n, horizon=10.0, seed=d)
    forward = _Evolver(env, 3.0)
    absorbed = _Evolver(env, 3.0, absorbing=_half_target(g, d))
    mask = env.open_mask_at(3.0)
    rng = np.random.default_rng(d)
    for e in rng.integers(g.n_edges, size=300):
        mask[e] = not mask[e]
        fresh = rebuild_neighbour_table(g, mask)
        for ev in (forward, absorbed):
            ev._flip(e)
            assert np.array_equal(ev.open_mask, mask)
            assert ev._n_open == mask.sum()
            assert np.array_equal(ev.P.nbr, fresh)


@given(st.sampled_from([(1, 7), (2, 4), (3, 3)]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_table_term_matches_step_matrix(shape, seed):
    # one Krylov term, the mean of 2d gathers, against the dense product
    g = TorusGraph(*shape)
    rng = np.random.default_rng(seed)
    mask = rng.random(g.n_edges) < rng.random()
    row = rng.random((1, g.n_vertices))
    term = walk._Stencil(g, mask).series(row, [0.0, 1.0])
    assert np.abs(term - row @ rebuild_step_matrix(g, mask)).max() <= 1e-15


@pytest.mark.parametrize("d, n", _OPERATOR_SHAPES)
def test_table_term_of_a_unit_row_is_a_row_of_step_matrix(d, n):
    # with k of its edges closed, a vertex's term carries P's diagonal,
    # k x 1/(2d), bit for bit: the sum of its k gathers of the unit entry
    g = TorusGraph(d, n)
    unit = np.eye(g.n_vertices)[:1]
    for k in range(2 * d + 1):
        mask = np.ones(g.n_edges, dtype=bool)
        mask[g.incident_edges[0, :k]] = False
        term = walk._Stencil(g, mask).series(unit, [0.0, 1.0])
        assert np.array_equal(term[0], rebuild_step_matrix(g, mask)[0])


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

    def spy(self, mat):
        m = len(self._lengths)
        pieces.extend(zip(self._lengths, self._stack[:m].copy()))
        return run_chunk(self, mat)

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
             (window_kernel(env, window), rebuild_forward(env, eye, a, [b])[0]),
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
    assert 0.0 < ev.dropped <= walk.EXACT_TOL
    # a window kernel's 256 rows on a short window keep the rebuilt
    # reference's dense products affordable
    _assert_forward_matches_rebuild(env, grid, (1.5, 4.0), 20.0)


def test_every_series_stops_at_one_tail():
    # forward laws on a grid, a window kernel and an absorbed run: each
    # series leaves out less than 1e-15, so `dropped` is at most that per
    # series, however few series a run makes
    env = _env(n=8, mu=0.5, horizon=600.0, seed=11)
    A = np.arange(8) < 4
    laws = _Evolver(env, 0.0)
    row = np.eye(8)[:1]
    for t in (0.5, 3.0, 40.0, 600.0):
        row = laws.advance(row, t)
    kernel = _Evolver(env, 2.0)
    kernel.advance(np.eye(8), 9.0)
    absorbed = _Evolver(env, 0.0, absorbing=A)
    absorbed.advance(np.eye(4), 600.0)
    for ev in (laws, kernel, absorbed):
        assert ev.segments > 0
        assert 0.0 < ev.dropped <= ev.segments * 1e-15


# (d, n, mu, seed) -> sha256 of quenched_tv_curve, window_kernel and
# exact_quenched_distribution outputs (OpenBLAS on x86-64); they pin the
# forward path.  They were recorded with every series stopping at the one
# 1e-15 tail, once each output was within 5e-16 of `rebuild_forward` on that
# tail (the window kernels equal to it).  The d = 2 TV curve and law were
# re-recorded when one row started evolving on the neighbour table, at
# 2.8e-16 and 1.4e-16 from `rebuild_forward`.  The three d = 3 outputs were
# re-recorded when P's diagonal became the closed-edge count x 1/(2d) at
# every d: the TV curve at 2.6e-16 and the law at 6.2e-17 from
# `rebuild_forward`, the window kernel equal to it.
_FORWARD_HASHES = [
    ((1, 8, 0.25, 0),
     ("4d6833e24b7201e1da1f849563b4f991cb8e3add6b74a5ed45e3673f4ac7489c",
      "df8bf02a14ecf04aeebd20709266f56054a308a7d8c20bce7399a9903d59d27f",
      "334a35c658f57f94ba68553721795c043bd7d72bc9990514a6c9eec2de42dc87")),
    ((1, 16, 0.125, 1),
     ("2db514c3f95f0b2994900a5c618695606259b23ed37e2174646b4f945e7c1f57",
      "2740569c6f0582e6b1068727d6c3d68c48b9f36fdb05f3d06c16794db4a4ad69",
      "b70913209136ed234ce08acb618209b39e8d6bfccab2dfd6ee234237cdf87bd8")),
    ((2, 4, 0.5, 2),
     ("2cd7d1be803c4decd7f24824619da7a7fd6ea4c60fd31bd2197ebfeb3005cc39",
      "cb93e9eb4f08b9e92e5545276f55911637e700d41436b5c4255bd6ea272280d8",
      "fe0fc9ab94c01624942e498eb4db91060dc679f113b053789a36d538e4456bc4")),
    ((3, 3, 0.25, 3),
     ("1221298cae15776a9d22050651848f8e8a9dbcf2061828ac07c1051ec81bb8c4",
      "ffb05220d70a4c3072840696a0536bd8f60e6e79c0346edb5a323a0d9187bf61",
      "67b4ed669681bd8407941daa6d13de09f13bd8618140d48d9203454c49b97b6e")),
]


@pytest.mark.parametrize("case, digests", _FORWARD_HASHES,
                         ids=[str(i) for i in range(len(_FORWARD_HASHES))])
def test_forward_outputs_pinned(case, digests):
    d, n, mu, seed = case
    env = sample_env(TorusGraph(d, n), DynParams(0.5, mu, 60.0), seed=seed)
    outs = (quenched_tv_curve(env, 0, np.arange(2.0, 60.0, 2.0)),
            window_kernel(env, (1.5, 40.0)),
            exact_quenched_distribution(env, 1, 60.0))
    assert tuple(hashlib.sha256(o.tobytes()).hexdigest() for o in outs) == digests


# (segments, terms, dropped) of the forward evolvers, recorded with the
# float stencil table: per _FORWARD_HASHES case, the TV-curve evolver (grid
# 2, 4, ..., 58) and the window-kernel evolver on [1.5, 40]; and the mix2d
# cell of `test_stencil_at_torus_scale`.  The truncation depends only on
# the segment lengths, so the operator's form leaves them bit for bit.
_FORWARD_COUNTS = {
    (1, 8, 0.25, 0): ((82, 1139, 2.7755575615628914e-14), (36, 578, 1.2323475573339238e-14)),
    (1, 16, 0.125, 1): ((89, 1195, 2.631228568361621e-14), (46, 662, 1.5987211554602254e-14)),
    (2, 4, 0.5, 2): ((531, 4411, 1.1379786002407855e-13), (322, 2716, 7.205347429817266e-14)),
    (3, 3, 0.25, 3): ((608, 4831, 1.4277468096679513e-13), (391, 3135, 9.57012247226885e-14)),
    "mix2d": ((11444, 57070, 1.832423102143821e-12),),
}


def _counters(ev):
    return ev.segments, ev.terms, ev.dropped


@pytest.mark.parametrize("case", list(_FORWARD_COUNTS), ids=str)
def test_forward_counters_pinned(case):
    if case == "mix2d":
        env = sample_env(TorusGraph(2, 16), DynParams(0.5, 0.5, 90.0), seed=5)
        grid = np.arange(2.0, 90.0, 2.0)
    else:
        d, n, mu, seed = case
        env = sample_env(TorusGraph(d, n), DynParams(0.5, mu, 60.0), seed=seed)
        grid = np.arange(2.0, 60.0, 2.0)
    N = env.graph.n_vertices
    tv = _Evolver(env, 0.0)
    row = np.eye(N)[:1]
    for t in grid.tolist():
        row = tv.advance(row, t)
    got = [_counters(tv)]
    if case != "mix2d":
        kernel = _Evolver(env, 1.5)
        kernel.advance(np.eye(N), 40.0)
        got.append(_counters(kernel))
    assert tuple(got) == _FORWARD_COUNTS[case]
