import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaperc import dynenv
from dynaperc.dynenv import (DynParams, EdgeTrajectory, EnvTrajectory,
                             count_open_throughout, edge_transition_prob,
                             isolated_vertex_exists, sample_env)
from dynaperc.errors import HorizonError, InputError
from dynaperc.torus import TorusGraph

from helpers import (dumps_env, edge_closed_throughout, edge_open_throughout,
                     edge_state_at, loads_env, loop_flip_events,
                     loop_open_mask_at, make_env, open_throughout_prob_from_closed,
                     scalar_sample_env, simulate_edge_state_at)


def test_params_validation():
    with pytest.raises(InputError):
        DynParams(p=0.0, mu=0.25, horizon=1.0)
    with pytest.raises(InputError):
        DynParams(p=0.5, mu=0.6, horizon=1.0)  # mu capped at 1/2
    with pytest.raises(InputError):
        DynParams(p=0.5, mu=0.25, horizon=-1.0)
    params = DynParams(p=0.3, mu=0.25, horizon=1.0)
    assert params.rate_open == pytest.approx(0.075)
    assert params.rate_close == pytest.approx(0.175)


def _params(horizon):
    return DynParams(p=0.5, mu=0.25, horizon=horizon)


def test_edge_trajectory_right_continuous():
    # the flip at t has already happened, in the batched query and the reference
    env = make_env(TorusGraph(1, 3), _params(3.0), [0, 1, 1], [[1.0, 2.0], [], []])
    times = [0.0, 1.0, 1.5, 2.0]
    assert env.states_at([0] * 4, times).tolist() == [0, 1, 1, 0]
    assert [edge_state_at(env.edges[0], t) for t in times] == [0, 1, 1, 0]


def test_edge_trajectory_throughout():
    tr = EdgeTrajectory(1, np.array([3.0]))
    assert edge_open_throughout(tr, 0.0, 2.9)
    assert not edge_open_throughout(tr, 0.0, 3.0)
    assert edge_closed_throughout(tr, 3.0, 10.0)


# the flat arrays on the 4-cycle with horizon 10, each with one fault
_GOOD = ([0, 1, 0, 1], [1.0, 2.0, 2.0, 0.0, 10.0], [0, 2, 3, 5, 5])
_BAD_ARRAYS = {
    "state 2": ([2, 1, 0, 1], _GOOD[1], _GOOD[2]),
    "state -1": ([-1, 1, 0, 1], _GOOD[1], _GOOD[2]),
    "three edges": ([0, 1, 0], _GOOD[1], [0, 2, 3, 5]),
    "five edges": ([0, 1, 0, 1, 0], _GOOD[1], [0, 2, 3, 5, 5, 5]),
    "offsets decrease": (_GOOD[0], _GOOD[1], [0, 3, 2, 5, 5]),
    "offsets start past 0": (_GOOD[0], _GOOD[1], [1, 2, 3, 5, 5]),
    "offsets end short": (_GOOD[0], _GOOD[1], [0, 2, 3, 4, 4]),
    "offsets end long": (_GOOD[0], _GOOD[1], [0, 2, 3, 5, 6]),
    "flip at -1": (_GOOD[0], [-1.0, 2.0, 2.0, 0.0, 10.0], _GOOD[2]),
    "flip at 20": (_GOOD[0], [1.0, 2.0, 2.0, 0.0, 20.0], _GOOD[2]),
    "flip nan": (_GOOD[0], [1.0, math.nan, 2.0, 0.0, 10.0], _GOOD[2]),
    "flip nan first": (_GOOD[0], [math.nan, 2.0, 2.0, 0.0, 10.0], _GOOD[2]),
    "equal flips in an edge": (_GOOD[0], [2.0, 2.0, 2.0, 0.0, 10.0], _GOOD[2]),
    "decreasing flips in an edge": (_GOOD[0], [2.0, 1.0, 2.0, 0.0, 10.0], _GOOD[2]),
    "decreasing flips in the last edge": (_GOOD[0], [1.0, 2.0, 2.0, 10.0, 0.0], _GOOD[2]),
}


def _flat(initial, flips, offsets):
    return (np.array(initial, dtype=np.int8), np.array(flips, dtype=np.float64),
            np.array(offsets, dtype=np.int64))


@pytest.mark.parametrize("block", [1, 2, 3, dynenv._BLOCK])
@pytest.mark.parametrize("arrays", _BAD_ARRAYS.values(), ids=list(_BAD_ARRAYS))
def test_constructor_refuses_bad_arrays(arrays, block, monkeypatch):
    # every check holds across the bounded passes over the flips
    monkeypatch.setattr(dynenv, "_BLOCK", block)
    with pytest.raises(InputError):
        EnvTrajectory(TorusGraph(1, 4), _params(10.0), *_flat(*arrays), "explicit", None)


@pytest.mark.parametrize("initial, flips, offsets", [
    (np.zeros(4, dtype=np.int64), np.empty(0), np.zeros(5, dtype=np.int64)),
    (np.zeros(4, dtype=np.int8), np.empty(0, dtype=np.float32), np.zeros(5, dtype=np.int64)),
    (np.zeros(4, dtype=np.int8), np.empty((0, 1)), np.zeros(5, dtype=np.int64)),
    (np.zeros(4, dtype=np.int8), np.empty(0), np.zeros(5, dtype=np.int32)),
], ids=["int64 states", "float32 flips", "2-d flips", "int32 offsets"])
def test_constructor_refuses_wrong_dtypes(initial, flips, offsets):
    with pytest.raises(InputError):
        EnvTrajectory(TorusGraph(1, 4), _params(10.0), initial, flips, offsets,
                      "explicit", None)


def test_constructor_refuses_unknown_init_tag():
    with pytest.raises(InputError):
        EnvTrajectory(TorusGraph(1, 4), _params(10.0), *_flat(*_GOOD), "bogus", None)


@pytest.mark.parametrize("block", [1, 2, 3, dynenv._BLOCK])
def test_constructor_accepts_ties_across_edges_and_flips_at_0_and_T(block, monkeypatch):
    monkeypatch.setattr(dynenv, "_BLOCK", block)
    env = EnvTrajectory(TorusGraph(1, 4), _params(10.0), *_flat(*_GOOD), "explicit", None)
    assert env.open_mask_at(0.0).tolist() == [False, True, True, True]  # a flip at 0
    assert env.open_mask_at(10.0).tolist() == [False, False, False, True]
    empty = EnvTrajectory(TorusGraph(1, 4), _params(0.0), np.ones(4, dtype=np.int8),
                          np.empty(0), np.zeros(5, dtype=np.int64), "all-open", None)
    assert empty.open_mask_at(0.0).all()


def test_sample_env_reproducible():
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=0.4, mu=0.25, horizon=50.0)
    e1 = sample_env(g, params, seed=7)
    e2 = sample_env(g, params, seed=7)
    for a, b in zip(e1.edges, e2.edges):
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.flip_times, b.flip_times)


def test_sample_env_inits():
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=0.4, mu=0.25, horizon=10.0)
    assert not sample_env(g, params, init="all-closed", seed=0).open_mask_at(0.0).any()
    assert sample_env(g, params, init="all-open", seed=0).open_mask_at(0.0).all()
    explicit = sample_env(g, params, init=[1, 0, 1, 0, 1, 0], seed=0)
    assert list(explicit.open_mask_at(0.0)) == [True, False, True, False, True, False]
    # 0.5 and "1" were cast to 0 and 1, and 300 raised OverflowError
    for bad in ([2] * 6, [0] * 5, [0.5] * 6, ["1"] * 6, [300] * 6):
        with pytest.raises(InputError):
            sample_env(g, params, init=bad)


_BAD_QUERIES = {
    "edge -1": ([-1], [1.0], InputError),
    "edge E": ([6], [1.0], InputError),
    "float edge": ([0.0], [1.0], InputError),
    "shapes differ": ([0, 1], [1.0], InputError),
    "time -0.1": ([0], [-0.1], HorizonError),
    "time past T": ([0], [5.5], HorizonError),
    "time nan": ([0], [math.nan], HorizonError),
    "one bad time in a batch": ([0, 1, 2], [1.0, 5.5, 2.0], HorizonError),
}


@pytest.mark.parametrize("edges, times, error", _BAD_QUERIES.values(),
                         ids=list(_BAD_QUERIES))
def test_states_at_refuses_bad_queries(edges, times, error):
    g = TorusGraph(d=1, n=6)
    env = sample_env(g, DynParams(p=0.5, mu=0.25, horizon=5.0), seed=0)
    with pytest.raises(error):
        env.states_at(edges, times)


def test_flip_events_sorted_halfopen():
    g = TorusGraph(d=1, n=8)
    env = sample_env(g, DynParams(p=0.5, mu=0.5, horizon=100.0), seed=3)
    times, eids = env.flip_events(10.0, 60.0)
    assert np.all(np.diff(times) >= 0)
    assert (times > 10.0).all() and (times <= 60.0).all()
    # consistency: replaying the flips reproduces the state at 60
    mask = env.open_mask_at(10.0)
    for e in eids:
        mask[e] = not mask[e]
    assert np.array_equal(mask, env.open_mask_at(60.0))


def test_transition_kernel_rows_and_semigroup():
    K1 = edge_transition_prob(0.3, 0.25, 1.5)
    assert np.allclose(K1.sum(axis=1), 1.0)
    K2 = edge_transition_prob(0.3, 0.25, 2.5)
    K3 = edge_transition_prob(0.3, 0.25, 4.0)
    assert np.allclose(K1 @ K2, K3, atol=1e-14)


@given(p=st.floats(0.05, 1.0), mu=st.floats(0.01, 0.5), t=st.floats(0.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_transition_kernel_limits(p, mu, t):
    K = edge_transition_prob(p, mu, t)
    assert 0.0 <= K[0, 1] <= p + 1e-12
    assert p - 1e-12 <= K[1, 1] <= 1.0
    Kinf = edge_transition_prob(p, mu, 1e9)
    assert Kinf[0, 1] == pytest.approx(p, abs=1e-9)


@pytest.mark.parametrize("p, mu, t", [(0.0, 0.5, 1.0), (2.0, 0.5, 1.0), (math.nan, 0.5, 1.0),
                                      (0.5, 0.0, 1.0), (0.5, -1.0, 1.0), (0.5, math.nan, 1.0),
                                      (0.5, 0.5, -1.0), (0.5, 0.5, math.inf),
                                      (0.5, 0.5, math.nan)])
def test_transition_kernel_refuses_bad_parameters(p, mu, t):
    # p = 2 gave negative probabilities and t = NaN a NaN kernel
    with pytest.raises(InputError):
        edge_transition_prob(p, mu, t)


def test_edge_law_against_trajectory_simulation():
    p, mu, t = 0.6, 0.5, 2.0
    states = simulate_edge_state_at(p, mu, t, 40000, init_state=0, seed=11)
    emp = states.mean()
    q = edge_transition_prob(p, mu, t)[0, 1]
    assert abs(emp - q) < 4 * math.sqrt(q * (1 - q) / 40000)


def test_open_throughout_prob_closed_form():
    # product structure: reach open by a, then survive b - a without closing
    p, mu, a, b = 0.4, 0.25, 2.0, 5.0
    expect = p * (1 - math.exp(-mu * a)) * math.exp(-(1 - p) * mu * (b - a))
    assert open_throughout_prob_from_closed(p, mu, a, b) == pytest.approx(expect)
    assert open_throughout_prob_from_closed(p, mu, 0.0, b) == 0.0


def test_open_throughout_prob_monte_carlo():
    p, mu, a, b = 0.5, 0.5, 1.0, 2.0
    g = TorusGraph(d=1, n=8)
    params = DynParams(p=p, mu=mu, horizon=3.0)
    q = open_throughout_prob_from_closed(p, mu, a, b)
    hits = 0
    trials = 3000
    for i in range(trials):
        env = sample_env(g, params, init="all-closed", seed=1000 + i)
        hits += count_open_throughout(env, range(g.n_edges), a, b)
    emp = hits / (trials * g.n_edges)
    assert abs(emp - q) < 4 * math.sqrt(q * (1 - q) / (trials * g.n_edges))


def _brute_isolated(env, L):
    g = env.graph
    for v in range(g.n_vertices):
        if all(edge_closed_throughout(env.edges[e], 0.0, L) for e in g.incident_edges[v]):
            return True, v
    return False, None


def test_isolated_vertex_detection():
    # on the 6-cycle, vertex v lies between edges v - 1 and v
    g = TorusGraph(d=1, n=6)
    assert g.incident_edges.tolist() == [[v, (v - 1) % 6] for v in range(6)]
    # vertex 4: both edges closed, first flips after L = 1
    env = make_env(g, _params(5.0), [1, 1, 1, 0, 0, 1], [[], [], [], [], [1.5, 2.0], []])
    assert isolated_vertex_exists(env, 1.0) == (True, 4)
    assert isolated_vertex_exists(env, 1.5) == (False, None)  # the flip at L has happened
    # vertices 2, 3 and 4 all isolated: the lowest is the witness
    env = make_env(g, _params(5.0), [1, 0, 0, 0, 0, 1], [[], [4.0], [4.0], [4.0], [4.0], []])
    assert isolated_vertex_exists(env, 3.0) == (True, 2)
    # an edge that starts open and closes before L does not isolate
    env = make_env(g, _params(5.0), [0, 1, 1, 1, 1, 1], [[], [0.5], [], [], [], []])
    assert isolated_vertex_exists(env, 1.0) == (False, None)
    # the edge arrays agree with the per-edge definition on sampled envs
    params = DynParams(p=0.3, mu=0.5, horizon=3.0)
    found = 0
    for seed in range(40):
        env = sample_env(TorusGraph(d=2, n=3), params, init="stationary", seed=seed)
        for L in (0.0, 0.4, 3.0):
            got = isolated_vertex_exists(env, L)
            assert got == _brute_isolated(env, L)
            found += got[0]
    assert found > 0


def test_dump_roundtrip():
    g = TorusGraph(d=2, n=4)
    params = DynParams(p=0.35, mu=0.125, horizon=25.0)
    env = sample_env(g, params, init="stationary", seed=42)
    data = dumps_env(env)
    back = loads_env(data)
    assert back.graph == g and back.params == params
    assert back.init_tag == "stationary" and back.seed == 42
    for a, b in zip(env.edges, back.edges):
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.flip_times, b.flip_times)
    assert dumps_env(back) == data


def test_dump_rejects_garbage():
    with pytest.raises(InputError):
        loads_env(b"not a dump at all")


_DUMP = dumps_env(sample_env(TorusGraph(d=1, n=4), DynParams(p=0.5, mu=0.25, horizon=3.0),
                             seed=7))


@given(cut=st.integers(0, len(_DUMP)), pos=st.integers(0, len(_DUMP) - 1),
       byte=st.integers(0, 255), tail=st.binary(max_size=24))
@settings(max_examples=300, deadline=None)
def test_loads_env_fuzz(cut, pos, byte, tail):
    # truncated, corrupted or extended dumps either load as a valid
    # environment or raise InputError
    flipped = _DUMP[:pos] + bytes([byte]) + _DUMP[pos + 1:]
    for data in (_DUMP[:cut], flipped, _DUMP + tail, _DUMP[:cut] + tail):
        try:
            env = loads_env(data)
        except InputError:
            continue
        assert dumps_env(env) == data


# (d, n, p, mu, T, init, seed) -> sha256 of the dump, recorded with the
# per-hold sampler (`helpers.scalar_sample_env`); they pin the random stream
_DUMP_HASHES = [
    ((1, 8, 0.5, 0.25, 50.0, "stationary", 0),
     "2b9e8d6a1a3d61cfe13a201231c6eca806444eb5685a08aa6d277fe11370f79f"),
    ((2, 4, 0.35, 0.125, 25.0, "stationary", 42),
     "37c8f841fb3e3295b229f6abca96319553f85da8700f15a908dffc9bcac84d8c"),
    ((3, 3, 0.5, 0.5, 10.0, "all-closed", 1),
     "ec82f902be04d46a89f9693c16bec66d8b4bf9bd805d5a20a37b5592fba32d57"),
    ((1, 16, 0.02, 0.5, 200.0, "all-open", 2),
     "12d09620c5e01fe85a39c299796dd978b40ee8be625075633b9d3c5d80295f6d"),
    ((2, 3, 1.0, 0.25, 5.0, "stationary", 3),
     "8dc8c2e295fb8b43ebd990d17f84ddbee1015b6166fbe0524fb3fc372546dc94"),
    ((1, 6, 1.0, 0.1, 30.0, "all-closed", 4),
     "3e7854fe42f82b88c7c24a52e6ea3d7ce9672528bdcc720538e387aa666e9150"),
    ((1, 5, 0.5, 0.5, 0.0, "stationary", 5),
     "e5c4f41ec233edd977c6a07c58417e1589c2a362f8dc2d1d3070a173e178421e"),
    ((1, 6, 0.4, 0.25, 20.0, (1, 0, 1, 0, 1, 0), 6),
     "aa9645d5399ce918d0b17c4a570f5803c54bbd8d83efcbeb041cb95ee234a275"),
    ((1, 32, 0.5, 0.5, 20000.0, "stationary", 7),  # spans several draw blocks
     "be7a48923a6554986fdadefe5bd26f4a10650ab922e737719bb885a0260600dd"),
    ((2, 5, 1e-9, 0.01, 100.0, "stationary", 8),
     "b51d57928c1abe41fe9133432af4bd19026683f8078f09cc98a0d0025cce8c18"),
]


@pytest.mark.parametrize("case, digest", _DUMP_HASHES,
                         ids=[str(i) for i in range(len(_DUMP_HASHES))])
def test_dump_hashes_pinned(case, digest):
    d, n, p, mu, T, init, seed = case
    init = list(init) if isinstance(init, tuple) else init
    env = sample_env(TorusGraph(d, n), DynParams(p, mu, T), init=init, seed=seed)
    assert hashlib.sha256(dumps_env(env)).hexdigest() == digest


@given(d=st.integers(1, 3), n=st.integers(3, 4),
       p=st.sampled_from([1e-9, 0.5, 1.0]) | st.floats(0.01, 1.0),
       mu=st.floats(0.01, 0.5), horizon=st.just(0.0) | st.floats(0.0, 60.0),
       init=st.sampled_from(["stationary", "all-closed", "all-open", "explicit"]),
       seed=st.integers(0, 2 ** 32), block=st.sampled_from([1, 3, 64, dynenv._BLOCK]),
       tight=st.booleans())
@settings(max_examples=150, deadline=None)
def test_sampler_matches_per_hold_loop(d, n, p, mu, horizon, init, seed, block, tight):
    g = TorusGraph(d, n)
    params = DynParams(p, mu, horizon)
    if init == "explicit":
        init = np.random.default_rng(seed).integers(0, 2, g.n_edges).tolist()
    states, flips = scalar_sample_env(g, params, init, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynenv, "_BLOCK", block)  # refills inside an edge's path
        if tight:  # the flip buffer has to grow
            mp.setattr(dynenv, "_flip_capacity", lambda params, n_edges: 1)
        env = sample_env(g, params, init=init, seed=seed)
    assert env.initial.tobytes() == states.tobytes()
    assert np.array_equal(np.diff(env.offsets), [len(f) for f in flips])
    assert env._edges is None  # the per-edge views are built when first read
    for tr, want in zip(env.edges, flips):
        assert tr.flip_times.tobytes() == want.tobytes()
        assert not len(want) or np.shares_memory(tr.flip_times, env.flip_times)  # a view
    assert env.edges is env.edges


def _flip_instants(env, rng, k):
    if len(env.flip_times) == 0:
        return []
    return rng.choice(env.flip_times, size=k).tolist()


def _index_envs():
    g = TorusGraph(d=2, n=4)
    sampled = sample_env(g, DynParams(p=0.4, mu=0.5, horizon=30.0), seed=5)
    # ties across edges, a flip at 0 and one at the horizon
    built = make_env(TorusGraph(1, 4), _params(3.0), [0, 1, 0, 1],
                     [[0.0, 1.0, 2.5], [1.0, 2.5], [], [1.0, 3.0]])
    return {"sampled": sampled, "loaded": loads_env(dumps_env(sampled)),
            "hand-built": built,
            "all-open-p1": sample_env(TorusGraph(d=1, n=5),
                                      DynParams(p=1.0, mu=0.25, horizon=10.0),
                                      init="all-open", seed=1)}


@pytest.mark.parametrize("kind", ["sampled", "loaded", "hand-built", "all-open-p1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_event_index_matches_per_edge_loops(kind, seed):
    # fresh envs: the query order decides which read re-derives the horizon
    env, ref = _index_envs()[kind], _index_envs()[kind]
    T = env.horizon
    rng = np.random.default_rng(seed)
    points = ([0.0, T] + _flip_instants(ref, rng, 6)
              + rng.uniform(0.0, T, 6).tolist())
    windows = [(a, b) for a, b in zip(points, points[1:])]  # back and forth in time
    windows += [(a, a) for a in points[:4]] + [(a, T) for a in points[2:5]]
    windows += [(min(a, b), max(a, b)) for a, b in windows]
    rng.shuffle(windows)
    for t0, t1 in windows:
        want_t, want_e = loop_flip_events(ref, t0, t1)
        got_t, got_e = env.flip_events(t0, t1)
        assert got_t.tobytes() == want_t.tobytes()
        assert np.array_equal(got_e, want_e) and got_e.dtype == np.int64
        for t in (t1, t0):
            assert np.array_equal(env.open_mask_at(t), loop_open_mask_at(ref, t))


@pytest.mark.parametrize("kind", ["sampled", "loaded", "hand-built", "all-open-p1"])
def test_states_at_matches_per_edge_reference(kind):
    # every edge at t = 0, at t = T, at flip instants and at random times
    env = _index_envs()[kind]
    T = env.horizon
    rng = np.random.default_rng(3)
    times = [0.0, T] + _flip_instants(env, rng, 20) + rng.uniform(0.0, T, 20).tolist()
    edges, at = np.meshgrid(np.arange(env.graph.n_edges), times, indexing="ij")
    got = env.states_at(edges, at)
    assert got.dtype == np.int8 and got.shape == edges.shape
    want = [[edge_state_at(tr, t) for t in times] for tr in env.edges]
    assert np.array_equal(got, want)
    assert np.array_equal(got[:, 0] == 1, env.open_mask_at(0.0))


def test_event_index_replays_states():
    env = _index_envs()["hand-built"]
    assert np.array_equal(env.open_mask_at(0.0), [True, True, False, True])  # flip at 0
    times, eids = env.flip_events(0.0, 1.0)
    assert times.tolist() == [1.0] * 3 and eids.tolist() == [0, 1, 3]
    times, eids = env.flip_events(2.5, 3.0)
    assert times.tolist() == [3.0] and eids.tolist() == [3]
    assert env.flip_events(1.0, 1.0)[0].size == 0


@pytest.mark.parametrize("kind", ["sampled", "hand-built"])
def test_event_index_rejects_times_outside_horizon(kind):
    env = _index_envs()[kind]
    T = env.horizon
    for t0, t1 in ((-0.1, 1.0), (0.0, T + 1e-9), (-1.0, T + 1.0), (0.0, math.nan)):
        with pytest.raises(HorizonError):
            env.flip_events(t0, t1)
    for t in (-1e-12, T + 1e-9, math.nan):
        with pytest.raises(HorizonError):
            env.open_mask_at(t)
    env.flip_events(T / 2, T)  # past the kept flips, if any; still refused
    with pytest.raises(HorizonError):
        env.open_mask_at(T * 2)


@pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 63], ids=["-1", "1.5", "2**63"])
def test_sampler_refuses_seeds_a_dump_cannot_store(seed, monkeypatch):
    # 2**63 sampled a whole environment and then failed in `dump_env`; -1 and
    # 1.5 failed inside numpy
    def no_draw(*args):
        raise AssertionError("drew flips before the seed was checked")

    monkeypatch.setattr(dynenv, "_sample_flips", no_draw)
    with pytest.raises(InputError):
        sample_env(TorusGraph(d=1, n=6), DynParams(p=0.5, mu=0.25, horizon=5.0), seed=seed)


@pytest.mark.parametrize("A", [[-1], [0.5], [6], np.array([0, 6])])
def test_count_open_throughout_refuses_bad_edge_ids(A):
    # -1 counted the last edge, 0.5 edge 0, and E raised IndexError
    env = sample_env(TorusGraph(d=1, n=6), DynParams(p=0.5, mu=0.25, horizon=5.0), seed=0)
    with pytest.raises(InputError):
        count_open_throughout(env, A, 1.0, 2.0)
    assert count_open_throughout(env, [], 1.0, 2.0) == 0


def test_count_open_throughout_matches_per_edge_loop():
    rng = np.random.default_rng(4)
    for kind, env in _index_envs().items():
        T = env.horizon
        points = [0.0, T] + _flip_instants(env, rng, 4) + rng.uniform(0.0, T, 4).tolist()
        A = rng.integers(0, env.graph.n_edges, 7)
        for a in points:
            for b in points:
                if a > b:
                    continue
                want = sum(edge_open_throughout(env.edges[e], a, b) for e in A)
                assert count_open_throughout(env, A, a, b) == want, (kind, a, b)


def _same(a, b) -> bool:
    """Equal answers: arrays by dtype, shape and bytes, the rest by value."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def _read(env, kind, a, b):
    """One read of env, at the horizon fractions a and b."""
    T = env.horizon
    t0, t1 = sorted(min(f * T, T) for f in (a, b))
    E = env.graph.n_edges
    if kind == "events":
        return env.flip_events(t0, t1)
    if kind == "mask":
        return env.open_mask_at(t1)
    if kind == "counts":
        return env.flip_counts(t1)
    if kind == "states":  # edge i at the i-th time from t0 to t1
        return env.states_at(np.arange(E), np.linspace(t0, t1, E))
    if kind == "open":
        return count_open_throughout(env, range(E), t0, t1)
    if kind == "isolated":
        return isolated_vertex_exists(env, t1)
    if kind == "dump":
        return dumps_env(env)
    return (env.flip_times, env.offsets,
            [(tr.initial_state, tr.flip_times) for tr in env.edges])


# the kept window's end, the horizon, and anywhere before either
_FRACTIONS = (st.sampled_from([0.0, dynenv._KEPT, 1.0]) | st.floats(0.0, dynenv._KEPT)
              | st.floats(0.0, 1.0))


@given(d=st.integers(1, 3), n=st.integers(3, 4),
       p=st.sampled_from([0.5, 1.0]) | st.floats(0.01, 1.0),
       mu=st.floats(0.01, 0.5), horizon=st.just(0.0) | st.floats(0.0, 300.0),
       init=st.sampled_from(["stationary", "all-closed", "all-open", "explicit"]),
       seed=st.none() | st.integers(0, 2 ** 32),
       reads=st.lists(st.tuples(st.sampled_from(["events", "mask", "counts", "states",
                                                 "open", "isolated", "dump", "arrays"]),
                                _FRACTIONS, _FRACTIONS), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_kept_window_is_invisible(d, n, p, mu, horizon, init, seed, reads):
    # reads inside and past the flips kept at sampling, in random order, give
    # what the environment built from its whole arrays gives
    g = TorusGraph(d, n)
    params = DynParams(p, mu, horizon)
    if init == "explicit":
        init = np.random.default_rng(seed).integers(0, 2, g.n_edges).tolist()
    env = sample_env(g, params, init=init, seed=seed)
    assert env._known == dynenv._KEPT * horizon
    got = [_read(env, *r) for r in reads]
    full = EnvTrajectory(g, params, env.initial, env.flip_times, env.offsets,
                         env.init_tag, env.seed)
    assert env._known == horizon
    for r, answer in zip(reads, got):
        assert _same(answer, _read(full, *r)), r
    if seed is not None:  # one more draw of the same stream, read whole at once
        again = sample_env(g, params, init=init, seed=seed)
        assert dumps_env(again) == dumps_env(env)


def test_kept_window_survives_a_stream_past_it():
    # contiguous windows read only the kept flips up to their end, the first
    # window past it re-derives the horizon, and each window, before and
    # after, is that of the environment known whole
    g = TorusGraph(1, 6)
    env = sample_env(g, DynParams(0.5, 0.25, 160.0), seed=3)
    full = loads_env(dumps_env(sample_env(g, env.params, seed=3)))
    w = env._known
    known = []
    for t0, t1 in ((0.0, 0.6 * w), (0.6 * w, 0.7 * w), (0.7 * w, w), (w, 3.0 * w),
                   (3.0 * w, 160.0), (0.0, w)):
        assert _same(env.flip_events(t0, t1), full.flip_events(t0, t1))
        known.append(env._known)
    assert known == [w, w, w, 160.0, 160.0, 160.0]
