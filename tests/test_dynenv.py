import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dynaperc.dynenv import (DynParams, EdgeTrajectory, binomial_lemma_check,
                             count_open_throughout, dumps_env,
                             edge_transition_prob, isolated_vertex_exists,
                             loads_env, open_throughout_prob_from_closed,
                             sample_env, simulate_edge_state_at)
from dynaperc.errors import HorizonError, InputError
from dynaperc.torus import TorusGraph


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


def test_edge_trajectory_right_continuous():
    tr = EdgeTrajectory(0, np.array([1.0, 2.0]))
    assert tr.state_at(0.0) == 0
    assert tr.state_at(1.0) == 1  # the flip at t has already happened
    assert tr.state_at(1.5) == 1
    assert tr.state_at(2.0) == 0


def test_edge_trajectory_throughout():
    tr = EdgeTrajectory(1, np.array([3.0]))
    assert tr.open_throughout(0.0, 2.9)
    assert not tr.open_throughout(0.0, 3.0)
    assert tr.closed_throughout(3.0, 10.0)


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
    with pytest.raises(InputError):
        sample_env(g, params, init=[2] * 6)


def test_horizon_enforced():
    g = TorusGraph(d=1, n=6)
    env = sample_env(g, DynParams(p=0.5, mu=0.25, horizon=5.0), seed=0)
    with pytest.raises(HorizonError):
        env.state_at(0, 5.5)
    with pytest.raises(HorizonError):
        env.state_at(0, -0.1)


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


def test_edge_law_against_trajectory_simulation():
    p, mu, t = 0.6, 0.5, 2.0
    states = simulate_edge_state_at(p, mu, t, 40000, init_state=0, seed=11)
    emp = states.mean()
    q = edge_transition_prob(p, mu, t, 0, 1)
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


def test_binomial_lemma_report_consistent():
    g = TorusGraph(d=1, n=16)
    params = DynParams(p=0.5, mu=0.25, horizon=1.0)
    rep = binomial_lemma_check(g, params, range(g.n_edges), sigma=0.05,
                               trials=200, seed=5)
    assert rep.threshold_count == math.ceil(16 * 0.05 * 0.25 - 1e-12)
    assert 0.0 <= rep.empirical_prob <= 1.0
    q = open_throughout_prob_from_closed(0.5, 0.25, 0.5, 1.0)
    assert rep.per_edge_prob == pytest.approx(q)
    assert rep.analytic_worst_case == pytest.approx(
        float(stats.binom.sf(rep.threshold_count - 1, 16, q)))
    # empirical frequency should be near the analytic tail (same init)
    assert rep.ci[0] - 0.1 <= rep.analytic_worst_case <= rep.ci[1] + 0.1


def test_isolated_vertex_detection():
    g = TorusGraph(d=1, n=4)
    params = DynParams(p=0.5, mu=0.25, horizon=10.0)
    # explicit: edges around vertex 2 closed, no flips before t=1 w.h.p. is not
    # reliable, so build an env where every edge starts closed and check the
    # witness is consistent with the definition
    env = sample_env(g, params, init="all-closed", seed=9)
    found, v = isolated_vertex_exists(env, 0.5)
    if found:
        for e in g.incident_edges[v]:
            assert env.edges[e].closed_throughout(0.0, 0.5)


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
