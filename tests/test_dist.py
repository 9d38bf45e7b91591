import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaperc import dist as D
from dynaperc.dynenv import DynParams, sample_env
from dynaperc.errors import InputError
from dynaperc.torus import TorusGraph


def test_tv_basics():
    assert D.tv([1, 0], [0, 1]) == 1.0
    assert D.tv([0.5, 0.5], [0.5, 0.5]) == 0.0
    with pytest.raises(InputError):
        D.tv([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(InputError):
        D.tv([1.0], [0.5, 0.5])
    with pytest.raises(InputError):
        D.tv([np.nan, 1.0], [0.5, 0.5])


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_tv_chi_inequality(w):
    # chi-square distance dominates twice the TV distance
    a = np.array(w) / sum(w)
    b = np.full(len(w), 1.0 / len(w))
    assert 2 * D.tv(a, b) <= D.chi(a, b) + 1e-12


def test_chi_undefined_on_support_violation():
    with pytest.raises(InputError):
        D.chi([0.5, 0.5], [1.0, 0.0])


def test_chi_of_a_stack_matches_each_law():
    rng = np.random.default_rng(2)
    laws = rng.random((7, 5))
    laws /= laws.sum(axis=1, keepdims=True)
    pi = laws[0]
    got = D.chi(laws, pi)
    assert got.tobytes() == np.array([D.chi(law, pi) for law in laws]).tobytes()
    laws[3, 0] += 0.1  # one row that is not a law
    with pytest.raises(InputError):
        D.chi(laws, pi)
    with pytest.raises(InputError):  # total variation still takes one law
        D.tv(laws[:2], laws[:2])


def test_default_grid():
    params = DynParams(p=0.5, mu=0.25, horizon=20.0)
    grid = D.default_grid(params)
    assert np.allclose(grid, [4, 8, 12, 16, 20])


def test_quenched_mixing_time_basic():
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=0.5, mu=0.25, horizon=2000.0)
    env = sample_env(g, params, init="stationary", seed=1)
    t = D.quenched_mixing_time(env, 0, 0.25)
    assert math.isfinite(t) and t > 0
    # larger eps can only mix earlier
    t2 = D.quenched_mixing_time(env, 0, 0.5)
    assert t2 <= t
    assert D.quenched_mixing_time(env, 0, 1.0) == 0.0


def test_quenched_mixing_not_mixed():
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=0.5, mu=0.25, horizon=4.0)
    env = sample_env(g, params, init="all-closed", seed=2)
    assert D.quenched_mixing_time(env, 0, 0.01) == D.NOT_MIXED


def test_annealed_mixing_and_convexity():
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=0.5, mu=0.25, horizon=200.0)
    rep = D.annealed_mixing_time(g, params, 0, eps=0.25, env_samples=12, seed=4)
    assert math.isfinite(rep.time)
    # convexity: averaging environments cannot increase distance
    assert (rep.annealed_tvs <= rep.mean_quenched_tvs + 1e-9).all()
    assert rep.ci[0] <= rep.time <= rep.ci[1] or rep.ci[0] <= rep.ci[1]
    assert D.annealed_mixing_time(g, params, 0, eps=1.0, env_samples=2, seed=4).time == 0.0


@pytest.mark.parametrize("x", [-1, 6])
def test_annealed_mixing_checks_start_before_sampling(monkeypatch, x):
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=0.5, mu=0.25, horizon=200.0)

    def no_draw(*args, **kwargs):
        raise AssertionError("an environment was sampled before the start was checked")

    monkeypatch.setattr(D, "sample_env", no_draw)
    with pytest.raises(InputError):
        D.annealed_mixing_time(g, params, x, eps=0.25, env_samples=2, seed=4)


_EPS_CALLS = {
    "quenched_mixing_time": lambda env, eps: D.quenched_mixing_time(env, 0, eps),
    "annealed_mixing_time": lambda env, eps: D.annealed_mixing_time(
        env.graph, env.params, 0, eps, env_samples=2, seed=4),
}


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
@pytest.mark.parametrize("call", sorted(_EPS_CALLS))
def test_mixing_times_refuse_nonpositive_eps(monkeypatch, call, eps):
    # both returned inf, and only after evolving the whole grid
    env = sample_env(TorusGraph(d=1, n=6), DynParams(p=0.5, mu=0.25, horizon=200.0),
                     seed=1)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before eps was checked")

    monkeypatch.setattr(D, "sample_env", no_work)
    monkeypatch.setattr(D.walkmod, "quenched_tv_curve", no_work)
    with pytest.raises(InputError):
        _EPS_CALLS[call](env, eps)


_ENSEMBLE_CALLS = {
    "sample_envs": lambda g, params, k: D.sample_envs(g, params, "stationary", 0, k),
    "hitting_time_stats": lambda g, params, k: D.hitting_time_stats(
        g, params, np.arange(6) < 3, env_samples=k, seed=0),
    "annealed_mixing_time": lambda g, params, k: D.annealed_mixing_time(
        g, params, 0, eps=0.25, env_samples=k, seed=0),
}


@pytest.mark.parametrize("count", [0, -1, 1.5])
@pytest.mark.parametrize("call", sorted(_ENSEMBLE_CALLS))
def test_empty_ensembles_are_refused(call, count):
    # NaN means or an infinite mixing time otherwise
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=0.5, mu=0.25, horizon=80.0)
    with pytest.raises(InputError):
        _ENSEMBLE_CALLS[call](g, params, count)


def test_ensemble_seeds_are_checked_at_the_call(monkeypatch):
    # environment i is seeded seed + i; the last must stay below 2^63, which
    # a dump stores as an int64
    def no_draw(*args, **kwargs):
        raise AssertionError("drew an environment at the call")

    monkeypatch.setattr(D, "sample_env", no_draw)
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=0.5, mu=0.25, horizon=80.0)
    D.sample_envs(g, params, "stationary", 2 ** 63 - 2, 2)
    for seed, count in [(2 ** 63 - 2, 3), (-1, 1), (1.5, 1)]:
        with pytest.raises(InputError):
            D.sample_envs(g, params, "stationary", seed, count)


def test_hitting_stats_shapes_and_gate():
    g = TorusGraph(d=1, n=8)
    params = DynParams(p=0.5, mu=0.25, horizon=800.0)
    A = np.arange(8) < 4
    rep = D.hitting_time_stats(g, params, A, env_samples=4, seed=5)
    assert rep.quenched_means.shape == (4, 8)
    assert (rep.quenched_means[:, A] == 0.0).all()
    assert rep.usable
    small = np.arange(8) == 0
    with pytest.raises(InputError):
        D.hitting_time_stats(g, params, small, env_samples=2)
    rep2 = D.hitting_time_stats(g, params, small, env_samples=2, seed=6,
                                allow_small=True)
    assert rep2.annealed_means.max() > 0


def test_csv_format_deterministic():
    rows = [{"d": 1, "n": 8, "p": 0.5, "mu": 0.25, "eps": 0.25, "env_seed": 3,
             "x": 0, "statistic": "t_mix", "value": 16.0, "ci_lo": None,
             "ci_hi": None, "method": "exact", "censored_frac": 0.0}]
    out1 = D.format_csv_rows(rows)
    out2 = D.format_csv_rows(rows)
    assert out1 == out2
    assert out1.splitlines()[1] == ",".join(D.CSV_COLUMNS)
    assert "16.0" in out1 and out1.startswith("# schema=dynaperc-results-v1")


def test_hitting_gate_counts_members():
    # 3 of 8 vertices is below n^d / 2: the gate counts members, not the mask length
    g = TorusGraph(d=1, n=8)
    params = DynParams(p=0.5, mu=0.25, horizon=100.0)
    A = np.arange(8) < 3
    with pytest.raises(InputError):
        D.hitting_time_stats(g, params, A, env_samples=1, seed=5)
    rep = D.hitting_time_stats(g, params, A, env_samples=1, seed=5, allow_small=True)
    assert (rep.quenched_means[:, A] == 0.0).all()


@pytest.mark.parametrize("A", [(np.arange(8) < 4).astype(int),  # int 0/1 vector
                               [4, 5, 6, 7],                    # index list
                               np.ones(7, dtype=bool)])         # wrong length
def test_hitting_stats_rejects_malformed_sets(A):
    g = TorusGraph(d=1, n=8)
    with pytest.raises(InputError):
        D.hitting_time_stats(g, DynParams(p=0.5, mu=0.25, horizon=100.0), A,
                             env_samples=1, seed=5, allow_small=True)


def test_cli_sized_runs_read_only_the_kept_flips():
    # the CLI's horizons are 20 n^2/mu (mixing) and 50 n^2/mu (hitting), and
    # a run stops near its exit time: it stays inside the flips kept at
    # sampling, and holds at most an eighth of the horizon's flips
    from dynaperc import dynenv, walk

    mix = sample_env(TorusGraph(2, 16), DynParams(0.5, 0.5, 20 * 16 ** 2 / 0.5), seed=0)
    assert math.isfinite(D.quenched_mixing_time(mix, 0, 0.25))
    hit = sample_env(TorusGraph(1, 20), DynParams(0.5, 0.125, 50 * 20 ** 2 / 0.125), seed=0)
    _, censored = walk.exact_hitting_profile(hit, np.arange(20) < 10, hit.horizon)
    assert censored.max() < 1e-12
    for env in (mix, hit):
        assert env._known == dynenv._KEPT * env.horizon  # nothing was re-derived
        kept = len(env._flips)
        assert kept <= len(env.flip_times) / 8
