import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaperc import dist as D
from dynaperc.dynenv import DynParams, sample_env
from dynaperc.errors import InputError
from dynaperc.torus import TorusGraph

from helpers import horizon_annealed_mixing_time


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


def _exact_times(env, eps_list):
    """First grid time of the exact TV curve at or below each eps, from one
    curve run down to the smallest."""
    grid = D.default_grid(env.params)
    tvs = D.walkmod.quenched_tv_curve(env, 0, grid, stop_below=min(eps_list))
    hits = [np.nonzero(tvs <= eps)[0] for eps in eps_list]
    return [float(grid[hit[0]]) if len(hit) else D.NOT_MIXED for hit in hits]


def _spy_exact(monkeypatch) -> list:
    """The grids of every exact TV curve `dist` runs from now on."""
    calls = []
    curve = D.walkmod.quenched_tv_curve

    def spy(env, x0, grid, stop_below=None):
        calls.append(grid)
        return curve(env, x0, grid, stop_below=stop_below)

    monkeypatch.setattr(D.walkmod, "quenched_tv_curve", spy)
    return calls


@pytest.mark.parametrize("d, n, mu", [(1, 8, 0.5), (2, 4, 0.5), (3, 3, 0.25)])
@pytest.mark.parametrize("init", ["stationary", "all-closed", "all-open"])
def test_certified_times_equal_exact_curve(d, n, mu, init, monkeypatch):
    # every decision of the coarse pass is the exact TV curve's, at every
    # eps, whether the walk mixes by the horizon or not
    g = TorusGraph(d=d, n=n)
    exact = _spy_exact(monkeypatch)
    seen = set()
    for seed in range(4):
        for horizon in (12 * n * n / mu, 3.0 / mu):
            env = sample_env(g, DynParams(p=0.5, mu=mu, horizon=horizon), init=init,
                             seed=seed)
            times = [D.quenched_mixing_time(env, 0, eps) for eps in (0.05, 0.25, 0.5)]
            assert times == _exact_times(env, (0.05, 0.25, 0.5))
            seen.update(t if t == D.NOT_MIXED else "mixed" for t in times)
            assert D.quenched_mixing_time(env, 0, 1.0) == 0.0
            assert D.quenched_mixing_time(env, 0, 2.0) == 0.0
    assert seen == {"mixed", D.NOT_MIXED}
    assert len(exact) == 4 * 2  # one curve per `_exact_times`, no fallback


@pytest.mark.parametrize("d, n", [(1, 8), (2, 4)])
def test_certified_time_falls_back_at_an_exact_grid_tv(d, n, monkeypatch):
    # eps equal to a grid time's exact TV lies inside that time's coarse
    # bounds, so the exact curve must run, once, and decide
    env = sample_env(TorusGraph(d=d, n=n), DynParams(p=0.5, mu=0.5, horizon=20 * n * n),
                     seed=3)
    grid = D.default_grid(env.params)
    tvs = D.walkmod.quenched_tv_curve(env, 0, grid)
    i = int(np.argmax(tvs < 0.3))
    assert 0 < i and tvs[i - 1] > tvs[i] + 1e-3
    exact = _spy_exact(monkeypatch)
    assert D.quenched_mixing_time(env, 0, float(tvs[i])) == grid[i]
    assert len(exact) == 1 and np.array_equal(exact[0], grid)
    assert D.quenched_mixing_time(env, 0, float(tvs[i]) + 1e-3) == grid[i]
    assert D.quenched_mixing_time(env, 0, float(tvs[i]) - 1e-3) == grid[i + 1]
    assert len(exact) == 1  # both decided by the coarse pass


def test_certified_time_checks_coarse_tv_never_rises(monkeypatch):
    # a coarse pass whose S = sum (law - 1/N)+ rises by more than 1e-8
    # between grid times is refused, as the exact curve is
    env = sample_env(TorusGraph(d=1, n=8), DynParams(p=0.5, mu=0.25, horizon=400.0), seed=2)
    laws = D.walkmod._laws

    def corrupted(env, x0, grid, tail, rise):
        # grid time 3 gets the law of time 2 with `rise` moved from its
        # smallest entry to its largest, so S rises by `rise`
        for i, (law, dropped) in enumerate(laws(env, x0, grid, tail)):
            if i == 2:
                kept = law.copy()
            elif i == 3:
                law = kept
                law[np.argmax(law)] += rise
                law[np.argmin(law)] -= rise
            yield law, dropped

    monkeypatch.setattr(D.walkmod, "_laws", lambda *a: corrupted(*a, rise=2e-8))
    with pytest.raises(AssertionError, match="increased"):
        D.quenched_mixing_time(env, 0, 0.01)
    monkeypatch.setattr(D.walkmod, "_laws", lambda *a: corrupted(*a, rise=5e-9))
    assert [D.quenched_mixing_time(env, 0, 0.01)] == _exact_times(env, [0.01])


def test_quenched_mixing_not_mixed():
    g = TorusGraph(d=1, n=6)
    # one grid time, and none: a horizon shorter than one block 1/mu
    for horizon, times in ((4.0, 1), (3.5, 0)):
        params = DynParams(p=0.5, mu=0.25, horizon=horizon)
        env = sample_env(g, params, init="all-closed", seed=2)
        assert len(D.default_grid(params)) == times
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


# (p, mu, horizon, seed, environments): in the first, two of the eight
# environments never mix within the five grid times
@pytest.mark.parametrize("p, mu, horizon, seed, k", [
    (0.3, 0.05, 100.0, 0, 8), (0.5, 0.25, 200.0, 4, 12), (0.5, 0.5, 60.0, 2, 5),
    (0.3, 0.02, 100.0, 8, 8), (0.5, 0.25, 3.0, 1, 3)])
def test_annealed_mixing_stops_where_every_environment_has_mixed(p, mu, horizon, seed, k):
    g = TorusGraph(d=1, n=6)
    params = DynParams(p=p, mu=mu, horizon=horizon)
    rep = D.annealed_mixing_time(g, params, 0, eps=0.25, env_samples=k, seed=seed)
    assert (rep.time, rep.ci) == horizon_annealed_mixing_time(g, params, 0, 0.25, k, seed)
    grid = D.default_grid(params)
    times = [D.quenched_mixing_time(env, 0, 0.25)
             for env in D.sample_envs(g, params, "stationary", seed, k)]
    # evolved to the last environment's mixing time, or to the horizon
    last = max(times)
    evolved = len(grid) if math.isinf(last) else int(np.searchsorted(grid, last)) + 1
    assert len(rep.annealed_tvs) == len(rep.mean_quenched_tvs) == evolved
    assert (rep.annealed_tvs <= rep.mean_quenched_tvs + 1e-9).all()
    if (p, seed) == (0.3, 0):
        assert sum(math.isinf(t) for t in times) == 2 and evolved == len(grid) == 5


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
    monkeypatch.setattr(D.walkmod, "_laws", no_work)  # the coarse pass's entry
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


@pytest.mark.parametrize("A", [(np.arange(8) < 4).astype(int),  # int 0/1 vector
                               [4, 5, 6, 7],                    # index list
                               np.ones(7, dtype=bool)])         # wrong length
def test_hitting_stats_rejects_malformed_sets(A):
    g = TorusGraph(d=1, n=8)
    with pytest.raises(InputError):
        D.hitting_time_stats(g, DynParams(p=0.5, mu=0.25, horizon=100.0), A,
                             env_samples=1, seed=5)


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
