"""Total variation / chi-square distances and mixing / hitting time statistics.

Mixing times are reported on the block boundaries of the 1/mu
discretization (`default_grid`).  "Not mixed by horizon" is the explicit
outcome ``NOT_MIXED`` (math.inf), propagated through statistics as
censoring, never a guess.

Every environment ensemble, here and in `cli` and `dynenv`, is drawn by
`sample_envs`, the one place the seed rule lives: the i-th environment of an
ensemble with base seed s is drawn with seed s + i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from . import walk as walkmod
from .dynenv import DynParams, EnvTrajectory, check_seed, sample_env
from .errors import InputError
from .expansion import as_mask
from .torus import TorusGraph

NOT_MIXED = math.inf

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("d", "n", "p", "mu", "eps", "env_seed", "x", "statistic",
               "value", "ci_lo", "ci_hi", "method", "censored_frac")


def as_dist(a) -> np.ndarray:
    """Validate a nonnegative weight vector summing to 1, up to 1e-10."""
    return _as_laws(a, (1,))


def _as_laws(a, ndims: tuple[int, ...]) -> np.ndarray:
    """Validate an array of one of the dimensions `ndims` whose rows along
    the last axis are laws: finite, nonnegative and summing to 1, up to 1e-10."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in ndims or not np.isfinite(a).all() or (a < -1e-10).any():
        raise InputError("distribution must be a finite nonnegative 1-d vector")
    sums = a.sum(axis=-1)
    if (np.abs(sums - 1.0) > 1e-10).any():
        raise InputError(f"distribution sums to {sums}, not 1")
    return a


def tv(a, b) -> float:
    """Total variation distance, half the L1 distance."""
    a = as_dist(a)
    b = as_dist(b)
    if a.shape != b.shape:
        raise InputError("distributions live on different supports")
    return float(0.5 * np.abs(a - b).sum())


def chi(a, b):
    """chi(a, b) = sqrt(sum_y (a(y) - b(y))^2 / b(y)); requires b > 0 where a > 0.

    `a` is one law, or a stack of laws, one per row, against the one b,
    which is then validated once: a float, or an array with one distance
    per row.
    """
    a = _as_laws(a, (1, 2))
    b = as_dist(b)
    if a.shape[-1:] != b.shape:
        raise InputError("distributions live on different supports")
    if ((b == 0) & (a > 0)).any():
        raise InputError("chi undefined: second argument vanishes where first is positive")
    good = b > 0
    out = np.sqrt(np.sum((a[..., good] - b[good]) ** 2 / b[good], axis=-1))
    return float(out) if a.ndim == 1 else out


def default_grid(params: DynParams) -> np.ndarray:
    """Block boundaries of the 1/mu discretization up to the horizon."""
    step = 1.0 / params.mu
    n = int(math.floor(params.horizon / step + 1e-9))
    return step * np.arange(1, n + 1)


def sample_envs(g: TorusGraph, params: DynParams, init: Union[str, Sequence[int]],
                seed: Optional[int], count: int) -> Iterator[EnvTrajectory]:
    """`count` environments, the i-th drawn by `sample_env` with seed
    `seed + i` (unseeded when `seed` is None), one at a time.

    A count that is not an integer >= 1, or a first or last seed that
    `dynenv.check_seed` refuses, raises `InputError`, and a torus past the
    exact-size limit `CapabilityError`, at the call, before any draw.
    """
    walkmod.check_exact_size(g)
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise InputError(f"need at least one environment sample, got {count!r}")
    check_seed(seed)
    if seed is not None:
        check_seed(int(seed) + int(count) - 1)
    return (sample_env(g, params, init=init, seed=None if seed is None else seed + i)
            for i in range(count))


def quenched_mixing_time(env: EnvTrajectory, x: int, eps: float) -> float:
    """First grid time with TV(quenched law, uniform) <= eps, or NOT_MIXED.

    The time is a certified decision, equal to the one the exact TV curve
    (`walk.quenched_tv_curve`, exact to `walk.EXACT_TOL`) gives.  A coarse
    pass (`walk._laws` at `walk._DECISION_TAIL`) evolves a law v~ that is
    entrywise at most the true law v and short of mass 1 by at most its
    `dropped` d, so the true TV lies in [S, S + d] for
    S = sum_y (v~(y) - 1/N)+.  The exact curve's own truncation is at most
    d too (its series extend the coarse ones), so with the allowance
    sigma = `walk.EXACT_TOL` + d for it and for rounding, a grid time with
    S - sigma > eps is not mixed, and one with S + d + sigma <= eps is the
    answer.  Only a time between the two decides nothing; then the exact
    curve runs from the start, stopping at eps, and gives the answer.

    S is checked to be nonincreasing along the grid, to 1e-8, and so is
    the exact curve where it runs (uniform is stationary for every
    environment realization).  `eps` <= 0 raises `InputError`.
    """
    if not eps > 0.0:
        raise InputError(f"eps must be positive, got {eps}")
    if eps >= 1.0:
        return 0.0
    grid = default_grid(env.params)
    uniform = 1.0 / env.graph.n_vertices
    last = math.inf
    laws = walkmod._laws(env, x, grid, walkmod._DECISION_TAIL)
    for i, (law, dropped) in enumerate(laws):
        s = float(np.maximum(law - uniform, 0.0).sum())
        if s > last + 1e-8:
            raise AssertionError("quenched TV to uniform increased along the grid")
        last = s
        sigma = walkmod.EXACT_TOL + dropped
        if s - sigma > eps:
            continue
        if s + dropped + sigma <= eps:
            return float(grid[i])
        return _exact_mixing_time(env, x, eps, grid)
    return NOT_MIXED


def _exact_mixing_time(env: EnvTrajectory, x: int, eps: float,
                       grid: np.ndarray) -> float:
    """`quenched_mixing_time` from the exact TV curve, stopped at eps."""
    tvs = walkmod.quenched_tv_curve(env, x, grid, stop_below=eps)
    seen = tvs[~np.isnan(tvs)]
    if len(seen) > 1 and np.any(np.diff(seen) > 1e-8):
        raise AssertionError("quenched TV to uniform increased along the grid")
    hit = np.nonzero(seen <= eps)[0]
    if len(hit) == 0:
        return NOT_MIXED
    return float(grid[hit[0]])


@dataclass(frozen=True)
class AnnealedMixReport:
    time: float
    ci: tuple[float, float]
    annealed_tvs: np.ndarray       # per grid time evolved
    mean_quenched_tvs: np.ndarray  # per grid time evolved


def annealed_mixing_time(g: TorusGraph, params: DynParams, x: int, eps: float,
                         env_samples: int,
                         seed: Optional[int] = None) -> AnnealedMixReport:
    """First grid time where TV of the eta-averaged law to uniform is <= eps.

    Environments start stationary.  Convexity (annealed TV <= mean quenched TV)
    is asserted per grid time.  The CI is a 200-resample bootstrap over
    environment samples.  A start off the torus or `eps` <= 0 raises
    `InputError` before any environment is drawn.

    The environments evolve in lockstep and stop at the first grid time where
    every quenched TV is <= eps, or at the horizon.  Quenched TV never rises
    along the grid, and a resample's annealed TV is at most its mean
    quenched TV, so every resample has mixed by then and no later law moves
    the time or the CI.  The report's TVs cover the grid times evolved.
    """
    g._check_vertex(x)
    if not eps > 0.0:
        raise InputError(f"eps must be positive, got {eps}")
    envs = sample_envs(g, params, "stationary", seed, env_samples)
    grid = default_grid(params)
    if eps >= 1.0:
        return AnnealedMixReport(0.0, (0.0, 0.0), np.empty(0), np.empty(0))
    N = g.n_vertices
    uniform = np.full(N, 1.0 / N)
    rows, quenched = [], []  # per grid time: every environment's law and TV
    for now in zip(*(walkmod.quenched_laws(env, x, grid) for env in envs)):
        rows.append(np.array(now))
        quenched.append(0.5 * np.abs(rows[-1] - uniform).sum(axis=1))
        if (quenched[-1] <= eps).all():
            break
    # (environment, grid time, state)
    laws = np.stack(rows, axis=1) if rows else np.empty((env_samples, 0, N))
    annealed_tvs = 0.5 * np.abs(laws.mean(axis=0) - uniform).sum(axis=1)
    mean_q = np.reshape(quenched, (-1, env_samples)).mean(axis=1)
    if np.any(annealed_tvs > mean_q + 1e-9):
        raise AssertionError("convexity violated: annealed TV above mean quenched TV")

    def first_time(law_stack: np.ndarray) -> float:
        tvs = 0.5 * np.abs(law_stack.mean(axis=0) - uniform).sum(axis=1)
        hit = np.nonzero(tvs <= eps)[0]
        return float(grid[hit[0]]) if len(hit) else NOT_MIXED

    t_hat = first_time(laws)
    rng = np.random.default_rng(None if seed is None else seed + 10 ** 6)
    boots = [first_time(laws[rng.integers(env_samples, size=env_samples)])
             for _ in range(200)]
    finite = [b for b in boots if math.isfinite(b)]
    if finite:
        ci = (float(np.percentile(finite, 2.5)), float(np.percentile(finite, 97.5)))
    else:
        ci = (NOT_MIXED, NOT_MIXED)
    return AnnealedMixReport(time=t_hat, ci=ci, annealed_tvs=annealed_tvs,
                             mean_quenched_tvs=mean_q)


@dataclass(frozen=True)
class HittingReport:
    quenched_means: np.ndarray   # (n_envs, n_states) E[min(tau, horizon)] per start
    annealed_means: np.ndarray   # (n_states,) averaged over envs
    censored_frac: np.ndarray    # (n_states,) mean unabsorbed mass at horizon
    horizon: float
    usable: bool


def hitting_time_stats(g: TorusGraph, params: DynParams, A: np.ndarray,
                       env_samples: int, seed: Optional[int] = None,
                       init="stationary") -> HittingReport:
    """Quenched and annealed E[min(tau_A, T)] estimates via exact absorbed
    evolution up to the environment horizon T, over `env_samples`
    environments.

    A is a bool vertex mask with |A| >= n^d / 2, the theorem's scope; a
    smaller A raises `InputError`.
    """
    A = as_mask(A, g.n_vertices)
    if 2 * int(A.sum()) < g.n_vertices:
        raise InputError("|A| < n^d / 2")
    q_means = []
    censored = []
    for env in sample_envs(g, params, init, seed, env_samples):
        exp_t, cens = walkmod.exact_hitting_profile(env, A, params.horizon)
        q_means.append(exp_t)
        censored.append(cens)
    q_means = np.asarray(q_means)
    censored_frac = np.asarray(censored).mean(axis=0)
    usable = bool((censored_frac < 1.0 - 1e-12).all())
    return HittingReport(quenched_means=q_means,
                         annealed_means=q_means.mean(axis=0),
                         censored_frac=censored_frac,
                         horizon=params.horizon, usable=usable)


def format_csv_rows(rows: Iterable[dict]) -> str:
    """Render result records against the versioned column schema."""
    lines = ["# schema=dynaperc-results-v%d" % CSV_SCHEMA_VERSION,
             ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)
