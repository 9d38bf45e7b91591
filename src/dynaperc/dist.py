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
from .dynenv import DynParams, EnvTrajectory, sample_env
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

    A count below 1 raises `InputError`, and a torus past the exact-size
    limit `CapabilityError`, at the call, before any draw.
    """
    walkmod.check_exact_size(g)
    if count < 1:
        raise InputError(f"need at least one environment sample, got {count}")
    return (sample_env(g, params, init=init, seed=None if seed is None else seed + i)
            for i in range(count))


def quenched_mixing_time(env: EnvTrajectory, x: int, eps: float) -> float:
    """First grid time with TV(quenched law, uniform) <= eps, or NOT_MIXED.

    TV along the grid is checked to be nonincreasing (uniform is stationary
    for every environment realization).  `eps` <= 0 raises `InputError`.
    """
    if not eps > 0.0:
        raise InputError(f"eps must be positive, got {eps}")
    if eps >= 1.0:
        return 0.0
    grid = default_grid(env.params)
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
    grid: np.ndarray
    annealed_tvs: np.ndarray
    mean_quenched_tvs: np.ndarray
    n_envs: int


def annealed_mixing_time(g: TorusGraph, params: DynParams, x: int, eps: float,
                         env_samples: int,
                         seed: Optional[int] = None) -> AnnealedMixReport:
    """First grid time where TV of the eta-averaged law to uniform is <= eps.

    Environments start stationary.  Convexity (annealed TV <= mean quenched TV)
    is asserted per grid time.  The CI is a 200-resample bootstrap over
    environment samples.  A start off the torus or `eps` <= 0 raises
    `InputError` before any environment is drawn.
    """
    g._check_vertex(x)
    if not eps > 0.0:
        raise InputError(f"eps must be positive, got {eps}")
    envs = sample_envs(g, params, "stationary", seed, env_samples)
    grid = default_grid(params)
    if eps >= 1.0:
        return AnnealedMixReport(0.0, (0.0, 0.0), grid, np.empty(0), np.empty(0), env_samples)
    N = g.n_vertices
    uniform = np.full(N, 1.0 / N)
    laws = np.empty((env_samples, len(grid), N))
    for i, env in enumerate(envs):
        for j, law in enumerate(walkmod.quenched_laws(env, x, grid)):
            laws[i, j] = law
    mean_law = laws.mean(axis=0)
    annealed_tvs = 0.5 * np.abs(mean_law - uniform).sum(axis=1)
    quenched_tvs = 0.5 * np.abs(laws - uniform).sum(axis=2)
    mean_q = quenched_tvs.mean(axis=0)
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
    return AnnealedMixReport(time=t_hat, ci=ci, grid=grid,
                             annealed_tvs=annealed_tvs,
                             mean_quenched_tvs=mean_q, n_envs=env_samples)


@dataclass(frozen=True)
class HittingReport:
    quenched_means: np.ndarray   # (n_envs, n_states) E[min(tau, horizon)] per start
    annealed_means: np.ndarray   # (n_states,) averaged over envs
    censored_frac: np.ndarray    # (n_states,) mean unabsorbed mass at horizon
    horizon: float
    usable: bool


def hitting_time_stats(g: TorusGraph, params: DynParams, A: np.ndarray,
                       env_samples: int, seed: Optional[int] = None,
                       init="stationary", allow_small: bool = False) -> HittingReport:
    """Quenched and annealed E[min(tau_A, T)] estimates via exact absorbed
    evolution up to the environment horizon T, over `env_samples`
    environments.

    A is a bool vertex mask.  For theorem-scope experiments |A| >= n^d / 2
    is required; pass `allow_small=True` to probe smaller targets.
    """
    A = as_mask(A, g.n_vertices)
    size = int(A.sum())
    if size == 0:
        raise InputError("A must be nonempty")
    if not allow_small and 2 * size < g.n_vertices:
        raise InputError("|A| < n^d / 2; pass allow_small=True to override")
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
