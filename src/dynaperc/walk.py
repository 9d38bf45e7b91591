"""The quenched random walker.

Monte Carlo paths use attempted-jump thinning: a rate-1 Poisson clock of
attempts, a uniform direction among the 2d neighbours, and a move iff the
chosen edge is open at the attempt instant.  Exact distribution evolution runs
uniformization over the piecewise-constant jump generator between environment
flips, with a certified truncation budget.  All positions are reported right
continuously.

One core does all exact evolution: `_Evolver.advance` walks the flip segments
of the environment and `_apply_uniformized` runs the series on each.  The
jump matrix is built once per evolver and each flip rewrites the entries of
its edge in place.  Forward laws, window kernels and TV curves evolve rows
through it.  Hitting profiles run it on the chain absorbed in the target set:
only the block of free (off-target) states is evolved, flips on edges inside
the target are skipped, and the series also adds up the time each row spends
off the target.  An evolver counts the series it ran (`segments`), their
matrix products (`terms`), and the truncation mass actually dropped
(`dropped`) beside the allowance it handed out (`spent`).

Every exact entry point builds an `_Evolver`, whose constructor holds the one
size check: more than `EXACT_STATE_BUDGET` states raise `CapabilityError`
before any matrix is allocated.  Kernels are those of the plain walk; there
is no half-lazy option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynenv import EnvTrajectory
from .errors import CapabilityError, HorizonError, InputError
from .expansion import as_mask
from .torus import TorusGraph

# Exact evolution refuses state spaces larger than this (`_Evolver` checks).
EXACT_STATE_BUDGET = 4096
# Uniformization segments longer than this are split to avoid exp underflow.
_MAX_SEGMENT = 32.0


@dataclass(frozen=True)
class WalkPath:
    """A realized walk: its start and its jumps (times and target vertices)."""

    start: int
    jump_times: np.ndarray
    jump_targets: np.ndarray

    def position_at(self, t: float) -> int:
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.start if k == 0 else int(self.jump_targets[k - 1])


@dataclass(frozen=True)
class WalkKernel:
    """Stochastic matrix of the walk across one environment window."""

    window: tuple[float, float]
    matrix: np.ndarray

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]


def simulate_walk(env: EnvTrajectory, x0: int, horizon: float,
                  seed: Optional[int] = None) -> WalkPath:
    """One walk realization through a fixed environment."""
    g = env.graph
    g._check_vertex(x0)
    if horizon > env.horizon:
        raise HorizonError(f"walk horizon {horizon} past env horizon {env.horizon}")
    nbr, inc = g.neighbor_vertices, g.incident_edges
    rng = np.random.default_rng(seed)
    t = 0.0
    v = x0
    jt: list[float] = []
    jv: list[int] = []
    while True:
        t += rng.exponential(1.0)
        if t > horizon:
            break
        k = int(rng.integers(2 * g.d))
        if env.edges[inc[v, k]].state_at(t) == 1:
            v = int(nbr[v, k])
            jt.append(t)
            jv.append(v)
    return WalkPath(x0, np.asarray(jt), np.asarray(jv, dtype=np.int64))


def simulate_positions(env: EnvTrajectory, x0: int, t: float, n_replicas: int,
                       seed: Optional[int] = None) -> np.ndarray:
    """Positions at time t of independent walks from x0 through one fixed env.

    Each attempt round draws times and directions for all replicas at once,
    but tests the crossed edges' states in a Python loop over the replicas.
    """
    g = env.graph
    g._check_vertex(x0)
    if t > env.horizon:
        raise HorizonError("past horizon")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(t, size=n_replicas)
    kmax = int(counts.max()) if n_replicas else 0
    pos = np.full(n_replicas, x0, dtype=np.int64)
    # attempt j happens at the j-th order statistic of count uniforms
    for j in range(kmax):
        active = np.nonzero(counts > j)[0]
        if len(active) == 0:
            break
        # conditional on the Poisson count, attempt times are sorted uniforms;
        # generating per-attempt fresh uniform order statistics sequentially via
        # beta increments keeps everything vectorized
        if j == 0:
            times = np.zeros(n_replicas)
        times_active = times[active] + (t - times[active]) * (
            1.0 - rng.random(len(active)) ** (1.0 / (counts[active] - j)))
        times[active] = times_active
        dirs = rng.integers(2 * g.d, size=len(active))
        here = pos[active]
        for a, tm, e, u in zip(active, times_active, g.incident_edges[here, dirs],
                               g.neighbor_vertices[here, dirs]):
            if env.edges[e].state_at(float(tm)) == 1:
                pos[a] = u
    return pos


def replay_is_legal(env: EnvTrajectory, path: WalkPath) -> bool:
    """Every jump of the path crossed an edge open at its jump instant."""
    g = env.graph
    g._check_vertex(path.start)
    v = path.start
    for t, u in zip(path.jump_times, path.jump_targets):
        k = np.flatnonzero(g.neighbor_vertices[v] == u)
        if len(k) == 0 or env.edges[g.incident_edges[v, k[0]]].state_at(float(t)) != 1:
            return False
        v = int(u)
    return True


# ---------------------------------------------------------------------------
# Exact evolution
# ---------------------------------------------------------------------------

def step_matrix(g: TorusGraph, open_mask: np.ndarray) -> np.ndarray:
    """P = I + Q for the frozen configuration; Q jumps across open edges at rate 1/(2d)."""
    N = g.n_vertices
    P = np.eye(N)
    rate = 1.0 / (2 * g.d)
    uv = g.edge_uv[open_mask]
    if len(uv):
        np.add.at(P, (uv[:, 0], uv[:, 1]), rate)
        np.add.at(P, (uv[:, 1], uv[:, 0]), rate)
        np.subtract.at(P, (uv[:, 0], uv[:, 0]), rate)
        np.subtract.at(P, (uv[:, 1], uv[:, 1]), rate)
    return P


def _apply_uniformized(mat: np.ndarray, P: np.ndarray, s: float, tol: float,
                       occupation: Optional[np.ndarray] = None
                       ) -> tuple[np.ndarray, int, float]:
    """mat @ expm((P - I) s) as a Poisson-weighted series, tail mass < tol.

    Returns (result, terms, dropped): the matrix products taken and the
    Poisson mass 1 - cum the series left out.  With an `occupation` vector,
    also adds int_0^s (row sums of the evolving rows) dt into it.
    """
    w = math.exp(-s)
    cum = w
    acc = w * mat
    term = mat
    if occupation is not None:
        c = 1.0 - w  # int_0^s e^{-t} t^0/0! dt
        occupation += c * term.sum(axis=1)
    k = 0
    while cum < 1.0 - tol:
        k += 1
        term = term @ P
        w *= s / k
        acc += w * term
        cum += w
        if occupation is not None:
            c -= w  # int e^{-t} t^k/k! dt = previous - Poisson weight
            occupation += c * term.sum(axis=1)
        if w == 0.0:  # weights underflowed; the series is numerically complete
            break
    return acc, k, max(1.0 - cum, 0.0)


class _Evolver:
    """Walks a distribution (or matrix of rows) through env flip segments.

    P is built once by `step_matrix`; a flip then adds +-1/(2d) to the four
    entries of its edge in place.  Each diagonal entry is 1 - k/(2d) rounded
    one subtraction at a time, as `step_matrix` computes it, and adding the
    rate back lands on the previous value exactly (checked for d <= 12), so P
    always equals a fresh build bit for bit.

    With an `absorbing` vertex mask the walk is absorbed there, and only the
    sub-stochastic block of P on the free vertices (those off the mask) is
    evolved, since absorbed rows and columns never feed back into it: rows
    and columns of `mat` are the free vertices in increasing order, and
    `occupation` accumulates, per row, the time spent off the mask.  Flips on
    edges with both ends in the mask leave that block unchanged and are
    skipped (their `open_mask` entries go stale).  `advance` stops at the
    first flip after which every row has less than 1e-14 mass left, since
    later segments add nothing.  Such an evolver is meant for a single
    `advance`.

    Counters: `segments` (uniformization series run; a constant stretch
    longer than `_MAX_SEGMENT` runs in pieces), `terms` (matrix products
    taken by those series), `spent` (the truncation allowance handed out,
    which sizes later segments) and `dropped` (the Poisson tail mass the
    series actually left out, at most `spent`).
    """

    def __init__(self, env: EnvTrajectory, t0: float, tol_total: float = 1e-10,
                 absorbing: Optional[np.ndarray] = None):
        g = env.graph
        if g.n_vertices > EXACT_STATE_BUDGET:
            raise CapabilityError(
                f"{g.n_vertices} states exceeds the exact-mode budget "
                f"{EXACT_STATE_BUDGET}; use the Monte Carlo estimators")
        self.env = env
        self.t = t0
        self.absorbing = absorbing
        self.open_mask = env.open_mask_at(t0)
        P = step_matrix(g, self.open_mask)
        live = np.ones(g.n_vertices, dtype=bool) if absorbing is None else ~absorbing
        row = np.full(g.n_vertices, -1)
        row[live] = np.arange(int(live.sum()))
        rows = row[g.edge_uv]
        # row of each endpoint of each edge in the evolved block, -1 if absorbed
        self._rows = rows.tolist()
        self._live_edge = (rows >= 0).any(axis=1)
        self._rate = 1.0 / (2 * g.d)
        self.P = P if absorbing is None else P[np.ix_(live, live)]
        self.occupation = None if absorbing is None else np.zeros(len(self.P))
        self.tol_total = tol_total
        self.spent = 0.0
        self.dropped = 0.0
        self.segments = 0
        self.terms = 0

    def _flip(self, e: int) -> None:
        """Toggle edge e and add or remove its rate in the block entries it touches."""
        is_open = not self.open_mask[e]
        self.open_mask[e] = is_open
        r = self._rate if is_open else -self._rate
        i, j = self._rows[e]
        P = self.P
        if i >= 0:
            P[i, i] -= r
        if j >= 0:
            P[j, j] -= r
            if i >= 0:
                P[i, j] += r
                P[j, i] += r

    def _segment_tol(self, n_segments: int) -> float:
        # What is left of the budget, split over the segments still to run.
        # The floor keeps each series from chasing rounding noise near
        # cum = 1; past about tol_total / 1e-15 segments it lets `spent` grow
        # beyond tol_total, and `dropped` is the mass actually cut.
        return max((self.tol_total - self.spent) / (4 * max(n_segments, 1)),
                   1e-15)

    def advance(self, mat: np.ndarray, t1: float) -> np.ndarray:
        """Evolve mat from the current time to t1."""
        if t1 < self.t:
            raise InputError("cannot evolve backwards")
        times, eids = self.env.flip_events(self.t, t1)
        if self.absorbing is not None:
            keep = self._live_edge[eids]
            times, eids = times[keep], eids[keep]
        n_seg = len(times) + 1 + int((t1 - self.t) / _MAX_SEGMENT)
        tol = self._segment_tol(n_seg)
        prev = self.t
        self.t = t1
        for tm, e in zip(times, eids):
            mat = self._run_segment(mat, tm - prev, tol)
            if self.absorbing is not None and mat.sum(axis=1).max(initial=0.0) < 1e-14:
                return mat
            prev = tm
            self._flip(e)
        return self._run_segment(mat, t1 - prev, tol)

    def _run_segment(self, mat: np.ndarray, s: float, tol: float) -> np.ndarray:
        if self.absorbing is None and not self.open_mask.any():
            return mat  # frozen walker: P = I (an absorbed walk still accrues time)
        while s > 0.0:
            h = min(s, _MAX_SEGMENT)
            mat, terms, dropped = _apply_uniformized(mat, self.P, h, tol,
                                                     self.occupation)
            self.segments += 1
            self.terms += terms
            self.dropped += dropped
            self.spent += tol
            s -= h
        return mat


def exact_quenched_distribution(env: EnvTrajectory, x0: int, t: float,
                                tol: float = 1e-10) -> np.ndarray:
    """The quenched law of the walk at time t, exact up to `tol` total variation."""
    g = env.graph
    g._check_vertex(x0)
    if t > env.horizon:
        raise HorizonError("past horizon")
    vec = np.zeros(g.n_vertices)
    vec[x0] = 1.0
    ev = _Evolver(env, 0.0, tol)
    vec = ev.advance(vec[None, :], t)[0]
    return vec


def window_kernel(env: EnvTrajectory, window: tuple[float, float],
                  tol: float = 1e-10) -> WalkKernel:
    """Exact stochastic matrix of the walk across [a, b] of the environment."""
    a, b = window
    if not 0 <= a <= b <= env.horizon:
        raise HorizonError(f"window {window} outside [0, {env.horizon}]")
    ev = _Evolver(env, a, tol)
    K = ev.advance(np.eye(env.graph.n_vertices), b)
    return WalkKernel(window=(a, b), matrix=K)


def block_chain(env: EnvTrajectory, block_length: float,
                tol: float = 1e-10) -> list[WalkKernel]:
    """Kernels of consecutive blocks [0, L], [L, 2L], ... up to the horizon.

    A horizon that is not a multiple of the block length is truncated (the
    trailing partial block is dropped).
    """
    if block_length <= 0:
        raise InputError("block length must be positive")
    n_blocks = int(math.floor(env.horizon / block_length + 1e-9))
    kernels = []
    for k in range(n_blocks):
        a = k * block_length
        b = min((k + 1) * block_length, env.horizon)
        kernels.append(window_kernel(env, (a, b), tol=tol))
    return kernels


def quenched_tv_curve(env: EnvTrajectory, x0: int, grid: Sequence[float],
                      tol: float = 1e-10,
                      stop_below: Optional[float] = None) -> np.ndarray:
    """TV distance to uniform at each grid time, evolving incrementally.

    With `stop_below`, evolution stops at the first grid time whose TV is at or
    below the threshold; later entries are NaN.
    """
    g = env.graph
    g._check_vertex(x0)
    grid = np.asarray(grid, dtype=float)
    if len(grid) and grid[-1] > env.horizon:
        raise HorizonError("grid reaches past horizon")
    N = g.n_vertices
    uniform = np.full(N, 1.0 / N)
    vec = np.zeros(N)
    vec[x0] = 1.0
    ev = _Evolver(env, 0.0, tol)
    out = np.full(len(grid), np.nan)
    for i, t in enumerate(grid):
        vec = ev.advance(vec[None, :], float(t))[0]
        out[i] = 0.5 * np.abs(vec - uniform).sum()
        if stop_below is not None and out[i] <= stop_below:
            break
    return out


def exact_hitting_profile(env: EnvTrajectory, A_mask: np.ndarray,
                          horizon: float,
                          tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Quenched expected hitting times of A from every start, by absorbed evolution.

    Returns (expected_times, censored_mass): for each start x, the accumulated
    E[min(tau_A, horizon)] and the unabsorbed mass left at the horizon.  For
    x in A both are (0, 0).
    """
    g = env.graph
    if horizon > env.horizon:
        raise HorizonError("past horizon")
    A_mask = as_mask(A_mask, g.n_vertices)
    free = ~A_mask
    ev = _Evolver(env, 0.0, tol, absorbing=A_mask)
    mat = ev.advance(np.eye(int(free.sum())), horizon)
    expected = np.zeros(g.n_vertices)
    censored = np.zeros(g.n_vertices)
    expected[free] = ev.occupation
    censored[free] = mat.sum(axis=1)
    return expected, censored
