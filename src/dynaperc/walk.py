"""The quenched random walker.

Monte Carlo paths use attempted-jump thinning: a rate-1 Poisson clock of
attempts, a uniform direction among the 2d neighbours, and a move iff the
chosen edge is open at the attempt instant.  Exact distribution evolution runs
uniformization over the piecewise-constant jump generator between environment
flips, with a certified truncation budget.  All positions are reported right
continuously.

One core does all exact evolution: `_Evolver.advance` walks the flip segments
of the environment and `_apply_uniformized` runs the series.  The jump
operator is held one way only, as the stencil table `_Stencil`: P's 2d + 1
nonzeros per row.  It is built once per evolver and each flip rewrites the
four entries of its edge in place.  Forward laws, window kernels and TV
curves evolve rows through it, one series per segment.  A single row (a law,
a TV curve) needs no N x N matrix: a segment writes its Krylov rows v, vP,
..., vP^K into one reused buffer and adds them up with one product by the
Poisson weights.  Many rows (a window kernel) run dense products on P
scattered from the table, where they are faster.  Hitting profiles run it on
the chain absorbed in the target set: only the block of free (off-target)
states is evolved, flips on edges inside the target are skipped, and the
series also adds up the time each row spends off the target.  The absorbed
path works in chunks of up to 128 segments: it scatters the block of each
segment from the table onto a stack, runs one series on the whole stack to
get every segment's propagator and occupation integral, and chains those in
time order, so the per-product Python cost is paid once per chunk rather
than once per segment.  It reads the flips a window at a time and stops at
absorption.  An evolver counts the series it ran (`segments`), their matrix
products (`terms`), and the truncation mass actually dropped (`dropped`),
which bounds the error, beside the allowance it handed out (`spent`), which
can pass the budget.

One size check, `check_exact_size`, guards all exact evolution: more than
`EXACT_STATE_BUDGET` states raise `CapabilityError`.  `_Evolver`'s
constructor calls it before any matrix is allocated, and `dist.sample_envs`
before any environment is drawn.  Kernels are those of the plain walk; there
is no half-lazy option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynenv import EnvTrajectory
from .errors import CapabilityError, HorizonError, InputError
from .expansion import as_mask
from .torus import TorusGraph

# Exact evolution refuses state spaces larger than this (`check_exact_size`).
EXACT_STATE_BUDGET = 4096
# Uniformization segments longer than this are split to avoid exp underflow.
_MAX_SEGMENT = 32.0
# Absorbed evolution runs one series per chunk of at most _CHUNK pieces and
# _CHUNK_BYTES of stacked blocks: 128 pieces up to 11 free states, 64 at 16,
# 16 at 32, and from 128 free states one piece at a time, where a stacked
# series was measured slower than a series per piece.
_CHUNK = 128
_CHUNK_BYTES = 1 << 17


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

class _Stencil:
    """P held by its nonzeros: tables D and idx, both (2d + 1, N), with
    D[k, v] = P[v, idx[k, v]].

    idx[0] is each vertex and idx[1 + k] its neighbour k
    (`neighbor_vertices[:, k]`), so D[0] is the diagonal and D[1 + k] the
    rate, 0 or 1/(2d), to neighbour k.  Each diagonal entry is 1 - k/(2d)
    rounded one subtraction at a time.  P is symmetric, so row @ P sums
    D * row[idx] over the 2d + 1 stencil entries.  `series` writes the
    Krylov rows v, vP, ..., vP^K of a segment into one buffer, reused from
    segment to segment, and adds them up with one product by the Poisson
    weights.  `matrix` scatters the table into a dense P, kept for reuse,
    through flat positions computed with it.
    """

    def __init__(self, g: TorusGraph, open_mask: np.ndarray):
        N = g.n_vertices
        rate = 1.0 / (2 * g.d)
        # C order, so a row's gather comes out contiguous
        self.idx = np.empty((2 * g.d + 1, N), dtype=np.int64)
        self.idx[0] = np.arange(N)
        self.idx[1:] = g.neighbor_vertices.T
        self.D = np.empty((2 * g.d + 1, N))
        self.D[0] = 1.0
        uv = g.edge_uv[open_mask]
        np.subtract.at(self.D[0], uv[:, 0], rate)
        np.subtract.at(self.D[0], uv[:, 1], rate)
        self.D[1:] = np.where(open_mask[g.incident_edges.T], rate, 0.0)
        self._ones = np.ones(len(self.D))  # sums the stencil entries
        self._prods = np.empty(self.D.shape)
        self._krylov = np.empty((0, N))
        self._dense: Optional[np.ndarray] = None

    def matrix(self) -> np.ndarray:
        """P as a dense matrix: the table scattered onto its fixed nonzero pattern."""
        if self._dense is None:
            N = self.D.shape[1]
            self._dense = np.zeros((N, N))
            self._at = (np.arange(N) * N + self.idx).reshape(-1)
        self._dense.reshape(-1)[self._at] = self.D.reshape(-1)
        return self._dense

    def series(self, row: np.ndarray, ws: list) -> np.ndarray:
        """sum_k ws[k] row P^k for a (1, N) row."""
        if len(self._krylov) < len(ws):
            self._krylov = np.empty((len(ws), self.D.shape[1]))
        T = self._krylov[:len(ws)]
        T[0] = row[0]
        for k in range(1, len(ws)):
            np.multiply(self.D, T[k - 1][self.idx], out=self._prods)
            np.dot(self._ones, self._prods, out=T[k])
        return np.dot(ws, T)[None, :]


def step_matrix(g: TorusGraph, open_mask: np.ndarray) -> np.ndarray:
    """P = I + Q for the frozen configuration; Q jumps across open edges at rate 1/(2d).

    Exact evolution never builds it: evolvers hold the stencil table.  The
    benchmark tracer hooks this name.
    """
    return _Stencil(g, open_mask).matrix()


def _apply_uniformized(mat: np.ndarray, P: np.ndarray | _Stencil, s, tol: float,
                       occupation: Optional[np.ndarray] = None):
    """mat @ expm((P - I) s) as a Poisson-weighted series, tail mass < tol.

    Returns (result, terms, dropped): the matrix products taken and the
    Poisson mass 1 - cum the series left out.  With an `occupation` vector,
    also adds int_0^s (row sums of the evolving rows) dt into it.

    With a sequence of lengths `s`, runs a stack of series at once: `mat`
    is (B, r, n), `P` is (B, n, n), `occupation` is (B, r), and terms and
    dropped are per-segment lists.  Each segment's weights follow its own
    scalar recurrence, so its series stops at the term where it would stop
    alone; past that term its weights are 0 and it adds nothing.  Stopped
    segments are sliced off the end of the stack, so stacking the longest
    first keeps the products to the segments still running.

    Forward evolution passes the evolver's `_Stencil` (one segment, no
    `occupation`); absorbed evolution passes dense free blocks scattered
    from it.  On a stencil one row runs on the Krylov rows; more rows run
    the products on its dense matrix, which was measured faster for a
    window kernel's N rows (at N = 256 a kernel took 7.1 s dense against
    11.0 s on the stencil).
    """
    stacked = not np.isscalar(s)
    weights, terms, dropped = [], [], []
    for h in (s if stacked else [s]):
        w = math.exp(-h)
        cum = w
        ws = [w]
        k = 0
        while cum < 1.0 - tol:
            k += 1
            w *= h / k
            cum += w
            ws.append(w)
            if w == 0.0:  # weights underflowed; the series is numerically complete
                break
        weights.append(ws)
        terms.append(k)
        dropped.append(max(1.0 - cum, 0.0))
    if isinstance(P, _Stencil):
        if len(mat) == 1:
            return P.series(mat, weights[0]), terms[0], dropped[0]
        P = P.matrix()  # many rows: matrix products beat the stencil
    if occupation is not None:
        # int_0^h e^{-t} t^k/k! dt: 1 - w_0 for k = 0, then the previous one
        # less the Poisson weight
        integrals = [list(accumulate(ws[1:], sub, initial=1.0 - ws[0]))
                     for ws in weights]
    if stacked:  # tables (terms + 1, B, 1, 1), zero past each segment's last term
        K = max(terms)

        def table(rows):
            return np.array([r + [0.0] * (K - k) for r, k in zip(rows, terms)]).T

        W = table(weights)[:, :, None, None]
        if occupation is not None:
            C = table(integrals)[:, :, None]
    else:
        W = weights[0]
        if occupation is not None:
            C = integrals[0]
    acc = W[0] * mat
    if occupation is not None:
        ones = np.ones(P.shape[-1])  # row sums as products, cheaper than sums on a stack
        occupation += C[0] * (mat @ ones)
    term, head, occ = mat, acc, occupation
    m = len(terms)
    for k in range(1, len(W)):
        if terms[m - 1] < k:  # slice the segments that have stopped off the end
            while terms[m - 1] < k:
                m -= 1
            term, P, W, head = term[:m], P[:m], W[:, :m], head[:m]
            if occupation is not None:
                C, occ = C[:, :m], occ[:m]
        term = term @ P
        head += W[k] * term
        if occupation is not None:
            occ += C[k] * (term @ ones)
    if stacked:
        return acc, terms, dropped
    return acc, terms[0], dropped[0]


def check_exact_size(g: TorusGraph) -> None:
    """Raise `CapabilityError` when g has more than `EXACT_STATE_BUDGET` states."""
    if g.n_vertices > EXACT_STATE_BUDGET:
        raise CapabilityError(
            f"{g.n_vertices} states exceeds the exact-mode budget "
            f"{EXACT_STATE_BUDGET}; use the Monte Carlo estimators")


class _Evolver:
    """Walks a distribution (or matrix of rows) through env flip segments.

    P is built once, as the stencil table `_Stencil.D`; a flip then adds
    +-1/(2d) to the four entries of its edge in place, through flat
    positions in the table computed once per edge.  Each diagonal entry is
    1 - k/(2d) rounded one subtraction at a time, as a fresh table computes
    it, and adding the rate back lands on the previous value exactly
    (checked for d <= 12), so the operator always equals a fresh build bit
    for bit.  Forward evolution runs one series per segment on the rows
    themselves, and skips segments with no open edge, by a count of open
    edges that each flip keeps.

    With an `absorbing` vertex mask the walk is absorbed there, and only the
    sub-stochastic block of P on the free vertices (those off the mask) is
    evolved, since absorbed rows and columns never feed back into it: rows
    and columns of `mat` are the free vertices in increasing order, and
    `occupation` accumulates, per row, the time spent off the mask.  Flips on
    edges with both ends in the mask leave that block unchanged and are
    skipped (their `open_mask` entries go stale).  Flips are fetched a window
    of about one chunk at a time, so the environment's sorted stream grows
    only as far as the evolution reads.

    The absorbed path works in chunks: the block before each flip is
    scattered from the table onto a stack, through source and destination
    positions computed once; the stack starts zeroed and each slot only
    ever receives the block's pattern, so entries off it stay 0.  A
    stretch longer than `_MAX_SEGMENT` is stacked as several pieces, split
    as the forward path splits it.  When the stack is full one series runs
    on all of it, longest piece first.  Each piece k then has
    its propagator E_k (the series applied to the identity) and its
    occupation J_k = int E_k(t) 1 dt, and the chunk is chained in time
    order: occupation += mat @ J_k, then mat = mat @ E_k.  `advance` stops
    at the first flip after which every row has less than 1e-14 mass left,
    since later segments add nothing; pieces stacked past that flip are not
    counted.  A chunk holds at most `_CHUNK` pieces and `_CHUNK_BYTES` of
    stacked blocks.  The block and flip state run ahead of an early stop,
    so such an evolver is meant for a single `advance`.

    Counters: `segments` (uniformization series run and used), `terms`
    (matrix products taken by those series), `spent` (the truncation
    allowance handed out, which sizes later segments) and `dropped` (the
    Poisson tail mass the series actually left out, at most `spent`).
    Evolution is an L1 contraction, so each row's truncation error is at
    most `dropped`: that is the bound to hold against `tol_total`.  `spent`
    can pass `tol_total` on ordinary runs (see `_segment_tol`).
    """

    def __init__(self, env: EnvTrajectory, t0: float, tol_total: float = 1e-10,
                 absorbing: Optional[np.ndarray] = None):
        g = env.graph
        check_exact_size(g)
        self.env = env
        self.t = t0
        self.absorbing = absorbing
        self.open_mask = env.open_mask_at(t0)
        self._n_open = int(np.count_nonzero(self.open_mask))
        self._rate = 1.0 / (2 * g.d)
        self.P = _Stencil(g, self.open_mask)
        self._D = self.P.D.reshape(-1)  # a flat view, for `_flip` and the block scatter
        N = g.n_vertices
        col = 1 + 2 * (np.arange(g.n_edges) % g.d)
        u, v = g.edge_uv.T
        # flat positions in D of the edge's two diagonal entries and of its
        # rates u -> v and v -> u: v is neighbour 2 * axis of u, and u
        # neighbour 2 * axis + 1 of v
        self._pos = np.stack([u, v, col * N + u, (col + 1) * N + v], axis=1).tolist()
        self.occupation = None
        if absorbing is not None:
            free = ~absorbing
            n = int(free.sum())
            row = np.cumsum(free) - 1  # row of each free vertex in the block
            self._live_edge = free[g.edge_uv].any(axis=1)
            # the free block: D[k, v] goes to (row[v], row[idx[k, v]]) for
            # every entry with both ends free
            idx = self.P.idx.reshape(-1)
            self._src = np.flatnonzero(free & free[self.P.idx])
            self._dst = row[self._src % N] * n + row[idx[self._src]]
            self.occupation = np.zeros(n)
            size = max(1, min(_CHUNK, _CHUNK_BYTES // (8 * max(n, 1) ** 2)))
            self._stack = np.zeros((size, n, n))  # blocks in time order
            self._blocks = self._stack.reshape(size, n * n)
            self._sorted = np.empty_like(self._stack)  # longest piece first
            self._eye = np.eye(n)
            self._lengths: list[float] = []
            self._at_flip: list[bool] = []  # piece ends a flip segment
        self.tol_total = tol_total
        self.spent = 0.0
        self.dropped = 0.0
        self.segments = 0
        self.terms = 0

    def _flip(self, e: int) -> None:
        """Toggle edge e and add or remove its rate in the operator entries it touches."""
        is_open = not self.open_mask[e]
        self.open_mask[e] = is_open
        self._n_open += 1 if is_open else -1
        r = self._rate if is_open else -self._rate
        ii, jj, ij, ji = self._pos[e]
        D = self._D
        D[ii] -= r
        D[jj] -= r
        D[ij] += r
        D[ji] += r

    def _segment_tol(self, n_segments: int) -> float:
        # A quarter of what is left of the budget, split over the segments
        # of this `advance`.  The floor keeps each series from chasing
        # rounding noise near cum = 1.  A run of many `advance` calls (a TV
        # curve makes one per grid time) shrinks the remainder call by call
        # until the floor takes over, so `spent` passes tol_total on ordinary
        # multi-window runs; `dropped`, the mass actually cut, is the bound
        # that holds.
        return max((self.tol_total - self.spent) / (4 * max(n_segments, 1)),
                   1e-15)

    def _count(self, terms: int, dropped: float, tol: float) -> None:
        self.segments += 1
        self.terms += terms
        self.dropped += dropped
        self.spent += tol

    def advance(self, mat: np.ndarray, t1: float) -> np.ndarray:
        """Evolve mat from the current time to t1."""
        if t1 < self.t:
            raise InputError("cannot evolve backwards")
        if self.absorbing is not None:
            return self._advance_absorbed(mat, t1)
        times, eids = self.env.flip_events(self.t, t1)
        tol = self._segment_tol(len(times) + 1 + int((t1 - self.t) / _MAX_SEGMENT))
        prev = self.t
        self.t = t1
        for tm, e in zip(times.tolist(), eids.tolist()):
            mat = self._run_segment(mat, tm - prev, tol)
            prev = tm
            self._flip(e)
        return self._run_segment(mat, t1 - prev, tol)

    def _run_segment(self, mat: np.ndarray, s: float, tol: float) -> np.ndarray:
        if not self._n_open:
            return mat  # frozen walker: P = I
        while s > 0.0:
            h = min(s, _MAX_SEGMENT)
            mat, terms, dropped = _apply_uniformized(mat, self.P, h, tol)
            self._count(terms, dropped, tol)
            s -= h
        return mat

    def _advance_absorbed(self, mat: np.ndarray, t1: float) -> np.ndarray:
        env, live, t0 = self.env, self._live_edge, self.t
        # live flips counted on the flat arrays: the tolerance is split over
        # the same segments as if they had all been fetched
        n_live = int((env.flip_counts(t1) - env.flip_counts(t0))[live].sum())
        tol = self._segment_tol(n_live + 1 + int((t1 - t0) / _MAX_SEGMENT))
        self.t = t1
        windows = max(1, -(-n_live // len(self._stack)))
        prev = a = t0
        for j in range(1, windows + 1):
            b = t1 if j == windows else t0 + (t1 - t0) * j / windows
            times, eids = env.flip_events(a, b)
            keep = live[eids]
            for tm, e in zip(times[keep].tolist(), eids[keep].tolist()):
                mat, stopped = self._push(mat, tm - prev, tol, at_flip=True)
                if stopped:
                    return mat
                prev = tm
                self._flip(e)
            a = b
        mat, _ = self._push(mat, t1 - prev, tol, at_flip=False)
        return self._run_chunk(mat, tol)[0]

    def _push(self, mat: np.ndarray, s: float, tol: float,
              at_flip: bool) -> tuple[np.ndarray, bool]:
        """Stack the block for a stretch of length s, running full chunks."""
        while s > 0.0:
            h = min(s, _MAX_SEGMENT)
            s -= h
            self._blocks[len(self._lengths)][self._dst] = self._D[self._src]
            self._lengths.append(h)
            self._at_flip.append(at_flip and s <= 0.0)
            if len(self._lengths) == len(self._stack):
                mat, stopped = self._run_chunk(mat, tol)
                if stopped:
                    return mat, True
        return mat, False

    def _run_chunk(self, mat: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
        """One series over the stacked pieces, then chain them in time order.

        Returns (mat, stopped); pieces after an early stop are not counted.
        """
        lengths, at_flip = self._lengths, self._at_flip
        self._lengths, self._at_flip = [], []
        m = len(lengths)
        if m == 0:
            return mat, False
        if m == 1:  # a lone piece runs its series on the rows themselves
            mat, terms, dropped = _apply_uniformized(mat, self._stack[0], lengths[0],
                                                     tol, self.occupation)
            self._count(terms, dropped, tol)
            return mat, at_flip[0] and mat.sum(axis=1).max(initial=0.0) < 1e-14
        order = sorted(range(m), key=lengths.__getitem__, reverse=True)
        stack = np.take(self._stack[:m], order, axis=0, out=self._sorted[:m])
        n = len(self._eye)
        J = np.zeros((m, n))
        E, terms, dropped = _apply_uniformized(
            np.broadcast_to(self._eye, (m, n, n)), stack,
            [lengths[i] for i in order], tol, J)
        rank = [0] * m
        for r, i in enumerate(order):
            rank[i] = r
        for i, r in enumerate(rank):
            self.occupation += mat @ J[r]
            mat = mat @ E[r]
            self._count(terms[r], dropped[r], tol)
            if at_flip[i] and mat.sum(axis=1).max(initial=0.0) < 1e-14:
                return mat, True
        return mat, False


def quenched_laws(env: EnvTrajectory, x0: int, grid: Sequence[float],
                  tol: float = 1e-10) -> Iterator[np.ndarray]:
    """The quenched law of the walk from x0 at each time of an increasing grid,
    evolved incrementally by one evolver, exact up to `tol` total variation."""
    g = env.graph
    g._check_vertex(x0)
    grid = np.asarray(grid, dtype=float)
    if len(grid) and grid[-1] > env.horizon:
        raise HorizonError("grid reaches past horizon")
    ev = _Evolver(env, 0.0, tol)
    vec = np.zeros((1, g.n_vertices))
    vec[0, x0] = 1.0
    for t in grid.tolist():
        vec = ev.advance(vec, t)
        yield vec[0]


def exact_quenched_distribution(env: EnvTrajectory, x0: int, t: float,
                                tol: float = 1e-10) -> np.ndarray:
    """The quenched law of the walk at time t, exact up to `tol` total variation."""
    return next(quenched_laws(env, x0, [t], tol))


def window_kernel(env: EnvTrajectory, window: tuple[float, float],
                  tol: float = 1e-10) -> WalkKernel:
    """Exact stochastic matrix of the walk across [a, b] of the environment."""
    a, b = window
    if not 0 <= a <= b <= env.horizon:
        raise HorizonError(f"window {window} outside [0, {env.horizon}]")
    ev = _Evolver(env, a, tol)
    K = ev.advance(np.eye(env.graph.n_vertices), b)
    return WalkKernel(window=(a, b), matrix=K)


def quenched_tv_curve(env: EnvTrajectory, x0: int, grid: Sequence[float],
                      tol: float = 1e-10,
                      stop_below: Optional[float] = None) -> np.ndarray:
    """TV distance to uniform at each grid time, evolving incrementally.

    With `stop_below`, evolution stops at the first grid time whose TV is at or
    below the threshold; later entries are NaN.
    """
    N = env.graph.n_vertices
    uniform = np.full(N, 1.0 / N)
    out = np.full(len(grid), np.nan)
    for i, vec in enumerate(quenched_laws(env, x0, grid, tol)):
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
