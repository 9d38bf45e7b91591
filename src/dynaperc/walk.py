"""The quenched random walker.

Monte Carlo paths use attempted-jump thinning: a rate-1 Poisson clock of
attempts, a uniform direction among the 2d neighbours, and a move iff the
chosen edge is open at the attempt instant.  One engine, `_attempted_jumps`,
runs every Monte Carlo walk: R walkers share one environment and advance in
rounds, and each round asks the environment for all their (edge, time)
states in one batched query, `EnvTrajectory.states_at`.  `simulate_walks`
is its one sampler; a single walk is its R = 1 case, and `replay_is_legal`
checks a path's jumps with one query too.  Exact distribution evolution runs
uniformization over the piecewise-constant jump generator between environment
flips, exact up to `EXACT_TOL` in total variation.  All positions are reported
right continuously.

One core does all exact evolution, `_Evolver`, and it takes the flips of
the environment a window at a time, as arrays.  The jump operator is held
one way only, as the int neighbour-or-self table `_Stencil.nbr`, (2d, N):
entry k of v is v's neighbour k when that edge is open and v itself when it
is closed.  An attempt across a closed edge stays home, so P = I + Q is the
mean of 2d gathers, row @ P = (1/2d) sum_k row[nbr[k]].  The table is built
once per evolver and each flip rewrites the two entries of its edge in
place.  Every form has the entries of `step_matrix`, whose diagonal is a
vertex's closed edges times 1/(2d), the sum of their gathers.

Forward laws, window kernels and TV curves run one loop, `_Evolver._forward`
(`advance` is its one-stop case): it merges a window of flips, read as
arrays, with the grid times into blocks that may span several grid times,
weighs each block with one `_poisson_table`, and runs a series per piece,
applying flips to the table inline.  A single row (a law, a TV curve) needs
no N x N matrix: one gather and one dot a term (about 2 us at N = 256).
Many rows (a window kernel) run gemm on a dense P written from the table.
Hitting profiles run on the chain absorbed in the target set: only the block
of free (off-target) states is evolved, and each segment's time off the
target is added up too.  The absorbed path stacks the free rows of up to 128
pieces at once from the parities of the window's flips, and runs one Horner
pass and one pairwise product tree per chunk, so the Python cost of a product
is paid once per chunk rather than once per segment.  It stops at absorption.

Both paths read the flips a window at a time, by one read-ahead rule,
`_window_end`: a run from t0 reads to t0 + 1/mu, t0 + 2/mu, t0 + 4/mu, ...,
and a window that would cross the end of the flips kept at sampling stops
there, so a run that ends inside them never re-derives its environment.

One rule truncates every series, forward or absorbed: it stops at the first
term where its Poisson tail is below `_SERIES_TAIL` or, past the peak of the
weights, at the first term that leaves their sum unchanged.  An evolver
counts the series it ran (`segments`), their matrix products (`terms`), and
the tail mass they left out (`dropped`), which bounds the error.  A series
leaves out less than `_SERIES_TAIL`, or about 1.1e-15 where the sum sticks
just under 1 - `_SERIES_TAIL`, so 8e4 series stay within `EXACT_TOL`.

Laws, TV curves, window kernels and hitting profiles are exact to
`EXACT_TOL`.  A quenched mixing time is a certified decision instead
(`dist.quenched_mixing_time`): one coarse pass, `_laws` at
`_DECISION_TAIL`, cuts every series to a prefix of its exact terms, so its
law bounds the true law from below and its `dropped` bounds the missing
mass; each grid time is decided from these bounds, and only a time whose
bounds straddle eps runs the exact curve.

One size check, `check_exact_size`, guards all exact evolution: more than
`EXACT_STATE_BUDGET` states raise `CapabilityError`.  `_Evolver`'s
constructor calls it before any matrix is allocated, and `dist.sample_envs`
before any environment is drawn.  Kernels are those of the plain walk; there
is no half-lazy option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynenv import EnvTrajectory, check_seed
from .errors import CapabilityError, HorizonError, InputError
from .expansion import as_mask
from .torus import TorusGraph

# Exact evolution refuses state spaces larger than this (`check_exact_size`).
EXACT_STATE_BUDGET = 4096
# Total variation budget of every exact result: the truncation mass an
# evolver may drop over its run.
EXACT_TOL = 1e-10
# Every uniformization series stops at the first term where its Poisson tail
# is below this; smaller would chase rounding noise near a sum of 1.
_SERIES_TAIL = 1e-15
# The tail of the coarse pass that decides a mixing time
# (`dist.quenched_mixing_time`): about 3 terms a segment instead of 5 on the
# d = 2, n = 16 cell, whose segments are about 0.008 long.
_DECISION_TAIL = 1e-9
# Uniformization segments longer than this are split to avoid exp underflow.
_MAX_SEGMENT = 32.0
# Absorbed evolution runs one Horner pass and one product tree per chunk of
# at most _CHUNK pieces and _CHUNK_BYTES of stacked blocks: 128 pieces up to
# 11 free states, 64 at 16, 16 at 32, and from 128 free states one piece at
# a time, on the rows themselves, where a stacked series was measured slower
# than a series per piece.  Chunks of 64 and 256 were no faster than 128 on
# the hitting profiles of the 16- and 20-cycle (8 and 10 free states).
_CHUNK = 128
_CHUNK_BYTES = 1 << 17
# A forward block merges at most this many flips and grid times, and a
# Poisson weight table holds at most this many series, so no run allocates a
# flips x terms table.  256 was faster than 1024 on the 16- and 32-cycle
# mixing cells (5.2 against 6.0 ms an environment; a table is as wide as its
# longest piece needs) and as fast on the 16 x 16 torus.
_TABLE_ROWS = 256


@dataclass(frozen=True)
class WalkPath:
    """A realized walk: its start and its jumps (times and target vertices)."""

    start: int
    jump_times: np.ndarray
    jump_targets: np.ndarray

    def position_at(self, t: float) -> int:
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.start if k == 0 else int(self.jump_targets[k - 1])


def _attempted_jumps(env: EnvTrajectory, x0: int, horizon: float, n_walkers: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The jumps of n_walkers independent walks from x0 through env up to horizon.

    Each round draws an Exp(1) increment for every active walker, drops the
    walkers now past the horizon, draws a direction for each that remains,
    answers all their (edge, time) questions with one `states_at` query, and
    moves the walkers whose edge is open.  Returns (walker, time, target) of
    every jump, round after round.
    """
    g = env.graph
    nbr, inc = g.neighbor_vertices, g.incident_edges
    t = np.zeros(n_walkers)
    pos = np.full(n_walkers, x0, dtype=np.int64)
    active = np.arange(n_walkers)
    who, when, where = [active[:0]], [t[:0]], [pos[:0]]
    while True:
        t[active] += rng.standard_exponential(len(active))
        active = active[t[active] <= horizon]
        if not len(active):
            break
        k = rng.integers(2 * g.d, size=len(active))
        here = pos[active]
        moved = env.states_at(inc[here, k], t[active]) == 1
        movers = active[moved]
        pos[movers] = nbr[here[moved], k[moved]]
        who.append(movers)
        when.append(t[movers])
        where.append(pos[movers])
    return np.concatenate(who), np.concatenate(when), np.concatenate(where)


def simulate_walks(env: EnvTrajectory, x0: int, horizon: float, n_walkers: int,
                   seed: Optional[int] = None) -> list[WalkPath]:
    """n_walkers independent walks from x0 through one fixed environment, up
    to `horizon`, all drawn from one generator seeded with `seed`.

    One walker takes the draws of a loop over single attempts: an Exp(1)
    increment, then, at or before the horizon, a direction.  A horizon
    outside [0, T] raises `HorizonError`, and a start off the torus, fewer
    than one walker or a seed that `dynenv.check_seed` refuses `InputError`,
    before any draw.
    """
    check_seed(seed)
    env.graph._check_vertex(x0)
    if not 0.0 <= horizon <= env.horizon:
        raise HorizonError(f"walk horizon {horizon} outside [0, {env.horizon}]")
    if not isinstance(n_walkers, (int, np.integer)) or n_walkers < 1:
        raise InputError(f"need at least one walker, got {n_walkers!r}")
    who, times, targets = _attempted_jumps(env, x0, horizon, n_walkers,
                                           np.random.default_rng(seed))
    order = np.argsort(who, kind="stable")  # keeps each walker's jumps in time order
    times, targets = times[order], targets[order]
    ends = np.cumsum(np.bincount(who, minlength=n_walkers)).tolist()
    return [WalkPath(x0, times[a:b], targets[a:b]) for a, b in zip([0] + ends, ends)]


def replay_is_legal(env: EnvTrajectory, path: WalkPath) -> bool:
    """Every jump of the path crossed an edge open at its jump instant.

    All jumps are checked with one `states_at` query, so a jump time
    outside [0, T] raises `HorizonError`.
    """
    g = env.graph
    g._check_vertex(path.start)
    to = np.asarray(path.jump_targets)
    if not ((0 <= to) & (to < g.n_vertices)).all():
        return False
    frm = np.concatenate(([path.start], to))[:-1]
    steps = g.neighbor_vertices[frm] == to[:, None]
    is_open = env.states_at(g.incident_edges[frm, steps.argmax(axis=1)],
                            path.jump_times) == 1
    return bool(steps.any(axis=1).all() and is_open.all())


# ---------------------------------------------------------------------------
# Exact evolution
# ---------------------------------------------------------------------------

class _Stencil:
    """P held as one neighbour-or-self table `nbr`, int64 of shape (2d, N):
    nbr[k, v] is neighbour k of v (`neighbor_vertices[v, k]`) when that edge
    is open and v itself when it is closed.

    An attempt across a closed edge leaves the walker at v, so P = I + Q is
    the mean of 2d gathers: row @ P = (1/2d) sum_k row[nbr[k]] (P is
    symmetric).  `krylov` fills the Krylov rows of a one-row series, each
    with one gather and one dot by 1/(2d) (about 2 us a term at N = 256,
    against 4.3 us for a float table of P's 2d + 1 nonzeros per row,
    multiplied and summed).

    Every form of P has the same entries: 1/(2d) across an open edge and,
    on the diagonal, the count of closed edges times 1/(2d), which is what
    the closed edges' gathers add up to.  `blocks` scatters tables into
    dense blocks of P, and `matrix` writes the table onto a dense P's fixed
    pattern, kept for reuse.
    """

    def __init__(self, g: TorusGraph, open_mask: np.ndarray):
        N = g.n_vertices
        two_d = 2 * g.d
        self._rate = 1.0 / two_d
        self._home = np.arange(N)
        self._far = g.neighbor_vertices.T  # neighbour k of v at [k, v]
        # C order, so a row's gather comes out contiguous
        self.nbr = np.tile(self._home, (two_d, 1))
        is_open = open_mask[g.incident_edges.T]
        self.nbr[is_open] = self._far[is_open]
        self._q = np.full(two_d, self._rate)
        self._dense: Optional[np.ndarray] = None

    def blocks(self, cols: np.ndarray, out: np.ndarray) -> None:
        """Dense blocks of P into out (m, n, n) from m tables cols (m, 2d, n):
        the block columns of n rows' table entries, with n standing for a
        column outside the block, which is dropped.

        One bincount counts every (block, row, column) entry, times 1/(2d):
        off the diagonal a count is 0 or 1, and on it a row's closed edges.
        """
        m, _, n = cols.shape
        starts = (np.arange(m * n) * (n + 1)).reshape(m, 1, n)  # of each row
        counts = np.bincount((starts + cols).reshape(-1), minlength=m * n * (n + 1))
        np.multiply(counts.reshape(m, n, n + 1)[:, :, :n], self._rate, out=out)

    def matrix(self) -> np.ndarray:
        """P as a dense matrix: the table written onto P's fixed pattern, 2d
        neighbour entries (1/(2d) when open, 0 when closed) and, per row,
        the diagonal, its closed edges times 1/(2d)."""
        N = len(self._home)
        if self._dense is None:
            self._dense = np.zeros((N, N))
            self._at = self._home * N + self._far  # flat positions of the pattern
            self._at_home = self._home * (N + 1)
        flat = self._dense.reshape(-1)
        home = self.nbr == self._home
        flat[self._at] = np.where(home, 0.0, self._rate)
        flat[self._at_home] = home.sum(axis=0) * self._rate
        return self._dense

    def krylov(self, rows: list[np.ndarray], k: int) -> None:
        """rows[j] = rows[j - 1] @ P for j = 1, ..., k, in place: rows are
        (N,) views, the rows of one buffer."""
        q, nbr = self._q, self.nbr
        prev = rows[0]
        for term in rows[1:k + 1]:
            np.dot(q, prev[nbr], out=term)
            prev = term


def step_matrix(g: TorusGraph, open_mask: np.ndarray) -> np.ndarray:
    """P = I + Q for the frozen configuration; Q jumps across open edges at rate 1/(2d).

    A diagonal entry is the vertex's count of closed edges times 1/(2d), at
    every d.  Exact evolution never builds it: evolvers hold the neighbour
    table.  The benchmark tracer hooks this name.
    """
    return _Stencil(g, open_mask).matrix()


def _poisson_table(lengths: Sequence[float],
                   tail: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, K, dropped) for the series of each length h <= `_MAX_SEGMENT`:
    series i takes K[i] products with weights W[i, :K[i] + 1] (e^-h h^k/k!;
    later entries are unused) and leaves out the Poisson mass dropped[i].

    The weights are the scalar recurrence w *= h/k, cum += w bit for bit, as
    a cumprod and a cumsum.  W is C-contiguous, since a dot by a strided
    column gives other bits.  A series stops at the first k where
    cum >= 1 - `tail` or, once k > h, where a term leaves cum unchanged, as
    every later one would: at some lengths cum sticks just under
    1 - `_SERIES_TAIL` (h = 23.0206 stops at 74 terms, not the 392 its
    weights take to underflow), so dropped can reach about 1.1e-15.  The
    weights do not depend on `tail`: a coarser tail cuts every series to a
    prefix of its terms, and leaves out at least its mass.
    """
    h = np.asarray(lengths, dtype=float)
    top = h.max(initial=0.0)
    width = math.ceil(top + 8.0 * math.sqrt(top)) + 16  # K(h) <= h + 8 sqrt(h) + 13
    while True:
        k = np.arange(width + 1.0)[:, None]
        T = np.empty((width + 1, len(h)))  # term k of every series in row k
        T[0] = [math.exp(-x) for x in h.tolist()]
        np.divide(h, k[1:], out=T[1:])
        np.multiply.accumulate(T, out=T)
        cum = np.cumsum(T, axis=0)
        stop = cum >= 1.0 - tail
        stop[1:] |= (cum[1:] == cum[:-1]) & (k[1:] > h)
        if stop.any(axis=0).all():
            break
        width *= 2
    K = stop.argmax(axis=0)
    return T.T.copy(), K, np.maximum(1.0 - cum[K, np.arange(len(h))], 0.0)


def _pieces(prev: float, cuts: np.ndarray,
            ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The series pieces of the segments from prev to cuts[0], from cuts[0]
    to cuts[1], and so on, as arrays (h, e): e is ends[j] on the last piece
    of segment j and -1 on the others.  A segment longer than `_MAX_SEGMENT`
    is split into pieces of that length and a rest (the rest of repeated
    subtraction, which is exact); an empty one is one piece of length 0."""
    s = np.diff(cuts, prepend=prev)
    if not (s > _MAX_SEGMENT).any():
        return s, ends
    count = np.maximum(np.ceil(s / _MAX_SEGMENT), 1.0).astype(np.int64)
    last = np.cumsum(count) - 1
    h = np.full(last[-1] + 1, _MAX_SEGMENT)
    h[last] = s - _MAX_SEGMENT * (count - 1)
    e = np.full(len(h), -1, dtype=np.int64)
    e[last] = ends
    return h, e


def _apply_uniformized(mat: np.ndarray, P: np.ndarray, w: np.ndarray,
                       occupation: Optional[np.ndarray] = None) -> np.ndarray:
    """mat @ expm((P - I) h) as the series sum_k w[k] mat P^k, by gemm on a
    dense P, for the weight row w of length h from `_poisson_table`.

    With an `occupation` vector, also adds int_0^h (row sums of the evolving
    rows) dt into it: term k's integral of e^-t t^k / k! is 1 - cum_k.

    Forward evolution runs many rows (a window kernel) here on the evolver's
    `_Stencil.matrix`, and one row on the table itself (`_Evolver._forward`);
    the absorbed path passes a dense free block from 128 free states, and runs
    smaller ones as chunks (`_Evolver._chunk_series`, `_chain`).  For a window
    kernel's N rows a term (gemm plus a fifth of one `matrix` write, about the
    terms a segment takes) was measured against the 2d column gathers
    contracted with 1/(2d): 2.3 against 4.9 us at N = 16 (d = 1), 11 against
    21 us at N = 64 (d = 2) and 38 against 87 ms at N = 1024, but 0.64
    against 0.48 ms at N = 256.  No benchmark workload runs window kernels,
    so one rule, gemm, serves every N.
    """
    acc = w[0] * mat
    if occupation is not None:
        c = 1.0 - np.cumsum(w)
        ones = np.ones(P.shape[-1])  # row sums as products
        occupation += c[0] * (mat @ ones)
    term = mat
    for k in range(1, len(w)):
        term = term @ P
        acc += w[k] * term
        if occupation is not None:
            occupation += c[k] * (term @ ones)
    return acc


def _chain(A: np.ndarray) -> np.ndarray:
    """The product A[0] @ A[1] @ ... @ A[-1], by a pairwise tree: one
    batched matmul per level, log2(len(A)) of them."""
    while len(A) > 1:
        half = A[0:len(A) - 1:2] @ A[1::2]
        A = np.concatenate((half, A[-1:])) if len(A) % 2 else half
    return A[0]


def _window_end(env: EnvTrajectory, t0: float, t: float) -> float:
    """Where the flip window that starts at t ends, in a run from t0: the
    first t0 + 2^k/mu (k = 0, 1, ...) past t, or the end of the kept flips
    (`env._known`) if that lies between.

    Windows double, so a run reads about as far ahead as it has come and
    makes a number of reads logarithmic in its length.
    """
    span = 1.0 / env.params.mu
    while t0 + span <= t:
        span *= 2.0
    end = t0 + span
    return env._known if t < env._known < end else end


def check_exact_size(g: TorusGraph) -> None:
    """Raise `CapabilityError` when g has more than `EXACT_STATE_BUDGET` states."""
    if g.n_vertices > EXACT_STATE_BUDGET:
        raise CapabilityError(
            f"{g.n_vertices} states exceeds the exact-mode budget "
            f"{EXACT_STATE_BUDGET}; use the Monte Carlo estimators")


class _Evolver:
    """Walks a distribution (or matrix of rows) through env flip segments.

    P is built once, as the neighbour-or-self table `_Stencil.nbr`; a flip
    then writes the two entries of its edge, through flat positions in the
    table computed once per edge: across the edge when it opens, back home
    when it closes.  The table holds ints only, so it always equals a fresh
    build.

    Forward evolution (`_forward`, and `advance` as its one-stop case) takes
    its pieces from `_blocks`: a window of flips, read as arrays, merged with
    the grid times in time order into blocks of up to `_TABLE_ROWS` cuts,
    which may span several grid times, and split by one `_pieces` call.  A
    window ends at the last grid time at or before `_window_end`, or at the
    next grid time if none is, so every flip it reads is used.  One
    `_poisson_table` weighs a block's pieces, and one
    tight loop runs a series per piece, applies each flip to the table
    inline and yields at each grid time.  A single row runs its series on
    two Krylov buffers, the sum of one written into row 0 of the other; many
    rows run gemm (`_apply_uniformized`).  A segment with no open edge runs
    no series, by a count of open edges that each flip keeps.

    With an `absorbing` vertex mask the walk is absorbed there, and only the
    sub-stochastic block of P on the free vertices (those off the mask) is
    evolved, since absorbed rows and columns never feed back into it: rows
    and columns of `mat` are the free vertices in increasing order, and
    `occupation` accumulates, per row, the time spent off the mask.  Flips on
    edges with both ends in the mask leave that block unchanged and are
    skipped (their `open_mask` entries go stale).  Flips are fetched in
    windows that end at `_window_end` or t1, whichever comes first; a
    window's end is no cut, as a segment runs from flip to flip across it.

    The absorbed path works in chunks.  `_stack_pieces` stacks a window's
    pieces a chunk at a time, in a few array operations: the state of each
    free-row slot's edge before piece r is its state at the slice's start
    XOR the parity of that edge's flips before r, which gives the block
    columns of every piece's free rows at once (`_rows`); the slice's net
    flips are then applied to the table once (`_toggle`).  `_run_chunk`
    scatters all the stacked pieces' dense blocks at once (`_Stencil.blocks`,
    one bincount).  A stretch longer than `_MAX_SEGMENT` is stacked as
    several pieces, split by `_pieces` as on the forward path.  When the
    stack is full, one weight table serves all its pieces and one Horner
    pass runs on them, longest series first (`_chunk_series`): each piece r
    gets its propagator E_r (the series applied to the identity) and its
    occupation J_r = int E_r(t) 1 dt, as A_r = [[E_r, J_r], [0, 1]].  A
    pairwise product tree multiplies the chunk's A_r in time order, log2 of
    its size batched matmuls, and [mat | occupation] times that product is
    the state after the chunk.  `advance` stops at the first flip after
    which every row has less than 1e-14 mass left, since later segments add
    nothing.  Row mass never grows, so only a chunk that ends below that
    mass holds the stop: its pieces are chained one by one from the chunk's
    start to find the flip, and pieces stacked past it are not counted.  A
    chunk holds at most `_CHUNK` pieces and `_CHUNK_BYTES` of stacked
    blocks.  The block and flip state run ahead of an early stop, so such
    an evolver is meant for a single `advance`.

    Every series stops at the Poisson tail `tail`: `_SERIES_TAIL`, unless
    a caller sets it before the first `advance`, as `_laws` does for the
    coarse pass.  Counters: `segments` (uniformization series run and
    used), `terms` (matrix products taken by those series) and `dropped`
    (the Poisson tail mass those series left out, the sum of their
    `_poisson_table` entries in time order: each below `tail` or, for a sum
    stuck just under 1 - `_SERIES_TAIL`, about 1.1e-15).  Evolution is an
    L1 contraction, so each row's truncation error is at most `dropped`:
    at `_SERIES_TAIL`, the bound to hold against `EXACT_TOL`.
    """

    def __init__(self, env: EnvTrajectory, t0: float,
                 absorbing: Optional[np.ndarray] = None):
        g = env.graph
        check_exact_size(g)
        self.env = env
        self.t = t0
        self.absorbing = absorbing
        self.open_mask = env.open_mask_at(t0)
        self._n_open = int(np.count_nonzero(self.open_mask))
        self.P = _Stencil(g, self.open_mask)
        self._nbr = self.P.nbr.reshape(-1)  # a flat view, for the flips
        N = g.n_vertices
        axis = np.arange(g.n_edges) % g.d
        u, v = g.edge_uv.T
        # per edge: the flat positions in nbr of its entries at u and at v
        # (v is neighbour 2 * axis of u, and u neighbour 2 * axis + 1 of v),
        # then u and v
        self._pos = np.stack([2 * axis * N + u, (2 * axis + 1) * N + v, u, v], axis=1)
        self.occupation = None
        if absorbing is not None:
            free = ~absorbing
            n = int(free.sum())
            self._live_edge = free[g.edge_uv].any(axis=1)
            # per slot (k, j), entry k of free vertex j: its edge, and its
            # block column when that edge is open (n for an absorbing
            # neighbour, which `blocks` drops) and when it is closed (j)
            at = np.flatnonzero(free)
            col = np.full(N, n)
            col[free] = np.arange(n)
            self._slot_edge = g.incident_edges[at].T.reshape(-1)
            self._far_col = col[g.neighbor_vertices[at].T].reshape(-1)
            self._home_col = np.tile(np.arange(n), 2 * g.d)
            self.occupation = np.zeros(n)
            size = max(1, min(_CHUNK, _CHUNK_BYTES // (8 * max(n, 1) ** 2)))
            # the block columns of each stacked piece's free rows, in time order
            self._rows = np.empty((size, 2 * g.d, n), dtype=np.int64)
            self._blocks = np.empty((size, n, n))
            self._lengths: list[float] = []
            self._at_flip: list[bool] = []  # piece ends a flip segment
        self.tail = _SERIES_TAIL  # every series' Poisson tail, set before a run
        self.dropped = 0.0
        self.segments = 0
        self.terms = 0

    def _toggle(self, edges: np.ndarray) -> None:
        """Flip each of the distinct `edges`: its two table entries point
        across it when open, home when closed."""
        is_open = ~self.open_mask[edges]
        self.open_mask[edges] = is_open
        self._n_open += 2 * int(np.count_nonzero(is_open)) - len(edges)
        at_u, at_v, u, v = self._pos[edges].T
        self._nbr[at_u] = np.where(is_open, v, u)
        self._nbr[at_v] = np.where(is_open, u, v)

    def _count(self, K: list[int], dropped: list[float]) -> None:
        """Count the series of K and dropped, adding dropped in order."""
        self.segments += len(K)
        self.terms += sum(K)
        for d in dropped:
            self.dropped += d

    def advance(self, mat: np.ndarray, t1: float) -> np.ndarray:
        """Evolve mat from the current time to t1."""
        if t1 < self.t:
            raise InputError("cannot evolve backwards")
        if self.absorbing is not None:
            return self._advance_absorbed(mat, t1)
        for mat, _ in self._forward(mat, np.array([t1], dtype=float)):
            return mat

    def _forward(self, mat: np.ndarray,
                 stops: np.ndarray) -> Iterator[tuple[np.ndarray, float]]:
        """(mat, dropped) at each time of `stops`, a nondecreasing array of
        times from the current one on: mat evolved to it (a copy for one
        row), and the tail mass left out so far.

        The evolver's time, table and counters are those of the last stop
        yielded, so a run may be left after any stop.
        """
        P, tail = self.P, self.tail
        nbr, mask, n_open = self._nbr, self.open_mask, self._n_open
        pos = self._pos.tolist()
        segments, terms, dropped = self.segments, self.terms, self.dropped
        one_row = len(mat) == 1
        if one_row:  # the Krylov buffers: a[0] holds the row, and b[0] its next value
            a, b = np.empty((2, 16, mat.shape[1]))
            a[0] = mat[0]
            rows_a, rows_b = list(a), list(b)
        stop_times = iter(stops.tolist())
        for hs, es in self._blocks(stops):
            W, K, D = _poisson_table(hs, tail)
            if one_row and K.max() >= len(a):
                a, b = np.empty((2, K.max() + 1, mat.shape[1]))
                a[0] = rows_a[0]
                rows_a, rows_b = list(a), list(b)
            for h, e, w, k, d in zip(hs.tolist(), es.tolist(), W, K.tolist(), D.tolist()):
                if h > 0.0 and n_open:  # no open edge: P = I
                    if one_row:
                        P.krylov(rows_a, k)
                        np.dot(w[:k + 1], a[:k + 1], out=rows_b[0])
                        a, b, rows_a, rows_b = b, a, rows_b, rows_a
                    else:
                        mat = _apply_uniformized(mat, P.matrix(), w[:k + 1])
                    segments += 1
                    terms += k
                    dropped += d
                if e >= 0:
                    at_u, at_v, u, v = pos[e]
                    if mask[e]:
                        mask[e] = False
                        n_open -= 1
                        nbr[at_u], nbr[at_v] = u, v
                    else:
                        mask[e] = True
                        n_open += 1
                        nbr[at_u], nbr[at_v] = v, u
                elif e == -2:
                    self.t = next(stop_times)
                    self._n_open = n_open
                    self.segments, self.terms, self.dropped = segments, terms, dropped
                    yield (a[:1].copy() if one_row else mat), dropped

    def _blocks(self, stops: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The series pieces (h, e) from the current time through each time
        of `stops`, at most `_TABLE_ROWS` at a time: e is the flip that ends
        a piece, -2 at a stop and -1 for neither.

        Each window of flips ends at the last stop at or before
        `_window_end`, or at the next stop if there is none; its flips and
        stops are merged in time order, a flip before a stop at its time,
        `_TABLE_ROWS` at a time.
        """
        env, t0, t, i = self.env, self.t, self.t, 0  # t: the last cut
        while i < len(stops):
            ahead = _window_end(env, t0, t)
            end = max(i + 1, int(np.searchsorted(stops, ahead, "right")))
            times, eids = env.flip_events(t, stops[end - 1])
            c = 0
            while i < end:
                F, S = times[c:c + _TABLE_ROWS], stops[i:min(end, i + _TABLE_ROWS)]
                cuts = np.concatenate((F, S))
                order = np.argsort(cuts, kind="stable")[:_TABLE_ROWS]
                cuts = cuts[order]
                ends = np.concatenate((eids[c:c + len(F)], np.full(len(S), -2)))[order]
                flips = int(np.count_nonzero(order < len(F)))
                c += flips
                i += len(cuts) - flips
                hs, es = _pieces(t, cuts, ends)
                t = float(cuts[-1])
                for r in range(0, len(hs), _TABLE_ROWS):
                    yield hs[r:r + _TABLE_ROWS], es[r:r + _TABLE_ROWS]

    def _advance_absorbed(self, mat: np.ndarray, t1: float) -> np.ndarray:
        env, live, t0 = self.env, self._live_edge, self.t
        self.t = t1
        prev = a = t0
        while a < t1:
            b = min(t1, _window_end(env, t0, a))
            times, eids = env.flip_events(a, b)
            keep = live[eids]
            times = times[keep]
            mat, stopped = self._stack_pieces(mat, *_pieces(prev, times, eids[keep]))
            if stopped:
                return mat
            if len(times):
                prev = float(times[-1])
            a = b
        h, e = _pieces(prev, np.array([t1]), np.array([-1]))
        for r in range(len(h)):  # a stop here is not taken: the stretch runs on
            mat, _ = self._stack_pieces(mat, h[r:r + 1], e[r:r + 1])
        return self._run_chunk(mat)[0]

    def _stack_pieces(self, mat: np.ndarray, h: np.ndarray,
                      e: np.ndarray) -> tuple[np.ndarray, bool]:
        """Stack the pieces (h, e) of `_pieces`, each with the table before
        its flip e (none at -1), in slices that fill the stack, running each
        full chunk.  A piece of length 0 stacks nothing, but its flip is
        applied.  Returns (mat, stopped) at the first chunk that stops."""
        rows = self._rows.reshape(len(self._rows), -1)
        slot_edge = self._slot_edge
        r = 0
        while r < len(h):
            m = len(self._lengths)
            hs, es = h[r:r + len(rows) - m], e[r:r + len(rows) - m]
            r += len(hs)
            # per piece and slot: the edge's state before the piece's flip
            parity = np.logical_xor.accumulate(es[:, None] == slot_edge, axis=0)
            before = np.empty_like(parity)
            before[0] = self.open_mask[slot_edge]
            np.logical_xor(before[0], parity[:-1], out=before[1:])
            used = hs > 0.0
            k = m + int(np.count_nonzero(used))
            rows[m:k] = np.where(before[used], self._far_col, self._home_col)
            self._lengths += hs[used].tolist()
            self._at_flip += (es[used] >= 0).tolist()
            flips = es[es >= 0]
            if len(flips):
                self._toggle(np.flatnonzero(np.bincount(flips) & 1))
            if k == len(rows):
                mat, stopped = self._run_chunk(mat)
                if stopped:
                    return mat, True
        return mat, False

    def _run_chunk(self, mat: np.ndarray) -> tuple[np.ndarray, bool]:
        """Run the stacked pieces' series, then chain them in time order.

        Returns (mat, stopped); pieces after an early stop are not counted.
        """
        lengths, at_flip = self._lengths, self._at_flip
        self._lengths, self._at_flip = [], []
        m = len(lengths)
        if m == 0:
            return mat, False
        blocks = self._blocks[:m]
        self.P.blocks(self._rows[:m], blocks)  # scatters the chunk's blocks
        if m == 1:  # a lone piece runs its series on the rows themselves
            W, K, dropped = _poisson_table(lengths, self.tail)
            mat = _apply_uniformized(mat, blocks[0], W[0, :K[0] + 1], self.occupation)
            self._count(K.tolist(), dropped.tolist())
            return mat, at_flip[0] and mat.sum(axis=1).max(initial=0.0) < 1e-14
        A, K, dropped = self._chunk_series(blocks, lengths)
        n = len(self.occupation)
        state = np.column_stack((mat, self.occupation))  # [mat | occupation]
        end = state @ _chain(A)
        stopped = False
        if any(at_flip) and end[:, :n].sum(axis=1).max(initial=0.0) < 1e-14:
            # the stop is in this chunk: row mass never grows, so only here
            # are the pieces chained one by one, to find its flip
            for i in range(m):
                state = state @ A[i]
                stopped = at_flip[i] and state[:, :n].sum(axis=1).max(initial=0.0) < 1e-14
                if stopped:
                    break
            end = state
            K, dropped = K[:i + 1], dropped[:i + 1]
        self._count(K, dropped)
        self.occupation = end[:, n]
        return end[:, :n], stopped

    def _chunk_series(self, blocks: np.ndarray,
                      lengths: list[float]) -> tuple[np.ndarray, list[int], list[float]]:
        """A_r = [[E_r, J_r], [0, 1]] of each piece r, in time order, from its
        block B_r and the weights w_r of its length: its propagator
        E_r = sum_k w_r[k] B_r^k and its occupation J_r = sum_k (1 - cum_r[k])
        B_r^k 1.  Returns (A, K, dropped), the last two per piece as in
        `_poisson_table`.

        One Horner pass serves every piece: H = [E | J] on a stack, longest
        series first, H <- B H, then w[k] onto the diagonal of the E part and
        1 - cum[k] onto the last column, a piece joining the pass at its own
        k = K.  The augmented generator [[B, 1], [0, 1]] is not used: its
        powers would give the occupation 1 - cum truncated to cum[K] - cum[k].
        """
        W, K, dropped = _poisson_table(lengths, self.tail)
        K = K.tolist()
        m, n = blocks.shape[:2]
        order = sorted(range(m), key=K.__getitem__, reverse=True)
        joins = [K[r] for r in order]  # the step at which each piece joins
        B = blocks[order]
        w = W[order].T.copy()  # w[k] holds every piece's k-th weight
        c = 1.0 - np.cumsum(w, axis=0)
        buffers = np.zeros((2, m, n, n + 1))  # H and the next H, swapped
        H, G = buffers
        dH, dG = buffers.reshape(2, m, -1)[:, :, ::n + 2]  # diagonals of the E parts
        running = 0
        for k in range(joins[0], -1, -1):
            if running:
                np.matmul(B[:running], H[:running], out=G[:running])
                H, G, dH, dG = G, H, dG, dH
            while running < m and joins[running] == k:
                running += 1
            dH[:running] += w[k, :running, None]
            H[:running, :, n] += c[k, :running, None]
        A = np.zeros((m, n + 1, n + 1))
        A[order, :n] = H
        A[:, n, n] = 1.0
        return A, K, dropped.tolist()


def quenched_laws(env: EnvTrajectory, x0: int,
                  grid: Sequence[float]) -> Iterator[np.ndarray]:
    """The quenched law of the walk from x0 at each time of an increasing grid,
    evolved incrementally by one evolver, exact up to `EXACT_TOL` total
    variation.

    The grid is checked before the first step: one that is not 1-d or not
    nondecreasing raises `InputError`, and a time outside [0, T]
    `HorizonError`.
    """
    for law, _ in _laws(env, x0, grid, _SERIES_TAIL):
        yield law


def _laws(env: EnvTrajectory, x0: int, grid: Sequence[float],
          tail: float) -> Iterator[tuple[np.ndarray, float]]:
    """(law, dropped) at each time of the grid, evolved by one evolver whose
    series stop at the Poisson tail `tail`; dropped is the tail mass they
    left out so far.

    `quenched_laws` runs it at `_SERIES_TAIL`, and the coarse pass of
    `dist.quenched_mixing_time` at `_DECISION_TAIL`.  Both tails run the
    same segments with the same weights, so each coarse series is a prefix
    of the exact one: up to rounding, the coarse law is entrywise at most
    the exact law and the true one, and short of mass 1 by at most its
    dropped, which also bounds the exact run's.
    """
    g = env.graph
    g._check_vertex(x0)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise InputError(f"time grid must be 1-d, got shape {grid.shape}")
    if (np.diff(grid) < 0).any():
        raise InputError("time grid must be nondecreasing")
    if len(grid):
        env._check_time(grid.min())
        env._check_time(grid.max())
    ev = _Evolver(env, 0.0)
    ev.tail = tail
    vec = np.zeros((1, g.n_vertices))
    vec[0, x0] = 1.0
    for law, dropped in ev._forward(vec, grid):
        yield law[0], dropped


def exact_quenched_distribution(env: EnvTrajectory, x0: int, t: float) -> np.ndarray:
    """The quenched law of the walk at time t, exact up to `EXACT_TOL` total
    variation."""
    return next(quenched_laws(env, x0, [t]))


def window_kernel(env: EnvTrajectory, window: tuple[float, float]) -> np.ndarray:
    """The stochastic matrix of the walk across [a, b] of the environment,
    exact up to `EXACT_TOL` total variation per row."""
    a, b = window
    if not 0 <= a <= b <= env.horizon:
        raise HorizonError(f"window {window} outside [0, {env.horizon}]")
    ev = _Evolver(env, a)
    return ev.advance(np.eye(env.graph.n_vertices), b)


def quenched_tv_curve(env: EnvTrajectory, x0: int, grid: Sequence[float],
                      stop_below: Optional[float] = None) -> np.ndarray:
    """TV distance to uniform at each grid time, evolving incrementally.

    With `stop_below`, evolution stops at the first grid time whose TV is at or
    below the threshold; later entries are NaN.
    """
    N = env.graph.n_vertices
    uniform = np.full(N, 1.0 / N)
    out = np.full(len(grid), np.nan)
    for i, vec in enumerate(quenched_laws(env, x0, grid)):
        out[i] = 0.5 * np.abs(vec - uniform).sum()
        if stop_below is not None and out[i] <= stop_below:
            break
    return out


def exact_hitting_profile(env: EnvTrajectory, A_mask: np.ndarray,
                          horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Quenched expected hitting times of A from every start, by absorbed evolution.

    Returns (expected_times, censored_mass): for each start x, the accumulated
    E[min(tau_A, horizon)] and the unabsorbed mass left at the horizon.  For
    x in A both are (0, 0).  A horizon outside [0, T] raises `HorizonError`.

    Evolution stops early, at the first flip after which every start has
    less than 1e-14 mass left; the censored mass is then that mass, and a
    mean misses at most censored mass x (horizon - stop time).
    """
    g = env.graph
    if not 0.0 <= horizon <= env.horizon:
        raise HorizonError(f"hitting horizon {horizon} outside [0, {env.horizon}]")
    A_mask = as_mask(A_mask, g.n_vertices)
    free = ~A_mask
    ev = _Evolver(env, 0.0, absorbing=A_mask)
    mat = ev.advance(np.eye(int(free.sum())), horizon)
    expected = np.zeros(g.n_vertices)
    censored = np.zeros(g.n_vertices)
    expected[free] = ev.occupation
    censored[free] = mat.sum(axis=1)
    return expected, censored
