"""Dynamical percolation environments.

Each edge is an independent two-state jump process: closed -> open at rate
p*mu, open -> closed at rate (1-p)*mu.  The stationary law is i.i.d.
Bernoulli(p) per edge.  All paths are right continuous (the state at a flip
instant is the new state).

An environment is immutable.  It is stored flat: the initial states as
int8[E], flip times in one float64 array, and int64 CSR offsets, so the
flips of edge e are `flip_times[offsets[e]:offsets[e + 1]]`.  The one
constructor takes these arrays and validates them once; the sampler and
hand-built environments both call it.  A sampled environment draws its whole
horizon but keeps only the flips of a window [0, T/16] (`_KEPT`); it saves
its generator state, and the first read past the window re-runs the sampler
from that state over the whole horizon, which gives the same flips bit for
bit.  A run reads to about its exit time, of order n^2/mu, and a horizon is
tens of times that, so most environments are never re-run.  Every read goes
through `_know`, which does this; `flip_times`, `offsets`, `env.edges` (the
read-only per-edge `EdgeTrajectory` views, built on first access, through
which the benchmark tracer counts flips) and the dump give the whole horizon.
`flip_events` reads a time-sorted (time, edge) stream that is built lazily:
it is sorted up to a watermark, and a query past the watermark at least
doubles it, up to the end of the kept flips.  One bisection on the flat
arrays, `_first_after`, answers every other question and leaves the stream
alone: `flip_counts` and `open_mask_at` (each edge at one time), the
watermark's advance, and the batched point query `states_at` (edge i at
time i, for a batch of walkers).

The sampler draws standard exponentials in blocks, edge after edge, and
scales and sums them as one `t += rng.exponential(1 / rate)` per hold would,
so a (params, init, seed) gives the same flip times, bit for bit, as the
per-hold loop.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import HorizonError, InputError
from .torus import TorusGraph

INIT_TAGS = ("stationary", "all-closed", "all-open", "explicit")


@dataclass(frozen=True)
class DynParams:
    """Open density p in (0, 1], refresh parameter mu in (0, 1/2], finite horizon T >= 0."""

    p: float
    mu: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise InputError(f"p must be in (0, 1], got {self.p}")
        if not 0.0 < self.mu <= 0.5:
            raise InputError(f"mu must be in (0, 1/2], got {self.mu}")
        if not 0.0 <= self.horizon < math.inf:
            raise InputError(f"horizon must be finite and >= 0, got {self.horizon}")

    @property
    def rate_open(self) -> float:
        return self.p * self.mu

    @property
    def rate_close(self) -> float:
        return (1.0 - self.p) * self.mu


@dataclass(frozen=True)
class EdgeTrajectory:
    """One edge path, a read-only view: initial state plus its flip times."""

    initial_state: int
    flip_times: np.ndarray


class EnvTrajectory:
    """A full environment realization eta = (eta_t) on [0, T] for one torus.

    Immutable after sampling; reproducible bit for bit from (params, init, seed).
    Built from `initial` (int8[E] of 0/1), `flip_times` (float64, each in
    [0, T], strictly increasing per edge; ties across edges are fine) and
    `offsets` (int64[E + 1], nondecreasing from 0 to `len(flip_times)`);
    anything else raises `InputError`.  A built environment knows all of
    [0, T]; `sample_env` keeps the flips of [0, T/16] only, and `_know`
    re-derives the rest on the first read past them.
    """

    __slots__ = ("graph", "params", "init_tag", "seed", "initial", "_flips",
                 "_offsets", "_known", "_rng_state", "_edges", "_mark", "_next",
                 "_times", "_edge_ids")

    def __init__(self, graph: TorusGraph, params: DynParams, initial: np.ndarray,
                 flip_times: np.ndarray, offsets: np.ndarray, init_tag: str,
                 seed: Optional[int]):
        if init_tag not in INIT_TAGS:
            raise InputError(f"unknown init tag {init_tag!r}")
        initial, flip_times, offsets = map(np.asarray, (initial, flip_times, offsets))
        E = graph.n_edges
        if (initial.dtype != np.int8 or initial.shape != (E,)
                or initial.min() < 0 or initial.max() > 1):
            raise InputError(f"initial states must be an int8 vector of {E} zeros and ones")
        if flip_times.dtype != np.float64 or flip_times.ndim != 1:
            raise InputError("flip times must be a 1-d float64 array")
        if (offsets.dtype != np.int64 or offsets.shape != (E + 1,) or offsets[0] != 0
                or offsets[-1] != len(flip_times) or (np.diff(offsets) < 0).any()):
            raise InputError(f"offsets must be {E + 1} nondecreasing int64s "
                             f"from 0 to the flip count {len(flip_times)}")
        _check_flips(flip_times, offsets, params.horizon)
        self.graph = graph
        self.params = params
        self.init_tag = init_tag
        self.seed = seed
        self.initial = initial
        # every flip at or before _known, and the generator state (after the
        # initial states) that re-derives the rest; None once all are known
        self._flips = flip_times
        self._offsets = offsets
        self._known = params.horizon
        self._rng_state: Optional[dict] = None
        self._edges: Optional[tuple[EdgeTrajectory, ...]] = None
        # the (time, edge) stream holds every flip at or before _mark;
        # _next[e] indexes edge e's first flip after it
        self._mark = -1.0
        self._next = offsets[:-1].copy()
        self._times = np.empty(0)
        self._edge_ids = np.empty(0, dtype=np.int64)

    @property
    def flip_times(self) -> np.ndarray:
        """Every flip time on [0, T], edge after edge."""
        self._know(self.horizon)
        return self._flips

    @property
    def offsets(self) -> np.ndarray:
        """The CSR offsets of `flip_times`, int64[E + 1]."""
        self._know(self.horizon)
        return self._offsets

    @property
    def edges(self) -> tuple[EdgeTrajectory, ...]:
        """Read-only per-edge views, built on first access, for the tracer."""
        if self._edges is None:
            self._edges = tuple(EdgeTrajectory(s, self.flip_times[a:b]) for s, a, b in
                                zip(self.initial.tolist(), self.offsets[:-1].tolist(),
                                    self.offsets[1:].tolist()))
        return self._edges

    @property
    def horizon(self) -> float:
        return self.params.horizon

    def _check_time(self, t: float) -> None:
        if t < 0.0:
            raise HorizonError(f"time {t} is negative")
        if not t <= self.horizon:
            raise HorizonError(f"time {t} past horizon {self.horizon}")

    def _check_edges(self, edges) -> np.ndarray:
        """`edges` as an int array; InputError unless every id is an integer
        in [0, E)."""
        edges = np.asarray(edges)
        if not edges.size:
            return edges.astype(np.int64)
        if (edges.dtype.kind not in "iu" or edges.min() < 0
                or edges.max() >= self.graph.n_edges):
            raise InputError(f"edge ids must be integers in [0, {self.graph.n_edges})")
        return edges

    def _know(self, t: float) -> None:
        """Make the kept flips cover [0, t].  Past the kept window, re-run the
        sampler from its saved state over the whole horizon: the same draws,
        so the same flips bit for bit; the stream's cursors move onto the new
        offsets."""
        if not t > self._known:
            return
        rng = np.random.default_rng()
        rng.bit_generator.state = self._rng_state
        flips, offsets = _sample_flips(rng, self.params, self.initial, self.horizon)
        self._next = offsets[:-1] + (self._next - self._offsets[:-1])
        self._flips, self._offsets = flips, offsets
        self._known, self._rng_state = self.horizon, None

    def _first_after(self, t, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per range i, the flat index of the first flip after t (or t[i]) in
        `_flips[lo[i]:hi[i]]`, or hi[i] when there is none; the caller has
        made the kept flips cover t.

        One bisection runs on all the ranges at once, so no pass over the
        whole flat array is made.  It serves the per-edge counts (a range per
        edge and one time) and the point queries (a range and a time each).
        """
        flips = self._flips
        t = np.broadcast_to(t, lo.shape)
        lo, hi = lo.copy(), hi.copy()
        act = np.flatnonzero(lo < hi)
        while act.size:
            mid = (lo[act] + hi[act]) // 2
            below = flips[mid] <= t[act]
            lo[act[below]] = mid[below] + 1
            hi[act[~below]] = mid[~below]
            act = act[lo[act] < hi[act]]
        return lo

    def _extend(self, t: float) -> None:
        """Sort every flip up to at least t into the stream.

        The watermark at least doubles, up to the end of the kept flips.  A
        stable sort of the edge-major new slice keeps equal times in edge order.
        """
        if t <= self._mark:
            return
        self._know(t)
        mark = min(self._known, max(t, 2.0 * self._mark))
        lo = self._first_after(mark, self._next, self._offsets[1:])
        counts = lo - self._next
        idx = np.repeat(self._next - (np.cumsum(counts) - counts), counts) \
            + np.arange(counts.sum())
        flips = self._flips
        order = np.argsort(flips[idx], kind="stable")
        self._times = np.concatenate((self._times, flips[idx[order]]))
        self._edge_ids = np.concatenate(
            (self._edge_ids, np.repeat(np.arange(len(counts)), counts)[order]))
        self._next = lo
        self._mark = mark

    def flip_counts(self, t: float) -> np.ndarray:
        """Flips of each edge at or before t, counted on the flat arrays."""
        self._know(t)
        start = self._offsets[:-1]
        return self._first_after(t, start, self._offsets[1:]) - start

    def open_mask_at(self, t: float) -> np.ndarray:
        self._check_time(t)
        return ((self.initial ^ self.flip_counts(t)) & 1).astype(bool)

    def states_at(self, edges, times) -> np.ndarray:
        """State (1 open, 0 closed) of edge edges[i] at time times[i], for
        every i at once: int8, of the arrays' common shape.

        Right continuous: a flip at times[i] has already happened.  Edge ids
        outside [0, E) raise `InputError`, and times outside [0, T]
        `HorizonError`.
        """
        edges = self._check_edges(edges)
        times = np.asarray(times, dtype=float)
        if edges.shape != times.shape:
            raise InputError(f"{edges.shape} edge ids against {times.shape} times")
        if times.size and not (times.min() >= 0.0 and times.max() <= self.horizon):
            raise HorizonError(f"query times must lie in [0, {self.horizon}]")
        if times.size:
            self._know(times.max())
        e = edges.ravel()
        lo = self._offsets[e]
        counts = self._first_after(times.ravel(), lo, self._offsets[e + 1]) - lo
        return ((self.initial[e] ^ counts) & 1).astype(np.int8).reshape(edges.shape)

    def flip_events(self, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """All flips with time in (t0, t1], time-sorted: (times, edge ids).

        Equal times come in edge order.
        """
        self._check_time(t0)
        self._check_time(t1)
        self._extend(t1)
        i, j = np.searchsorted(self._times, (t0, t1), side="right")
        return self._times[i:j].copy(), self._edge_ids[i:j].copy()


# standard exponentials drawn per rng call, and flips checked per pass, at most
_BLOCK = 1 << 16
# the share of the horizon whose flips `sample_env` keeps
_KEPT = 1.0 / 16


def _check_flips(flips: np.ndarray, offsets: np.ndarray, T: float) -> None:
    """InputError unless every flip lies in [0, T] and the flips of each edge
    strictly increase (pair i, i + 1 unless i + 1 starts an edge); NaN fails.
    Passes of at most `_BLOCK` flips share one bool buffer, so millions of
    flips make no full-length temporary."""
    n = len(flips)
    rising = np.empty(min(n, _BLOCK), dtype=bool)
    for lo in range(0, n, _BLOCK):
        block = flips[lo:lo + _BLOCK]
        if not (block.min() >= 0.0 and block.max() <= T):
            raise InputError(f"flip times must lie in [0, {T}]")
        k = min(_BLOCK, n - 1 - lo)  # pairs (i, i + 1) with i in [lo, lo + k)
        np.greater(flips[lo + 1:lo + 1 + k], flips[lo:lo + k], out=rising[:k])
        starts = offsets[np.searchsorted(offsets, lo + 1, side="left"):
                         np.searchsorted(offsets, lo + k, side="right")]
        rising[starts - (lo + 1)] = True
        if not rising[:k].all():
            raise InputError("the flip times of each edge must strictly increase")


def _mean_flips(params: DynParams) -> float:
    """Expected flips of a stationary edge up to the horizon."""
    r0, r1 = params.rate_open, params.rate_close
    return 2.0 * r0 * r1 / (r0 + r1) * params.horizon


def _flip_capacity(params: DynParams, n_edges: int) -> int:
    """Flip buffer to allocate: the stationary mean, one flip per edge for a
    start off stationarity, and four standard deviations."""
    mean = n_edges * _mean_flips(params)
    return int(mean + n_edges + 4.0 * math.sqrt(mean))


def _mapped_array(n: int) -> np.ndarray:
    """float64[n] on its own anonymous mapping, unmapped when the last view
    goes.  Pages past what is written are never touched and take no memory.

    A re-derived horizon is megabytes of flips.  From malloc, freeing one
    raises glibc's dynamic mmap threshold to its size, and the next
    environments and walk matrices then fill a heap that does not shrink:
    +7 MB of peak RSS over the `sweep` benchmark's repeated sweeps when every
    environment was kept whole.  Its kept windows are under 1 MB, and malloc
    there costs 0.15-0.36 MB of its 43 MB peak (2 CPUs, numpy 2.4).
    """
    return np.frombuffer(mmap.mmap(-1, 8 * max(n, 1)), dtype=np.float64, count=n)


def _sample_flips(rng: np.random.Generator, params: DynParams, states: np.ndarray,
                  keep: float) -> tuple[np.ndarray, np.ndarray]:
    """Flip times of every edge up to `keep` <= T: (flat times, CSR offsets).

    Edge after edge, as one `t += rng.exponential(1 / rate)` per hold would:
    hold k is a standard exponential times 1/rate of the state held, its flip
    time is the running sum, and the edge stops after the first draw past the
    horizon or on entering a rate-0 state.  The draws are those of the whole
    horizon whatever `keep` is; only the flips past `keep` are not written.
    """
    T = params.horizon
    rates = (params.rate_open, params.rate_close)
    scale = [1.0 / r if r > 0.0 else 0.0 for r in rates]
    # draws an edge may make from each start state
    limit = [0 if rates[s] == 0.0 else 1 if rates[s ^ 1] == 0.0 else math.inf
             for s in (0, 1)]
    mean = _mean_flips(params)
    window = min(int(mean + 4.0 * math.sqrt(mean)) + 2, _BLOCK)
    alt = np.empty((2, window))  # hold scales from start state 0 and 1
    alt[0, 0::2] = alt[1, 1::2] = scale[0]
    alt[0, 1::2] = alt[1, 0::2] = scale[1]
    cuts = np.array([T, keep])
    E = len(states)
    flips = _mapped_array(_flip_capacity(DynParams(params.p, params.mu, keep), E))
    offsets = np.zeros(E + 1, dtype=np.int64)
    draws = np.empty(0)
    pos = n = 0
    for e, s in enumerate(states.tolist()):
        t = 0.0
        left = limit[s]
        while left:
            if pos == len(draws):
                draws = rng.standard_exponential(min(_BLOCK, (E - e) * window))
                pos = 0
            k = min(window, len(draws) - pos)
            if left < k:
                k = int(left)
            h = draws[pos:pos + k] * alt[s, :k]
            h[0] += t
            np.add.accumulate(h, out=h)
            j, w = h.searchsorted(cuts, side="right").tolist()  # flips to T, kept
            if w:
                if n + w > len(flips):
                    grown = _mapped_array(2 * (n + w))
                    grown[:n] = flips[:n]
                    flips = grown
                flips[n:n + w] = h[:w]
                n += w
            if j < k:
                pos += j + 1
                break
            pos += k
            left -= k
            t = h[-1]
            s ^= k & 1
        offsets[e + 1] = n
    return flips[:n], offsets


def check_seed(seed: Optional[int]) -> None:
    """Raise `InputError` unless seed is None or an integer in [0, 2^63),
    which an environment dump stores as an int64."""
    if seed is not None and not (isinstance(seed, (int, np.integer))
                                 and 0 <= seed < 2 ** 63):
        raise InputError(f"seed {seed!r} is not an integer in [0, 2^63)")


def sample_env(g: TorusGraph, params: DynParams,
               init: Union[str, Sequence[int]] = "stationary",
               seed: Optional[int] = None) -> EnvTrajectory:
    """Sample a full environment trajectory.

    `init` is one of "stationary", "all-closed", "all-open", or an explicit 0/1
    sequence over edges.  The same (params, init, seed) always reproduces the
    identical trajectory.  Its flips are kept through `_KEPT` of the horizon
    and re-derived past it on the first read there (`EnvTrajectory._know`).
    A seed that `check_seed` refuses raises `InputError` before any draw.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    E = g.n_edges
    tag = init if isinstance(init, str) else "explicit"
    if tag == "stationary":
        states = (rng.random(E) < params.p).astype(np.int8)
    elif tag in ("all-closed", "all-open"):
        states = np.full(E, tag == "all-open", dtype=np.int8)
    elif not isinstance(init, str):
        # checked here, as the sampler reads the states before the constructor
        if np.shape(init) != (E,) or not np.isin(init, (0, 1)).all():
            raise InputError("explicit init must be a 0/1 vector over edges")
        states = np.array(init, dtype=np.int8)
    else:
        raise InputError(f"unknown init {init!r}")
    state = rng.bit_generator.state
    keep = _KEPT * params.horizon
    env = EnvTrajectory(g, params, states, *_sample_flips(rng, params, states, keep),
                        tag, seed)
    env._known, env._rng_state = keep, state
    return env


def edge_transition_prob(p: float, mu: float, t: float) -> np.ndarray:
    """Exact two-state law of one edge over time t, for p in (0, 1], mu > 0
    and a finite t >= 0.

    Returns the 2x2 row-stochastic kernel K[from, to]:
    K[0, 1] = p(1 - e^(-mu t)), K[1, 1] = p + (1-p) e^(-mu t).
    """
    if not 0.0 < p <= 1.0:
        raise InputError(f"p must be in (0, 1], got {p}")
    if not mu > 0.0:
        raise InputError(f"mu must be positive, got {mu}")
    if not 0.0 <= t < math.inf:
        raise InputError(f"t must be finite and >= 0, got {t}")
    decay = math.exp(-mu * t)
    k01 = p * (1.0 - decay)
    k11 = p + (1.0 - p) * decay
    return np.array([[1.0 - k01, k01], [1.0 - k11, k11]])


def count_open_throughout(env: EnvTrajectory, A: Iterable[int],
                          a: float, b: float) -> int:
    """#{e in A : edge e open on all of [a, b]}; edge ids outside [0, E)
    raise `InputError`."""
    if not 0 <= a <= b:
        raise InputError("need 0 <= a <= b")
    env._check_time(a)
    env._check_time(b)
    A = env._check_edges(A if isinstance(A, np.ndarray) else list(A))
    at_a = env.flip_counts(a)
    ok = ((env.initial ^ at_a) & 1).astype(bool) & (at_a == env.flip_counts(b))
    return int(ok[A].sum())


def isolated_vertex_exists(env: EnvTrajectory, L: float) -> tuple[bool, Optional[int]]:
    """Is some vertex surrounded by edges closed on all of [0, L]?  Returns the
    lowest such vertex as a witness."""
    env._check_time(L)
    closed = (env.initial == 0) & (env.flip_counts(L) == 0)  # on all of [0, L]
    isolated = closed[env.graph.incident_edges].all(axis=1)
    v = int(np.argmax(isolated))
    return (True, v) if isolated[v] else (False, None)


# ---------------------------------------------------------------------------
# Trajectory dump format, version 1.
#
#   magic   b"DPENVv1\n"
#   header  struct "<II d d d B q B"  (d, n, p, mu, T, init tag index,
#                                      seed, seed-present flag)
#   edges   per edge: "<B I" (initial bit, flip count) + count float64 times
# ---------------------------------------------------------------------------

_MAGIC = b"DPENVv1\n"
_HEADER = struct.Struct("<IIdddBqB")
_EDGE_HEADER = struct.Struct("<BI")


def dump_env(env: EnvTrajectory, fh) -> None:
    """Write the versioned binary dump above; no command reads one back."""
    seed = env.seed
    fh.write(_MAGIC)
    fh.write(_HEADER.pack(env.graph.d, env.graph.n, env.params.p, env.params.mu,
                          env.params.horizon, INIT_TAGS.index(env.init_tag),
                          0 if seed is None else int(seed),
                          0 if seed is None else 1))
    off = env.offsets.tolist()
    for e, state in enumerate(env.initial.tolist()):
        fh.write(_EDGE_HEADER.pack(state, off[e + 1] - off[e]))
        fh.write(env.flip_times[off[e]:off[e + 1]].astype("<f8", copy=False).tobytes())
