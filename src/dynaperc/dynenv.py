"""Dynamical percolation environments.

Each edge is an independent two-state jump process: closed -> open at rate
p*mu, open -> closed at rate (1-p)*mu.  The stationary law is i.i.d.
Bernoulli(p) per edge.  Trajectories are fully materialized up to the horizon
and immutable afterwards; all paths are right continuous (the state at a flip
instant is the new state).
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field
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
    """One edge path: initial state plus strictly increasing flip times in [0, T]."""

    initial_state: int
    flip_times: np.ndarray  # float64, strictly increasing

    def __post_init__(self):
        if self.initial_state not in (0, 1):
            raise InputError("initial state must be 0 or 1")
        t = np.asarray(self.flip_times, dtype=np.float64)
        if t.ndim != 1 or (len(t) > 1 and not np.all(np.diff(t) > 0)):
            raise InputError("flip times must be a strictly increasing 1-d array")
        object.__setattr__(self, "flip_times", t)

    def state_at(self, t: float) -> int:
        # right continuous: a flip exactly at t has already happened
        k = int(np.searchsorted(self.flip_times, t, side="right"))
        return self.initial_state ^ (k & 1)

    def open_throughout(self, a: float, b: float) -> bool:
        """Open at every instant of [a, b]."""
        if self.state_at(a) != 1:
            return False
        i = np.searchsorted(self.flip_times, a, side="right")
        j = np.searchsorted(self.flip_times, b, side="right")
        return bool(i == j)

    def closed_throughout(self, a: float, b: float) -> bool:
        if self.state_at(a) != 0:
            return False
        i = np.searchsorted(self.flip_times, a, side="right")
        j = np.searchsorted(self.flip_times, b, side="right")
        return bool(i == j)


class EnvTrajectory:
    """A full environment realization eta = (eta_t) on [0, T] for one torus.

    Immutable after sampling; reproducible bit for bit from (params, init, seed).
    """

    __slots__ = ("graph", "params", "edges", "init_tag", "seed")

    def __init__(self, graph: TorusGraph, params: DynParams,
                 edges: Sequence[EdgeTrajectory], init_tag: str,
                 seed: Optional[int]):
        if len(edges) != graph.n_edges:
            raise InputError("edge trajectory count does not match the graph")
        if init_tag not in INIT_TAGS:
            raise InputError(f"unknown init tag {init_tag!r}")
        self.graph = graph
        self.params = params
        self.edges = tuple(edges)
        self.init_tag = init_tag
        self.seed = seed

    @property
    def horizon(self) -> float:
        return self.params.horizon

    def _check_time(self, t: float) -> None:
        if t < 0.0:
            raise HorizonError(f"time {t} is negative")
        if t > self.horizon:
            raise HorizonError(f"time {t} past horizon {self.horizon}")

    def state_at(self, edge: int, t: float) -> int:
        self._check_time(t)
        return self.edges[edge].state_at(t)

    def open_mask_at(self, t: float) -> np.ndarray:
        self._check_time(t)
        return np.fromiter((e.state_at(t) for e in self.edges),
                           dtype=bool, count=len(self.edges))

    def flip_events(self, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """All flips with time in (t0, t1], time-sorted: (times, edge ids)."""
        self._check_time(t0)
        self._check_time(t1)
        times = []
        ids = []
        for e, tr in enumerate(self.edges):
            ft = tr.flip_times
            i = np.searchsorted(ft, t0, side="right")
            j = np.searchsorted(ft, t1, side="right")
            if j > i:
                times.append(ft[i:j])
                ids.append(np.full(j - i, e, dtype=np.int64))
        if not times:
            return np.empty(0), np.empty(0, dtype=np.int64)
        t = np.concatenate(times)
        e = np.concatenate(ids)
        order = np.argsort(t, kind="stable")
        return t[order], e[order]


def _sample_flips(rng: np.random.Generator, params: DynParams, state: int) -> np.ndarray:
    """Flip times of one edge up to the horizon, starting in `state` at time 0."""
    T = params.horizon
    rates = (params.rate_open, params.rate_close)
    t = 0.0
    s = state
    out = []
    while True:
        rate = rates[s]
        if rate == 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t > T:
            break
        out.append(t)
        s ^= 1
    return np.asarray(out, dtype=np.float64)


def sample_env(g: TorusGraph, params: DynParams,
               init: Union[str, Sequence[int]] = "stationary",
               seed: Optional[int] = None) -> EnvTrajectory:
    """Sample a full environment trajectory.

    `init` is one of "stationary", "all-closed", "all-open", or an explicit 0/1
    sequence over edges.  The same (params, init, seed) always reproduces the
    identical trajectory.
    """
    rng = np.random.default_rng(seed)
    E = g.n_edges
    if isinstance(init, str):
        if init == "stationary":
            states = (rng.random(E) < params.p).astype(np.int8)
            tag = "stationary"
        elif init == "all-closed":
            states = np.zeros(E, dtype=np.int8)
            tag = "all-closed"
        elif init == "all-open":
            states = np.ones(E, dtype=np.int8)
            tag = "all-open"
        else:
            raise InputError(f"unknown init {init!r}")
    else:
        states = np.asarray(init, dtype=np.int8)
        if states.shape != (E,) or not np.isin(states, (0, 1)).all():
            raise InputError("explicit init must be a 0/1 vector over edges")
        tag = "explicit"
    edges = [EdgeTrajectory(int(states[e]), _sample_flips(rng, params, int(states[e])))
             for e in range(E)]
    return EnvTrajectory(g, params, edges, tag, seed)


def edge_transition_prob(p: float, mu: float, t: float,
                         frm: Optional[int] = None,
                         to: Optional[int] = None):
    """Exact two-state law of one edge over time t.

    Returns the 2x2 row-stochastic kernel K[from, to], or the single entry when
    `frm` and `to` are given.  K[0, 1] = p(1 - e^(-mu t)), K[1, 1] = p + (1-p) e^(-mu t).
    """
    if t < 0:
        raise InputError("t must be >= 0")
    decay = math.exp(-mu * t)
    k01 = p * (1.0 - decay)
    k11 = p + (1.0 - p) * decay
    K = np.array([[1.0 - k01, k01], [1.0 - k11, k11]])
    if frm is None and to is None:
        return K
    return float(K[frm, to])


def open_throughout_prob_from_closed(p: float, mu: float, a: float, b: float) -> float:
    """P(edge open on all of [a, b] | closed at 0), in closed form.

    Open at a (prob p(1 - e^(-mu a))), then no closing flip over b - a.
    """
    if not 0 <= a <= b:
        raise InputError("need 0 <= a <= b")
    return p * (1.0 - math.exp(-mu * a)) * math.exp(-(1.0 - p) * mu * (b - a))


def count_open_throughout(env: EnvTrajectory, A: Iterable[int],
                          a: float, b: float) -> int:
    """#{e in A : edge e open on all of [a, b]}."""
    if not 0 <= a <= b:
        raise InputError("need 0 <= a <= b")
    env._check_time(a)
    env._check_time(b)
    return sum(1 for e in A if env.edges[e].open_throughout(a, b))


@dataclass(frozen=True)
class BinomialLemmaReport:
    empirical_prob: float
    ci: tuple[float, float]
    analytic_worst_case: float
    per_edge_prob: float
    threshold_count: int
    trials: int


def binomial_lemma_check(g: TorusGraph, params: DynParams, A: Sequence[int],
                         sigma: float, interval: tuple[float, float] = (0.5, 1.0),
                         trials: int = 200, seed: Optional[int] = None,
                         init: Union[str, Sequence[int]] = "all-closed") -> BinomialLemmaReport:
    """Monte Carlo check that #open-throughout edges of A >= |A|*sigma*mu often.

    Also reports the analytic worst-case (all-closed start) Binomial tail with
    per-edge success probability p(1 - e^(-mu a)) e^(-(1-p) mu (b-a)).
    """
    from scipy import stats

    from .dist import wilson_interval

    if trials < 1:
        raise InputError("trials must be >= 1")
    a, b = interval
    A = list(A)
    threshold = len(A) * sigma * params.mu
    k_threshold = math.ceil(threshold - 1e-12)
    hits = 0
    for i in range(trials):
        sub_seed = None if seed is None else seed + i
        env = sample_env(g, params, init=init, seed=sub_seed)
        if count_open_throughout(env, A, a, b) >= k_threshold:
            hits += 1
    q = open_throughout_prob_from_closed(params.p, params.mu, a, b)
    analytic = float(stats.binom.sf(k_threshold - 1, len(A), q))
    return BinomialLemmaReport(
        empirical_prob=hits / trials,
        ci=wilson_interval(hits, trials),
        analytic_worst_case=analytic,
        per_edge_prob=q,
        threshold_count=k_threshold,
        trials=trials,
    )


def isolated_vertex_exists(env: EnvTrajectory, L: float) -> tuple[bool, Optional[int]]:
    """Is some vertex surrounded by edges closed on all of [0, L]?  Returns a witness."""
    env._check_time(L)
    g = env.graph
    inc = g.incident_edges
    for v in range(g.n_vertices):
        if all(env.edges[e].closed_throughout(0.0, L) for e in inc[v]):
            return True, v
    return False, None


def simulate_edge_state_at(p: float, mu: float, t: float, n_samples: int,
                           init_state: int, seed: Optional[int] = None) -> np.ndarray:
    """Vectorized simulation of n independent single-edge chains, state at time t.

    Real trajectory simulation (alternating exponential holds), not the closed
    form; used to validate the closed form by Monte Carlo.
    """
    rng = np.random.default_rng(seed)
    states = np.full(n_samples, init_state, dtype=np.int8)
    now = np.zeros(n_samples)
    active = np.ones(n_samples, dtype=bool)
    rate_of = np.array([p * mu, (1.0 - p) * mu])
    while active.any():
        idx = np.nonzero(active)[0]
        rates = rate_of[states[idx]]
        alive = rates > 0
        idx = idx[alive]
        if len(idx) == 0:
            break
        holds = rng.exponential(1.0 / rate_of[states[idx]])
        now[idx] += holds
        flipped = idx[now[idx] <= t]
        states[flipped] ^= 1
        active[:] = False
        active[flipped] = True
    return states


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
    """Write the versioned binary dump; round-trips bit-exactly via load_env."""
    seed = env.seed
    fh.write(_MAGIC)
    fh.write(_HEADER.pack(env.graph.d, env.graph.n, env.params.p, env.params.mu,
                          env.params.horizon, INIT_TAGS.index(env.init_tag),
                          0 if seed is None else int(seed),
                          0 if seed is None else 1))
    for tr in env.edges:
        fh.write(_EDGE_HEADER.pack(tr.initial_state, len(tr.flip_times)))
        fh.write(tr.flip_times.astype("<f8").tobytes())


def load_env(fh) -> EnvTrajectory:
    return loads_env(fh.read())


def dumps_env(env: EnvTrajectory) -> bytes:
    buf = io.BytesIO()
    dump_env(env, buf)
    return buf.getvalue()


def loads_env(data: bytes) -> EnvTrajectory:
    """Parse a dump of `dump_env`; truncated or corrupt data raises InputError."""
    if data[:len(_MAGIC)] != _MAGIC:
        raise InputError("not a dynaperc environment dump (bad magic)")
    pos = len(_MAGIC) + _HEADER.size
    if len(data) < pos:
        raise InputError("environment dump truncated in its header")
    d, n, p, mu, T, tag_idx, seed, has_seed = _HEADER.unpack_from(data, len(_MAGIC))
    if tag_idx >= len(INIT_TAGS) or has_seed > 1 or (not has_seed and seed):
        raise InputError("corrupt environment dump header")
    g = TorusGraph(d, n)
    params = DynParams(p, mu, T)
    # every edge takes a header; test that before n^d makes a huge integer
    room = (len(data) - pos) // _EDGE_HEADER.size
    if room == 0 or d * math.log(n) > math.log(room) or g.n_edges > room:
        raise InputError("environment dump truncated before its last edge")
    edges = []
    for _ in range(g.n_edges):
        if len(data) < pos + _EDGE_HEADER.size:
            raise InputError("environment dump truncated before its last edge")
        state, count = _EDGE_HEADER.unpack_from(data, pos)
        pos += _EDGE_HEADER.size
        if len(data) < pos + 8 * count:
            raise InputError("environment dump truncated inside flip times")
        times = np.frombuffer(data, dtype="<f8", count=count, offset=pos).copy()
        pos += 8 * count
        if count and not (times[0] >= 0.0 and times[-1] <= T):
            raise InputError("flip times outside [0, horizon]")
        edges.append(EdgeTrajectory(state, times))
    if pos != len(data):
        raise InputError("trailing bytes after the environment dump")
    return EnvTrajectory(g, params, edges, INIT_TAGS[tag_idx],
                         seed if has_seed else None)
