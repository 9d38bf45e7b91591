"""Shared generators and independent references for the test suite.

Generators: random reversible kernels and chains (`random_pi`,
`random_reversible_kernel`, `random_kernels`, `lazy`), and hand-built
environments from per-edge flip lists (`make_env`).

References, each a second way to compute what the library computes:
- environments: the per-hold sampler `scalar_sample_env`, the per-edge loops
  `loop_flip_events` and `loop_open_mask_at`, the one-edge queries
  `edge_state_at`, `edge_open_throughout` and `edge_closed_throughout` on an
  `EdgeTrajectory`, the single-edge trajectory simulation
  `simulate_edge_state_at`, the closed form
  `open_throughout_prob_from_closed`, and `dumps_env` and `loads_env`, the
  in-memory dump and its parser;
- the torus: the scalar lookups `vertex_index`, `coords`, `shift`,
  `edge_id` and `edge_endpoints`, against which the vectorized tables are
  checked, and `rebuild_iso_profile`, the isoperimetric profile from bool
  membership tables;
- walks: `rebuild_step_matrix`, the dense jump matrix built edge by edge,
  and on it `rebuild_forward` and `rebuild_hitting_profile`, forward and
  absorbed evolution with P rebuilt per flip; `rebuild_neighbour_table`,
  the evolvers' neighbour-or-self table built edge by edge;
  `horizon_annealed_mixing_time`, the annealed mixing time and its
  bootstrap from every environment evolved to the horizon;
- subset masses: `scalar_mass`, the members' pi summed in increasing order;
- evolving sets: the threshold rule one mask at a time (`scalar_ratios`,
  `evolve_step` for one draw of U, `scalar_step_law` for the exact law and
  `scalar_psi`), the dict set-law loop `dict_propagate_set_law` on it and
  its Z expectations `dict_z_expectations`, the set-law marginal identity
  `marginal_identity_check`, and the joint Doob loop `dict_doob_z_expectation`;
- finite environments: `phi_env`, one environment step of expansion, and the
  quenched chi tail by path enumeration (`enumerate_tail`) or by Monte Carlo
  over environment paths (`mc_tail`, with `wilson_interval`);
- profiles: the running-infimum loop `loop_profile_from_values`, and
  `assert_profiles_close`.
"""

import io
import math

import numpy as np

from dynaperc.errors import InputError
from dynaperc.expansion import half_mass_subsets
from dynaperc.walk import _MAX_SEGMENT, _SERIES_TAIL


def random_pi(rng, m, floor=0.2):
    pi = rng.random(m) + floor
    return pi / pi.sum()


def random_reversible_kernel(rng, pi, activity=0.4):
    """K(x,y) = c A(x,y) / pi(x) for symmetric A, diagonal filled to row sum 1.

    Reversible w.r.t. pi by construction; `activity` < 1 keeps diagonals
    positive (lazy enough for gamma > 0).
    """
    m = len(pi)
    A = rng.random((m, m))
    A = A + A.T
    c = activity / max((A.sum(axis=1) / pi).max(), 1e-12)
    K = c * A / pi[:, None]
    K[np.diag_indices(m)] += 1.0 - K.sum(axis=1)
    return K


def random_kernels(rng, pi, k, activity=0.4):
    return tuple(random_reversible_kernel(rng, pi, activity) for _ in range(k))


def lazy(K):
    return 0.5 * (K + np.eye(K.shape[0]))


def scalar_ratios(mask, K, pi):
    """r_y = Q(S, y) / pi(y), Q(S, .) as one vector-matrix product over the
    members of S."""
    members = np.array([mask >> y & 1 for y in range(len(pi))], dtype=bool)
    return (pi[members] @ K[members]) / pi


def scalar_mass(mask, pi):
    """Reference for the one subset-mass rule: pi(S) of one bitmask, its
    members' pi summed by a Python loop in increasing state order."""
    return sum(float(pi[y]) for y in range(len(pi)) if mask >> y & 1)


def scalar_step_law(mask, K, pi, doob=False):
    """Reference for `evoset.step_law` (`doob_step_law` if `doob`): the
    threshold rule for one mask, its level sets found by a scalar loop over
    the distinct ratios; a list of (mask, probability)."""
    r = scalar_ratios(mask, K, pi)
    levels = sorted({v for v in r.tolist() if v > 0.0}, reverse=True)
    # P(S-tilde = {y : r_y >= v_i}) = v_i - v_{i+1}; P(empty) = 1 - v_1
    out = [(0, 1.0 - (levels[0] if levels else 0.0))]
    for v, nxt in zip(levels, levels[1:] + [0.0]):
        out.append((sum(1 << y for y in range(len(pi)) if r[y] >= v), v - nxt))
    out = [(s, p) for s, p in out if p > 0.0]
    if doob:
        mass0 = scalar_mass(mask, pi)
        out = [(s, p * (scalar_mass(s, pi) / mass0)) for s, p in out if s]
    return out


def scalar_psi(mask, K, pi):
    """Reference for `evoset.expected_sqrt_ratio`, on `scalar_step_law`."""
    mass0 = scalar_mass(mask, pi)
    return 1.0 - sum(p * math.sqrt(scalar_mass(s, pi) / mass0)
                     for s, p in scalar_step_law(mask, K, pi))


def dict_propagate_set_law(kernels, pi, s0, doob=False, prune=1e-15):
    """Reference for `evoset.propagate_set_law`: the subset law as a dict per
    step, with one `scalar_step_law` per (mask, step) and entries below
    `prune` moved into the pruned total after each step.  Each step adds the
    masks' terms in increasing mask order."""
    laws = [{s0: 1.0}]
    pruned = 0.0
    current = {s0: 1.0}
    for K in kernels:
        nxt = {}
        for mask, prob in sorted(current.items()):
            for s, p in scalar_step_law(mask, K, pi, doob):
                nxt[s] = nxt.get(s, 0.0) + prob * p
        if prune > 0.0:
            for s in [s for s, p in nxt.items() if p < prune]:
                pruned += nxt.pop(s)
        current = nxt
        laws.append(dict(current))
    return laws, pruned


def dict_z_expectations(chain, x):
    """Reference for `evoset.doob_z_bound_check`'s Z expectations: E-hat[Z_k]
    per step k, a Python sum over each step's `dict_propagate_set_law` Doob
    law in increasing mask order."""
    from dynaperc.evoset import PRUNE_EPS, z_statistic

    laws, _ = dict_propagate_set_law(chain.kernels, chain.pi, 1 << x, doob=True,
                                     prune=PRUNE_EPS)
    return [sum(p * float(z_statistic(mask, chain.pi)) for mask, p in sorted(law.items()))
            for law in laws]


def loop_profile_from_values(masses, phis, provenance, pi_star):
    """Reference for `expansion.profile_from_values`: one Python pass over the
    sets in increasing mass order.  A set joins the current knot while its
    mass is within 1e-15 of the knot's first mass; knots where the running
    infimum does not move are dropped after."""
    from dynaperc.expansion import ExpansionProfile

    masses = np.asarray(masses, dtype=float)
    phis = np.asarray(phis, dtype=float)
    keep = masses <= 0.5 + 1e-12
    masses, phis = masses[keep], phis[keep]
    order = np.argsort(masses, kind="stable")
    knots, values = [], []
    running = math.inf
    for m, f in zip(masses[order], phis[order]):
        running = min(running, f)
        if knots and abs(m - knots[-1]) < 1e-15:
            values[-1] = running
        else:
            knots.append(float(m))
            values.append(running)
    ks, vs = [knots[0]], [values[0]]
    for k, v in zip(knots[1:], values[1:]):
        if v < vs[-1]:
            ks.append(k)
            vs.append(v)
    return ExpansionProfile(np.array(ks), np.array(vs), provenance, pi_star)


def dict_doob_z_expectation(chain, x, zeta0, n, number=float):
    """Reference for the joint Doob certificate: E over env paths from zeta0
    of E-hat[Z_n] from {x}, by a dict over (subset, env state) pairs.

    `number=fractions.Fraction` carries the same float inputs through exact
    rational sums instead of float ones."""
    from dynaperc import evoset

    pi = chain.pi
    laws = {}
    weights = {(1 << x, zeta0): number(1)}
    for _ in range(n):
        nxt = {}
        for (mask, z), w in weights.items():
            for z2 in range(chain.n_env):
                rw = chain.R[z, z2]
                if rw == 0.0:
                    continue
                if (mask, z2) not in laws:
                    laws[mask, z2] = evoset.doob_step_law(mask, chain.kernels[z2], pi).entries
                for s, p in laws[mask, z2]:
                    nxt[s, z2] = nxt.get((s, z2), 0) + w * number(rw) * number(p)
        weights = nxt
    return float(sum(w * number(evoset.z_statistic(mask, pi))
                     for (mask, _), w in weights.items()))


def assert_profiles_close(a, b, tol):
    """Two step profiles agree within tol between their knots.

    Knots within 1e-9 of each other count as one: masses summed in another
    order may differ in the last bits, which moves a knot but not a step."""
    knots = np.unique(np.concatenate([a.knots, b.knots, [0.5]]))
    reps = knots[np.append(True, np.diff(knots) > 1e-9)]
    points = (reps[:-1] + reps[1:]) / 2.0
    gap = max(abs(a.value(u) - b.value(u)) for u in points)
    assert gap <= tol, f"profiles differ by {gap:.3e}"
    assert a.provenance == b.provenance and a.pi_star == b.pi_star


def scalar_sample_env(g, params, init, seed):
    """Reference for `dynenv.sample_env`: (initial states, per-edge flip times)
    drawn by one `t += rng.exponential(1 / rate)` per hold, edge after edge."""
    rng = np.random.default_rng(seed)
    E = g.n_edges
    if init == "stationary":
        states = (rng.random(E) < params.p).astype(np.int8)
    elif init == "all-closed":
        states = np.zeros(E, dtype=np.int8)
    elif init == "all-open":
        states = np.ones(E, dtype=np.int8)
    else:
        states = np.asarray(init, dtype=np.int8)
    rates = (params.rate_open, params.rate_close)
    flips = []
    for s in states.tolist():
        t = 0.0
        out = []
        while rates[s] != 0.0:
            t += rng.exponential(1.0 / rates[s])
            if t > params.horizon:
                break
            out.append(t)
            s ^= 1
        flips.append(np.asarray(out, dtype=np.float64))
    return states, flips


def loop_flip_events(env, t0, t1):
    """Reference for `EnvTrajectory.flip_events`: a window per edge, then a
    stable sort of the edge-major concatenation."""
    times, ids = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for e, tr in enumerate(env.edges):
        ft = tr.flip_times
        i = np.searchsorted(ft, t0, side="right")
        j = np.searchsorted(ft, t1, side="right")
        times.append(ft[i:j])
        ids.append(np.full(max(j - i, 0), e, dtype=np.int64))
    t, e = np.concatenate(times), np.concatenate(ids)
    order = np.argsort(t, kind="stable")
    return t[order], e[order]


def loop_open_mask_at(env, t):
    """Reference for `EnvTrajectory.open_mask_at`: one state per edge."""
    return np.array([edge_state_at(tr, t) == 1 for tr in env.edges])


def edge_state_at(tr, t):
    """Reference for `EnvTrajectory.states_at`: the state of one
    `EdgeTrajectory` at t, right continuous (a flip at t has happened)."""
    k = int(np.searchsorted(tr.flip_times, t, side="right"))
    return tr.initial_state ^ (k & 1)


def edge_open_throughout(tr, a, b):
    """The edge is open at every instant of [a, b]: open at a, no flip in (a, b]."""
    return edge_state_at(tr, a) == 1 and _no_flip_in(tr, a, b)


def edge_closed_throughout(tr, a, b):
    """The edge is closed at every instant of [a, b]."""
    return edge_state_at(tr, a) == 0 and _no_flip_in(tr, a, b)


def _no_flip_in(tr, a, b):
    return bool(np.searchsorted(tr.flip_times, a, side="right")
                == np.searchsorted(tr.flip_times, b, side="right"))


def vertex_index(g, coords):
    """Reference for the torus tables: the index of a vertex from its
    coordinates, coordinate 0 the most significant digit."""
    if len(coords) != g.d:
        raise InputError(f"expected {g.d} coordinates, got {len(coords)}")
    v = 0
    for c in coords:
        if not 0 <= c < g.n:
            raise InputError(f"coordinate {c} out of range [0, {g.n})")
        v = v * g.n + c
    return v


def coords(g, v):
    """The coordinates of vertex v."""
    g._check_vertex(v)
    return tuple((v // g.n ** a) % g.n for a in range(g.d - 1, -1, -1))


def shift(g, v, axis, step):
    """The vertex reached from v by moving `step` (+-1) along `axis`."""
    g._check_vertex(v)
    if not 0 <= axis < g.d:
        raise InputError(f"axis {axis} out of range [0, {g.d})")
    weight = g.n ** (g.d - 1 - axis)
    digit = (v // weight) % g.n
    return v + ((digit + step) % g.n - digit) * weight


def edge_id(g, v, axis):
    """The id of the edge from v in the +1 direction along `axis`."""
    g._check_vertex(v)
    if not 0 <= axis < g.d:
        raise InputError(f"axis {axis} out of range [0, {g.d})")
    return v * g.d + axis


def edge_endpoints(g, e):
    """The endpoints (v, v shifted by +1 along the edge's axis) of edge e."""
    if not 0 <= e < g.n_edges:
        raise InputError(f"edge {e} out of range [0, {g.n_edges})")
    v, axis = divmod(e, g.d)
    return v, shift(g, v, axis, +1)


def rebuild_iso_profile(g):
    """Reference for `torus.iso_profile`: (value, minimizer) from a bool
    membership table of each chunk's masks, counting the edges of `edge_uv`
    whose endpoint bits differ."""
    N = g.n_vertices
    uv = g.edge_uv
    expo = (g.d - 1) / g.d
    best, best_set = math.inf, None
    for masks, _ in half_mass_subsets(np.full(N, 1.0 / N)):
        bits = (masks[:, None] >> np.arange(N) & 1).astype(bool)
        sizes = bits.sum(axis=1)
        bnd = (bits[:, uv[:, 0]] != bits[:, uv[:, 1]]).sum(axis=1)
        ratio = bnd / sizes.astype(float) ** expo
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best = float(ratio[i])
            best_set = bits[i].copy()
    return best, best_set


def rebuild_step_matrix(g, open_mask):
    """Reference for the evolvers' jump operator: P = I + Q for a frozen
    configuration, dense.  Each open edge sets both its off-diagonal
    entries to the rate 1/(2d); each vertex's closed edges are counted from
    `edge_uv`, and its diagonal entry is that count times the rate."""
    rate = 1.0 / (2 * g.d)
    P = np.zeros((g.n_vertices, g.n_vertices))
    u, v = g.edge_uv[open_mask].T
    P[u, v] = rate
    P[v, u] = rate
    closed = np.bincount(g.edge_uv[~open_mask].reshape(-1), minlength=g.n_vertices)
    P[np.diag_indices_from(P)] = closed * rate
    return P


def rebuild_neighbour_table(g, open_mask):
    """Reference for the evolvers' neighbour-or-self table, (2d, N): every
    entry starts at its own vertex; each open edge (u, v) along `axis`
    points u's entry 2 * axis at v and v's entry 2 * axis + 1 at u."""
    nbr = np.tile(np.arange(g.n_vertices), (2 * g.d, 1))
    for e, (u, v) in enumerate(g.edge_uv.tolist()):
        if open_mask[e]:
            axis = e % g.d
            nbr[2 * axis, u] = v
            nbr[2 * axis + 1, v] = u
    return nbr


def scalar_poisson_weights(h, tail=_SERIES_TAIL):
    """Reference for `walk._poisson_table`, one length at a time: the scalar
    recurrence w *= h/k, cum += w, stopped at the first term where
    cum >= 1 - tail or, once k > h, where a term leaves cum unchanged.
    Returns (weights, K, dropped)."""
    w = math.exp(-h)
    cum = w
    ws = [w]
    k = 0
    while cum < 1.0 - tail:
        k += 1
        w *= h / k
        last, cum = cum, cum + w
        ws.append(w)
        if k > h and cum == last:  # the sum is stuck: every later term leaves it
            break
    return ws, k, max(1.0 - cum, 0.0)


def _series(mat, P, s, free=None):
    """mat @ expm((P - I) s) summed term by term, with the Poisson weights
    of `scalar_poisson_weights`.  With a `free` mask, also returns the
    integral over [0, s] of each row's mass on `free`."""
    ws, _, _ = scalar_poisson_weights(s)
    acc = ws[0] * mat
    term = mat
    c = 1.0 - ws[0]
    occ = None if free is None else c * term[:, free].sum(axis=1)
    for w in ws[1:]:
        term = term @ P
        acc = acc + w * term
        if free is not None:
            c = c - w
            occ += c * term[:, free].sum(axis=1)
    return acc, occ


def rebuild_forward(env, rows, t0, grid):
    """Reference for forward evolution (`walk.quenched_laws`, `window_kernel`,
    `quenched_tv_curve`): `rows` evolved from t0 through each time of
    `grid`, with P rebuilt by `rebuild_step_matrix` after every flip and each
    series summed term by term; a segment with no open edge runs no series.
    Returns the rows at each grid time."""
    g = env.graph
    open_mask = env.open_mask_at(t0)
    P = rebuild_step_matrix(g, open_mask)
    mat = rows
    prev = t0
    out = []
    for t in grid:
        times, eids = env.flip_events(prev, t)
        for tm, e in zip([*times.tolist(), t], [*eids.tolist(), None]):
            s = tm - prev
            while open_mask.any() and s > 0.0:
                h = min(s, _MAX_SEGMENT)
                mat = _series(mat, P, h)[0]
                s -= h
            prev = tm
            if e is not None:
                open_mask[e] = not open_mask[e]
                P = rebuild_step_matrix(g, open_mask)
        out.append(mat)
    return out


def horizon_annealed_mixing_time(g, params, x, eps, env_samples, seed):
    """Reference for `dist.annealed_mixing_time`: (time, ci) from every
    environment's quenched laws over the whole grid, to the horizon."""
    from dynaperc import dist
    from dynaperc.walk import quenched_laws

    grid = dist.default_grid(params)
    uniform = np.full(g.n_vertices, 1.0 / g.n_vertices)
    laws = np.array([list(quenched_laws(env, x, grid)) for env in
                     dist.sample_envs(g, params, "stationary", seed, env_samples)])
    laws = laws.reshape(env_samples, len(grid), g.n_vertices)

    def first_time(stack):
        tvs = 0.5 * np.abs(stack.mean(axis=0) - uniform).sum(axis=1)
        hit = np.nonzero(tvs <= eps)[0]
        return float(grid[hit[0]]) if len(hit) else math.inf

    rng = np.random.default_rng(seed + 10 ** 6)
    boots = [first_time(laws[rng.integers(env_samples, size=env_samples)])
             for _ in range(200)]
    finite = [b for b in boots if math.isfinite(b)]
    ci = ((float(np.percentile(finite, 2.5)), float(np.percentile(finite, 97.5)))
          if finite else (math.inf, math.inf))
    return first_time(laws), ci


def rebuild_hitting_profile(env, A, horizon):
    """Reference for `walk.exact_hitting_profile`: the N x N absorbed chain,
    with P rebuilt by `rebuild_step_matrix` after every flip (flips inside A
    too), rows of A set to the identity, and the time off A read from the
    free columns of each series term.  Returns (expected, censored)."""
    g = env.graph
    free = ~A
    open_mask = env.open_mask_at(0.0)

    def absorbed_step():
        P = rebuild_step_matrix(g, open_mask)
        P[A] = 0.0
        P[A, A] = 1.0
        return P

    occupation = np.zeros(g.n_vertices)

    def segment(mat, s):
        while s > 0.0:
            h = min(s, _MAX_SEGMENT)
            mat, occ = _series(mat, P, h, free)
            occupation[:] += occ
            s -= h
        return mat

    P = absorbed_step()
    times, eids = env.flip_events(0.0, horizon)
    mat = np.eye(g.n_vertices)
    prev = 0.0
    stopped = False
    for tm, e in zip(times, eids):
        mat = segment(mat, tm - prev)
        if mat[:, free].sum(axis=1).max() < 1e-14:
            stopped = True
            break
        prev = tm
        open_mask[e] = not open_mask[e]
        P = absorbed_step()
    if not stopped:
        mat = segment(mat, horizon - prev)
    censored = mat[:, free].sum(axis=1)
    occupation[A] = 0.0
    censored[A] = 0.0
    return occupation, censored


def simulate_edge_state_at(p, mu, t, n_samples, init_state, seed=None):
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


def open_throughout_prob_from_closed(p, mu, a, b):
    """P(edge open on all of [a, b] | closed at 0), in closed form.

    Open at a (prob p(1 - e^(-mu a))), then no closing flip over b - a.
    """
    if not 0 <= a <= b:
        raise InputError("need 0 <= a <= b")
    return p * (1.0 - math.exp(-mu * a)) * math.exp(-(1.0 - p) * mu * (b - a))


def dumps_env(env):
    """`dynenv.dump_env` into bytes."""
    from dynaperc.dynenv import dump_env

    buf = io.BytesIO()
    dump_env(env, buf)
    return buf.getvalue()


def loads_env(data):
    """Parse a dump of `dynenv.dump_env`; truncated or corrupt data raises InputError."""
    from dynaperc.dynenv import (_EDGE_HEADER, _HEADER, _MAGIC, INIT_TAGS, DynParams,
                                 EnvTrajectory)
    from dynaperc.torus import TorusGraph

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
    states, counts, starts = [], [], []
    for _ in range(g.n_edges):
        if len(data) < pos + _EDGE_HEADER.size:
            raise InputError("environment dump truncated before its last edge")
        state, count = _EDGE_HEADER.unpack_from(data, pos)
        pos += _EDGE_HEADER.size
        if state > 1:
            raise InputError("initial state must be 0 or 1")
        if len(data) < pos + 8 * count:
            raise InputError("environment dump truncated inside flip times")
        states.append(state)
        counts.append(count)
        starts.append(pos)
        pos += 8 * count
    if pos != len(data):
        raise InputError("trailing bytes after the environment dump")
    flips = np.concatenate([np.frombuffer(data, dtype="<f8", count=c, offset=a)
                            for c, a in zip(counts, starts)]).astype(np.float64, copy=False)
    offsets = np.zeros(g.n_edges + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return EnvTrajectory(g, params, np.array(states, dtype=np.int8), flips, offsets,
                         INIT_TAGS[tag_idx], seed if has_seed else None)


def make_env(g, params, initial, flips_per_edge):
    """A hand-built environment on g: edge e starts in state initial[e] and
    flips at the times flips_per_edge[e]."""
    from dynaperc.dynenv import EnvTrajectory

    flips = [np.asarray(f, dtype=np.float64) for f in flips_per_edge]
    offsets = np.zeros(len(flips) + 1, dtype=np.int64)
    np.cumsum([len(f) for f in flips], out=offsets[1:])
    return EnvTrajectory(g, params, np.asarray(initial, dtype=np.int8),
                         np.concatenate([np.empty(0), *flips]), offsets, "explicit", None)


def evolve_step(mask, K, pi, U):
    """Threshold rule: next set = {y : Q(S, y)/pi(y) >= U} (non-strict)."""
    if not 0.0 <= U <= 1.0:
        raise InputError("U must lie in [0, 1]")
    if mask == 0:
        return 0
    r = scalar_ratios(mask, K, pi)
    return sum(1 << y for y in range(len(pi)) if r[y] >= U)


def marginal_identity_check(chain, x, k):
    """Max abs discrepancy between the kernel-product law of X_k and
    pi(y)/pi(x) * P(y in S_k) from the exact subset law started at {x}."""
    from dynaperc.evoset import mask_members, propagate_set_law, start_mask

    pi = chain.pi
    m = chain.n_states
    s0 = start_mask(x, m)
    if k > len(chain.kernels):
        raise InputError("k exceeds the kernel sequence length")
    weights, _ = propagate_set_law(chain.kernels[:k], pi, s0, doob=False, prune=0.0)
    member_prob = weights[-1] @ mask_members(np.arange(1 << m), m)
    vec = np.zeros(m)
    vec[x] = 1.0
    for K in chain.kernels[:k]:
        vec = vec @ K
    rhs = pi / pi[x] * member_prob
    return float(np.abs(vec - rhs).max())


def phi_env(R_row, kernels, pi, S):
    """Environment-averaged expansion: run the environment one step from zeta
    (whose R-row is given) and average phi of the resulting kernel."""
    from dynaperc.expansion import expansion_phi

    R_row = np.asarray(R_row, dtype=float)
    total = 0.0
    for w, K in zip(R_row, kernels):
        if w > 0:
            total += w * expansion_phi(K, pi, S)
    return total


def enumerate_tail(chain, x, zeta0, n, threshold):
    """Exact P(chi(quenched law at n, pi) >= threshold) by path enumeration."""
    pi = chain.pi
    total = 0.0

    def rec(z, vec, prob, depth):
        nonlocal total
        if depth == n:
            c = math.sqrt(float(np.sum((vec - pi) ** 2 / pi)))
            if c >= threshold:
                total += prob
            return
        for z2 in range(chain.n_env):
            w = chain.R[z, z2]
            if w > 0.0:
                rec(z2, vec @ chain.kernels[z2], prob * w, depth + 1)

    v0 = np.zeros(chain.n_states)
    v0[x] = 1.0
    rec(zeta0, v0, 1.0, 0)
    return total


def wilson_interval(k, n):
    """95% Wilson score interval for k successes in n trials."""
    z = 1.96
    if n == 0:
        return (0.0, 1.0)
    phat = k / n
    denom = 1.0 + z * z / n
    centre = phat + z * z / (2 * n)
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return ((centre - half) / denom, (centre + half) / denom)


def mc_tail(chain, x, zeta0, n, threshold, paths, seed):
    """Monte Carlo tail over env paths, vectorized over all paths at once:
    (fraction of paths with chi >= threshold, its Wilson interval)."""
    rng = np.random.default_rng(seed)
    E, S = chain.n_env, chain.n_states
    pi = chain.pi
    # sample all env transitions up front via inverse cdf per current state
    cdf = np.cumsum(chain.R, axis=1)
    z = np.full(paths, zeta0, dtype=np.int64)
    vecs = np.zeros((paths, S))
    vecs[:, x] = 1.0
    for _ in range(n):
        u = rng.random(paths)
        z = (u[:, None] > cdf[z]).sum(axis=1)
        for z2 in range(E):
            rows = z == z2
            if rows.any():
                vecs[rows] = vecs[rows] @ chain.kernels[z2]
    chis = np.sqrt(np.sum((vecs - pi) ** 2 / pi, axis=1))
    k = int(np.sum(chis >= threshold))
    return k / paths, wilson_interval(k, paths)
