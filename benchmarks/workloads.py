"""Workload definitions, seeded input generation and output checks.

The `sweep` workload drives the documented CLI (`dynaperc sweep`) in-process;
`certify` calls the exact set-law and profile functions of the library
directly.  One *repetition* (rep) is one set of CLI sweeps, or one batch of
certificate and bound checks; an *item* is one environment taken to its
statistic, or one certificate or bound check.

A run draws a *pool* of `pool` distinct rep inputs from (workload seed, input
index) and runs the whole pool once per *pass*, for as many passes as the run
lasts.  Summing over the pool averages out the cost differences between
inputs, and every pass does the same work, so the median pass is steady
against slow spells of a shared host.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Hitting cells: censored (unabsorbed) mass allowed at the horizon.
HIT_CENSORED_MAX = 1e-6
# Horizon factor of `dynaperc sweep --scenario hitting` (horizon = 50 n^2 / mu).
HIT_HORIZON_FACTOR = 50.0


@dataclass(frozen=True)
class Sweep:
    """One `dynaperc sweep` configuration; each cell samples `env_samples` envs."""

    scenario: str
    d: int
    n_grid: tuple[int, ...]
    mu_grid: tuple[float, ...]
    env_samples: int = 1
    p: float = 0.5
    eps: float = 0.25

    @property
    def cells(self) -> list[tuple[int, float]]:
        return [(n, mu) for n in self.n_grid for mu in self.mu_grid]

    @property
    def items_per_rep(self) -> int:
        return len(self.cells) * self.env_samples

    def config_text(self) -> str:
        return "\n".join([
            "[sweep]",
            f"d = {self.d}",
            f"p = {self.p!r}",
            f"eps = {self.eps!r}",
            "n_grid = " + ",".join(str(n) for n in self.n_grid),
            "mu_grid = " + ",".join(repr(mu) for mu in self.mu_grid),
            f"env_samples = {self.env_samples}",
        ]) + "\n"


@dataclass(frozen=True)
class SweepSet:
    """Per rep: each labelled sweep once, all with the rep's CLI seed."""

    sweeps: tuple[tuple[str, Sweep], ...]
    pool: int = 1

    @property
    def items_per_rep(self) -> int:
        return sum(sw.items_per_rep for _, sw in self.sweeps)


@dataclass(frozen=True)
class Certify:
    """Per rep: `chains` finite-environment chains and their laziness variants
    through `theorem_2_1_check` at each eps, one Doob Z-bound check per entry
    of `doob_sizes`, the two exact profiles at `profile_states` states, and
    `iso_profile` on the cycle of `iso_n` vertices."""

    chains: int = 2
    eps: tuple[float, ...] = (0.04, 0.1)
    doob_sizes: tuple[int, ...] = (3, 4)
    doob_eps: float = 0.1
    profile_states: int = 10
    profile_kernels: int = 2
    iso_n: int = 16
    pool: int = 1

    @property
    def items_per_rep(self) -> int:
        return 2 * self.chains * len(self.eps) + len(self.doob_sizes) + 2 + 1


# Why each workload was chosen is recorded in BENCHMARK.json.  The three
# sweeps each load a different layer: sampling (mix1d), dense forward
# propagation at N=256 (mix2d) and absorbed evolution (hit1d).
WORKLOADS = {
    "sweep": SweepSet((
        ("mix1d", Sweep("subcritical-mixing", d=1, n_grid=(16, 32), mu_grid=(0.5, 0.125))),
        ("mix2d", Sweep("subcritical-mixing", d=2, n_grid=(16,), mu_grid=(0.5,))),
        ("hit1d", Sweep("hitting", d=1, n_grid=(16, 20), mu_grid=(0.125,))),
    ), pool=2),
    "certify": Certify(pool=6),
}

# Tiny sizes for the smoke test: same code paths, a fraction of a second each.
TINY = {
    "sweep": SweepSet((
        ("mix1d", Sweep("subcritical-mixing", d=1, n_grid=(6,), mu_grid=(0.5,))),
        ("mix2d", Sweep("subcritical-mixing", d=2, n_grid=(4,), mu_grid=(0.5,))),
        ("hit1d", Sweep("hitting", d=1, n_grid=(6,), mu_grid=(0.5,))),
    ), pool=2),
    "certify": Certify(chains=1, eps=(0.1,), doob_sizes=(3,), profile_states=5,
                       profile_kernels=1, iso_n=8, pool=2),
}


def rep_seed(seed: int, rep: int) -> int:
    """CLI seed of one rep: distinct per (workload seed, rep), below 2**31."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0] >> 1)


# --------------------------------------------------------------------------
# Sweep output checks
# --------------------------------------------------------------------------

@dataclass
class RepResult:
    """Outcome of one rep: items attempted and failed, failure messages, and
    the output values keyed for comparison against stored references."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    def item(self, key: str, ok: bool, weight: int = 1, why: str = "",
             value: Optional[float] = None) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.problems.append(f"{key}: {why}")
        if value is not None:
            self.values[key] = value

    def merge(self, other: "RepResult", prefix: str) -> None:
        """Add another result's items, its keys under `prefix`."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += [prefix + p for p in other.problems]
        self.values.update({prefix + k: v for k, v in other.values.items()})


def _cell_id(n: int, mu: float) -> str:
    return f"n{n}mu{mu}"


def _parse_csv(text: str) -> dict[str, dict[str, str]]:
    """v1 result CSV -> {cell id: row}, from the `hash:cell:statistic` key."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return {}
    header = lines[0].split(",")
    rows = {}
    for ln in lines[1:]:
        row = dict(zip(header, ln.split(",")))
        parts = row.get("statistic", "").split(":")
        if len(parts) == 3:
            rows[parts[1]] = row
    return rows


def _parse_manifest(text: str) -> dict[str, str]:
    """manifest.jsonl -> {cell name: status}."""
    out = {}
    for ln in text.splitlines():
        if ln.strip():
            rec = json.loads(ln)
            out[rec["cell"]] = rec["status"]
    return out


def _float(s: Optional[str]) -> float:
    try:
        return float(s) if s not in (None, "") else math.nan
    except ValueError:
        return math.nan


def check_sweep(spec: Sweep, exit_code: int, csv_text: str,
                manifest_text: str) -> RepResult:
    """Count each cell's environments as failed unless the cell has status
    `ok`, an uncensored value, and a statistic inside its valid range."""
    res = RepResult()
    rows = _parse_csv(csv_text)
    status = _parse_manifest(manifest_text)
    for n, mu in spec.cells:
        cid = _cell_id(n, mu)
        st = status.get(f"n={n},mu={mu}", "missing from manifest")
        row = rows.get(cid)
        value = _float(row.get("value")) if row else math.nan
        censored = _float(row.get("censored_frac")) if row else math.nan
        why = ""
        if exit_code != 0:
            why = f"CLI exit code {exit_code}"
        elif st != "ok":
            why = f"status {st!r}"
        elif row is None:
            why = "no CSV row"
        elif spec.scenario == "hitting":
            horizon = HIT_HORIZON_FACTOR * n * n / mu
            if not censored <= HIT_CENSORED_MAX:
                why = f"censored mass {censored!r} > {HIT_CENSORED_MAX}"
            elif not 0.0 <= value <= horizon:
                why = f"hitting time {value!r} outside [0, {horizon}]"
        else:
            if not censored == 0.0:
                why = f"censored_frac {censored!r} != 0"
            elif not math.isfinite(value):
                why = f"t_mix {value!r} not finite"
            elif abs(value * mu - round(value * mu)) > 1e-9 * max(1.0, value * mu):
                why = f"t_mix {value!r} not a multiple of 1/mu = {1 / mu!r}"
        res.item(cid, not why, spec.env_samples, why,
                 value if math.isfinite(value) else None)
    return res


# --------------------------------------------------------------------------
# Certify inputs and checks
# --------------------------------------------------------------------------

def _near_uniform_pi(rng, m: int):
    pi = 1.0 + 0.2 * rng.random(m)
    return pi / pi.sum()


def _reversible_kernel(rng, pi, activity: float = 0.4):
    """K = c A / pi for a symmetric A with entries near 1; reversible for pi,
    diagonal at least 1 - activity."""
    m = len(pi)
    A = rng.uniform(0.9, 1.1, (m, m))
    A = A + A.T
    K = (activity / (A.sum(axis=1) / pi).max()) * A / pi[:, None]
    K[np.diag_indices(m)] += 1.0 - K.sum(axis=1)
    return K


def _reaches_every_subset(chain, x: int = 0) -> bool:
    """Whether the Doob set process from {x} can reach every nonempty subset.

    The joint propagation in `theorem_2_1_check` does work per step in
    proportion to the subsets it reaches, so fixing this makes that work the
    same for every drawn chain."""
    from dynaperc import evoset

    seen, todo = {1 << x}, [1 << x]
    while todo:
        mask = todo.pop()
        for K in chain.kernels:
            for s, _ in evoset.doob_step_law(mask, K, chain.pi).entries:
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
    return len(seen) == 2 ** chain.n_states - 1


def certify_inputs(spec: Certify, seed: int, rep: int) -> dict:
    """Chains, kernels and graph of one certify rep, drawn from (seed, rep).

    Entries sit near a uniform design, and chains are redrawn until their set
    process reaches every subset, so that the step counts and the work per
    step, and with them the cost of a rep, vary little between seeds.
    """
    from dynaperc import envlab, evoset
    from dynaperc.torus import TorusGraph

    rng = np.random.default_rng([seed, rep])
    chains = []
    while len(chains) < spec.chains:
        pi = _near_uniform_pi(rng, 3)
        R = rng.uniform(0.9, 1.1, (2, 2))
        R /= R.sum(axis=1, keepdims=True)
        chain = envlab.FiniteEnvChain(
            R=R, kernels=(_reversible_kernel(rng, pi), _reversible_kernel(rng, pi)),
            pi=pi)
        if _reaches_every_subset(chain):
            chains.append(chain)
    doob = []
    for m in spec.doob_sizes:
        pi = _near_uniform_pi(rng, m)
        K = 0.5 * (_reversible_kernel(rng, pi) + np.eye(m))
        doob.append(evoset.InhomChain(pi=pi, kernels=(K,)))
    pi = _near_uniform_pi(rng, spec.profile_states)
    kernels = tuple(_reversible_kernel(rng, pi) for _ in range(spec.profile_kernels))
    return {"chains": chains, "doob": doob, "profile_pi": pi,
            "profile_kernels": kernels, "torus": TorusGraph(d=1, n=spec.iso_n)}


def run_certify(spec: Certify, inputs: dict) -> list[tuple[str, object]]:
    """The timed part of a certify rep: (item key, library result) pairs."""
    from dynaperc import envlab, evoset, expansion, torus

    out: list[tuple[str, object]] = []
    for c, chain in enumerate(inputs["chains"]):
        for label, ch in (("base", chain), ("variant", envlab.variant_chain(chain))):
            for eps in spec.eps:
                out.append((f"theorem{c}.{label}.eps{eps}",
                            _guard(envlab.theorem_2_1_check, ch, 0, eps,
                                   mode="certificate")))
    for c, chain in enumerate(inputs["doob"]):
        def z_check(chain=chain):
            steps = evoset.psi_step_count(chain, 0, spec.doob_eps)
            long = evoset.InhomChain(pi=chain.pi, kernels=chain.kernels * max(steps, 1))
            return evoset.doob_z_bound_check(long, 0, eps=spec.doob_eps)
        out.append((f"doob{c}.m{chain.n_states}", _guard(z_check)))
    pi, kernels = inputs["profile_pi"], inputs["profile_kernels"]
    out.append(("psi_profile", _guard(evoset.psi_profile_kernels, kernels, pi)))
    out.append(("phi_profile", _guard(expansion.profile_phi_kernels, kernels, pi)))
    out.append(("iso_profile", _guard(torus.iso_profile, inputs["torus"])))
    return out


class _Raised:
    def __init__(self, exc: BaseException):
        self.exc = exc


def _guard(fn: Callable, *args, **kw):
    """Call fn; an exception becomes a failed item instead of ending the run."""
    try:
        return fn(*args, **kw)
    except Exception as exc:  # one bad item must not stop the measurement
        return _Raised(exc)


def check_certify(results: list[tuple[str, object]]) -> RepResult:
    res = RepResult()
    for key, r in results:
        if isinstance(r, _Raised):
            res.item(key, False, why=f"raised {type(r.exc).__name__}: {r.exc}")
        elif key.startswith("theorem"):
            cert = float(max(r.per_zeta_certificate))
            res.item(key, bool(r.passed), why=f"certificate {cert!r} failed",
                     value=cert)
            res.values[key + ".steps"] = float(r.steps)
        elif key.startswith("doob"):
            ok = bool(r.chi_ok) and r.z_bound_ok is True
            res.item(key, ok, why=f"chi_ok={r.chi_ok} z_bound_ok={r.z_bound_ok}",
                     value=r.z_at_psi_steps)
        elif key in ("psi_profile", "phi_profile"):
            vals = [float(v) for v in r.values]
            ok = all(0.0 <= v <= 1.0 for v in vals)
            res.item(key, ok, why=f"profile values outside [0, 1]: {vals}",
                     value=sum(vals))
        else:  # iso_profile
            # every arc of the cycle has two boundary edges: the profile is 2
            res.item(key, r.value == 2.0, why=f"cycle iso profile {r.value!r} != 2",
                     value=float(r.value))
    return res


def max_rel_err(values: dict[str, float], ref: dict[str, float]) -> tuple[float, int]:
    """Largest difference over the keys both dicts hold, and how many.

    The difference is relative to the reference value, and absolute where
    that value is below 1 (certificates sit near machine epsilon)."""
    worst, n = 0.0, 0
    for k, v in values.items():
        if k in ref:
            r = ref[k]
            worst = max(worst, abs(v - r) / max(abs(r), 1.0))
            n += 1
    return worst, n
