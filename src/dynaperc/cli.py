"""Command-line experiment runner.

Every run is driven by an INI config plus flags, emits CSV rows against the
shared result schema, and records a JSON-lines manifest with the config hash
and per-cell status.  Each config value is parsed once, by its `FIELDS`
entry, and each command builds its tori before its first cell, so bad input
runs no cell.  Re-running with an identical config and seed reproduces the
CSV byte for byte and replaces that config hash's manifest records.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, dist, dynenv, envlab, evoset, expansion
from . import walk as walkmod
from .dynenv import DynParams, sample_env
from .errors import InputError
from .torus import TorusGraph


def _positive(kind: type) -> Callable[[str], object]:
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise ValueError("must be > 0")
        return value
    return parse


def _open_unit(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError("must be in (0, 1)")
    return value


def _list(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda text: tuple(parse(t) for t in text.split(",") if t)


def _init(text: str) -> str:
    if text not in ("stationary", "all-closed", "all-open"):
        raise ValueError("choose from stationary, all-closed, all-open")
    return text


# every config key: its parser (a ValueError is bad input) and its default text
FIELDS: dict[str, tuple[Callable[[str], object], str]] = {
    "d": (int, "1"), "n": (int, "8"), "p": (float, "0.5"),
    "mu": (_positive(float), "0.25"), "eps": (_open_unit, "0.25"),
    "horizon": (lambda text: float(text) if text else None, ""),
    "x": (int, "0"), "env_samples": (_positive(int), "30"),
    "scenario": (str, ""), "init": (_init, "stationary"),
    "n_grid": (_list(int), "8,16,32"), "mu_grid": (_list(_positive(float)), "0.5,0.125"),
    "profile": (str, ""),
}


def _load_config(path: Optional[str], overrides: dict) -> tuple[dict, dict]:
    """The config as written (texts, which the hash covers) and as parsed."""
    texts = {key: default for key, (_, default) in FIELDS.items()}
    if path:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise InputError(f"config file not found: {path}")
            for section in parser.values():  # [DEFAULT] first, then the rest
                texts.update(section)
        except configparser.Error as exc:
            raise InputError(f"config file {path}: {exc}") from None
    texts.update({k: v for k, v in overrides.items() if v is not None})
    values = {}
    for key, text in texts.items():
        if key not in FIELDS:
            raise InputError(f"unknown config key {key!r}; choose from {sorted(FIELDS)}")
        try:
            values[key] = FIELDS[key][0](text)
        except ValueError as exc:
            raise InputError(f"config value {key} = {text!r} is not valid: {exc}") from None
    return texts, values


def _config_hash(texts: dict, subcommand: str, seed: int) -> str:
    blob = json.dumps({"cmd": subcommand, "seed": seed,
                       "cfg": dict(sorted(texts.items()))}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _params(cfg: dict) -> tuple[TorusGraph, DynParams]:
    n, mu, horizon = cfg["n"], cfg["mu"], cfg["horizon"]
    g = TorusGraph(d=cfg["d"], n=n)
    g._check_vertex(cfg["x"])
    horizon = 20.0 * n * n / mu if horizon is None else horizon
    return g, DynParams(p=cfg["p"], mu=mu, horizon=horizon)


def _base_row(cfg: dict, **kw) -> dict:
    row = {"d": cfg["d"], "n": cfg["n"], "p": cfg["p"], "mu": cfg["mu"],
           "eps": cfg["eps"], "env_seed": None, "x": cfg["x"], "statistic": "",
           "value": None, "ci_lo": None, "ci_hi": None,
           "method": "exact", "censored_frac": 0.0}
    row.update(kw)
    return row


def _median_row(cfg: dict, times: list[float], **kw) -> dict:
    """The median of the finite quenched mixing times; the rest are censored."""
    finite = [t for t in times if math.isfinite(t)]
    med = float(np.median(finite)) if finite else dist.NOT_MIXED
    return _base_row(cfg, statistic="t_mix_quenched_median", value=med,
                     censored_frac=1.0 - len(finite) / len(times), **kw)


def _record_hash(line: str) -> Optional[str]:
    """The config hash of one manifest line, None if it is not a record."""
    try:
        return json.loads(line).get("config_hash")
    except (ValueError, AttributeError):
        return None


class Runner:
    """Shared plumbing: artifact directory, manifest, budget accounting."""

    def __init__(self, args):
        dynenv.check_seed(args.seed)
        texts, self.cfg = _load_config(args.config, {"scenario": args.scenario})
        self.hash = _config_hash(texts, args.subcommand, args.seed)
        self.seed = args.seed
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.budget = args.budget
        self.t0 = time.monotonic()
        self.cells: list[dict] = []
        self.rows: list[dict] = []

    def check_seeds(self, offset: int) -> None:
        """InputError unless seed + offset, the largest seed the command
        derives from the base seed, is a seed too (below 2^63)."""
        if self.seed + offset >= 2 ** 63:
            raise InputError(f"base seed {self.seed} is too large: this command "
                             f"derives seeds up to {offset} past it, below 2^63")

    def over_budget(self) -> bool:
        return self.budget is not None and time.monotonic() - self.t0 > self.budget

    def cell(self, name: str, fn: Callable[[], list[dict]]) -> None:
        """Run one cell; budget overruns are recorded as censored, errors as
        failures, and the run continues either way."""
        if self.over_budget():
            self.cells.append({"cell": name, "status": "censored", "wall": 0.0})
            return
        t = time.monotonic()
        try:
            rows = fn()
        except Exception as exc:  # per-cell failure must not kill the run
            self.cells.append({"cell": name, "status": f"error: {exc}",
                               "wall": time.monotonic() - t})
            return
        self.cells.append({"cell": name, "status": "ok",
                           "wall": time.monotonic() - t})
        self.rows.extend(rows)

    def finish(self, csv_name: str) -> int:
        csv_path = self.out / csv_name
        text = dist.format_csv_rows(
            [dict(r, statistic=f"{self.hash}:{r.pop('cell_id', 'cell0')}:{r['statistic']}")
             for r in self.rows])
        csv_path.write_text(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        # a rerun of this config hash replaces its records; other lines keep
        # their order, and the swap leaves the old manifest whole on a crash
        manifest = self.out / "manifest.jsonl"
        old = manifest.read_text().splitlines() if manifest.exists() else []
        lines = [ln for ln in old if _record_hash(ln) != self.hash]
        lines += [json.dumps({
            "config_hash": self.hash, "version": __version__,
            "cell": c["cell"], "status": c["status"],
            "wall_clock": round(c["wall"], 3),
            "outputs": {csv_name: digest}}) for c in self.cells]
        tmp = manifest.with_name(manifest.name + ".tmp")
        tmp.write_text("".join(ln + "\n" for ln in lines))
        os.replace(tmp, manifest)
        bad = [c for c in self.cells if c["status"].startswith("error")]
        for c in bad:
            print(f"FAIL {c['cell']}: {c['status']}", file=sys.stderr)
        return 1 if bad else 0


# --------------------------------------------------------------------------
# subcommand bodies
# --------------------------------------------------------------------------

def cmd_env_sim(run: Runner) -> int:
    g, params = _params(run.cfg)

    def body():
        env = sample_env(g, params, init=run.cfg["init"], seed=run.seed)
        with (run.out / "env.bin").open("wb") as fh:
            dynenv.dump_env(env, fh)
        n_flips = len(env.flip_times)
        return [_base_row(run.cfg, env_seed=run.seed, statistic="env_flip_count",
                          value=float(n_flips), method="mc")]

    run.cell("env-sim", body)
    return run.finish("env_sim.csv")


def cmd_walk_sim(run: Runner) -> int:
    g, params = _params(run.cfg)
    run.check_seeds(1)

    def body():
        env = sample_env(g, params, init=run.cfg["init"], seed=run.seed)
        horizon = min(params.horizon, 10.0 / params.mu)
        path = walkmod.simulate_walks(env, run.cfg["x"], horizon, 1, seed=run.seed + 1)[0]
        lines = [f"# dynaperc-walk-v1 start={path.start} horizon={horizon!r}"]
        lines += [f"{t!r} {v}" for t, v in zip(path.jump_times, path.jump_targets)]
        (run.out / "walk.txt").write_text("\n".join(lines) + "\n")
        if not walkmod.replay_is_legal(env, path):
            raise AssertionError("simulated walk crossed an edge closed at its jump time")
        return [_base_row(run.cfg, env_seed=run.seed, statistic="walk_jump_count",
                          value=float(len(path.jump_times)), method="mc")]

    run.cell("walk-sim", body)
    return run.finish("walk_sim.csv")


def cmd_mix(run: Runner) -> int:
    g, params = _params(run.cfg)
    eps, x, samples = run.cfg["eps"], run.cfg["x"], run.cfg["env_samples"]
    run.check_seeds(samples - 1)

    def quenched():
        rows, times = [], []
        for env in dist.sample_envs(g, params, run.cfg["init"], run.seed, samples):
            t = dist.quenched_mixing_time(env, x, eps)
            times.append(t)
            rows.append(_base_row(run.cfg, env_seed=env.seed, statistic="t_mix_quenched",
                                  value=t, censored_frac=float(not math.isfinite(t))))
        rows.append(_median_row(run.cfg, times))
        return rows

    def annealed():
        rep = dist.annealed_mixing_time(g, params, x, eps, samples, seed=run.seed)
        return [_base_row(run.cfg, statistic="t_mix_annealed", value=rep.time,
                          ci_lo=rep.ci[0], ci_hi=rep.ci[1])]

    run.cell("quenched", quenched)
    run.cell("annealed", annealed)
    return run.finish("mix.csv")


def _arc_target(g: TorusGraph, rng: np.random.Generator) -> np.ndarray:
    """Vertex mask of the contiguous axis-0 slab of half the vertices, at a
    random offset."""
    n = g.n
    offset = int(rng.integers(n))
    axis0 = np.arange(g.n_vertices) // n ** (g.d - 1)  # coordinate 0, as v < n^d
    return (axis0 - offset) % n < n // 2


def cmd_hit(run: Runner) -> int:
    g, params = _params(run.cfg)
    run.check_seeds(run.cfg["env_samples"] - 1)

    def body():
        rng = np.random.default_rng(run.seed)
        A = _arc_target(g, rng)
        rep = dist.hitting_time_stats(g, params, A, env_samples=run.cfg["env_samples"],
                                      seed=run.seed, init=run.cfg["init"])
        worst = int(np.argmax(rep.annealed_means))
        return [_base_row(run.cfg, x=worst, statistic="hit_time_annealed_max",
                          value=float(rep.annealed_means[worst]),
                          censored_frac=float(rep.censored_frac[worst]))]

    run.cell("hit", body)
    return run.finish("hit.csv")


def cmd_evoset(run: Runner) -> int:
    eps = run.cfg["eps"]

    def body():
        rng = np.random.default_rng(run.seed)
        from .evoset import InhomChain, doob_z_bound_check, psi_step_count
        rows = []
        for i in range(10):
            pi, kernels = _random_chain(rng, n_states=4, n_kernels=1)
            steps = psi_step_count(InhomChain(pi=pi, kernels=kernels), x=0, eps=eps)
            chain = InhomChain(pi=pi, kernels=kernels * max(steps, 1))
            rep = doob_z_bound_check(chain, x=0, eps=eps)
            ok = rep.chi_ok and bool(rep.z_bound_ok)
            rows.append(_base_row(run.cfg, statistic="evoset_z_bound_ok",
                                  value=float(ok), env_seed=i))
            if not ok:
                raise AssertionError("evolving-set Z bound violated")
        return rows

    run.cell("evoset", body)
    return run.finish("evoset.csv")


def _random_chain(rng: np.random.Generator, n_states: int, n_kernels: int):
    pi = rng.random(n_states) + 0.2
    pi /= pi.sum()
    kernels = []
    for _ in range(n_kernels):
        A = rng.random((n_states, n_states))
        A = A + A.T
        # scale symmetric flow so K = lazy + c A / pi has rows <= 1
        c = 0.4 / max((A.sum(axis=1) / pi).max(), 1e-12)
        K = c * A / pi[:, None]
        K[np.diag_indices(n_states)] += 1.0 - K.sum(axis=1)
        kernels.append(K)
    return pi, tuple(kernels)


def cmd_expansion(run: Runner) -> int:
    g, params = _params(run.cfg)
    samples = run.cfg["env_samples"]
    run.check_seeds(max(samples - 1, 10 ** 4 + min(samples, 8) - 1
                        if g.n_vertices <= 12 else 0))

    def body():
        half = np.arange(g.n_vertices) < g.n_vertices // 2
        ratios = []
        for env in dist.sample_envs(g, params, "stationary", run.seed, samples):
            rec = expansion.torus_phi_lower_bound_check(env, half)
            if rec.ratio is not None:
                ratios.append(rec.ratio)
        c = float(min(ratios)) if ratios else 0.0
        if g.n_vertices <= 12:
            kernels = [walkmod.window_kernel(env, (0.0, 1.0 / params.mu))
                       for env in dist.sample_envs(g, params, "stationary",
                                                   10 ** 4 + run.seed, min(samples, 8))]
            prof = expansion.profile_phi_kernels(
                kernels, np.full(g.n_vertices, 1.0 / g.n_vertices))
            (run.out / "profile.txt").write_text(prof.serialize())
        return [_base_row(run.cfg, statistic="phi_lower_bound_witness_c", value=c)]

    run.cell("expansion", body)
    return run.finish("expansion.csv")


def cmd_bound(run: Runner) -> int:
    g, params = _params(run.cfg)
    if run.cfg["profile"]:  # read before the cell: a bad file is bad input
        try:
            prof = expansion.ExpansionProfile.deserialize(Path(run.cfg["profile"]).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"profile file {run.cfg['profile']}: {exc}") from None
        if not prof.certified:
            raise InputError(f"profile file {run.cfg['profile']}: provenance "
                             f"{prof.provenance!r} is not certified")
    else:
        prof = expansion.torus_analytic_profile(g.d, g.n, params.mu, c=0.1)

    def body():
        n_steps = expansion.integral_mixing_bound(prof, gamma=0.5,
                                                  pi_x=1.0 / g.n_vertices, eps=run.cfg["eps"])
        return [_base_row(run.cfg, statistic="integral_bound_steps",
                          value=float(n_steps))]

    run.cell("bound", body)
    return run.finish("bound.csv")


def cmd_lab(run: Runner) -> int:
    scenario = run.cfg["scenario"] or "counterexample"

    def counterexample():
        chain = envlab.counterexample_chain()
        ann = envlab.annealed_kernel(chain)
        S = chain.n_states
        vec = np.zeros(ann.matrix.shape[0])
        # start (zeta=0, x=0) and average over the stationary env marginal
        vec[ann.index(0, 0)] = 0.5
        vec[ann.index(1, 0)] = 0.5
        law = (vec @ ann.matrix).reshape(chain.n_env, S).sum(axis=0)
        ann_tv = dist.tv(law, chain.pi)
        rng = np.random.default_rng(run.seed)
        q_tvs = []
        for _ in range(1000):
            path = envlab.sample_env_path(chain, int(rng.integers(2)), 1, rng)
            q = envlab.quenched_law(chain, path, 0)
            q_tvs.append(dist.tv(q, chain.pi))
        if ann_tv != 0.0 or any(t != 0.5 for t in q_tvs):
            raise AssertionError("counterexample: annealed TV is not 0 "
                                 "or a quenched TV is not 1/2")
        return [_base_row(run.cfg, statistic="counterexample_annealed_tv", value=ann_tv),
                _base_row(run.cfg, statistic="counterexample_quenched_tv",
                          value=float(np.mean(q_tvs)), method="mc")]

    def theorem():
        chain = envlab.variant_chain(_lazy_demo_chain())
        rep = envlab.theorem_2_1_check(chain, x=0, eps=run.cfg["eps"])
        if not rep.passed:
            raise AssertionError("quenched tail bound certificate failed")
        return [_base_row(run.cfg, statistic="theorem_tail_certificate_ok",
                          value=float(rep.passed))]

    bodies = {"counterexample": counterexample, "theorem": theorem}
    if scenario not in bodies:
        raise InputError(f"unknown lab scenario {scenario!r}; choose from {sorted(bodies)}")
    run.cell(scenario, bodies[scenario])
    return run.finish("lab.csv")


def _lazy_demo_chain() -> envlab.FiniteEnvChain:
    """Small two-environment chain with strictly lazy kernels."""
    pi = np.array([0.25, 0.25, 0.25, 0.25])
    ring = np.array([[0.5, 0.25, 0.0, 0.25],
                     [0.25, 0.5, 0.25, 0.0],
                     [0.0, 0.25, 0.5, 0.25],
                     [0.25, 0.0, 0.25, 0.5]])
    slow = 0.5 * ring + 0.5 * np.eye(4)
    R = np.array([[0.5, 0.5], [0.5, 0.5]])
    return envlab.FiniteEnvChain(R=R, kernels=(ring, slow), pi=pi)


def cmd_sweep(run: Runner) -> int:
    scenario = run.cfg["scenario"] or "subcritical-mixing"

    def mixing_cell(cfg: dict, g: TorusGraph, params: DynParams) -> list[dict]:
        times = [dist.quenched_mixing_time(env, cfg["x"], cfg["eps"]) for env in
                 dist.sample_envs(g, params, cfg["init"], run.seed + 1000 * g.n,
                                  cfg["env_samples"])]
        return [_median_row(cfg, times, cell_id=f"n{g.n}mu{params.mu}")]

    def hitting_cell(cfg: dict, g: TorusGraph, params: DynParams) -> list[dict]:
        A = _arc_target(g, np.random.default_rng(run.seed + g.n))
        rep = dist.hitting_time_stats(g, params, A, env_samples=cfg["env_samples"],
                                      seed=run.seed + 1000 * g.n, init=cfg["init"])
        return [_base_row(cfg, statistic="hit_time_annealed_max",
                          value=float(rep.annealed_means.max()),
                          cell_id=f"n{g.n}mu{params.mu}",
                          censored_frac=float(rep.censored_frac.max()))]

    # scenario: (horizon in units of n^2/mu, cell body)
    bodies = {"subcritical-mixing": (20.0, mixing_cell), "hitting": (50.0, hitting_cell)}
    if scenario not in bodies:
        raise InputError(f"unknown sweep scenario {scenario!r}; choose from {sorted(bodies)}")
    factor, body = bodies[scenario]
    grid = [dict(run.cfg, n=n, mu=mu, horizon=factor * n * n / mu)
            for n in run.cfg["n_grid"] for mu in run.cfg["mu_grid"]]
    cells = [(cfg, *_params(cfg)) for cfg in grid]  # all checked before any cell runs
    if cells:
        run.check_seeds(1000 * max(run.cfg["n_grid"]) + run.cfg["env_samples"] - 1)
    for cfg, g, params in cells:
        run.cell(f"n={g.n},mu={params.mu}", functools.partial(body, cfg, g, params))
    return run.finish("sweep.csv")


# --------------------------------------------------------------------------

COMMANDS = {
    "env-sim": cmd_env_sim, "walk-sim": cmd_walk_sim, "mix": cmd_mix,
    "hit": cmd_hit, "evoset": cmd_evoset, "expansion": cmd_expansion,
    "bound": cmd_bound, "lab": cmd_lab, "sweep": cmd_sweep,
}


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynaperc",
                                     description="dynamical-percolation walk experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--seed", type=int, default=0, help="base RNG seed, in [0, 2^63)")
        sp.add_argument("--budget", type=float, default=None,
                        help="wall-clock cap in seconds; overruns are censored")
        sp.add_argument("--out", default="out", help="artifact directory")
        sp.add_argument("--scenario", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = Runner(args)
        # commands check their config before any cell runs; bad input lands here
        return COMMANDS[args.subcommand](run)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
