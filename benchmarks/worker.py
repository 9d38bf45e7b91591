"""One workload in one process: set up, repeat the experiment, check outputs.

The run draws the workload's pool of inputs at set-up, then runs the whole
pool once per pass until `--seconds` is spent.  Every pass does the same
work, so the median pass time is the timed figure.

Started by run.py with BLAS threads pinned to 1 and PYTHONPATH pointing at the
checkout's `src/`.  Prints a single JSON object on stdout.  With
`--setup-only` it stops at the first timed call and reports only when that
was, so run.py can sample set-up time in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from dynaperc import cli
from tracing import Tracer

REFS = Path(__file__).resolve().parent / "refs"
MIN_PASSES = 2
MAX_PASSES = 500
# State counts reported by walk.us_per_flip.N<count>.
US_PER_FLIP_N = (16, 20, 32, 256)


class Experiment:
    """Seeded inputs and the timed body of one rep of a workload."""

    def __init__(self, spec, seed: int, work: Path):
        self.spec, self.seed, self.work = spec, seed, work
        if isinstance(spec, wl.SweepSet):
            for label, sw in spec.sweeps:
                (work / f"{label}.ini").write_text(sw.config_text())

    def inputs(self, rep: int):
        if isinstance(self.spec, wl.SweepSet):
            return wl.rep_seed(self.seed, rep)
        return wl.certify_inputs(self.spec, self.seed, rep)

    def run(self, rep: int, inputs, tracer: Tracer | None = None):
        """Run one rep; returns (wall seconds, checked RepResult)."""
        out_dir = self.work / f"rep{rep}{'t' if tracer else ''}"
        if tracer:
            tracer.install()
            tracer.open("bench.rep")
        t0 = time.perf_counter()
        if isinstance(self.spec, wl.SweepSet):
            result = [cli.main(["sweep", "--scenario", sw.scenario,
                                "--config", str(self.work / f"{label}.ini"),
                                "--seed", str(inputs), "--out", str(out_dir / label)])
                      for label, sw in self.spec.sweeps]
        else:
            result = wl.run_certify(self.spec, inputs)
        wall = time.perf_counter() - t0
        if tracer:
            tracer.close("bench.rep")
            tracer.uninstall()
        if isinstance(self.spec, wl.SweepSet):
            res = wl.RepResult()
            for (label, sw), code in zip(self.spec.sweeps, result):
                res.merge(wl.check_sweep(sw, code, _read(out_dir / label / "sweep.csv"),
                                         _read(out_dir / label / "manifest.jsonl")),
                          prefix=f"{label}.")
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            res = wl.check_certify(result)
        return wall, res


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def layer_metrics(tr: Tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics, as means per traced rep."""
    reps = len(traced)

    def S(*names):
        return sum(v for k, v in tr.self_s.items() if k.split("@")[0] in names) / reps

    def C(*names):
        return sum(v for k, v in tr.calls.items() if k.split("@")[0] in names) / reps

    def K(name):
        return tr.counters.get(name, 0.0) / reps

    def ratio(a, b):
        return a / b if b else 0.0

    walk_spans = ("walk.quenched_tv_curve", "walk.exact_hitting_profile",
                  "walk.step_matrix")
    m = {
        "cli.self_s": S("cli.main"),
        "dist.self_s": S("dist.quenched_mixing_time", "dist.hitting_time_stats"),
        "dynenv.sample_s": S("dynenv.sample_env"),
        "dynenv.sample_calls": C("dynenv.sample_env"),
        "dynenv.flips_sampled": K("dynenv.flips_sampled"),
        "dynenv.index_s": S("dynenv.flip_events", "dynenv.open_mask_at"),
        "dynenv.index_calls": C("dynenv.flip_events", "dynenv.open_mask_at"),
        "walk.mix_s": S("walk.quenched_tv_curve"),
        "walk.hit_s": S("walk.exact_hitting_profile"),
        "walk.step_matrix_s": S("walk.step_matrix"),
        "walk.segments": C("walk.step_matrix"),
    }
    m["dynenv.flips_per_s"] = ratio(m["dynenv.flips_sampled"], m["dynenv.sample_s"])
    m["dynenv.flips_used_frac"] = ratio(m["walk.segments"], m["dynenv.flips_sampled"])
    for n in US_PER_FLIP_N:
        busy = sum(tr.self_s.get(f"{s}@{n}", 0.0) for s in walk_spans)
        m[f"walk.us_per_flip.N{n}"] = 1e6 * ratio(busy, tr.calls.get(f"walk.step_matrix@{n}", 0))
    iso_s = S("torus.iso_profile")
    iso_subsets = sum(c * 2 ** int(k.split("@")[1]) for k, c in tr.calls.items()
                      if k.startswith("torus.iso_profile@") and k.split("@")[1].isdigit())
    m.update({
        "evoset.step_law_s": S("evoset.step_law", "evoset.doob_step_law"),
        "evoset.step_law_calls": C("evoset.step_law", "evoset.doob_step_law"),
        "evoset.propagate_s": S("evoset.propagate_set_law"),
        "evoset.set_law_entries": K("evoset.set_law_entries"),
        "evoset.pruned_mass": K("evoset.pruned_mass"),
        "evoset.self_s": S("evoset.doob_z_bound_check", "evoset.psi_step_count"),
        "envlab.self_s": S("envlab.theorem_2_1_check", "envlab.variant_chain"),
        "envlab.law_misses": K("envlab.law_misses"),
        "expansion.profile_s": S("expansion.psi_profile_kernels",
                                 "expansion.profile_phi_env",
                                 "expansion.profile_phi_kernels"),
        "expansion.subsets": K("expansion.subsets"),
        "expansion.bound_s": S("expansion.integral_mixing_bound"),
        "torus.iso_profile_s": iso_s,
        "torus.subsets_per_s": ratio(iso_subsets / reps, iso_s),
        "bench.self_s": S("bench.rep"),
    })
    wall = sum(traced) / reps
    module_self = sum(tr.self_s.values()) / reps - m["bench.self_s"]
    m.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": statistics.median(untraced),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "trace.attributed_frac": ratio(module_self, wall),
        "trace.spans": len(tr.span_name) / reps,
    })
    return m


def metadata() -> dict:
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    spec = (wl.TINY if args.size == "tiny" else wl.WORKLOADS)[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    exp = Experiment(spec, args.seed, work)
    pool = [exp.inputs(k) for k in range(spec.pool)]
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    ref_file = REFS / f"{args.workload}.json"
    refs = {}
    if args.size == "full" and ref_file.is_file():
        refs = json.loads(ref_file.read_text()).get(str(args.seed), {})
    tracer = Tracer() if args.trace else None
    untraced, traced, passes, pass_s = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    outputs: dict[str, dict] = {}
    worst_ref, compared = 0.0, 0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        pass_wall = 0.0
        for k, inputs in enumerate(pool):
            for walls, tr in [(untraced, None)] + ([(traced, tracer)] if tracer else []):
                wall, res = exp.run(k, inputs, tr)
                walls.append(wall)
                attempted += res.attempted
                failed += res.failed
                problems += [f"input {k}: {p}" for p in res.problems]
                err, n = wl.max_rel_err(res.values, refs.get(str(k), {}))
                worst_ref, compared = max(worst_ref, err), compared + n
            outputs[str(k)] = res.values
            pass_wall += untraced[-1]
        now = time.perf_counter()
        passes.append(pass_wall)
        pass_s.append(now - t_pass)
        if len(passes) >= MAX_PASSES:
            break
        if (len(passes) >= MIN_PASSES
                and now - t_start + statistics.median(pass_s) > args.seconds):
            break

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready_at": ready_at, "passes": passes,
        "items_per_pass": spec.pool * spec.items_per_rep,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "peak_rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime,
        "ref_max_rel_err": worst_ref, "ref_items_compared": compared,
        "meta": metadata(),
    }
    if tracer:
        layers = layer_metrics(tracer, traced, untraced)
        layers["ref.max_rel_err"] = worst_ref
        layers["ref.items_compared"] = compared
        result["layers"] = layers
        result["missing_hooks"] = tracer.missing
        tracer.dump(work.parent / f"spans-{args.workload}-seed{args.seed}.csv")
    if args.size == "full" and not args.trace:
        out_dir = work.parent / "outputs"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(outputs, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
