"""dynaperc benchmark: two workloads, end-to-end metrics and a traced breakdown.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 55

Each workload runs in a fresh worker process (worker.py) with BLAS threads
pinned to 1.  The worker runs the workload's pool of seeded inputs once per
pass; `wall_s` is the median pass.  Set-up time is sampled in SETUP_PROBES
extra processes that stop at the first timed call, plus the measuring process
itself, and reported as the median.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep", "certify")
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DYNAPERC_WORKERS", None)  # parallel sweeps mis-report wall clock
    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py; returns (spawn time on the monotonic clock, its JSON)."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - spawned, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, size: str,
            deadline: float) -> dict:
    work = WORK / f"run-{os.getpid()}-{workload}"
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size, "--work", str(work)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            spawned, probe = run_worker(base + ["--setup-only"], deadline)
            setups.append(probe["ready_at"] - spawned)
        spawned, res = run_worker(base, deadline)
        setups.append(res["ready_at"] - spawned)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res["setups"] = setups
    res["meta"].update(git_commit=git_commit(), workload=workload, seed=seed,
                       size=size)
    return res


def report(workload: str, res: dict, trace: int) -> tuple[dict, dict]:
    """Print the human-readable lines; return the contract's result object and
    a summary row for `--workload all`."""
    setups = res["setups"]
    setup_s = statistics.median(setups)
    passes = res["passes"]
    q1, wall_s, q3 = statistics.quantiles(passes, n=4)
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    failed_frac = res["failed"] / max(res["attempted"], 1)
    items_per_s = res["items_per_pass"] / wall_s
    print(f"workload {workload}: {len(passes)} passes x {res['items_per_pass']} items, "
          f"trace={trace}")
    print(f"  setup_s {setup_s:.4f} s (median of {len(setups)}: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"  wall_s {wall_s:.4f} s (median of {len(passes)} passes; q1 {q1:.4f}, "
          f"q3 {q3:.4f}; per pass: " + " ".join(f"{w:.3f}" for w in passes) + ")")
    # items_per_s is items per pass / wall_s, so BENCHMARK.json bounds wall_s only
    print(f"  items_per_s {items_per_s:.4f} 1/s")
    print(f"  peak_rss_mb {res['peak_rss_mb']:.4f} MB")
    print(f"  failed_frac {failed_frac:.4f} ratio ({res['failed']} of {res['attempted']})")
    print(f"  ref_max_rel_err {res['ref_max_rel_err']:.3e} ratio "
          f"(diagnostic; {res['ref_items_compared']} values compared)")
    for p in res["problems"]:
        print(f"  FAILED {p}")
    print("  meta " + json.dumps(dict(res["meta"], cpu_s=res["cpu_s"]), sort_keys=True))
    if trace:
        layers = res["layers"]
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in declared}
        if res["missing_hooks"]:
            print("  missing trace hooks: " + ", ".join(res["missing_hooks"]))
        wall = layers["trace.wall_s"]
        for k, m in metrics.items():
            share = (f"  ({100 * m['value'] / wall:5.1f}% of traced wall)"
                     if m["unit"] == "s" and not k.startswith("trace.") else "")
            print(f"  {k} {m['value']:.6g} {m['unit']}{share}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    correct = res["failed"] == 0 and res["attempted"] > 0
    row = {"setup_s": setup_s, "wall_s": wall_s, "items_per_s": items_per_s,
           "peak_rss_mb": res["peak_rss_mb"], "failed_frac": failed_frac,
           "correct": correct}
    return ({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
             "metrics": metrics}, row)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a fraction of a second per rep, for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "dynaperc" / "__init__.py").is_file():
        print(f"dynaperc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, rows = {}, {}
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + RUN_LIMIT_S
        try:
            res = measure(name, args.seed, args.seconds, args.trace, args.size,
                          deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        results[name], rows[name] = report(name, res, args.trace)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(f"{'workload':9s} {'setup_s (s)':>12s} {'wall_s (s)':>11s} {'items_per_s (1/s)':>18s} "
          f"{'peak_rss_mb (MB)':>17s} {'failed_frac (ratio)':>20s}")
    for name, r in rows.items():
        print(f"{name:9s} {r['setup_s']:12.4f} {r['wall_s']:11.4f} {r['items_per_s']:18.4f} "
              f"{r['peak_rss_mb']:17.2f} {r['failed_frac']:20.4f}")
    return 0 if all(r["correct"] for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
