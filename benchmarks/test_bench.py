"""Smoke test for the benchmark at tiny sizes.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    for name, unit in [("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
                       ("peak_rss_mb", "MB"), ("failed_frac", "ratio")]:
        assert re.search(rf"^  {name} [0-9.e+-]+ {re.escape(unit)}( |$)",
                         proc.stdout, re.MULTILINE), name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


MIX = wl.Sweep("subcritical-mixing", d=1, n_grid=(8,), mu_grid=(0.5, 0.25))
HIT = wl.Sweep("hitting", d=1, n_grid=(8,), mu_grid=(0.5,))
HEADER = ("# schema=dynaperc-results-v1\n"
          "d,n,p,mu,eps,env_seed,x,statistic,value,ci_lo,ci_hi,method,censored_frac\n")


def _csv(*cells):
    return HEADER + "".join(
        f"1,8,0.5,{mu},0.25,,0,h:n8mu{mu}:stat,{value},,,exact,{cens}\n"
        for mu, value, cens in cells)


def _manifest(*cells, status="ok"):
    return "".join(json.dumps({"cell": f"n=8,mu={mu}", "status": status}) + "\n"
                   for mu in cells)


def test_checker_accepts_good_mixing_cells():
    res = wl.check_sweep(MIX, 0, _csv((0.5, 12.0, 0.0), (0.25, 20.0, 0.0)),
                         _manifest(0.5, 0.25))
    assert (res.attempted, res.failed) == (2, 0)


@pytest.mark.parametrize("value,cens", [("nan", 0.0), ("inf", 0.0), (12.0, 0.5),
                                        (13.0, 0.0)])
def test_checker_counts_a_bad_mixing_row(value, cens):
    res = wl.check_sweep(MIX, 0, _csv((0.5, value, cens), (0.25, 20.0, 0.0)),
                         _manifest(0.5, 0.25))
    assert (res.attempted, res.failed) == (2, 1)


def test_checker_counts_censored_and_errored_cells():
    csv = _csv((0.5, 12.0, 0.0), (0.25, 20.0, 0.0))
    assert wl.check_sweep(MIX, 0, csv, _manifest(0.5, 0.25, status="censored")).failed == 2
    assert wl.check_sweep(MIX, 1, csv, _manifest(0.5, 0.25)).failed == 2
    assert wl.check_sweep(MIX, 0, csv, _manifest(0.5)).failed == 1


@pytest.mark.parametrize("value,cens,failed", [(40.0, 1e-12, 0), (40.0, 1e-3, 1),
                                               ("nan", 0.0, 1), (-1.0, 0.0, 1),
                                               (1e6, 0.0, 1)])
def test_checker_bounds_hitting_cells(value, cens, failed):
    res = wl.check_sweep(HIT, 0, _csv((0.5, value, cens)), _manifest(0.5))
    assert res.failed == failed


def test_checker_counts_failed_certificates():
    bad = [("theorem0.base.eps0.1",
            SimpleNamespace(passed=False, per_zeta_certificate=[0.5], steps=3)),
           ("doob0.m3", SimpleNamespace(chi_ok=True, z_bound_ok=None, z_at_psi_steps=None)),
           ("psi_profile", SimpleNamespace(values=[0.2, 1.5])),
           ("iso_profile", SimpleNamespace(value=1.0))]
    res = wl.check_certify(bad)
    assert (res.attempted, res.failed) == (4, 4)
