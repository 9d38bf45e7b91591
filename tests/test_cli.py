import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dynaperc import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return cli.main(args)


def test_lab_counterexample(tmp_path):
    out = tmp_path / "o"
    assert run(["lab", "--scenario", "counterexample", "--seed", "3",
                "--out", str(out)]) == 0
    text = (out / "lab.csv").read_text()
    assert "counterexample_annealed_tv,0.0" in text
    assert "counterexample_quenched_tv,0.5" in text


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["lab", "--scenario", "counterexample", "--seed", "9",
                    "--out", str(out)]) == 0
    assert (a / "lab.csv").read_bytes() == (b / "lab.csv").read_bytes()


def test_env_sim_and_manifest(tmp_path):
    out = tmp_path / "o"
    assert run(["env-sim", "--seed", "1", "--out", str(out)]) == 0
    assert (out / "env.bin").exists()
    lines = (out / "manifest.jsonl").read_text().splitlines()
    rec = json.loads(lines[-1])
    assert rec["status"] == "ok"
    assert len(rec["config_hash"]) == 16
    assert "env_sim.csv" in rec["outputs"]


def test_rerun_replaces_its_manifest_records(tmp_path):
    out = tmp_path / "o"
    manifest = out / "manifest.jsonl"
    assert run(["bound", "--seed", "0", "--out", str(out)]) == 0
    (first,) = manifest.read_text().splitlines()
    with manifest.open("a") as fh:  # a line that is not a record stays in place
        fh.write("not json\n")
    assert run(["bound", "--seed", "0", "--out", str(out)]) == 0
    lines = manifest.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == "not json"
    assert json.loads(lines[1])["config_hash"] == json.loads(first)["config_hash"]
    rerun = lines
    assert run(["bound", "--seed", "1", "--out", str(out)]) == 0
    lines = manifest.read_text().splitlines()
    assert len(lines) == 3 and lines[:2] == rerun  # another seed adds a record
    assert json.loads(lines[2])["config_hash"] != json.loads(first)["config_hash"]
    assert not list(out.glob("*.tmp"))


def test_walk_sim(tmp_path):
    out = tmp_path / "o"
    assert run(["walk-sim", "--seed", "2", "--out", str(out)]) == 0
    dump = (out / "walk.txt").read_text()
    assert dump.startswith("# dynaperc-walk-v1")
    # recorded with the loop over single attempts that one walker of the
    # batched engine replaces
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "3689cb0433d7f582d04b603d8c36e26ae65c1eeee57e9b74c9b0952174fde262")


def test_hit_samples_the_configured_init(tmp_path):
    values = {}
    for init in ("stationary", "all-closed"):
        cfg = tmp_path / f"{init}.ini"
        cfg.write_text("[run]\nd = 1\nn = 8\nmu = 0.5\nenv_samples = 2\n"
                       f"init = {init}\n")
        out = tmp_path / init
        assert run(["hit", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "hit.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert row["statistic"].endswith("hit_time_annealed_max")
        values[init] = float(row["value"])
    # environments that start closed are sampled as such: the walk waits
    # longer for open edges than from the stationary law (before `hit` read
    # `init`, both gave the stationary value)
    assert values["stationary"] == pytest.approx(14.463691758139671, abs=1e-9)
    assert values["all-closed"] > values["stationary"] + 1.0


def test_bound_with_config(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\nd = 1\nn = 8\nmu = 0.25\neps = 0.25\n")
    out = tmp_path / "o"
    assert run(["bound", "--config", str(cfg), "--out", str(out)]) == 0
    assert "integral_bound_steps" in (out / "bound.csv").read_text()


def test_bound_from_profile_file(tmp_path):
    from dynaperc.expansion import profile_from_values
    prof = profile_from_values([0.125, 0.5], [0.5, 0.25], "exact-enumerated", 0.125)
    pfile = tmp_path / "profile.txt"
    pfile.write_text(prof.serialize())
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\nprofile = {pfile}\n")
    out = tmp_path / "o"
    assert run(["bound", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("content", [
    None, "garbage\n", b"\xff\xfe",
    "# dynaperc-profile-v1 provenance=family-restricted pi_star=0.125\n0.125 0.5\n0.5 0.25\n"],
    ids=["missing", "garbage", "not text", "uncertified"])
def test_bound_refuses_bad_profile_file(tmp_path, content):
    # a failed cell gave exit 1 and still wrote bound.csv and a manifest
    pfile = tmp_path / "profile.txt"
    if isinstance(content, str):
        pfile.write_text(content)
    elif content is not None:
        pfile.write_bytes(content)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\nprofile = {pfile}\n")
    out = tmp_path / "o"
    assert run(["bound", "--config", str(cfg), "--out", str(out)]) == 2
    assert not any(out.glob("*"))


def test_missing_config_errors(tmp_path):
    assert run(["mix", "--config", str(tmp_path / "absent.ini"),
                "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("subcommand, line", [
    ("mix", "n = 2"), ("mix", "mu = abc"), ("evoset", "eps = abc"),
    ("walk-sim", "eps = abc"), ("walk-sim", "x = abc"),
    ("lab --scenario theorem", "eps = abc")])
def test_bad_config_value_exits_2(tmp_path, subcommand, line):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\n{line}\n")
    assert run(subcommand.split() + ["--config", str(cfg),
                                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("subcommand, text", [
    ("mix", "d = 1\n"),
    ("mix", "[run]\nn = 8\nn = 8\n"),
    ("mix", "[run]\nmu_gird = 0.5\n"),
    ("mix", "[DEFAULT]\nmu_gird = 0.5\n"),
    ("bound", "[run]\nprofile = 50%\n"),
    ("mix", "[run]\nenv_samples = 0\n"),
    ("sweep", "[run]\nn_grid = 6\nmu_grid = 0.5\nenv_samples = -2\n"),
    ("mix", "[run]\nx = -1\n"),
    ("walk-sim", "[run]\nx = 99\n"),
    ("hit", "[run]\ninit = bogus\n"),
    ("mix", "[run]\nn_grid = 8,x\n"),
    ("mix", "[run]\nmu = 0\n"),
    ("sweep", "[run]\nn_grid = 6\nmu_grid = 0.5,0\n"),
    ("sweep", "[run]\np = 2\nn_grid = 6\nmu_grid = 0.5\n"),
    ("mix", "[run]\neps = -0.1\nenv_samples = 2\n"),
    ("bound", "[run]\neps = 0\n"),
    ("mix", "[run]\neps = 1\nenv_samples = 2\n"),
], ids=["no section", "duplicate key", "unknown key", "unknown default key",
        "bad interpolation", "env_samples 0", "env_samples -2", "x -1", "x 99",
        "init bogus", "n_grid 8,x", "mu 0", "mu_grid 0", "sweep p 2",
        "eps -0.1", "eps 0", "eps 1"])
def test_bad_config_exits_2(tmp_path, subcommand, text):
    # every value and every cell's torus is checked before any cell runs
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert not any(out.glob("*"))


def test_readme_documents_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \|", readme, flags=re.M)
    assert [key for key, _ in rows] == list(cli.FIELDS)
    for key, default in rows:
        text = cli.FIELDS[key][1]
        assert default.strip() == (f"`{text}`" if text else "unset"), key


def test_expansion_builds_profile_kernels_only_when_written(tmp_path, monkeypatch):
    from dynaperc import walk
    calls = []
    real = walk.window_kernel
    monkeypatch.setattr(walk, "window_kernel",
                        lambda *args: calls.append(args) or real(*args))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\nd = 2\nn = 4\nenv_samples = 2\n")
    out = tmp_path / "o"
    assert run(["expansion", "--config", str(cfg), "--out", str(out)]) == 0
    # one kernel per witness environment; 16 vertices are too many for a profile
    assert len(calls) == 2
    assert not (out / "profile.txt").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 63], ids=["-1", "2**63"])
def test_bad_seed_exits_2(tmp_path, seed):
    # environment dumps store the seed as an int64; no cell may run first
    for subcommand in ("env-sim", "hit"):
        out = tmp_path / subcommand
        assert run([subcommand, "--seed", str(seed), "--out", str(out)]) == 2
        assert not out.exists()


_ROOM_CONFIGS = {  # each command's config, and how far past the base it derives seeds
    "sweep": ("[run]\nn_grid = 4,6\nmu_grid = 0.5\nenv_samples = 2\n", 6001),
    "mix": ("[run]\nn = 6\nenv_samples = 3\n", 2),
    "hit": ("[run]\nn = 6\nenv_samples = 3\n", 2),
    "expansion": ("[run]\nn = 6\nenv_samples = 3\n", 10 ** 4 + 2),
    "walk-sim": ("[run]\nn = 6\n", 1),
}


@pytest.mark.parametrize("subcommand", list(_ROOM_CONFIGS))
def test_seed_without_room_for_derived_seeds_exits_2(tmp_path, subcommand):
    # sweep at the largest base seed derived 2^63 + 5999 and failed its cell
    text, room = _ROOM_CONFIGS[subcommand]
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    for seed in (2 ** 63 - 1, 2 ** 63 - 1 - room + 1):
        assert run([subcommand, "--config", str(cfg), "--seed", str(seed),
                    "--out", str(out)]) == 2
        assert not any(out.glob("*"))
    if subcommand in ("sweep", "walk-sim"):  # the largest base seed that fits runs
        assert run([subcommand, "--config", str(cfg), "--seed", str(2 ** 63 - 1 - room),
                    "--out", str(out)]) == 0


def test_walk_replay_check_survives_optimize(tmp_path):
    # python -O strips asserts; an illegal replay must still fail the cell
    out = tmp_path / "o"
    code = ("import sys; from dynaperc import cli, walk; "
            "walk.replay_is_legal = lambda env, path: False; "
            f"sys.exit(cli.main(['walk-sim', '--out', {str(out)!r}]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 1
    rec = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert rec["status"].startswith("error")


def test_unknown_scenario_errors(tmp_path):
    assert run(["lab", "--scenario", "nope", "--out", str(tmp_path / "o")]) == 2


def test_budget_censors_cells(tmp_path):
    out = tmp_path / "o"
    # zero budget: every cell is censored, but the run completes cleanly
    assert run(["mix", "--budget", "0", "--seed", "1", "--out", str(out)]) == 0
    recs = [json.loads(ln) for ln in (out / "manifest.jsonl").read_text().splitlines()]
    assert all(r["status"] == "censored" for r in recs)


def test_sweep_times_every_cell_with_workers_set(tmp_path, monkeypatch):
    # no environment variable may change how sweep cells are run or timed
    monkeypatch.setenv("DYNAPERC_WORKERS", "2")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\nn_grid = 6,8\nmu_grid = 0.5\nenv_samples = 3\n")
    out = tmp_path / "o"
    assert run(["sweep", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    recs = [json.loads(ln) for ln in (out / "manifest.jsonl").read_text().splitlines()]
    assert len(recs) == 2
    assert all(r["status"] == "ok" and r["wall_clock"] > 0 for r in recs)


def test_lab_theorem_scenario(tmp_path):
    out = tmp_path / "o"
    assert run(["lab", "--scenario", "theorem", "--out", str(out)]) == 0
    assert "theorem_tail_certificate_ok,1.0" in (out / "lab.csv").read_text()
