"""The scripts under scripts/ run against the package in src/."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_identity_sweep():
    proc = run_script("identity_sweep.py", "--rounds", "20", "--budget", "50")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("0 disagreements")


def test_identity_sweep_disagreement_exits_one():
    # one assignment per identity cannot separate most rejected identities
    proc = run_script("identity_sweep.py", "--rounds", "10", "--budget", "1")
    assert proc.returncode == 1, proc.stderr
    assert "DISAGREEMENT" in proc.stdout


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_identity_sweep_rejects_budget_below_one(budget):
    proc = run_script("identity_sweep.py", "--rounds", "1", "--budget", budget)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "at least 1" in proc.stderr


def test_growth_report_past_the_bound_is_a_usage_error():
    proc = run_script("growth_report.py", "--max", "31")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: n=31 exceeds the left sphere bound 30\n"


def test_growth_report_json():
    proc = run_script("growth_report.py", "--max", "6", "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [row["n"] for row in report["rows"]] == list(range(7))


def test_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    baseline = ["--baseline", "HEAD"] if os.path.isdir(os.path.join(ROOT, ".git")) else []
    proc = run_script("bench.py", "--smoke", "--workloads", "arith", "--seeds", "1",
                      "--seconds", "0.5", "--out", str(out), *baseline)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["python"] and report["machine"]["cpus"]
    arith = report["workloads"]["arith"]
    sides = ["change", "baseline"] if baseline else ["change"]
    for side in sides:
        assert arith[side]["correct"]
        assert arith[side]["failed_ratio"]["median"] == 0
        for name in ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"):
            stats = arith[side][name]
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert len(arith["runs"][side]) == 1
        assert arith[side]["operations"] == arith["runs"][side][0]["attempted"] > 0
    if baseline:
        assert set(report["commits"]) == {"change", "baseline"}
        assert set(arith["change_wins"]) == set(report["better"])
        assert "operations" not in report["better"]
        for name, medians in arith["regressions"].items():
            assert name in report["better"]
            assert set(medians) == {"baseline", "change"}


def test_bench_regressions_list_an_incorrect_change():
    path = os.path.join(ROOT, "scripts", "bench.py")
    spec = importlib.util.spec_from_file_location("bench_script", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    better, bound = {"ops_per_s": "higher"}, {"ops_per_s": 0.25}

    def entry(baseline_correct, change_correct):
        side = lambda correct: {"ops_per_s": {"median": 100.0}, "correct": correct}
        return {"baseline": side(baseline_correct), "change": side(change_correct)}

    assert bench.regressions(entry(True, False), better, bound) == {
        "correct": {"baseline": True, "change": False}
    }
    for sides in ((True, True), (False, False), (False, True)):
        assert bench.regressions(entry(*sides), better, bound) == {}
