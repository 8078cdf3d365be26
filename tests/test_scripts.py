"""The scripts under scripts/ run against the package in src/."""

import json
import os
import subprocess
import sys

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
