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
