"""The benchmark tool under scripts/ runs against the package in src/."""

import importlib.util
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


def test_bench_smoke(tmp_path, monkeypatch):
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

    # each side runs from a fresh copy in one temporary directory, never
    # from the working tree itself; the change side, which runs first in
    # the first pair, from a copy of the working tree's files
    bench = load_bench()
    runs = []

    def spy(root, workload, seed, seconds, smoke):
        with open(os.path.join(root, "src", "adequa", "trees.py"), "rb") as fh:
            runs.append((root, fh.read()))
        assert os.path.isfile(os.path.join(root, "perfbench", "run.py"))
        return {"failed_ratio": 0, "attempted": 1, "correct": True,
                **{name: 1.0 for name in report["better"]}}

    monkeypatch.setattr(bench, "run_once", spy)
    assert bench.main(["--workloads", "arith", "--seeds", "1", "--out", str(out), *baseline]) == 0
    roots = [root for root, _ in runs]
    assert len(set(roots)) == len(roots) == len(sides)
    with open(os.path.join(ROOT, "src", "adequa", "trees.py"), "rb") as fh:
        assert runs[0][1] == fh.read()
    for root in roots:
        assert os.path.dirname(root) == os.path.dirname(roots[0])
        assert os.path.commonpath([root, ROOT]) != ROOT
        assert not os.path.exists(root)


def load_bench():
    path = os.path.join(ROOT, "scripts", "bench.py")
    spec = importlib.util.spec_from_file_location("bench_script", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_workloads_default_to_the_declared_ones():
    bench = load_bench()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    args = bench.build_parser(benchmark).parse_args(["--out", "x"])
    assert args.workloads == [w["name"] for w in benchmark["workloads"]]
    args = bench.build_parser({"workloads": [{"name": "enum"}]}).parse_args(["--out", "x"])
    assert args.workloads == ["enum"]


def test_bench_regressions_list_an_incorrect_change():
    bench = load_bench()
    better, bound = {"ops_per_s": "higher"}, {"ops_per_s": 0.25}

    def entry(baseline_correct, change_correct):
        side = lambda correct: {"ops_per_s": {"median": 100.0}, "correct": correct}
        return {"baseline": side(baseline_correct), "change": side(change_correct)}

    assert bench.regressions(entry(True, False), better, bound) == {
        "correct": {"baseline": True, "change": False}
    }
    for sides in ((True, True), (False, False), (False, True)):
        assert bench.regressions(entry(*sides), better, bound) == {}
