"""Smoke self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every
end-to-end metric of BENCHMARK.json with its unit and fails nothing,
that a traced run prints every per-layer metric and repeats its call
counts exactly under the same seed, and that ``--corrupt`` (one expected
value changed) makes the checks fail.  It also checks that the benchmark
exits non-zero, printing no result, when the package source is absent.
Exits 0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(bench, workload, *extra, cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"]
    proc = subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []

    def expect(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            problems.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        res = last_json(run(bench, name, "--trace", "0"))
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        expect(units == want, "%s: end-to-end metrics and units" % name)
        expect(res["correct"] and res["failed"] == 0, "%s: failed_ratio is 0" % name)

        traced = [last_json(run(bench, name, "--trace", "1")) for _ in range(2)]
        units = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
        want = {m["name"]: m["unit"] for m in bench["per_layer"]}
        expect(units == want, "%s: per-layer metrics and units" % name)
        counts = [
            {k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
            for t in traced
        ]
        expect(counts[0] == counts[1], "%s: traced call counts repeat" % name)

        bad = last_json(run(bench, name, "--trace", "0", "--corrupt"))
        expect(not bad["correct"] and bad["failed"] > 0, "%s: corrupted expected value fails" % name)

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bench, bench["workloads"][0]["name"], "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package source: non-zero exit, no result")

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
