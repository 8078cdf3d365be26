#!/usr/bin/env python3
"""Run the benchmark over fixed seeds and write the result as one JSON file.

Usage:
    python3 scripts/bench.py --out BENCH_<n>.json [--workloads arith identities]
        [--seeds 1 2 3 104729] [--seconds 20] [--baseline REV] [--smoke]

Each run is one `perfbench/run.py --trace 0` process on one workload and
one seed, on a copy of the working tree's files (those git tracks or does
not ignore) in a temporary directory.  With --baseline REV every run is
paired with the same run of REV's own `perfbench/run.py`, taken from a
`git archive` export in the same directory, so that the two sides of a
pair differ only in their files; the side that runs first alternates
from pair to pair.  The file records the machine, the Python
version, both commits, every run, and per side the median and quartiles
of each end-to-end metric named in BENCHMARK.json, plus how many pairs
the working tree won on each metric (ties count for neither side) and,
as `regressions`, the metrics whose working-tree median is worse than
the baseline median by more than the metric's bound in BENCHMARK.json
(a fraction of the baseline median; any rise of failed_ratio counts),
and `correct` when a working-tree run gave a wrong answer and no
baseline run did.
Each run also records its `attempted` operation count and each side the
median of those as `operations`, outside the wins and the regressions, so
that a `peak_rss_mb` rise can be read against the number of operations run.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, check=True
    ).stdout


def export(rev, into):
    """Extract the committed files of rev into the directory into."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def copy_worktree(into):
    """Copy the working tree's files, as they are on disk, into the
    directory into: those git tracks or does not ignore, or every file
    but git's own and byte code outside a git checkout."""
    try:
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    except (OSError, subprocess.CalledProcessError):
        shutil.copytree(ROOT, into, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        return
    for name in filter(None, names.decode().split("\0")):
        path = os.path.join(ROOT, name)
        if os.path.isfile(path):  # a tracked file may be deleted
            os.makedirs(os.path.dirname(os.path.join(into, name)), exist_ok=True)
            shutil.copy2(path, os.path.join(into, name))


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "system": platform.system(),
        "release": platform.release(),
        "arch": platform.machine(),
        "cpu": model,
        "cpus": os.cpu_count(),
    }


def run_once(root, workload, seed, seconds, smoke):
    """One benchmark process; its metrics, with failed_ratio added."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=10 * seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed in %s:\n%s" % (workload, seed, root, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    metrics["failed_ratio"] = result["failed"] / result["attempted"]
    metrics["attempted"] = result["attempted"]
    metrics["correct"] = result["correct"]
    return metrics


def summary(runs, names):
    out = {}
    for name in names:
        values = sorted(r[name] for r in runs)
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = median = q3 = values[0]
        out[name] = {"median": median, "q1": q1, "q3": q3}
    out["operations"] = statistics.median(r["attempted"] for r in runs)
    out["correct"] = all(r["correct"] for r in runs)
    return out


def regressions(entry, better, bound):
    """Each metric whose change median is worse than the baseline median
    by more than its bound, with both medians, and `correct` when some
    change run answered wrongly and no baseline run did."""
    out = {}
    for name, way in better.items():
        b, c = entry["baseline"][name]["median"], entry["change"][name]["median"]
        worse = c - b if way == "lower" else b - c
        if worse > bound[name] * abs(b):
            out[name] = {"baseline": b, "change": c}
    if entry["baseline"]["correct"] and not entry["change"]["correct"]:
        out["correct"] = {"baseline": True, "change": False}
    return out


def build_parser(benchmark):
    """The options; --workloads defaults to every workload `benchmark`
    (BENCHMARK.json's contents) declares."""
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 104729])
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--baseline", metavar="REV", help="also run this commit, pair by pair")
    ap.add_argument("--smoke", action="store_true", help="tiny input sizes, for a self-test")
    return ap


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    args = build_parser(benchmark).parse_args(argv)
    # exit through the with-blocks below, so that a terminated run stops its
    # benchmark process and removes its export
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    better["failed_ratio"], bound["failed_ratio"] = "lower", 0

    try:
        head = git("rev-parse", "HEAD").decode().strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    except (OSError, subprocess.CalledProcessError):
        head, dirty = None, None
    commits = {"change": {"rev": head, "uncommitted_changes": dirty}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"change": os.path.join(tmp, "change")}
        copy_worktree(sides["change"])
        if args.baseline:
            rev = git("rev-parse", "--verify", args.baseline + "^{commit}").decode().strip()
            commits["baseline"] = {"rev": rev}
            sides["baseline"] = os.path.join(tmp, "baseline")
            export(rev, sides["baseline"])
        results = {}
        pair = 0
        for workload in args.workloads:
            runs = {side: [] for side in sides}
            order = []
            for seed in args.seeds:
                names = list(sides)
                if pair % 2:
                    names.reverse()
                pair += 1
                order.append(names[0])
                for side in names:
                    runs[side].append(run_once(sides[side], workload, seed, args.seconds, args.smoke))
                    print("%s seed %d %s: %.6g ops/s" % (
                        workload, seed, side, runs[side][-1]["ops_per_s"]), file=sys.stderr)
            entry = {side: summary(runs[side], better) for side in sides}
            entry["first"] = order
            entry["runs"] = runs
            if args.baseline:
                entry["change_wins"] = {
                    name: sum(
                        (c[name] > b[name]) if way == "higher" else (c[name] < b[name])
                        for c, b in zip(runs["change"], runs["baseline"])
                    )
                    for name, way in better.items()
                }
                entry["regressions"] = regressions(entry, better, bound)
            results[workload] = entry

    report = {
        "command": ["python3", "scripts/bench.py"] + (argv if argv is not None else sys.argv[1:]),
        "machine": machine(),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "commits": commits,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "pairs_per_workload": len(args.seeds) if args.baseline else 0,
        "better": better,
        "workloads": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
