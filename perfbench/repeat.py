"""Run workloads over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 12
    python3 perfbench/repeat.py --workloads enum --seeds 1-5 --trace 1

Runs one ``run.py`` process at a time, from the repository root, and
prints per workload and metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) /
median.  ``failed_ratio`` is failed over attempted operations.  Raw
result lines are appended to ``perfbench/out/repeat.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "repeat.jsonl"), "a")
    bad = False
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode, proc.stderr))
                bad = True
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace, **res}) + "\n")
            log.flush()
            bad |= not res["correct"]
            values.setdefault("failed_ratio", ("ratio", []))[1].append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("== %s (%d runs)" % (workload, len(values.get("failed_ratio", ("", []))[1])))
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            print("%-44s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  %s"
                  % (name, med, q1, q3, spread, unit))
        sys.stdout.flush()
    log.close()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
