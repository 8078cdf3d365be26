"""Benchmark of the adequa package: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload arith --seed 1 --seconds 20 --trace 0

Workloads, input sizes, tail percentiles and the layer-to-metric map are
in ``perfbench/spec.json``.  The loop is closed and single-threaded: one
operation at a time, the next only after the last one returns.  Inputs
come from ``--seed`` alone; the package sees only the generated inputs.

``--trace 0`` times the operations untraced for ``--seconds`` (whole
cycles, at least enough operations for the tail percentile), then checks
every answer against ``reference.py`` and prints the end-to-end metrics.
``--trace 1`` runs the first ``trace_ops`` operations of the same stream
with span wrappers installed (``tracer.py``), prints the per-layer
metrics, writes the spans to ``perfbench/out/``, and runs the same
operations untraced in a fresh child process to measure the tracing
overhead.

Time metrics are scaled to nominal machine speed with an interleaved
reference loop (see REFERENCE_LOOPS below); raw values are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from time import perf_counter

# The machine's speed drifts: on a shared 2-vCPU virtual machine a fixed
# Python loop took from 1.0x to 1.5x its fastest time from one second to
# the next, and run medians minutes apart differed by 25 %.  Every timed
# operation is therefore bracketed by timings of REFERENCE_LOOPS
# iterations of a fixed integer loop that does not touch the package, and
# the time metrics are scaled to a machine on which that loop takes
# REFERENCE_NOMINAL_S.  Raw times are printed next to them.
REFERENCE_LOOPS = 200_000
REFERENCE_NOMINAL_S = 0.015
REFERENCE_EVERY_S = 0.5


def reference_time():
    t0 = perf_counter()
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i
    return perf_counter() - t0


REFERENCE_AT_START = reference_time()
T_START = perf_counter()

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
# Hard stop for the timed loop, in multiples of --seconds, so that a much
# slower program still ends well inside the run's time limit.
WALL_FACTOR = 4


def parse_args(argv):
    ap = argparse.ArgumentParser(description="adequa benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny input sizes (self-test)")
    ap.add_argument("--corrupt", action="store_true", help="corrupt one expected value (self-test)")
    ap.add_argument("--fixed-ops", type=int, default=0, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def min_ops_for(pct, cycle):
    """Fewest operations that leave ten samples above the percentile."""
    n = 1
    while n * (1 - pct / 100.0) < 10 - 1e-9:
        n += 1
    return -(-n // cycle) * cycle


def cycle_rate(latencies, cycle):
    """Median over whole cycles of operations per second of timed work."""
    rates = [
        cycle / sum(latencies[i:i + cycle])
        for i in range(0, len(latencies) - cycle + 1, cycle)
    ]
    return statistics.median(rates) if rates else len(latencies) / sum(latencies)


def setup_once(args, conf, sizes):
    """Cache reset, input generation and warm-up; returns the workload."""
    import workloads
    from adequa import identities
    from adequa.algebra import Flavor

    identities._POOL_CACHE.clear()
    identities._EVAL_CACHE.clear()
    wl = workloads.WORKLOADS[args.workload](sizes, corrupt=args.corrupt)
    if args.workload == "identities":
        identities.monogenic_pool(Flavor.LEFT)
    # the same warm-up work for every seed: a fixed stream, and cycles
    # start from their smallest inputs
    warm = wl.ops(random.Random("warm-up"), shuffle=False)
    for _ in range(conf["warmup_ops"]):
        next(warm).call()
    return wl


def run_ops(ops_iter, stop, check_now):
    """Closed loop over ops_iter; each operation is timed alone.

    With check_now each answer is checked right after its operation,
    outside the timed region, and dropped, so retained answers do not
    grow the heap; otherwise the answers are returned for check_one.
    Failures are counted by exception type or by failed check.  The
    reference loop is timed at the start, at the end and at least every
    REFERENCE_EVERY_S in between; each latency is also returned scaled by
    the mean of the two reference timings around it.
    """
    latencies, kept, failures = [], [], Counter()
    refs, ref_before = [reference_time()], []
    t_begin = last_ref = perf_counter()
    for op in ops_iter:
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # counted and reported as a failed operation
            latencies.append(perf_counter() - t0)
            failures["raised %s" % type(exc).__name__] += 1
        else:
            latencies.append(perf_counter() - t0)
            if check_now:
                check_one(op, result, failures)
            else:
                kept.append((op, result))
        ref_before.append(len(refs) - 1)
        if perf_counter() - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_time())
            last_ref = perf_counter()
        if stop(len(latencies), perf_counter() - t_begin):
            break
    refs.append(reference_time())
    scaled = [
        lat * REFERENCE_NOMINAL_S / ((refs[i] + refs[i + 1]) / 2)
        for lat, i in zip(latencies, ref_before)
    ]
    return latencies, scaled, refs, kept, failures


def check_one(op, result, failures):
    try:
        problem = op.check(result)
    except Exception as exc:  # a check that crashes counts the answer as wrong
        problem = "check raised %s" % type(exc).__name__
    if problem:
        failures["wrong %s: %s" % (op.kind, problem)] += 1


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "adequa", "__init__.py")):
        print("error: package source not found under src/adequa", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    if args.workload not in spec["workloads"]:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    conf = spec["workloads"][args.workload]
    if args.smoke:
        conf = dict(conf, **conf["smoke"])
    sizes = conf["sizes"]

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import workloads  # noqa: F401  (imports the package)

    t_import = perf_counter() - T_START
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = setup_once(args, conf, sizes)
        reps.append(perf_counter() - t0)
    setup_raw = t_import + statistics.median(reps)
    setup_ref = (REFERENCE_AT_START + reference_time()) / 2
    setup_s = setup_raw * REFERENCE_NOMINAL_S / setup_ref

    pct = conf["tail_percentile"]
    rng = random.Random(args.seed)
    if args.trace:
        return traced(args, conf, wl, rng)

    if args.fixed_ops:
        stream = wl.ops(rng)
        ops_iter = iter([next(stream) for _ in range(args.fixed_ops)])
        stop = lambda n, elapsed: False
    else:
        ops_iter = wl.ops(rng)
        need = min_ops_for(pct, wl.cycle)
        limit = WALL_FACTOR * args.seconds
        stop = lambda n, elapsed: elapsed >= limit or (
            elapsed >= args.seconds and n >= need and n % wl.cycle == 0
        )
    latencies, scaled, refs, _, failures = run_ops(ops_iter, stop, check_now=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def time_metrics(lat, setup):
        ordered = sorted(lat)
        return {
            "ops_per_s": (cycle_rate(lat, wl.cycle), "1/s"),
            "op_p50_ms": (percentile(ordered, 50) * 1e3, "ms"),
            "op_tail_ms": (percentile(ordered, pct) * 1e3, "ms"),
            "setup_s": (setup, "s"),
        }

    n = len(latencies)
    metrics = dict(time_metrics(scaled, setup_s), peak_rss_mb=(peak_rss_mb, "MB"))
    print("workload %s seed %d: %d operations, tail percentile p%g" % (args.workload, args.seed, n, pct))
    print("setup: import %.4f s, repeats %s s" % (t_import, " ".join("%.4f" % r for r in reps)))
    print("reference loop: median %.5f s over %d timings, nominal %.5f s"
          % (statistics.median(refs), len(refs), REFERENCE_NOMINAL_S))
    for name, (value, unit) in time_metrics(latencies, setup_raw).items():
        print("raw %s %.6g %s" % (name, value, unit))
    report(not failures, n, failures, metrics)
    return 0


def traced(args, conf, wl, rng):
    import tracer as tracing
    from adequa import identities

    stream = wl.ops(rng)
    ops = [next(stream) for _ in range(conf["trace_ops"])]
    tracer = tracing.Tracer()
    cache_before = len(identities._EVAL_CACHE)
    tracer.install()
    try:
        latencies, scaled, _, kept, failures = run_ops(
            iter(ops), lambda n, elapsed: False, check_now=False
        )
    finally:
        tracer.uninstall()
    traced_rate = cycle_rate(scaled, wl.cycle)
    cache_entries = len(identities._EVAL_CACHE)
    metrics = tracer.metrics(cache_entries - cache_before, cache_entries)
    for op, result in kept:
        check_one(op, result, failures)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, "spans-%s-%d.tsv" % (args.workload, args.seed))
    tracer.write(span_file)

    child = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--fixed-ops", str(len(ops))]
    child += ["--smoke"] if args.smoke else []
    proc = subprocess.run(child, capture_output=True, text=True, timeout=170)
    untraced = json.loads(proc.stdout.strip().splitlines()[-1])
    untraced_rate = untraced["metrics"]["ops_per_s"]["value"]
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (traced_rate - untraced_rate, "1/s")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    n = len(latencies)
    print("workload %s seed %d traced: %d operations, spans in %s"
          % (args.workload, args.seed, n, os.path.relpath(span_file, ROOT)))
    print("waiting time: none (single thread, closed loop, no queues or retries)")
    report(not failures and untraced["correct"], n, failures, metrics)
    return 0


def report(correct, attempted, failures, metrics):
    """Human-readable lines, then the result as one JSON line."""
    failed = sum(failures.values())
    print("failed_ratio %.6f ratio (%d of %d)" % (failed / attempted, failed, attempted))
    for name, count in sorted(failures.items()):
        print("%s: %d" % (name, count))
    for name, (value, unit) in metrics.items():
        print("%s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    # Set iteration order of strings inside the package follows the hash
    # seed; fixing it makes traced call counts repeat exactly per --seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main(sys.argv[1:]))
