#!/usr/bin/env python3
"""Print exact sphere sizes next to the asymptotic estimates.

Usage: python3 scripts/growth_report.py [--max N] [--rank R] [--two-sided-max M]

A size past an enumerator's bound prints `error: ...` and exits 2.
"""

import argparse
import json
import sys

from adequa.growth import growth_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=14)
    ap.add_argument("--rank", type=int, default=1)
    ap.add_argument("--two-sided-max", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="dump the raw report")
    args = ap.parse_args()

    try:
        report = growth_report(args.max, rank=args.rank, two_sided_max=args.two_sided_max)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print("growth rate lower bound base:", report["growth_rate_lower_bound_base"])
    header = "%3s %12s %12s %16s %8s" % (
        "n", "left sphere", "P(n+1)", "HR estimate", "binom"
    )
    print(header)
    for row in report["rows"]:
        line = "%3d %12d %12d %16.1f %8d" % (
            row["n"],
            row["left_sphere"],
            row["partition_value"],
            row["hardy_ramanujan_estimate"],
            row["idempotent_binomial_bound"],
        )
        if "two_sided_sphere" in row:
            line += "   S=%d S_E=%d" % (
                row["two_sided_sphere"], row["two_sided_idempotents"]
            )
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
