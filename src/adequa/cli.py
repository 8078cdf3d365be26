"""Command-line front end.

Every verdict printed here is computed through the library API; exit
code 0 means success, 1 means a negative verdict (identity not
satisfied, elements not equal, a reproduction target failed, a growth
count off its published value, checker and falsifier in disagreement),
2 means a usage or input error, 3 means an internal error (a bug, not a
verdict), and 141 means the reader closed stdout before the output ended
(the code a shell reports for a tool that SIGPIPE stopped).  JSON output
uses sorted keys so identical invocations are byte-identical;
`growth-report --json` alone is indented, for reading.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import growth
from .algebra import Element, Flavor, eval_term, generator
from .identities import (
    IdentitySpec,
    check_enriched_flad1,
    check_enriched_frad1,
    check_fad1_plain,
    check_fladX,
    check_plain,
    falsify_by_substitution,
)
from .reproduce import enriched_sweep, run_targets
from .retract import retract
from .terms import letters_of, parse_term, term_to_str
from .trees import from_json, to_dot, to_json

FLAVORS = {"flad": Flavor.LEFT, "frad": Flavor.RIGHT, "fad": Flavor.TWO_SIDED}
STDIN_HELP = "a term, or - to read it from stdin"


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _tree_obj(t) -> dict:
    return json.loads(to_json(t))


def _element_obj(e: Element) -> dict:
    return {
        "tree": _tree_obj(e.tree),
        "edges": e.edge_count,
        "trunk_length": e.trunk_length,
        "idempotent": e.trunk_length == 0,
        "canonical_code": e.code.hex(),
    }


def _witness_obj(witness) -> dict | None:
    if witness is None:
        return None
    return {x: _tree_obj(e.tree) for x, e in sorted(witness.items())}


def _terms(*texts: str) -> list[str]:
    """The term arguments, each "-" replaced by stdin's text, for a term
    longer than the 128 KB the kernel allows one argument.  stdin is read
    once, so at most one term may be "-"."""
    if texts.count("-") > 1:
        raise ValueError("only one term may be read from stdin")
    return [sys.stdin.read() if text == "-" else text for text in texts]


def _eval_in_flavor(term_text: str, flavor: Flavor, assigns: list[str]) -> Element:
    base: dict[str, Element] = {}
    for spec in assigns:
        if "=" not in spec:
            raise ValueError("bad --assign %r; expected letter=TERM" % spec)
        letter, _, rhs = spec.partition("=")
        letter = letter.strip()
        if len(letter) != 1 or not "a" <= letter <= "z":
            raise ValueError("bad --assign letter %r" % letter)
        if letter in base:
            raise ValueError("letter %s assigned twice" % letter)
        rt = parse_term(rhs)
        sub = {x: generator(x, flavor) for x in letters_of(rt)}
        base[letter] = eval_term(rt, sub, flavor)
    term = parse_term(term_text)
    for x in letters_of(term):
        base.setdefault(x, generator(x, flavor))
    return eval_term(term, base, flavor)


def _cmd_eval(args) -> int:
    flavor = FLAVORS[args.flavor]
    (term,) = _terms(args.term)
    el = _eval_in_flavor(term, flavor, args.assign)
    if args.format == "dot":
        print(to_dot(el.tree))
    else:
        _emit(_element_obj(el))
    return 0


def _cmd_equal(args) -> int:
    flavor = FLAVORS[args.flavor]
    lhs, rhs = _terms(args.lhs, args.rhs)
    a = _eval_in_flavor(lhs, flavor, [])
    b = _eval_in_flavor(rhs, flavor, [])
    equal = a.code == b.code
    _emit({"equal": equal, "flavor": args.flavor})
    return 0 if equal else 1


def _cmd_retract(args) -> int:
    t = from_json(args.json)  # validates
    r = retract(t)
    if args.format == "dot":
        print(to_dot(r))
    else:
        _emit({"tree": _tree_obj(r), "deleted_edges": t.edge_count - r.edge_count})
    return 0


def _sphere(variant: str, n: int, elements: bool):
    """The sphere's census, with its elements in code order (None when
    they are not asked for, so that no tree is coded or kept)."""
    if elements:
        return growth.two_sided_sphere(n) if variant == "two-sided" else growth.left_sphere(n)
    return None, growth.two_sided_census(n) if variant == "two-sided" else growth.left_census(n)


def _cmd_sphere(args) -> int:
    els, census = _sphere(args.variant, args.edges, not args.count_only)
    by_trunk = census.by_trunk
    if args.idempotents_only:
        by_trunk = {k: v for k, v in by_trunk.items() if k == 0}
    out: dict = {"edges": args.edges, "variant": args.variant}
    out["total"] = sum(by_trunk.values())
    if args.by_trunk:
        out["by_trunk"] = {str(k): v for k, v in sorted(by_trunk.items())}
    if not args.count_only:
        out["elements"] = [
            _tree_obj(e.tree)
            for e in els
            if e.trunk_length == 0 or not args.idempotents_only
        ]
    _emit(out)
    return 0


def _cmd_census(args) -> int:
    if args.max < 0:
        raise ValueError("n must be nonnegative")
    # largest first, so a size past the enumerator's bound fails before
    # any other work
    rows = [_sphere(args.variant, n, False)[1] for n in range(args.max, -1, -1)][::-1]
    if args.format == "csv":
        print("n,total,k,count_by_trunk,idempotent_count")
        for c in rows:
            for k in sorted(c.by_trunk) or [0]:
                print(
                    "%d,%d,%d,%d,%d"
                    % (c.n, c.total, k, c.by_trunk.get(k, 0), c.idempotent_count)
                )
    else:
        _emit(
            {
                "rows": [
                    {
                        "n": c.n,
                        "total": c.total,
                        "by_trunk": {str(k): v for k, v in sorted(c.by_trunk.items())},
                        "idempotent_count": c.idempotent_count,
                    }
                    for c in rows
                ],
                "variant": args.variant,
            }
        )
    return 0


def _cmd_partitions(args) -> int:
    fn = growth.Q if args.distinct else growth.P
    out = {"n": args.n, "distinct": args.distinct, "value": fn(args.n, args.k)}
    if args.k is not None:
        out["k"] = args.k
    _emit(out)
    return 0


def _cmd_zigzag(args) -> int:
    census = growth.zigzag_census(args.edges)
    heights = [args.height] if args.height is not None else sorted(census)
    rows = []
    for i in heights:
        if i not in census:
            raise ValueError("height %d out of range for %d edges" % (i, args.edges))
        row = census[i]
        rows.append(
            {
                "height": i,
                "all_count": row["all_count"],
                "retract_free_count": row["Z_count"],
                "members": ["".join("a" if x else "t" for x in z) for z in row["members"]],
            }
        )
    _emit({"edges": args.edges, "rows": rows})
    return 0


def _cmd_identity(args) -> int:
    spec = IdentitySpec.parse(*_terms(args.lhs, args.rhs))
    plain = args.plain
    if args.monoid == "fad1":
        res = check_fad1_plain(spec)
    elif args.monoid == "fladX":
        res = check_fladX(spec)
    elif plain:
        res = check_plain(spec, "left" if args.monoid == "flad1" else "right")
    elif args.monoid == "flad1":
        res = check_enriched_flad1(spec)
    else:
        res = check_enriched_frad1(spec)
    _emit(
        {
            "satisfied": res.satisfied,
            "failing_condition": res.failing_condition,
            "witness": _witness_obj(res.witness),
        }
    )
    return 0 if res.satisfied else 1


def _cmd_falsify(args) -> int:
    spec = IdentitySpec.parse(*_terms(args.lhs, args.rhs))
    flavor = Flavor.LEFT if args.monoid == "flad1" else Flavor.RIGHT
    witness = falsify_by_substitution(spec, flavor, budget=args.budget)
    _emit({"budget": args.budget, "witness": _witness_obj(witness)})
    return 1 if witness is not None else 0


def _cmd_reproduce(args) -> int:
    results = run_targets(only=args.only)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print("%-*s  [%s]  %s  %s" % (width, r.name, r.group, mark, r.detail))
    print(
        "%d/%d targets passed" % (len(results) - failed, len(results))
    )
    return 0 if failed == 0 else 1


def _cmd_growth_report(args) -> int:
    report = growth.growth_report(args.max, rank=args.rank, two_sided_max=args.two_sided_max)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print("growth rate lower bound base:", report["growth_rate_lower_bound_base"])
    print("%3s %12s %12s %16s %8s" % ("n", "left sphere", "P(n+1)", "HR estimate", "binom"))
    for row in report["rows"]:
        line = "%3d %12d %12d %16.1f %8d" % (
            row["n"],
            row["left_sphere"],
            row["partition_value"],
            row["hardy_ramanujan_estimate"],
            row["idempotent_binomial_bound"],
        )
        if "two_sided_sphere" in row:
            line += "   S=%d S_E=%d" % (row["two_sided_sphere"], row["two_sided_idempotents"])
        print(line)
    return 0


def _cmd_identity_sweep(args) -> int:
    done = satisfied = disagreements = 0
    for u, v, verdict, agrees in enriched_sweep(args.seed, args.rounds, args.budget):
        if not agrees:
            disagreements += 1
            print("DISAGREEMENT: %s ~ %s (checker=%s)" % (term_to_str(u), term_to_str(v), verdict))
        satisfied += verdict
        done += 1
    print("%d identities checked: %d satisfied, %d disagreements" % (done, satisfied, disagreements))
    return 1 if disagreements else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adequa",
        description="Compute in free adequate monoids via birooted trees.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eval", help="evaluate a term to its canonical tree")
    q.add_argument("--flavor", choices=sorted(FLAVORS), required=True)
    q.add_argument("--assign", action="append", default=[], metavar="x=TERM")
    q.add_argument("--format", choices=["json", "dot"], default="json")
    q.add_argument("term", help=STDIN_HELP)
    q.set_defaults(fn=_cmd_eval)

    q = sub.add_parser("equal", help="decide equality of two terms")
    q.add_argument("--flavor", choices=sorted(FLAVORS), required=True)
    q.add_argument("lhs", help=STDIN_HELP)
    q.add_argument("rhs", help=STDIN_HELP)
    q.set_defaults(fn=_cmd_equal)

    q = sub.add_parser("retract", help="retract a tree given as JSON")
    q.add_argument("--json", required=True, metavar="TREEJSON")
    q.add_argument("--format", choices=["json", "dot"], default="json")
    q.set_defaults(fn=_cmd_retract)

    q = sub.add_parser("sphere", help="enumerate elements with a given edge count")
    q.add_argument("--variant", choices=["left", "two-sided"], required=True)
    q.add_argument("--edges", type=int, required=True)
    q.add_argument("--by-trunk", action="store_true")
    q.add_argument("--idempotents-only", action="store_true")
    q.add_argument("--count-only", action="store_true")
    q.set_defaults(fn=_cmd_sphere)

    q = sub.add_parser("census", help="sphere sizes for all n up to a bound")
    q.add_argument("--variant", choices=["left", "two-sided"], required=True)
    q.add_argument("--max", type=int, required=True)
    q.add_argument("--format", choices=["csv", "json"], default="json")
    q.set_defaults(fn=_cmd_census)

    q = sub.add_parser("partitions", help="partition numbers")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--distinct", action="store_true")
    q.set_defaults(fn=_cmd_partitions)

    q = sub.add_parser("zigzag", help="zig-zag counts by height")
    q.add_argument("--edges", type=int, required=True)
    q.add_argument("--height", type=int, default=None)
    q.set_defaults(fn=_cmd_zigzag)

    q = sub.add_parser("identity", help="decide an identity in a named monoid")
    q.add_argument("--monoid", choices=["flad1", "frad1", "fladX", "fad1"], required=True)
    g = q.add_mutually_exclusive_group()
    g.add_argument("--enriched", action="store_true")
    g.add_argument("--plain", action="store_true")
    q.add_argument("lhs", help=STDIN_HELP)
    q.add_argument("rhs", help=STDIN_HELP)
    q.set_defaults(fn=_cmd_identity)

    q = sub.add_parser("falsify", help="search for a substitution separating two terms")
    q.add_argument("--monoid", choices=["flad1", "frad1"], required=True)
    q.add_argument("--budget", type=int, required=True)
    q.add_argument("lhs", help=STDIN_HELP)
    q.add_argument("rhs", help=STDIN_HELP)
    q.set_defaults(fn=_cmd_falsify)

    q = sub.add_parser("reproduce-paper", help="re-derive the published results")
    q.add_argument("--only", choices=["growth", "identities", "algebra"], default=None)
    q.set_defaults(fn=_cmd_reproduce)

    q = sub.add_parser("growth-report", help="exact sphere sizes next to the asymptotic estimates")
    q.add_argument("--max", type=int, default=14)
    q.add_argument("--rank", type=int, default=1)
    q.add_argument("--two-sided-max", type=int, default=5)
    q.add_argument("--json", action="store_true", help="dump the raw report")
    q.set_defaults(fn=_cmd_growth_report)

    q = sub.add_parser("identity-sweep", help="check the identity checker against the falsifier")
    q.add_argument("--rounds", type=int, default=500)
    q.add_argument("--budget", type=int, default=500)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=_cmd_identity_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout surfaces here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # what is still buffered goes to devnull, so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except growth.ReportCheckError as exc:  # a published count not reproduced
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:  # bad input; the package's input errors subclass it
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
