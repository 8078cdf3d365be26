"""Command-line front end.

Every verdict printed here is computed through the library API; exit
code 0 means success, 1 means a negative verdict (identity not
satisfied, elements not equal, a reproduction target failed), 2 means a
usage or input error, 3 means an internal error (a bug, not a verdict).
JSON output uses sorted keys so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import growth
from .algebra import Element, Flavor, FlavorError, eval_term, generator
from .identities import (
    IdentitySpec,
    check_enriched_flad1,
    check_enriched_frad1,
    check_fad1_plain,
    check_fladX,
    check_plain,
    falsify_by_substitution,
)
from .reproduce import run_targets
from .retract import retract
from .terms import TermSyntaxError, letters_of, parse_term
from .trees import InvalidTreeError, from_json, to_dot, to_json

FLAVORS = {"flad": Flavor.LEFT, "frad": Flavor.RIGHT, "fad": Flavor.TWO_SIDED}


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


def _eval_in_flavor(term_text: str, flavor: Flavor, assigns: list[str]) -> Element:
    base: dict[str, Element] = {}
    for spec in assigns:
        if "=" not in spec:
            raise ValueError("bad --assign %r; expected letter=TERM" % spec)
        letter, _, rhs = spec.partition("=")
        letter = letter.strip()
        if len(letter) != 1 or not letter.isalpha():
            raise ValueError("bad --assign letter %r" % letter)
        rt = parse_term(rhs)
        sub = {x: generator(x, flavor) for x in letters_of(rt)}
        base[letter] = eval_term(rt, sub, flavor)
    term = parse_term(term_text)
    assignment = dict(base)
    for x in letters_of(term):
        assignment.setdefault(x, generator(x, flavor))
    return eval_term(term, assignment, flavor)


def _cmd_eval(args) -> int:
    flavor = FLAVORS[args.flavor]
    el = _eval_in_flavor(args.term, flavor, args.assign)
    if args.format == "dot":
        print(to_dot(el.tree))
    else:
        _emit(_element_obj(el))
    return 0


def _cmd_equal(args) -> int:
    flavor = FLAVORS[args.flavor]
    a = _eval_in_flavor(args.lhs, flavor, [])
    b = _eval_in_flavor(args.rhs, flavor, [])
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


def _sphere_elements(variant: str, n: int):
    if variant == "left":
        return growth.left_sphere(n)
    return growth.two_sided_sphere(n)


def _cmd_sphere(args) -> int:
    els, census = _sphere_elements(args.variant, args.edges)
    if args.idempotents_only:
        els = [e for e in els if e.trunk_length == 0]
    out: dict = {"edges": args.edges, "total": len(els), "variant": args.variant}
    if args.by_trunk:
        by = {}
        for e in els:
            by[e.trunk_length] = by.get(e.trunk_length, 0) + 1
        out["by_trunk"] = {str(k): v for k, v in sorted(by.items())}
    if not args.count_only:
        out["elements"] = [
            _tree_obj(e.tree) for e in sorted(els, key=lambda e: e.code)
        ]
    _emit(out)
    return 0


def _cmd_census(args) -> int:
    # largest first, so a size past the enumerator's bound fails before
    # any other work
    rows = [_sphere_elements(args.variant, n)[1] for n in range(args.max, -1, -1)][::-1]
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
    if args.k is None:
        _emit({"n": args.n, "distinct": args.distinct, "value": fn(args.n)})
    else:
        _emit(
            {
                "n": args.n,
                "k": args.k,
                "distinct": args.distinct,
                "value": fn(args.n, args.k),
            }
        )
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
                "members": ["".join("a" if x else "t" for x in z.away) for z in row["members"]],
            }
        )
    _emit({"edges": args.edges, "rows": rows})
    return 0


def _cmd_identity(args) -> int:
    spec = IdentitySpec.parse(args.lhs, args.rhs)
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
    spec = IdentitySpec.parse(args.lhs, args.rhs)
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
    q.add_argument("term")
    q.set_defaults(fn=_cmd_eval)

    q = sub.add_parser("equal", help="decide equality of two terms")
    q.add_argument("--flavor", choices=sorted(FLAVORS), required=True)
    q.add_argument("lhs")
    q.add_argument("rhs")
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
    q.add_argument("lhs")
    q.add_argument("rhs")
    q.set_defaults(fn=_cmd_identity)

    q = sub.add_parser("falsify", help="search for a substitution separating two terms")
    q.add_argument("--monoid", choices=["flad1", "frad1"], required=True)
    q.add_argument("--budget", type=int, required=True)
    q.add_argument("lhs")
    q.add_argument("rhs")
    q.set_defaults(fn=_cmd_falsify)

    q = sub.add_parser("reproduce-paper", help="re-derive the published results")
    q.add_argument("--only", choices=["growth", "identities", "algebra"], default=None)
    q.set_defaults(fn=_cmd_reproduce)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (
        TermSyntaxError,
        InvalidTreeError,
        FlavorError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
