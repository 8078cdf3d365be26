"""Reproduction suite for the published results.

Each target re-derives one published result from scratch through the
library and reports pass/fail; the CLI and the acceptance tests both run
through these entry points.  Partition values are always fetched through
the growth module attributes, so a negative control that injects a
corrupted partition table is observable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from . import growth
from .algebra import (
    Flavor,
    eval_term,
    generator,
    identity_element,
    make_element,
    multiply,
    plus_op,
    star_op,
)
from .identities import (
    IdentitySpec,
    check_enriched_flad1,
    check_enriched_frad1,
    check_fad1_plain,
    check_fladX,
    falsify_by_substitution,
    fad1_witness_element,
    random_monogenic_element,
)
from .retract import endomorphism_oracle, is_retract_free
from .terms import Identity, Letter, Plus, Product, Term, _fold, parse_term, term_length
from .trees import XTree, canonical_code, theta


@dataclass
class TargetResult:
    name: str
    group: str
    passed: bool
    detail: str


def _left_sphere_sizes() -> tuple[bool, str]:
    for n in range(13):
        if len(growth.generic_left_trees(n)) != growth.P(n + 1):
            return False, "generic mismatch at n=%d" % n
    for n in range(21):
        if len(growth.structural_left_trees(n)) != growth.P(n + 1):
            return False, "structural mismatch at n=%d" % n
    return True, "left sphere sizes match the partition function to n=20"


def _trunk_refinement() -> tuple[bool, str]:
    for n in range(13):
        cen = growth.left_census(n)
        for k in range(n + 1):
            if cen.by_trunk.get(k, 0) != growth.P(n + 1, k + 1):
                return False, "mismatch at (n,k)=(%d,%d)" % (n, k)
    return True, "trunk-refined counts match to n=12"


def _first_branch_recursion() -> tuple[bool, str]:
    census = {n: growth.left_census(n) for n in range(13)}
    for n in range(1, 13):
        for k in range(n):
            for l in range(k + 1):
                lhs = census[n].by_trunk_and_first_branch.get((k, l), 0)
                rhs = census[n - k - 1].by_trunk.get(k - l, 0)
                if lhs != rhs:
                    return False, "mismatch at (n,k,l)=(%d,%d,%d)" % (n, k, l)
    return True, "first-branch recursion holds to n=12"


def expected_refined_cell_trees() -> list[XTree]:
    """The two 6-edge left trees with trunk 2 and first branch at v1."""
    t1 = growth._build_left_tree(2, {1: 4})
    t2 = growth._build_left_tree(2, {1: 3, 0: 1})
    return [t1, t2]


def _refined_cell_check() -> tuple[bool, str]:
    els, cen = growth.left_sphere(6)
    if cen.by_trunk_and_first_branch.get((2, 1), 0) != 2:
        return False, "|S_L(6,2,1)| != 2"
    codes = {e.code for e in els}
    expected = {canonical_code(t) for t in expected_refined_cell_trees()}
    if not expected <= codes:
        return False, "expected (6,2,1) trees missing from the sphere"
    enumerated = set()
    for e in els:
        k = e.trunk_length
        if k == 2 and growth._first_branch_index(e.tree) == 1:
            enumerated.add(e.code)
    if enumerated != expected:
        return False, "enumerated (6,2,1) trees differ from the expected pair"
    return True, "the two (6,2,1) trees match the expected pair"


def _two_sided_table() -> tuple[bool, str]:
    for n in range(6):
        _, cen = growth.two_sided_sphere(n)
        if cen.total != growth.PUBLISHED_TABLE_S[n]:
            return False, "S(%d) = %d" % (n, cen.total)
        if cen.idempotent_count != growth.PUBLISHED_TABLE_SE[n]:
            return False, "S_E(%d) = %d" % (n, cen.idempotent_count)
    return True, "S and S_E match the published table for n=0..5"


def _zigzag_counts() -> tuple[bool, str]:
    for n in range(1, 17):
        zc = growth.zigzag_census(n)
        for i, row in zc.items():
            if row["Z_count"] * n != (n - 2 * i) * math.comb(n, i):
                return False, "ballot count fails at (n,i)=(%d,%d)" % (n, i)
            for z in row["members"]:
                if not is_retract_free(growth.zigzag_tree(z), engine="generic"):
                    return False, "non-retract-free member at (n,i)=(%d,%d)" % (n, i)
        for k in range((n - 1) // 2 + 1):
            if sum(zc[i]["Z_count"] for i in range(k + 1)) != math.comb(n - 1, k):
                return False, "partial sum fails at (n,k)=(%d,%d)" % (n, k)
    return True, "zig-zag counts and retract-freeness verified to n=16"


def _idempotent_lower_bound() -> tuple[bool, str]:
    for n in range(1, 6):
        _, cen = growth.two_sided_sphere(n)
        bound = math.comb(n - 1, (n - 1) // 2)
        if cen.idempotent_count < bound:
            return False, "S_E(%d) = %d < %d" % (n, cen.idempotent_count, bound)
    return True, "idempotent counts dominate the binomial bound"


def _partition_identity() -> tuple[bool, str]:
    for m in range(1, 13):
        for r in range(1, 13):
            for t in range(1, 13):
                if not growth.sums_with_t_check(m, r, t):
                    return False, "identity fails at (m,r,t)=(%d,%d,%d)" % (m, r, t)
    return True, "subset-sum partition identity holds for all m,r,t <= 12"


def _axiom_suite() -> tuple[bool, str]:
    rng = random.Random(11)
    a = generator("a", Flavor.LEFT)
    for step in range(1000):
        x = random_monogenic_element(rng, Flavor.LEFT, 8)
        y = random_monogenic_element(rng, Flavor.LEFT, 8)
        z = random_monogenic_element(rng, Flavor.LEFT, 8)
        xp, yp = plus_op(x), plus_op(y)
        if multiply(xp, x) != x:
            return False, "x+x = x fails"
        if not (plus_op(multiply(xp, yp)) == multiply(xp, yp) == multiply(yp, xp)):
            return False, "idempotent commutation fails"
        if plus_op(multiply(x, y)) != plus_op(multiply(x, yp)):
            return False, "(xy)+ = (xy+)+ fails"
        if plus_op(multiply(multiply(x, yp), z)) != multiply(
            plus_op(multiply(x, y)), plus_op(multiply(x, z))
        ):
            return False, "(xy+z)+ = (xy)+(xz)+ fails"
        theta_x = make_element(theta(x.tree), Flavor.LEFT)
        if multiply(multiply(x, y), x) != multiply(multiply(theta_x, y), x):
            return False, "xyx = theta(x)yx fails"
        # star laws through the two-sided monoid
        u = random_monogenic_element(rng, Flavor.TWO_SIDED, 6)
        v = random_monogenic_element(rng, Flavor.TWO_SIDED, 6)
        us, vs = star_op(u), star_op(v)
        if multiply(u, us) != u:
            return False, "xx* = x fails"
        if not (star_op(multiply(us, vs)) == multiply(us, vs) == multiply(vs, us)):
            return False, "star idempotent commutation fails"
        if star_op(multiply(u, v)) != star_op(multiply(us, v)):
            return False, "(xy)* = (x*y)* fails"
    return True, "1000 randomized axiom rounds passed"


def _oracle_equivalence() -> tuple[bool, str]:
    seen = set()
    for n in range(8):
        for t in growth.oriented_trees(n):
            code = canonical_code(t)
            if code in seen:
                continue
            seen.add(code)
            engine = is_retract_free(t, engine="generic")
            oracle = all(
                not e.is_idempotent or e.is_identity for e in endomorphism_oracle(t)
            )
            if engine != oracle:
                return False, "disagreement on %r" % (t,)
    return True, "engine and endomorphism oracle agree on %d trees" % len(seen)


def _random_term(rng: random.Random, depth: int = 0) -> Term:
    """A random term on x, y built from products and plus, at most 4 deep."""
    r = rng.random()
    if r < 0.35 or depth > 3:
        return Letter(rng.choice("xy"))
    if r < 0.55:
        return Plus(_random_term(rng, depth + 1))
    return Product(_random_term(rng, depth + 1), _random_term(rng, depth + 1))


def enriched_sweep(seed: int, rounds: int, budget: int) -> Iterator[tuple[Term, Term, bool, bool]]:
    """`rounds` random enriched identities u ~ v on x, y, sides of length
    at most 6, from `random.Random(seed)`: each with the left checker's
    verdict and whether the falsifier at `budget` agrees with it."""
    rng = random.Random(seed)
    done = 0
    while done < rounds:
        u, v = _random_term(rng), _random_term(rng)
        if term_length(u) > 6 or term_length(v) > 6:
            continue
        spec = IdentitySpec(u, v)
        verdict = check_enriched_flad1(spec).satisfied
        witness = falsify_by_substitution(spec, Flavor.LEFT, budget=budget)
        yield u, v, verdict, verdict == (witness is None)
        done += 1


def _identity_checker() -> tuple[bool, str]:
    if not check_enriched_flad1(IdentitySpec.parse("xyzxty", "yxzxty")).satisfied:
        return False, "left benchmark identity rejected"
    if not check_enriched_frad1(IdentitySpec.parse("xzytxy", "xzytyx")).satisfied:
        return False, "right benchmark identity rejected"
    # plain sweep, sides of length <= 4 on two letters
    words = [""] + [
        "".join(p) for L in range(1, 5) for p in itertools.product("xy", repeat=L)
    ]
    for u in words:
        for v in words:
            spec = IdentitySpec.parse(u or "1", v or "1")
            verdict = check_enriched_flad1(spec).satisfied
            witness = falsify_by_substitution(spec, Flavor.LEFT, budget=500)
            if verdict != (witness is None):
                return False, "plain disagreement on %r ~ %r" % (u, v)
    if not all(agrees for *_, agrees in enriched_sweep(5, 1000, 500)):
        return False, "enriched disagreement"
    # two-sided plain triviality with the separating witness family
    assign = {"x": fad1_witness_element(7), "y": fad1_witness_element(8)}
    words5 = [""] + [
        "".join(p) for L in range(1, 6) for p in itertools.product("xy", repeat=L)
    ]
    cache = {
        w: eval_term(parse_term(w or "1"), assign, Flavor.TWO_SIDED).code for w in words5
    }
    for u in words5:
        for v in words5:
            if u != v and cache[u] == cache[v]:
                return False, "witness fails to separate %r and %r" % (u, v)
    for u, v in [("xy", "yx"), ("xyx", "xxy"), ("xxy", "xyx"), ("x", "y")]:
        res = check_fad1_plain(IdentitySpec.parse(u, v))
        if res.satisfied or res.witness is None:
            return False, "two-sided rejection fails on %r ~ %r" % (u, v)
    return True, "checker agrees with the falsifier and the two-sided witnesses"


def _enriched_corpus():
    """Non-nested left terms with at most 3 letter occurrences on {x,y}."""
    blocks = [""]
    for L in range(1, 4):
        blocks += ["".join(w) for w in itertools.product("xy", repeat=L)]
    atoms = ["x", "y"] + ["(%s)^+" % b if b else "1^+" for b in blocks]
    length = lambda s: sum(1 for c in s if c in "xy")
    corpus = ["1"]
    frontier = [""]
    seqs = {""}
    for _ in range(3):
        new = []
        for base in frontier:
            for at in atoms:
                cand = base + at
                if length(cand) <= 3 and cand not in seqs:
                    seqs.add(cand)
                    new.append(cand)
        frontier = new
    corpus += sorted(s for s in seqs if s)
    return [parse_term(s) for s in corpus]


def _fladX_checking() -> tuple[bool, str]:
    # A rank-X identity u ~ v holds iff u and v evaluate, on distinct
    # generators, to one element; so the verdict of a pair is the equality
    # of two codes, each computed once.
    corpus = _enriched_corpus()
    assign = {x: generator(x, Flavor.LEFT) for x in "xy"}
    # an independent oracle: the term folded one operation at a time
    one = identity_element(Flavor.LEFT)
    leaf = lambda node: one if isinstance(node, Identity) else assign[node.name]
    classes: dict[bytes, list[Term]] = {}
    for t in corpus:
        code = eval_term(t, assign, Flavor.LEFT).code
        if _fold(t, leaf, multiply, plus_op, star_op).code != code:
            return False, "evaluation differs from the operation-by-operation fold"
        classes.setdefault(code, []).append(t)
    for members in classes.values():
        for u in members:
            for v in members:
                if not check_enriched_flad1(IdentitySpec(u, v)).satisfied:
                    return False, "rank-X satisfied but monogenic rejected"
    # strictness witness inside the corpus bounds
    spec = IdentitySpec.parse("(xy)^+y^+", "(xy)^+")
    if check_fladX(spec).satisfied or not check_enriched_flad1(spec).satisfied:
        return False, "strictness witness failed"
    return True, (
        "%d terms in %d classes, evaluation matches the operation-by-operation fold; "
        "all %d satisfied pairs hold in rank 1; strict subset confirmed"
        % (len(corpus), len(classes), sum(len(m) ** 2 for m in classes.values()))
    )


TARGETS = [
    ("left-sphere-sizes", "growth", _left_sphere_sizes),
    ("trunk-refinement", "growth", _trunk_refinement),
    ("first-branch-recursion", "growth", _first_branch_recursion),
    ("refined-cell-trees", "growth", _refined_cell_check),
    ("two-sided-table", "growth", _two_sided_table),
    ("zigzag-counts", "growth", _zigzag_counts),
    ("idempotent-lower-bound", "growth", _idempotent_lower_bound),
    ("partition-identity", "growth", _partition_identity),
    ("axiom-suite", "algebra", _axiom_suite),
    ("retraction-oracle", "algebra", _oracle_equivalence),
    ("identity-checker", "identities", _identity_checker),
    ("rank-X-checking", "identities", _fladX_checking),
]


def run_targets(only: str | None = None) -> list[TargetResult]:
    results = []
    for name, group, fn in TARGETS:
        if only is not None and group != only:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, "error: %s" % exc
        results.append(TargetResult(name, group, ok, detail))
    return results
