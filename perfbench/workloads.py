"""The four benchmark workloads: input generation, operations, checks.

Each workload turns a seeded ``random.Random`` into a stream of
:class:`Op` objects.  ``Op.call`` is the timed operation; it reaches the
package only through module attributes (``A.multiply``), so the span
wrappers of a traced run see every call.  ``Op.check`` runs after the
timed loop and compares the answer with a reference from
``reference.py``; it returns an empty string when the answer is right and
a short reason otherwise.

Input sizes come from ``spec.json``.
"""

from __future__ import annotations

import itertools
import math
import random

import reference as R
from adequa import algebra as A
from adequa import growth as G
from adequa import identities as I
from adequa import retract as RT
from adequa import terms as T
from adequa import trees as TR
from adequa.algebra import Flavor


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def raw(t):
    """The package tree as a plain reference tree."""
    return R.Tree(t.vertices, t.edges, t.start, t.end)


def element_problem(el, expected_raw, flavor) -> str:
    """Why the element is not the retract-free retract of expected_raw."""
    t = el.tree
    if el.flavor is not flavor:
        return "wrong flavor"
    if flavor is Flavor.LEFT and not R.is_left(t):
        return "not a left tree"
    if flavor is Flavor.RIGHT and not R.is_right(t):
        return "not a right tree"
    if not R.hom_equivalent(t, expected_raw):
        return "not hom-equivalent to the unretracted tree"
    if t.edge_count <= RT.ORACLE_EDGE_BOUND:
        idem = [e for e in RT.endomorphism_oracle(t) if e.is_idempotent]
        if len(idem) != 1:
            return "endomorphism oracle: not retract-free"
    elif not R.is_core(t):
        return "not retract-free"
    return ""


# ------------------------------------------------------------------ terms


def rand_term(rng, letters, unary, n_letters, p_unary=0.3):
    """A random term with n_letters letter occurrences.

    ``unary`` is the string of allowed unary operators, drawn from "+*".
    """
    if n_letters == 1:
        t = T.Letter(rng.choice(letters))
    else:
        k = rng.randint(1, n_letters - 1)
        t = T.Product(
            rand_term(rng, letters, unary, k, p_unary),
            rand_term(rng, letters, unary, n_letters - k, p_unary),
        )
    if unary and rng.random() < p_unary:
        t = T.Plus(t) if rng.choice(unary) == "+" else T.Star(t)
    return t


UNARY = {Flavor.LEFT: "+", Flavor.RIGHT: "*", Flavor.TWO_SIDED: "+*"}


# ------------------------------------------------------------------ arith


class Arith:
    """multiply / plus_op / star_op / eval_term on fresh random terms.

    Each cycle holds, per flavor, 8 evaluations, 6 products and 6 unary
    operations (plus for left, star for right, 3 of each for two-sided).
    """

    law_share = 0.1

    def __init__(self, sizes, corrupt=False):
        self.sizes = sizes
        self.corrupt = corrupt
        unary = {Flavor.LEFT: ["plus"] * 6, Flavor.RIGHT: ["star"] * 6,
                 Flavor.TWO_SIDED: ["plus", "star"] * 3}
        self.mix = [(f, kind) for f in Flavor for kind in ["eval"] * 8 + ["mul"] * 6 + unary[f]]
        self.cycle = len(self.mix)

    def ops(self, rng, shuffle=True):
        while True:
            mix = self.mix[:]
            if shuffle:
                rng.shuffle(mix)
            for flavor, kind in mix:
                yield self.make_op(rng, flavor, kind)

    def make_op(self, rng, flavor, kind):
        letters = "xyz"[: rng.randint(1, 3)]
        labels = dict(zip("xyz", "abc"))
        gens = {x: A.generator(labels[x], flavor) for x in letters}
        gen_trees = {x: raw(gens[x].tree) for x in letters}
        unary = UNARY[flavor]

        def operand():
            lo, hi = self.sizes["operand_letters"]
            term = rand_term(rng, letters, unary, rng.randint(lo, hi))
            return A.eval_term(term, gens, flavor)

        if kind == "eval":
            lo, hi = self.sizes["eval_letters"]
            term = rand_term(rng, letters, unary, rng.randint(lo, hi))
            call = lambda: A.eval_term(term, gens, flavor)
            expected = lambda: R.raw_eval(term, gen_trees)
            laws = None
        elif kind == "mul":
            s, t = operand(), operand()
            call = lambda: A.multiply(s, t)
            expected = lambda: R.glue(raw(s.tree), raw(t.tree))
            laws = (s, t, operand()) if rng.random() < self.law_share else None
        else:
            s = operand()
            if kind == "plus":
                call = lambda: A.plus_op(s)
                expected = lambda: R.move_end_to_start(raw(s.tree))
            else:
                call = lambda: A.star_op(s)
                expected = lambda: R.move_start_to_end(raw(s.tree))
            laws = None

        def check(result):
            want = expected()
            if self.corrupt:
                want = R.glue(want, gen_trees[letters[0]])
            problem = element_problem(result, want, flavor)
            if not problem and laws is not None:
                problem = law_problem(result, *laws)
            return problem

        return Op(kind, call, check)


def law_problem(st, s, t, u) -> str:
    """Associativity and the adequate laws around the product st = s*t."""
    eq = lambda p, q: R.ref_code(p.tree) == R.ref_code(q.tree)
    if not eq(A.multiply(st, u), A.multiply(s, A.multiply(t, u))):
        return "associativity"
    if s.flavor is not Flavor.RIGHT:
        sp = A.plus_op(s)
        if not eq(A.multiply(sp, s), s):
            return "x+x = x"
        if not eq(A.plus_op(st), A.plus_op(A.multiply(s, A.plus_op(t)))):
            return "(xy)+ = (xy+)+"
    if s.flavor is not Flavor.LEFT:
        if not eq(A.multiply(s, A.star_op(s)), s):
            return "xx* = x"
        if not eq(A.star_op(st), A.star_op(A.multiply(A.star_op(s), t))):
            return "(xy)* = (x*y)*"
    return ""


# ---------------------------------------------------------------- bigtree

BIG_LABELS = "abc"
COPIES = 6
MAX_DEPTH = 30


def big_tree(rng, n):
    """A tree with n edges and its retract-free retract, known by construction.

    The core is a labelled trunk plus branches headed by a label used
    nowhere else; below the head, siblings carry distinct labels and all
    edges point the same way, so no part of the core folds.  COPIES
    foldable pieces of equal size are then added: each copies a connected
    part of the core hanging beyond a neighbour of its attachment vertex,
    so it maps onto the original and the whole tree retracts onto the
    core.  Every piece hangs off the core, so ``retract`` has about
    COPIES branches to delete.  Branch depths stay at most MAX_DEPTH.
    """
    k = max(8, min(120, n // 10))
    edges = [(i, i + 1, rng.choice(BIG_LABELS)) for i in range(k)]
    nv = k + 1
    uid = 0
    core_edges = int(n * 0.4)
    while len(edges) < core_edges:
        anchor = rng.randrange(nv)
        out = rng.random() < 0.5
        head = nv
        nv += 1
        edges.append((anchor, head, "u%d" % uid) if out else (head, anchor, "u%d" % uid))
        uid += 1
        frontier = [(head, 0)]
        budget = min(rng.randint(3, 25), core_edges - len(edges))
        while frontier and budget > 0:
            v, depth = frontier.pop(rng.randrange(len(frontier)))
            if depth >= MAX_DEPTH:
                continue
            for lab in rng.sample(BIG_LABELS, rng.randint(1, 3)):
                if budget <= 0:
                    break
                edges.append((v, nv, lab) if out else (nv, v, lab))
                frontier.append((nv, depth + 1))
                nv += 1
                budget -= 1
    core = R.Tree(nv, tuple(edges), 0, k)
    ncore = nv
    adj = [[] for _ in range(ncore)]
    for a, b, lab in edges:
        adj[a].append((b, True, lab))
        adj[b].append((a, False, lab))
    for c in range(COPIES):
        size = (n - len(edges)) // (COPIES - c)
        for _ in range(100):
            v = rng.randrange(ncore)
            w, _, _ = rng.choice(adj[v])
            piece = _piece(rng, adj, v, w, size)
            if len(piece) == size:
                break
        copy = {v: v}
        for x, _ in piece:
            copy[x] = nv
            nv += 1
        for x, p in piece:
            for y, out, lab in adj[x]:
                if y == p:
                    edges.append((copy[x], copy[p], lab) if out else (copy[p], copy[x], lab))
                    break
    if len(edges) != n:
        raise ValueError("could not place %d copies on %d edges" % (COPIES, n))
    return TR.XTree(nv, tuple(edges), 0, k), core


def _piece(rng, adj, v, w, size):
    """A connected set of at most size vertices beyond v, grown from w.

    Returns (vertex, parent) pairs in growth order, depth <= MAX_DEPTH.
    """
    parent = {w: v}
    depth = {w: 0}
    order = [w]
    for x in order:
        nbrs = adj[x][:]
        rng.shuffle(nbrs)
        for y, _, _ in nbrs:
            if len(order) >= size:
                break
            if y != parent[x] and y not in parent and depth[x] < MAX_DEPTH:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
    return [(x, parent[x]) for x in order]


class BigTree:
    """retract + canonical_code on large trees with a known retract."""

    def __init__(self, sizes, corrupt=False):
        self.sizes = sizes
        self.corrupt = corrupt
        self.cycle = len(sizes["edges"])

    def ops(self, rng, shuffle=True):
        while True:
            sizes = self.sizes["edges"][:]
            if shuffle:
                rng.shuffle(sizes)
            for n in sizes:
                yield self.make_op(rng, n)

    def make_op(self, rng, n):
        tree, core = big_tree(rng, n)

        def call():
            r = RT.retract(tree)
            return r, TR.canonical_code(r), TR.canonical_code(tree)

        def check(result):
            r, code, tree_code = result
            want = core
            if self.corrupt:
                want = R.glue(core, R.Tree(2, ((0, 1, "a"),), 0, 1))
            if R.ref_code(r) != R.ref_code(want):
                return "retract differs from the known retract"
            if code != TR.canonical_code(TR.XTree(*want)):
                return "canonical code differs from the known retract's"
            if (tree_code == code) != (tree.edge_count == want.vertices - 1):
                return "canonical code of the input"
            return ""

        return Op("retract-%d" % n, call, check)


# ------------------------------------------------------------------- enum


def fingerprint(result) -> int:
    """A hash of an enumeration's answer.

    Keeping hashes rather than the answers themselves keeps the
    benchmark's own heap small, so it does not slow the package's
    garbage collections.
    """
    if isinstance(result, tuple):
        census, free = result
        rows = tuple(
            (i, row["all_count"], row["Z_count"], tuple(row["members"]))
            for i, row in sorted(census.items())
        )
        return hash((rows, tuple(free)))
    return hash(tuple(result))


class Enum:
    """Sphere enumerations and zig-zag censuses, each call once per cycle."""

    def __init__(self, sizes, corrupt=False):
        self.corrupt = corrupt
        self.calls = (
            [("structural", n) for n in sizes["structural"]]
            + [("generic", n) for n in sizes["generic"]]
            + [("two_sided", n) for n in sizes["two_sided"]]
            + [("zigzag", n) for n in sizes["zigzag"]]
        )
        self.cycle = len(self.calls)
        n_max = max(n for _, n in self.calls) + 2
        self.p = R.partition_counts(n_max)
        self.first = {}

    def ops(self, rng, shuffle=True):
        while True:
            calls = self.calls[:]
            if shuffle:
                rng.shuffle(calls)
            for name, n in calls:
                yield self.make_op(name, n)

    def make_op(self, name, n):
        if name == "structural":
            call = lambda: G.structural_left_trees(n)
        elif name == "generic":
            call = lambda: G.generic_left_trees(n)
        elif name == "two_sided":
            call = lambda: [e.tree for e in G.two_sided_sphere(n)[0]]
        else:

            def call():
                census = G.zigzag_census(n)
                free = [
                    RT.is_retract_free(G.zigzag_tree(z), engine="generic")
                    for row in census.values()
                    for z in row["members"]
                ]
                return census, free

        def check(result):
            key = (name, n)
            if key in self.first:
                # already checked in full: the same call must give the same answer
                return "" if fingerprint(result) == self.first[key] else "differs from the first call"
            problem = self.problem(name, n, result)
            if not problem:
                self.first[key] = fingerprint(result)
            return problem

        return Op("%s-%d" % (name, n), call, check)

    def problem(self, name, n, result) -> str:
        bump = 1 if self.corrupt else 0
        if name == "zigzag":
            census, free = result
            for i, row in census.items():
                if row["Z_count"] != R.ballot_count(n, i) + bump:
                    return "ballot count at i=%d" % i
                if len(row["members"]) != row["Z_count"]:
                    return "member list at i=%d" % i
                if row["all_count"] != math.comb(n, i):
                    return "C(n,i) at i=%d" % i
            return "" if all(free) else "a zig-zag member is not retract-free"
        trees = result
        if any(t.edge_count != n for t in trees):
            return "wrong edge count"
        if len({R.ref_code(t) for t in trees}) != len(trees):
            return "isomorphic duplicates"
        if name == "two_sided":
            if len(trees) != R.TWO_SIDED_S[n] + bump:
                return "S(%d)" % n
            if sum(t.start == t.end for t in trees) != R.TWO_SIDED_SE[n]:
                return "S_E(%d)" % n
            return ""
        if not all(R.is_left(t) for t in trees):
            return "not a left tree"
        if len(trees) != sum(self.p[n + 1]) + bump:
            return "P(n+1)"
        by_trunk = {}
        for t in trees:
            k = R.trunk_length(t)
            by_trunk[k] = by_trunk.get(k, 0) + 1
        for k in range(n + 1):
            if by_trunk.get(k, 0) != self.p[n + 1][k + 1]:
                return "P(n+1,k+1) at k=%d" % k
        return ""


# ------------------------------------------------------------- identities


def plain_words(max_len, letters="xy"):
    """Every word over letters of length at most max_len, shortest first."""
    return [
        "".join(w) for n in range(max_len + 1) for w in itertools.product(letters, repeat=n)
    ]


def nonnested_term(rng, letters, n_letters, star=False):
    """A random non-nested term: letters and plus (or star) blocks of plain words."""
    parts = []
    left = n_letters
    while left > 0 or not parts:
        if rng.random() < 0.4:
            k = min(left, rng.randint(0, 3))
            block = "".join(rng.choice(letters) for _ in range(k))
            parts.append("(%s)^%s" % (block or "1", "*" if star else "+"))
            left -= k
        else:
            parts.append(rng.choice(letters))
            left -= 1
    return "".join(parts)


def law_rewrite(rng, u: str, star=False) -> str:
    """u itself, or u^+u (u u^* with star): equal to u by x^+x = x (xx^* = x)."""
    if rng.random() < 0.5:
        return u
    return "(%s)(%s)^*" % (u, u) if star else "(%s)^+(%s)" % (u, u)


class Identities:
    """Identity questions decided by the checkers, some also falsified.

    Each cycle of 100 operations holds exactly MIX of each kind, so the
    median always falls among the decisions and the 99th percentile in
    the middle of the falsifications of satisfied identities.
    """

    MIX = [("plain", 38), ("enriched", 30), ("rank2", 22), ("known", 2), ("unsat", 6), ("sat", 2)]
    cycle = sum(n for _, n in MIX)

    def __init__(self, sizes, corrupt=False):
        self.sizes = sizes
        self.corrupt = corrupt
        self.words = plain_words(sizes["sweep_max_len"])
        self.sat_words = [
            w for w in plain_words(sizes["falsify_letters"])
            if len(w) == sizes["falsify_letters"] and set(w) == {"x", "y"}
        ]
        self.pool = {
            Flavor.LEFT: R.small_monogenic_trees(3, left=True),
            Flavor.RIGHT: R.small_monogenic_trees(3, left=False),
        }
        self.confirmed = {}

    def ops(self, rng, shuffle=True):
        while True:
            kinds = [kind for kind, n in self.MIX for _ in range(n)]
            if shuffle:
                rng.shuffle(kinds)
            for kind in kinds:
                yield self.make_op(rng, kind)

    def make_op(self, rng, kind):
        if kind == "plain":
            u = rng.choice(self.words)
            if rng.random() < 0.5:
                v = "".join(rng.sample(u, len(u)))
            else:
                v = rng.choice(self.words)
            spec = I.IdentitySpec.parse(u or "1", v or "1")
            how = rng.choice(["left", "left", "right", "flad1"])
            if how == "flad1":
                return self.decide("plain", "flad1", spec, lambda: I.check_enriched_flad1(spec))
            monoid = "flad1" if how == "left" else "frad1"
            return self.decide("plain", monoid, spec, lambda: I.check_plain(spec, how))
        if kind == "enriched":
            star = rng.random() < 1 / 3
            n = self.sizes["enriched_letters"]
            u = nonnested_term(rng, "xyz", rng.randint(1, n), star)
            if rng.random() < 0.5:
                v = nonnested_term(rng, "xyz", rng.randint(1, n), star)
            else:
                v = "".join(rng.sample(u, len(u))) if "(" not in u else law_rewrite(rng, u, star)
            spec = I.IdentitySpec.parse(u, v)
            if star:
                return self.decide("enriched", "frad1", spec, lambda: I.check_enriched_frad1(spec))
            return self.decide("enriched", "flad1", spec, lambda: I.check_enriched_flad1(spec))
        if kind == "rank2":
            n = rng.randint(1, 5)
            u = nonnested_term(rng, "xy", n)
            v = nonnested_term(rng, "xy", n) if rng.random() < 0.5 else law_rewrite(rng, u)
            spec = I.IdentitySpec.parse(u, v)
            return self.decide("rank2", "fladX", spec, lambda: I.check_fladX(spec))
        if kind == "known":
            monoid, u, v, verdict = rng.choice(R.KNOWN_VERDICTS)
            spec = I.IdentitySpec.parse(u, v)
            fn = {
                "flad1": I.check_enriched_flad1,
                "frad1": I.check_enriched_frad1,
                "fladX": I.check_fladX,
            }[monoid]
            return self.decide("known", monoid, spec, lambda: fn(spec), verdict)
        return self.falsify_op(rng, satisfied=kind == "sat")

    def falsify_op(self, rng, satisfied):
        """Falsify u ~ v where the verdict is known by construction.

        A satisfied pair is u^+u ~ u for one of the few plain words u with
        falsify_letters letters that use both x and y.  These pairs recur,
        so after its first falsification each one runs against a warm eval
        cache, and the 99th percentile falls among the warm ones.  An
        unsatisfied pair appends a letter to a fresh non-nested term.
        """
        if satisfied:
            u = rng.choice(self.sat_words)
            v, verdict = "(%s)^+%s" % (u, u), True
        else:
            u = ""
            while not ("x" in u and "y" in u):
                u = nonnested_term(rng, "xy", self.sizes["falsify_letters"])
            v, verdict = u + rng.choice("xy"), False
        spec = I.IdentitySpec.parse(u, v)
        budget = self.sizes["budget"]

        def call():
            return I.falsify_by_substitution(spec, Flavor.LEFT, budget=budget)

        def check(witness):
            want = verdict != self.corrupt
            if want != (witness is None):
                return "falsifier verdict differs from the one known by construction"
            if I.check_enriched_flad1(spec).satisfied != want:
                return "check_enriched_flad1 disagrees with the falsifier"
            if witness is not None:
                trees = {x: raw(e.tree) for x, e in witness.items()}
                if R.hom_equivalent(R.raw_eval(spec.lhs, trees), R.raw_eval(spec.rhs, trees)):
                    return "the falsifier's witness does not separate the sides"
            return ""

        return Op("falsify", call, check)

    def decide(self, kind, monoid, spec, call, known=None):
        def check(result):
            satisfied = result.satisfied != self.corrupt
            if known is not None and satisfied != known:
                return "known verdict"
            if monoid == "fladX":
                gens = {x: R.Tree(2, ((0, 1, x),), 0, 1) for x in spec.alphabet}
                equal = R.hom_equivalent(
                    R.raw_eval(spec.lhs, gens), R.raw_eval(spec.rhs, gens)
                )
                return "" if equal == satisfied else "rank-X tree equality"
            refuted = self.refuted(monoid, spec)
            if satisfied and refuted:
                return "satisfied, but a separating assignment exists"
            return ""

        return Op("%s-%s" % (kind, monoid), call, check)

    def refuted(self, monoid, spec) -> bool:
        """Does some assignment of small monogenic trees separate the sides?"""
        key = (monoid, spec)
        if key not in self.confirmed:
            pool = self.pool[Flavor.LEFT if monoid == "flad1" else Flavor.RIGHT]
            rng = random.Random(repr(key))
            found = False
            for _ in range(12):
                trees = {x: rng.choice(pool) for x in spec.alphabet}
                if not R.hom_equivalent(
                    R.raw_eval(spec.lhs, trees), R.raw_eval(spec.rhs, trees)
                ):
                    found = True
                    break
            self.confirmed[key] = found
        return self.confirmed[key]


WORKLOADS = {
    "arith": Arith,
    "bigtree": BigTree,
    "enum": Enum,
    "identities": Identities,
}
