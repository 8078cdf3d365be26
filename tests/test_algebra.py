"""Monoid operations: multiplication, unary ops, flavor gating, axioms."""

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adequa.algebra import (
    Element,
    Flavor,
    FlavorError,
    eval_code,
    eval_term,
    generator,
    glue,
    identity_element,
    make_element,
    multiply,
    plus_op,
    reverse_element,
    star_op,
)
from adequa.identities import monogenic_pool, random_monogenic_element
from adequa.reproduce import _enriched_corpus
from adequa.terms import Identity, Letter, Plus, Product, Star, _fold, parse_term
from adequa.retract import is_retract_free, retract
from adequa.trees import (
    InvalidTreeError,
    TrunkInfo,
    XTree,
    canonical_code,
    from_json,
    theta,
    to_json,
    undirected_adjacency,
    validate,
)

from .test_trees import spy_checks, spy_walks


def a_power(n: int, flavor=Flavor.LEFT) -> Element:
    acc = identity_element(flavor)
    a = generator("a", flavor)
    for _ in range(n):
        acc = multiply(acc, a)
    return acc


class TestBasics:
    def test_identity_element(self):
        e = identity_element(Flavor.LEFT)
        a = generator("a", Flavor.LEFT)
        assert multiply(e, a) == a == multiply(a, e)
        assert e.trunk_length == 0

    def test_identity_element_built_once(self, monkeypatch):
        from adequa import trees

        for flavor in Flavor:
            e = identity_element(flavor)
            assert e.flavor is flavor and e.edge_count == 0
            # another tree in validate's memo, then no full check may run
            trees.validate(trees.generator_tree("a"))
            with monkeypatch.context() as m:
                m.setattr(trees, "_check_fields", None)
                m.setattr(trees, "undirected_adjacency", None)
                assert identity_element(flavor) is e

    def test_generator_built_once(self, monkeypatch):
        from adequa import retract, trees

        for flavor in Flavor:
            for label in ("a", "b7"):
                g = generator(label, flavor)
                assert g.flavor is flavor and g.tree == trees.generator_tree(label)
                walks = []
                with monkeypatch.context() as m:
                    for module in (trees, retract):
                        m.setattr(module, "_walk", lambda t: walks.append(t))
                    assert generator(label, flavor) is g
                assert walks == []

    def test_plus_shares_the_operands_rooting(self, monkeypatch):
        # the moved tree takes the operand's rooting at the start, and a
        # folded result the rooting derived from it, so no full check runs
        rng = random.Random(17)
        ops = [
            random_monogenic_element(rng, flavor, 8)
            for flavor in (Flavor.LEFT, Flavor.TWO_SIDED)
            for _ in range(100)
        ]
        walked = spy_checks(monkeypatch, spy_walks(monkeypatch, []))
        results = [plus_op(e) for e in ops]
        folded = sum(r.edge_count < e.edge_count for e, r in zip(ops, results))
        assert len(walked) == 0 < folded < len(ops)
        moved = [XTree(e.tree.vertices, e.tree.edges, e.tree.start, e.tree.start) for e in ops]
        assert results == [make_element(t, e.flavor) for t, e in zip(moved, ops)]

    def test_generator_shape(self):
        a = generator("a", Flavor.TWO_SIDED)
        assert a.edge_count == 1 and a.trunk_length == 1

    def test_powers_are_chains(self):
        assert a_power(4).edge_count == 4
        assert a_power(4).trunk_length == 4

    def test_glue_additivity(self):
        rng = random.Random(1)
        for _ in range(50):
            s = random_monogenic_element(rng, Flavor.LEFT, 6)
            t = random_monogenic_element(rng, Flavor.LEFT, 6)
            glued = glue(s.tree, t.tree)
            assert glued.edge_count == s.edge_count + t.edge_count

    def test_flavor_mismatch_rejected(self):
        a = generator("a", Flavor.LEFT)
        b = generator("a", Flavor.RIGHT)
        with pytest.raises(FlavorError):
            multiply(a, b)
        with pytest.raises(FlavorError):
            a == b

    def test_unary_gating(self):
        with pytest.raises(FlavorError):
            plus_op(generator("a", Flavor.RIGHT))
        with pytest.raises(FlavorError):
            star_op(generator("a", Flavor.LEFT))
        # two-sided admits both
        a = generator("a", Flavor.TWO_SIDED)
        plus_op(a)
        star_op(a)

    def test_idempotent_iff_trunkless(self):
        a = generator("a", Flavor.LEFT)
        assert a.trunk_length != 0 and multiply(a, a) != a
        p = plus_op(a)
        assert p.trunk_length == 0 and multiply(p, p) == p

    def test_right_shape_validation(self):
        left_only = XTree(4, ((0, 1, "a"), (0, 2, "a"), (2, 3, "a")), 0, 1)
        make_element(left_only, Flavor.LEFT)
        with pytest.raises(FlavorError):
            make_element(left_only, Flavor.RIGHT)

    def test_left_shape_checked_after_retraction(self):
        # the branch 3->1 folds onto 0->1, leaving the left trunk 0->1->2
        folds_to_left = XTree(4, ((0, 1, "a"), (1, 2, "a"), (3, 1, "a")), 0, 2)
        assert make_element(folds_to_left, Flavor.LEFT) == a_power(2)
        # nothing else enters the start, so the branch 2->0 stays
        rigid = XTree(3, ((0, 1, "a"), (2, 0, "a")), 0, 1)
        with pytest.raises(FlavorError):
            make_element(rigid, Flavor.LEFT)


class TestAxioms:
    def test_plus_laws(self):
        rng = random.Random(2)
        for _ in range(150):
            x = random_monogenic_element(rng, Flavor.LEFT, 7)
            y = random_monogenic_element(rng, Flavor.LEFT, 7)
            xp, yp = plus_op(x), plus_op(y)
            assert multiply(xp, x) == x
            assert plus_op(xp) == xp
            assert multiply(xp, yp) == multiply(yp, xp)
            assert plus_op(multiply(xp, yp)) == multiply(xp, yp)
            assert plus_op(multiply(x, y)) == plus_op(multiply(x, yp))

    def test_star_laws(self):
        rng = random.Random(3)
        for _ in range(100):
            x = random_monogenic_element(rng, Flavor.TWO_SIDED, 6)
            y = random_monogenic_element(rng, Flavor.TWO_SIDED, 6)
            xs, ys = star_op(x), star_op(y)
            assert multiply(x, xs) == x
            assert star_op(xs) == xs
            assert star_op(multiply(x, y)) == star_op(multiply(xs, y))
            assert multiply(xs, ys) == multiply(ys, xs)

    def test_associativity_and_identity(self):
        rng = random.Random(4)
        e = identity_element(Flavor.TWO_SIDED)
        for _ in range(60):
            x = random_monogenic_element(rng, Flavor.TWO_SIDED, 5)
            y = random_monogenic_element(rng, Flavor.TWO_SIDED, 5)
            z = random_monogenic_element(rng, Flavor.TWO_SIDED, 5)
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
            assert multiply(e, x) == x == multiply(x, e)

    def test_nested_plus_rewrites(self):
        # (xy+z)+ = (xy)+(xz)+ on random left elements
        rng = random.Random(5)
        for _ in range(100):
            x = random_monogenic_element(rng, Flavor.LEFT, 6)
            y = random_monogenic_element(rng, Flavor.LEFT, 6)
            z = random_monogenic_element(rng, Flavor.LEFT, 6)
            lhs = plus_op(multiply(multiply(x, plus_op(y)), z))
            rhs = multiply(plus_op(multiply(x, y)), plus_op(multiply(x, z)))
            assert lhs == rhs

    def test_trunk_substitution(self):
        # xyx = theta(x)yx: only the trunk of the leading factor matters
        rng = random.Random(6)
        for _ in range(100):
            x = random_monogenic_element(rng, Flavor.LEFT, 6)
            y = random_monogenic_element(rng, Flavor.LEFT, 6)
            tx = make_element(theta(x.tree), Flavor.LEFT)
            assert multiply(multiply(x, y), x) == multiply(multiply(tx, y), x)

    def test_rewrites_fail_at_higher_rank(self):
        # the same laws as term identities over several letters do not hold
        from adequa.identities import IdentitySpec, check_fladX

        spec = IdentitySpec.parse("(xy^+z)^+", "(xy)^+(xz)^+")
        res = check_fladX(spec)
        assert not res.satisfied and res.witness is not None
        spec = IdentitySpec.parse("xyx", "x^+yx")
        assert not check_fladX(spec).satisfied

    def test_idempotent_product_law(self):
        # monogenic left idempotents multiply by taking the higher tree
        for m in range(6):
            for n in range(6):
                e = plus_op(a_power(m))
                f = plus_op(a_power(n))
                assert multiply(e, f) == plus_op(a_power(max(m, n)))


class TestReverse:
    def test_anti_isomorphism(self):
        rng = random.Random(7)
        for _ in range(80):
            s = random_monogenic_element(rng, Flavor.TWO_SIDED, 5)
            t = random_monogenic_element(rng, Flavor.TWO_SIDED, 5)
            assert reverse_element(multiply(s, t)) == multiply(
                reverse_element(t), reverse_element(s)
            )

    def test_star_via_reverse(self):
        rng = random.Random(8)
        for flavor in (Flavor.TWO_SIDED, Flavor.RIGHT):
            for _ in range(60):
                x = random_monogenic_element(rng, flavor, 6)
                assert star_op(x) == reverse_element(plus_op(reverse_element(x)))

    def test_reverse_involution(self):
        rng = random.Random(9)
        for _ in range(60):
            x = random_monogenic_element(rng, Flavor.TWO_SIDED, 6)
            assert reverse_element(reverse_element(x)) == x


class TestEval:
    def test_eval_term_basic(self):
        assign = {x: generator(x, Flavor.LEFT) for x in "xy"}
        t = parse_term("x^+x")
        assert eval_term(t, assign, Flavor.LEFT) == assign["x"]

    def test_eval_word(self):
        assign = {"a": generator("a", Flavor.LEFT)}
        assert eval_term(parse_term("aaa"), assign, Flavor.LEFT) == a_power(3)

    def test_unassigned_letter(self):
        with pytest.raises(ValueError, match="unassigned letter"):
            eval_term(parse_term("xz"), {"x": generator("x", Flavor.LEFT)}, Flavor.LEFT)

    def test_flavor_gating_in_eval(self):
        with pytest.raises(FlavorError):
            eval_term(parse_term("x^*"), {"x": generator("x", Flavor.LEFT)}, Flavor.LEFT)

    def test_operator_rejected_before_its_argument(self):
        # the flavor check comes before the unassigned letter inside
        with pytest.raises(FlavorError):
            eval_term(parse_term("(z)^*"), {}, Flavor.LEFT)

    def test_plus_rejected_in_right_flavor(self):
        with pytest.raises(FlavorError):
            eval_term(parse_term("x^+"), {"x": generator("x", Flavor.RIGHT)}, Flavor.RIGHT)


UNARY = {Flavor.LEFT: (Plus,), Flavor.RIGHT: (Star,), Flavor.TWO_SIDED: (Plus, Star)}


def fold_eval(t, assignment, flavor):
    """The term evaluated one multiply/plus_op/star_op at a time."""
    one = identity_element(flavor)
    leaf = lambda node: one if isinstance(node, Identity) else assignment[node.name]
    return _fold(t, leaf, multiply, plus_op, star_op)


@st.composite
def flavor_terms(draw, flavor, letters, max_letters):
    """A term with 1 to max_letters leaves, bracketed at random, with a
    unary operator of the flavor on some of its nodes."""
    leaves = st.sampled_from([Letter(x) for x in letters * 3] + [Identity()])
    unary = st.sampled_from((None, None) + UNARY[flavor])

    def build(n):
        if n == 1:
            t = draw(leaves)
        else:
            k = draw(st.integers(1, n - 1))
            t = Product(build(k), build(n - k))
        op = draw(unary)
        return t if op is None else op(t)

    return build(draw(st.integers(1, max_letters)))


@st.composite
def evaluations(draw):
    """A flavor, a term on 1 to 3 letters, and an assignment of each letter
    to a generator or to the value of a small term on a, b, c."""
    flavor = draw(st.sampled_from(list(Flavor)))
    letters = "xyz"[: draw(st.integers(1, 3))]
    gens = {x: generator(x, flavor) for x in "abc"}
    assignment = {}
    for x, label in zip(letters, "abc"):
        if draw(st.booleans()):
            assignment[x] = gens[label]
        else:
            assignment[x] = fold_eval(draw(flavor_terms(flavor, "abc", 4)), gens, flavor)
    return flavor, draw(flavor_terms(flavor, letters, 40)), assignment


def balanced_product(letters):
    """The word as a balanced product, which the fold multiplies in
    O(n log n) rather than the O(n^2) of a left-nested word."""
    level = [Letter(x) for x in letters]
    while len(level) > 1:
        pairs = [Product(a, b) for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[len(pairs) * 2:]
    return level[0]


class TestEvalMatchesFold:
    @settings(max_examples=300, deadline=None)
    @given(evaluations())
    def test_random_terms(self, case):
        flavor, t, assignment = case
        assert eval_term(t, assignment, flavor).code == fold_eval(t, assignment, flavor).code

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_long_words(self, flavor):
        rng = random.Random(2000)
        gens = {x: generator(x, flavor) for x in "ab"}
        # y is not a generator, so the word's tree branches and retracts
        unary = UNARY[flavor][0]
        assignment = {
            "x": gens["a"],
            "y": fold_eval(Product(unary(Letter("a")), Letter("b")), gens, flavor),
        }
        word = "".join(rng.choice("xy") for _ in range(2048))
        value = eval_term(balanced_product(word), assignment, flavor)
        assert value.code == fold_eval(balanced_product(word), assignment, flavor).code
        assert eval_term(parse_term(word), assignment, flavor) == value

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_deep_unary_nests(self, flavor):
        # ((x y)^op x)^op y)^op ..., 3000 operators deep, in every flavor
        ops = UNARY[flavor]
        assignment = {x: generator(x, flavor) for x in "xy"}
        t = Letter("x")
        for i in range(3000):
            op = ops[i % len(ops)]
            factor = Letter("xy"[i % 2])
            t = op(Product(t, factor) if op is Plus else Product(factor, t))
        assert eval_term(t, assignment, flavor).code == fold_eval(t, assignment, flavor).code
        bare = parse_term("(" * 3000 + "xy" + (")^" + "+*"[ops[-1] is Star]) * 3000)
        assert eval_term(bare, assignment, flavor).code == fold_eval(bare, assignment, flavor).code



def random_left_term(rng, letters, n):
    """A term with n leaves, bracketed at random, with ^+ on about a
    third of its nodes and a few 1 leaves.  Random splits keep the
    nesting near logarithmic in n."""
    if n == 1:
        t = Identity() if rng.random() < 0.05 else Letter(rng.choice(letters))
    else:
        k = rng.randint(1, n - 1)
        t = Product(random_left_term(rng, letters, k), random_left_term(rng, letters, n - k))
    return Plus(t) if rng.random() < 0.3 else t


def branching_left_element(rng):
    """A random left element over the labels a, b, c, which branches."""
    gens = {x: generator(x, Flavor.LEFT) for x in "abc"}
    return eval_term(random_left_term(rng, "abc", rng.randint(2, 6)), gens, Flavor.LEFT)


class TestEvalCode:
    """`eval_code` is `eval_term(...).code`, which stays the arbiter."""

    def same(self, t, assignment, flavor=Flavor.LEFT):
        assert eval_code(t, assignment, flavor) == eval_term(t, assignment, flavor).code

    def test_terms_over_the_monogenic_pool(self):
        rng = random.Random(3601)
        pool = monogenic_pool(Flavor.LEFT)
        for _ in range(3000):
            t = random_left_term(rng, "xyz", rng.randint(1, 12))
            self.same(t, {x: rng.choice(pool) for x in "xyz"})

    def test_terms_over_branching_elements(self):
        rng = random.Random(3602)
        for _ in range(3000):
            t = random_left_term(rng, "xyz", rng.randint(1, 12))
            self.same(t, {x: branching_left_element(rng) for x in "xyz"})

    def test_enriched_corpus_on_generators(self):
        gens = {x: generator(x, Flavor.LEFT) for x in "xy"}
        for t in _enriched_corpus():
            self.same(t, gens)

    def test_long_terms(self):
        rng = random.Random(3603)
        pool = monogenic_pool(Flavor.LEFT)
        for i in range(200):
            t = random_left_term(rng, "xy", rng.randint(1000, 1200))
            if i % 2:
                assignment = {x: rng.choice(pool) for x in "xy"}
            else:
                assignment = {x: branching_left_element(rng) for x in "xy"}
            self.same(t, assignment)

    @pytest.mark.parametrize("flavor", [Flavor.RIGHT, Flavor.TWO_SIDED])
    def test_other_flavors(self, flavor):
        gens = {x: generator(x, flavor) for x in "xy"}
        op = "*" if flavor is Flavor.RIGHT else "+"
        for text in ["1", "x", "xy", "(xy)^%s x" % op, "(x(y)^*)^%s y" % op]:
            self.same(parse_term(text), gens, flavor)

    def test_a_left_flagged_tree_that_is_not_left(self):
        # only eval_term can say what becomes of it, so eval_code asks it
        odd = Element(XTree(2, ((1, 0, "a"),), 0, 0), None, Flavor.LEFT)
        gens = {"y": generator("y", Flavor.LEFT), "x": odd}
        self.same(parse_term("x"), gens)
        for text in ["xy", "y(x)^+"]:
            with pytest.raises(FlavorError) as want:
                eval_term(parse_term(text), gens, Flavor.LEFT)
            with pytest.raises(FlavorError) as got:
                eval_code(parse_term(text), gens, Flavor.LEFT)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text, assignment", [
        ("xz", {"x": generator("x", Flavor.LEFT)}),
        ("x(y)^+", {"x": generator("x", Flavor.LEFT), "y": generator("y", Flavor.RIGHT)}),
        ("x^*", {"x": generator("x", Flavor.LEFT)}),
        # the star is rejected before its unassigned argument is visited
        ("(z)^*", {}),
        ("x((z)^*)^+", {"x": generator("x", Flavor.LEFT)}),
    ], ids=["unassigned", "wrong-flavor", "star", "star-first", "star-nested"])
    def test_errors_match_eval_term(self, text, assignment):
        t = parse_term(text)
        with pytest.raises(ValueError) as want:
            eval_term(t, assignment, Flavor.LEFT)
        with pytest.raises(ValueError) as got:
            eval_code(t, assignment, Flavor.LEFT)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        if "*" in text:
            assert str(got.value) == "star operator not valid for the left flavor"


# each byte `canonical_code` or `to_dot` reads as a delimiter, and the empty label
BAD_LABELS = ["a" + byte for byte in '()<>"\\'] + [""]


def bad_edges(label):
    return ((0, 1, "a"), (0, 2, label))


def bad_label_message(label):
    if not label:
        return "not a tree: empty edge label"
    return "bad edge label %r: has one of ( ) < > \" \\" % label


class TestEntryChecks:
    """A tree is checked where it enters the package, on every call,
    whatever the package has built meanwhile: its fields when it is
    built, its shape at its first read."""

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_every_entry_point_rejects_a_bad_label(self, label):
        edges = bad_edges(label)
        text = json.dumps({"vertices": 3, "start": 0, "end": 1, "edges": [list(e) for e in edges]})
        for flavor in Flavor:
            entries = [
                (XTree, 3, edges, 0, 1),
                (from_json, text),
                (generator, label, flavor),
            ]
            for _ in range(2):
                for fn, *args in entries:
                    with pytest.raises(InvalidTreeError) as caught:
                        fn(*args)
                    assert str(caught.value) == bad_label_message(label)
                # an operation in between stores rootings on its own trees only
                multiply(generator("a", flavor), generator("b", flavor))

    def test_every_reader_rejects_a_trunkless_tree(self):
        # the fields hold, so the tree is built; each reader roots it and raises
        t = XTree(3, ((0, 1, "a"), (2, 1, "a")), 0, 2)
        for flavor in Flavor:
            entries = [
                (validate, t),
                (retract, t),
                (is_retract_free, t),
                (canonical_code, t),
                (make_element, t, flavor),
                (Element, t, None, flavor),
                (Element, t, b"(E)", flavor),
            ]
            for _ in range(2):
                for fn, *args in entries:
                    with pytest.raises(InvalidTreeError, match="no trunk"):
                        fn(*args)
                multiply(generator("a", flavor), generator("b", flavor))
        assert t.rooting is None


def built_cases(rng):
    """(builder, arguments) pairs for the builders of this module, the
    operands drawn from random_monogenic_element times a generator,
    cycling through products, term evaluations with ^+ and ^*, star_op
    and reverse_element, in every flavor that admits the operation."""
    flavors = list(Flavor)
    i = 0
    while True:
        flavor = flavors[i % 3]
        gens = {x: generator(label, flavor) for x, label in zip("xyz", "abc")}
        pick = lambda: multiply(random_monogenic_element(rng, flavor, 6), rng.choice(list(gens.values())))
        kind = i // 3 % 4
        if kind == 0:
            yield multiply, (pick(), pick())
        elif kind == 1:
            if flavor is Flavor.TWO_SIDED:
                words = ["x", "y", "(xz)^+", "(yx)^*", "(z(xy)^+)^*"]
                text = "".join(rng.choice(words) for _ in range(5))
            else:
                text = ("(%s)^+" if flavor is Flavor.LEFT else "(%s)^*") % rng.choice("xyz") + "xy"
            yield eval_term, (parse_term(text), gens, flavor)
        elif kind == 2 and flavor is not Flavor.LEFT:
            yield star_op, (pick(),)
        else:
            yield reverse_element, (pick(),)
        i += 1


class TestBuiltRootings:
    def test_the_rooting_walk_equals_validate(self, monkeypatch):
        # the trees the builders glue take only the rooting walk; its
        # rooting and the adjacency handed to the retraction are those a
        # full check of a fresh copy finds
        from adequa import algebra

        built = []
        real = algebra.retract

        def spy(t, adj=None):
            if adj is not None:
                built.append((t, t.rooting, adj))
            return real(t, adj)

        monkeypatch.setattr(algebra, "retract", spy)
        cases = built_cases(random.Random(41))
        seen = set()
        for _ in range(2000):
            fn, args = next(cases)
            built.clear()
            fn(*args)
            (t, rooting, adj), = built
            seen.add(fn.__name__)
            want = validate(XTree(t.vertices, t.edges, t.start, t.end))
            assert rooting is not None and t.rooting is rooting
            for f in dataclasses.fields(TrunkInfo):
                assert getattr(rooting, f.name) == getattr(want, f.name), (f.name, t)
            assert adj == undirected_adjacency(t)
        assert seen == {"multiply", "eval_term", "star_op", "reverse_element"}


class TestLazyCodes:
    def test_operations_code_nothing_and_reads_code_once(self, monkeypatch):
        from adequa import algebra, trees

        calls = []
        real = trees.canonical_code

        def counted(t):
            calls.append(t)
            return real(t)

        cases = built_cases(random.Random(43))
        rng = random.Random(47)
        ops = []
        for i in range(300):
            if i % 5 == 0:
                s = random_monogenic_element(rng, list(Flavor)[i % 3], 6)
                ops.append((star_op if s.flavor is Flavor.RIGHT else plus_op, (s,)))
            else:
                ops.append(next(cases))
        assert {fn for fn, _ in ops} == {multiply, plus_op, star_op, eval_term, reverse_element}
        for module in (algebra, trees):
            monkeypatch.setattr(module, "canonical_code", counted)
        results = [fn(*args) for fn, args in ops]
        assert calls == []
        for e in results:
            before = len(calls)
            code = e.code
            assert e.code is code and e == e and hash(e) == hash(e)
            assert e == Element(e.tree, code, e.flavor)
            assert len(calls) - before <= 1
        # == and hash code an element the first time, and only then
        for e in results[:50]:
            f, g = multiply(e, e), multiply(e, e)
            before = len(calls)
            assert f == g and hash(f) == hash(g) and f == g
            assert len(calls) - before == 2

    def test_equality_semantics_kept(self):
        a = generator("a", Flavor.LEFT)
        twin = Element(a.tree, None, Flavor.LEFT)
        assert twin == a and hash(twin) == hash(a) and twin.code == a.code
        with pytest.raises(FlavorError):
            twin == Element(a.tree, None, Flavor.TWO_SIDED)
        assert {twin, a} == {a}


def arith_term(rng, letters, ops, n):
    """A term with n letter occurrences, bracketed at random, with one of
    the unary operators `ops` on about a third of its nodes."""
    if n == 1:
        t = Letter(rng.choice(letters))
    else:
        k = rng.randint(1, n - 1)
        t = Product(arith_term(rng, letters, ops, k), arith_term(rng, letters, ops, n - k))
    return rng.choice(ops)(t) if rng.random() < 0.3 else t


def arith_calls(seed, count):
    """`count` seeded (operation, arguments) pairs: term evaluations of 2
    to 12 letters, and products and unary operations on the values of
    terms of 1 to 16 letters, cycling through the flavors, each over 1 to
    3 generators.  The operands are evaluated as the pairs are drawn."""
    rng = random.Random(seed)
    flavors = list(Flavor)
    for i in range(count):
        flavor = flavors[i % 3]
        letters = "xyz"[: rng.randint(1, 3)]
        gens = {x: generator(label, flavor) for x, label in zip(letters, "abc")}
        ops = UNARY[flavor]
        operand = lambda: eval_term(arith_term(rng, letters, ops, rng.randint(1, 16)), gens, flavor)
        kind = rng.randrange(3)
        if kind == 0:
            yield eval_term, (arith_term(rng, letters, ops, rng.randint(2, 12)), gens, flavor)
        elif kind == 1:
            yield multiply, (operand(), operand())
        else:
            yield (plus_op if rng.choice(ops) is Plus else star_op), (operand(),)


class TestOperationDigest:
    def test_operation_digest(self):
        # the trees of 3000 seeded products, unary operations and term
        # evaluations, pinned byte for byte
        h = hashlib.sha256()
        seen = set()
        for fn, args in arith_calls(43, 3000):
            e = fn(*args)
            seen.add((fn, e.flavor))
            h.update(to_json(e.tree).encode())
        assert len(seen) == 10
        assert h.hexdigest() == "96a6aef66bb4795256376a466783e273b2bd32920b586e851e694f11f59aff3d"
