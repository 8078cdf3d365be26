"""Monoid operations: multiplication, unary ops, flavor gating, axioms."""

import random

import pytest

from adequa.algebra import (
    Element,
    Flavor,
    FlavorError,
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
from adequa.identities import random_monogenic_element
from adequa.terms import parse_term
from adequa.trees import XTree, canonical_code, theta


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
