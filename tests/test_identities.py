"""Identity checking in the monogenic and higher-rank monoids."""

import itertools
import random

import pytest

from adequa.algebra import Flavor, eval_term, generator, multiply
from adequa.identities import (
    IdentitySpec,
    check_enriched_flad1,
    check_enriched_frad1,
    check_fad1_plain,
    check_fladX,
    check_plain,
    dominance_holds,
    embed_rank2,
    falsify_by_substitution,
    fad1_witness_element,
    random_monogenic_element,
    scale_morphism,
    trunk_plus_length,
)
from adequa.terms import Plus, Product, parse_term, term_length


def spec(u: str, v: str) -> IdentitySpec:
    return IdentitySpec.parse(u, v)


class TestAxiomsSatisfied:
    @pytest.mark.parametrize(
        "u,v",
        [
            ("x^+x", "x"),
            ("(x^+)^+", "x^+"),
            ("x^+y^+", "y^+x^+"),
            ("(x^+y^+)^+", "x^+y^+"),
            ("(xy)^+", "(xy^+)^+"),
            ("(xy^+z)^+", "(xy)^+(xz)^+"),
        ],
    )
    def test_flad1_accepts_axioms(self, u, v):
        assert check_enriched_flad1(spec(u, v)).satisfied

    def test_benchmark_identities(self):
        # non-trivial identities holding in the monogenic left monoid
        assert check_enriched_flad1(spec("xyzxty", "yxzxty")).satisfied
        assert check_enriched_frad1(spec("xzytxy", "xzytyx")).satisfied
        # each fails on the opposite side
        assert not check_enriched_frad1(spec("xyzxty", "yxzxty")).satisfied
        assert not check_enriched_flad1(spec("xzytxy", "xzytyx")).satisfied


class TestRejections:
    @pytest.mark.parametrize("u,v", [("xy", "yx"), ("x", "xx"), ("x^+", "x")])
    def test_flad1_rejects(self, u, v):
        res = check_enriched_flad1(spec(u, v))
        assert not res.satisfied
        assert res.failing_condition is not None

    def test_failing_condition_tags(self):
        assert check_enriched_flad1(spec("x", "xx")).failing_condition == "i"
        assert check_enriched_flad1(spec("xy", "yx")).failing_condition.startswith(
            "ii"
        )


class TestPlainCheckers:
    def test_left_vs_right(self):
        # u, v share counts and suffixes but not prefixes
        u, v = "xyzxty", "yxzxty"
        assert check_plain(spec(u, v), "left").satisfied
        assert not check_plain(spec(u, v), "right").satisfied
        assert check_plain(spec(u[::-1], v[::-1]), "right").satisfied

    def test_right_equals_left_on_reversed(self):
        words = ["".join(p) for p in itertools.product("xy", repeat=3)]
        for u in words:
            for v in words:
                assert (
                    check_plain(spec(u, v), "right").satisfied
                    == check_plain(spec(u[::-1], v[::-1]), "left").satisfied
                )

    def test_plain_matches_enriched_on_plain_words(self):
        words = ["".join(p) for L in range(1, 4) for p in itertools.product("xy", repeat=L)]
        for u in words:
            for v in words:
                assert (
                    check_plain(spec(u, v), "left").satisfied
                    == check_enriched_flad1(spec(u, v)).satisfied
                )

    def test_plain_rejects_enriched_terms(self):
        with pytest.raises(ValueError):
            check_plain(spec("x^+", "x"), "left")


class TestFalsifierAgreement:
    def test_plain_pairs(self):
        words = ["".join(p) for L in range(1, 4) for p in itertools.product("xy", repeat=L)]
        rng = random.Random(41)
        for u, v in rng.sample([(u, v) for u in words for v in words], 60):
            verdict = check_enriched_flad1(spec(u, v)).satisfied
            witness = falsify_by_substitution(spec(u, v), Flavor.LEFT, budget=400)
            assert verdict == (witness is None), (u, v)
            if witness is not None:
                lhs = eval_term(parse_term(u), witness, Flavor.LEFT)
                rhs = eval_term(parse_term(v), witness, Flavor.LEFT)
                assert lhs != rhs

    def test_random_enriched(self):
        rng = random.Random(43)

        def rand_term(depth=0):
            r = rng.random()
            if r < 0.4 or depth > 2:
                return parse_term(rng.choice("xy"))
            if r < 0.6:
                return Plus(rand_term(depth + 1))
            return Product(rand_term(depth + 1), rand_term(depth + 1))

        done = 0
        while done < 80:
            u, v = rand_term(), rand_term()
            if term_length(u) > 5 or term_length(v) > 5:
                continue
            s = IdentitySpec(u, v)
            verdict = check_enriched_flad1(s).satisfied
            witness = falsify_by_substitution(s, Flavor.LEFT, budget=400)
            assert verdict == (witness is None)
            done += 1

    def test_budget_respected(self):
        assert falsify_by_substitution(spec("xy", "yx"), Flavor.LEFT, budget=0) is None


class TestHigherRank:
    def test_rank_X_strictly_finer(self):
        s = spec("(xy)^+y^+", "(xy)^+")
        assert check_enriched_flad1(s).satisfied
        res = check_fladX(s)
        assert not res.satisfied and res.witness is not None

    def test_rank_X_accepts_axioms(self):
        assert check_fladX(spec("x^+x", "x")).satisfied
        assert check_fladX(spec("(x^+y^+)^+", "x^+y^+")).satisfied
        # the monogenic rewrite is not a higher-rank identity
        assert not check_fladX(spec("(xy^+z)^+", "(xy)^+(xz)^+")).satisfied

    def test_embed_rank2(self):
        t = parse_term("xy^+x")
        image = embed_rank2(t, ["x", "y"])
        # letters map to distinct two-generator words; evaluation stays lawful
        assign = {c: generator(c, Flavor.LEFT) for c in "ab"}
        eval_term(image, assign, Flavor.LEFT)


class TestTwoSided:
    def test_trivial_identities_only(self):
        assert check_fad1_plain(spec("xyx", "xyx")).satisfied
        for u, v in [("xy", "yx"), ("xxy", "xyx"), ("x", "xx")]:
            res = check_fad1_plain(spec(u, v))
            assert not res.satisfied
            assert res.witness is not None

    def test_separation_failure_raises(self, monkeypatch):
        import adequa.identities as ids

        monkeypatch.setattr(
            ids, "fad1_witness_element", lambda n: generator("a", Flavor.TWO_SIDED)
        )
        with pytest.raises(RuntimeError, match="failed to separate"):
            check_fad1_plain(spec("xy", "yx"))

    def test_witness_separates(self):
        res = check_fad1_plain(spec("xy", "yx"))
        lhs = eval_term(parse_term("xy"), res.witness, Flavor.TWO_SIDED)
        rhs = eval_term(parse_term("yx"), res.witness, Flavor.TWO_SIDED)
        assert lhs != rhs

    def test_witness_family_distinct(self):
        codes = {fad1_witness_element(n).code for n in range(3, 9)}
        assert len(codes) == 6


class TestAuxiliary:
    def test_dominance_is_the_lp(self):
        assert dominance_holds((1, 1), [(2, 0), (0, 2)])
        assert not dominance_holds((1, 1), [(2, 0)])

    def test_scale_morphism_orders(self):
        psi = {"x": 2, "y": 3}
        zeta = scale_morphism(psi, 10, ["x", "y"])
        val = lambda m, w: sum(m[c] for c in w)
        words = ["".join(p) for L in range(1, 4) for p in itertools.product("xy", repeat=L)]
        for u in words:
            for v in words:
                if val(psi, u) > val(psi, v):
                    assert val(zeta, u) > val(zeta, v)
                if val(zeta, u) >= val(zeta, v):
                    assert val(psi, u) >= val(psi, v)
                same_counts = sorted(u) == sorted(v)
                assert (val(zeta, u) == val(zeta, v)) == same_counts

    def test_trunk_plus_length_formula(self):
        rng = random.Random(47)
        for _ in range(60):
            w = "".join(rng.choice("xy") for _ in range(rng.randint(1, 5)))
            assignment = {
                c: random_monogenic_element(rng, Flavor.LEFT, 5) for c in set(w)
            }
            claimed = trunk_plus_length(w, assignment)
            acc = None
            for c in w:
                acc = assignment[c] if acc is None else multiply(acc, assignment[c])
            from adequa.algebra import plus_op

            assert claimed == plus_op(acc).edge_count

    def test_trunk_plus_length_example(self):
        a = generator("a", Flavor.LEFT)
        from adequa.algebra import plus_op

        a3_plus = plus_op(multiply(multiply(a, a), a))
        assert trunk_plus_length("xy", {"x": a, "y": a3_plus}) == 4
