"""Identity checking in the monogenic and higher-rank monoids."""

import itertools
import random
from collections import OrderedDict

import pytest

from adequa import identities as I
from adequa.algebra import Flavor, eval_term, generator
from adequa.identities import (
    IdentitySpec,
    check_enriched_flad1,
    check_enriched_frad1,
    check_fad1_plain,
    check_fladX,
    check_plain,
    falsify_by_substitution,
    fad1_witness_element,
    random_monogenic_element,
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


# ------------------------------------------------ falsifier caches


def reference_falsify(spec, flavor, budget):
    """The falsifier without caches: the whole pool product sorted by
    total edge count, then fresh draws from random.Random(7)."""
    letters = spec.alphabet
    if budget <= 0:
        return None
    pool = I.monogenic_pool(flavor)

    def separates(assignment):
        lhs = eval_term(spec.lhs, assignment, flavor)
        return lhs.code != eval_term(spec.rhs, assignment, flavor).code

    indexed = sorted(range(len(pool)), key=lambda i: pool[i].edge_count)
    spent = 0
    for combo in sorted(
        itertools.product(indexed, repeat=len(letters)),
        key=lambda c: sum(pool[i].edge_count for i in c),
    ):
        if spent >= budget:
            return None
        assignment = {x: pool[i] for x, i in zip(letters, combo)}
        spent += 1
        if separates(assignment):
            return assignment
    rng = random.Random(7)
    while spent < budget:
        assignment = {x: random_monogenic_element(rng, flavor) for x in letters}
        spent += 1
        if separates(assignment):
            return assignment
    return None


def codes(witness):
    return None if witness is None else {x: e.code for x, e in witness.items()}


# per flavor, terms in its signature on one letter and on two letters;
# each list holds pairs that are satisfied and pairs that are not
SWEEP_TERMS = {
    Flavor.LEFT: (
        ["x", "xx", "x^+", "x^+x", "(xx)^+x", "xx^+"],
        ["xy", "yx", "(xy)^+xy", "x^+y^+", "y^+x^+", "(xy)^+"],
    ),
    Flavor.RIGHT: (
        ["x", "xx", "x^*", "xx^*", "x(xx)^*", "x^*x"],
        ["xy", "yx", "xy(xy)^*", "x^*y^*", "y^*x^*", "(xy)^*"],
    ),
    Flavor.TWO_SIDED: (
        ["x", "xx", "x^+x", "xx^*", "x^+", "x^*"],
        ["xy", "yx", "(xy)^+xy", "xy(xy)^*", "x^+y^+", "y^+x^+"],
    ),
}


@pytest.fixture
def fresh_caches(monkeypatch):
    monkeypatch.setattr(I, "_POOL_CACHE", {})
    monkeypatch.setattr(I, "_EVAL_CACHE", OrderedDict())


def sweep_pairs(flavor):
    one, two = SWEEP_TERMS[flavor]
    return [(u, v) for terms in (one, two) for u in terms for v in terms if u < v]


class TestFalsifierCaches:
    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_random_draws_follow_one_generator(self, flavor, fresh_caches, monkeypatch):
        # past the keep limit the draws go on from the saved state
        monkeypatch.setattr(I, "_RANDOM_KEEP", 5)
        rng = random.Random(7)
        want = [random_monogenic_element(rng, flavor).code for _ in range(12)]
        for _ in range(2):
            got = [e.code for e in itertools.islice(I._random_draws(flavor), 12)]
            assert got == want
        _, kept = I._POOL_CACHE[("random", flavor)]
        assert len(kept) == 5

    @pytest.mark.parametrize("flavor", list(Flavor))
    @pytest.mark.parametrize("letters", [1, 2, 3])
    def test_pool_tuples_in_sorted_product_order(self, flavor, letters):
        pool = I.monogenic_pool(flavor)
        indexed = sorted(range(len(pool)), key=lambda i: pool[i].edge_count)
        want = sorted(
            itertools.product(indexed, repeat=letters),
            key=lambda c: sum(pool[i].edge_count for i in c),
        )
        weights = [pool[i].edge_count for i in indexed]
        got = [
            tuple(indexed[j] for j in combo)
            for combo in I._by_total_weight(weights, letters)
        ]
        assert got == want

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_verdicts_and_witnesses_match_uncached_search(self, flavor, fresh_caches):
        # budget 10 stops inside the pool product; budget 400 passes it
        # with one letter (and with two, but for the two-sided pool), so
        # the random phase runs; the second call answers from warm caches
        for u, v in sweep_pairs(flavor):
            s = spec(u, v)
            for budget in (10, 400):
                want = codes(reference_falsify(s, flavor, budget))
                for _ in range(2):
                    got = codes(falsify_by_substitution(s, flavor, budget=budget))
                    assert got == want, (u, v, budget)

    def test_eval_cache_bound(self, fresh_caches, monkeypatch):
        monkeypatch.setattr(I, "_EVAL_CACHE_LIMIT", 8)
        inner = I.eval_term

        def eval_within_bound(*args):
            assert len(I._EVAL_CACHE) <= 8
            return inner(*args)

        monkeypatch.setattr(I, "eval_term", eval_within_bound)
        for u, v in sweep_pairs(Flavor.LEFT):
            s = spec(u, v)
            want = codes(reference_falsify(s, Flavor.LEFT, 400))
            for _ in range(2):
                assert codes(falsify_by_substitution(s, Flavor.LEFT, budget=400)) == want
                assert len(I._EVAL_CACHE) <= 8
