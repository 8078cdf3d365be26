"""Identity checking in the monogenic and higher-rank monoids."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adequa import identities as I
from adequa.algebra import Flavor, FlavorError, eval_term, generator
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
from adequa.exactlp import convex_dominates
from adequa.reproduce import _random_term
from adequa.terms import (
    Identity,
    Letter,
    NestedTermError,
    Plus,
    PlusBlock,
    Product,
    Star,
    _fold,
    letters_of,
    parse_term,
    pqr_sets,
    prefix_through_last,
    suff,
    term_length,
    term_to_str,
    to_nonnested,
)
from adequa.trees import to_json

from .test_terms import (
    letter_counts,
    plain_projection,
    random_plus_term,
    reverse_term,
    right_nested,
    terms_strategy,
)


def spec(u: str, v: str) -> IdentitySpec:
    return IdentitySpec.parse(u, v)


class TestIdentitySpec:
    def test_alphabet_is_computed_once(self, monkeypatch):
        calls = [0]
        inner = I.letters_of

        def counting(t):
            calls[0] += 1
            return inner(t)

        monkeypatch.setattr(I, "letters_of", counting)
        s = spec("(xy^+)^+z", "zx")
        assert calls[0] == 2
        for _ in range(3):
            assert s.alphabet == ("x", "y", "z")
        assert calls[0] == 2
        # the alphabet follows from the terms: it is not an argument and
        # takes no part in equality, hashing or printing
        same = IdentitySpec(s.lhs, s.rhs)
        assert same == s and hash(same) == hash(s) and "alphabet" not in repr(s)

    def test_sides_are_printed_once_when_falsified(self, monkeypatch):
        printed = []
        inner = I.term_to_str

        def counting(t):
            printed.append(t)
            return inner(t)

        monkeypatch.setattr(I, "term_to_str", counting)
        s = spec("x^+y", "yx^+")
        assert printed == []  # a spec that is only decided prints nothing
        assert check_enriched_flad1(s).satisfied is False
        assert printed == []
        for _ in range(3):
            assert falsify_by_substitution(s, Flavor.LEFT, budget=50) is not None
        assert printed == [s.lhs, s.rhs]
        # the stored sides take no part in equality, hashing or printing
        same = IdentitySpec(s.lhs, s.rhs)
        assert same == s and hash(same) == hash(s) and repr(same) == repr(s)


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


# ------------------------------------------------ the checker's oracle


def _counts(word, alphabet):
    return tuple(word.count(y) for y in alphabet)


def _reference_condition_iii(u, v, alphabet, dominated):
    """Condition (iii) for u against v as the paper states it: per block
    w+ of u and letter x of w, convex dominance over the R-set built by
    `pqr_sets`, or a block of v with the same counts through its last x
    and the same plain counts in its anchored suffix."""
    v_blocks = {a for a in v.atoms if isinstance(a, PlusBlock)}
    for w_block in dict.fromkeys(a for a in u.atoms if isinstance(a, PlusBlock)):
        s_u_counts = _counts(plain_projection(suff(u, w_block)), alphabet)
        for x in sorted(set(w_block.word)):
            target = _counts(prefix_through_last(w_block.word, x), alphabet)
            _, _, r_set = pqr_sets(u, w_block, x)
            candidates = []
            for el in r_set:
                pk = plain_projection(el) + el.atoms[-1].word
                candidates.append(_counts(prefix_through_last(pk, x), alphabet))
            question = (target, frozenset(candidates))
            if question not in dominated:
                dominated[question] = convex_dominates(target, candidates)
            if dominated[question]:
                continue
            if not any(
                prefix_through_last(h.word, x) is not None
                and _counts(prefix_through_last(h.word, x), alphabet) == target
                and _counts(plain_projection(suff(v, h)), alphabet) == s_u_counts
                for h in v_blocks
            ):
                return "block %s letter %s" % (w_block.word or "1", x)
    return None


def reference_check_enriched_flad1(s):
    """(satisfied, failing_condition) of the four conditions, computed
    over `suff` and `pqr_sets`."""
    u, v = to_nonnested(s.lhs), to_nonnested(s.rhs)
    alphabet = s.alphabet
    cu, cv = letter_counts(u), letter_counts(v)
    if any(cu.get(y, 0) != cv.get(y, 0) for y in alphabet):
        return False, "i"
    for side_u, side_v, tag in ((u, v, "ii"), (v, u, "ii-dual")):
        for x in sorted(cu):
            sx = suff(side_u, x)
            if any(isinstance(a, PlusBlock) and x in a.word for a in sx.atoms):
                continue
            if _counts(plain_projection(sx), alphabet) != _counts(
                plain_projection(suff(side_v, x)), alphabet
            ):
                return False, tag + "a/b"
    dominated = {}
    for first, second, tag in ((u, v, "iiia/b: "), (v, u, "iv-dual: ")):
        fail = _reference_condition_iii(first, second, alphabet, dominated)
        if fail is not None:
            return False, tag + fail
    return True, None


def shaped_term(rng, letters, n_letters, star=False):
    """A random non-nested term: letters and plus (star) blocks of up to
    three letters (1^+ or 1^* for none), as the benchmark's identity
    questions are."""
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


def shaped_pairs(seed, count, letters, max_letters, star=False):
    """Seeded pairs u ~ v: v is another random term, a permutation of a
    plain u, or u rewritten by x^+x = x (u itself or (u)^+(u)); with
    star, the blocks are star blocks and the law is xx^* = x ((u)(u)^*)."""
    rng = random.Random(seed)
    law = "(%s)(%s)^*" if star else "(%s)^+(%s)"
    for _ in range(count):
        u = shaped_term(rng, letters, rng.randint(1, max_letters), star)
        if rng.random() < 0.5:
            v = shaped_term(rng, letters, rng.randint(1, max_letters), star)
        elif "(" not in u:
            v = "".join(rng.sample(u, len(u)))
        else:
            v = u if rng.random() < 0.5 else law % (u, u)
        yield u, v


def nested_plus_terms():
    letters = st.sampled_from("xyz").map(Letter)
    return st.recursive(
        st.one_of(letters, st.just(parse_term("1"))),
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: Product(*p)),
            kids.map(Plus),
        ),
        max_leaves=10,
    )


def verdict(result):
    return result.satisfied, result.failing_condition


class TestAgainstReference:
    """The checker reads the R-sets' count vectors in one scan per block;
    `reference_check_enriched_flad1` builds the sets.  Any difference in
    verdict or tag is a fault of one of them."""

    def agree(self, pairs):
        tags = set()
        for u, v in pairs:
            s = spec(u, v)
            want = reference_check_enriched_flad1(s)
            assert verdict(check_enriched_flad1(s)) == want, (u, v)
            # the same pair in the right signature, through the reversal
            right = IdentitySpec(reverse_term(s.lhs), reverse_term(s.rhs))
            assert verdict(check_enriched_frad1(right)) == want, (u, v)
            tags.add(want[1] and want[1].split(":")[0])
        return tags

    def test_workload_shaped_pairs(self):
        tags = self.agree(shaped_pairs(1, 20_000, "xyz", 6))
        # every condition decides some pair
        assert tags == {None, "i", "iia/b", "ii-duala/b", "iiia/b", "iv-dual"}

    def test_longer_pairs_over_four_letters(self):
        self.agree(shaped_pairs(2, 5000, "wxyz", 14))

    @given(nested_plus_terms(), nested_plus_terms())
    @settings(max_examples=300, deadline=None)
    def test_drawn_terms(self, lhs, rhs):
        s = IdentitySpec(lhs, rhs)
        want = reference_check_enriched_flad1(s)
        assert verdict(check_enriched_flad1(s)) == want
        right = IdentitySpec(reverse_term(lhs), reverse_term(rhs))
        assert verdict(check_enriched_frad1(right)) == want


def outcome(fn, arg):
    """fn(arg), or the type and message of the ValueError it raises."""
    try:
        return fn(arg)
    except ValueError as e:
        return type(e).__name__, str(e)


def enriched_answer(check, s):
    """check(s)'s verdict and tag, or the `outcome` of its error."""
    result = outcome(check, s)
    return result if type(result) is tuple else (result.satisfied, result.failing_condition)


class TestEnrichedDigest:
    # sha256 of both enriched checkers' answers, verdict and tag or error,
    # on every pair of a fixed seeded corpus of plus and star pairs; taken
    # while the right checker still reversed its terms into new ones
    DIGEST = "d5000efa1a641c7ed039bc71a78ccd2374e2cbc88fead3f1ee6e050b83e31934"

    def test_answers_digest(self):
        digest = hashlib.sha256()
        corpus = itertools.chain(
            shaped_pairs(31, 3000, "xyz", 6),
            shaped_pairs(32, 3000, "xyz", 6, star=True),
            shaped_pairs(33, 1000, "wxyz", 14),
            shaped_pairs(34, 1000, "wxyz", 14, star=True),
        )
        for u, v in corpus:
            s = spec(u, v)
            for name, check in (("flad1", check_enriched_flad1), ("frad1", check_enriched_frad1)):
                digest.update(repr((name, u, v, enriched_answer(check, s))).encode())
        assert digest.hexdigest() == self.DIGEST


class TestMirroredChecker:
    """`check_enriched_frad1` reads each side mirrored in place; its oracle
    is the left checker on both sides reversed into new terms."""

    def test_workload_shaped_pairs(self):
        tags = set()
        corpus = itertools.chain(
            shaped_pairs(41, 5000, "xyz", 6, star=True),
            shaped_pairs(42, 2000, "wxyz", 14, star=True),
        )
        for u, v in corpus:
            s = spec(u, v)
            got = check_enriched_frad1(s)
            assert got == check_enriched_flad1(IdentitySpec(reverse_term(s.lhs), reverse_term(s.rhs))), (u, v)
            tags.add(got.failing_condition and got.failing_condition.split(":")[0])
        assert tags == {None, "i", "iia/b", "ii-duala/b", "iiia/b", "iv-dual"}

    def test_plus_pairs_are_rejected_alike(self):
        # a side with a ^+ reverses to a ^* that the left checker rejects
        for u, v in shaped_pairs(43, 2000, "xyz", 6):
            s = spec(u, v)
            want = enriched_answer(
                check_enriched_flad1, IdentitySpec(reverse_term(s.lhs), reverse_term(s.rhs))
            )
            got = enriched_answer(check_enriched_frad1, s)
            if want[0] == "NestedTermError":
                assert got == (want[0], "^+ is not in the right-adequate signature"), (u, v)
            else:
                assert got == want, (u, v)


def reference_require_plain(t) -> str:
    """The plain-word reader as it dispatched with isinstance, two pushes
    per product: the reference of `identities._require_plain`."""
    letters: list[str] = []
    todo = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, Product):
            todo += (node.right, node.left)
        elif isinstance(node, Letter):
            letters.append(node.name)
        elif not isinstance(node, Identity):
            raise ValueError("plain word expected, found a unary operator")
    return "".join(letters)


class TestPlainReader:
    @given(terms_strategy())
    @settings(max_examples=300)
    def test_drawn_terms(self, t):
        assert outcome(I._require_plain, t) == outcome(reference_require_plain, t)

    def test_seeded_terms_of_any_association(self):
        # products grouped at random, with 1 leaves: rejected with their
        # ^+ nodes, read once those are dropped
        keep = lambda x: x
        rng = random.Random(10)
        for _ in range(5000):
            t = random_plus_term(rng, rng.randint(0, 12))
            for term in (t, _fold(t, keep, Product, keep, keep)):
                assert outcome(I._require_plain, term) == outcome(reference_require_plain, term)

    @pytest.mark.parametrize("t, word", [
        (Product(Letter("a"), Product(Letter("b"), Letter("c"))), "abc"),
        (Product(Product(Letter("a"), Identity()), Product(Identity(), Letter("b"))), "ab"),
        (Product(Identity(), Product(Letter("a"), Identity())), "a"),
        (Identity(), ""),
    ])
    def test_hand_built_words(self, t, word):
        assert I._require_plain(t) == reference_require_plain(t) == word

    def test_long_words_without_recursion(self):
        word = "".join(random.Random(11).choice("xyz") for _ in range(200_000))
        assert I._require_plain(parse_term(word)) == word
        assert I._require_plain(right_nested(word)) == word
        assert check_plain(IdentitySpec(parse_term(word), right_nested(word)), "right").satisfied


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
        # a search that tries nothing must not answer "not falsified"
        with pytest.raises(ValueError, match="budget must be at least 1"):
            falsify_by_substitution(spec("xy", "yx"), Flavor.LEFT, budget=0)


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


def malformed_term(rng, bad):
    """A random term over x, y of products, ^+ nodes and 1 leaves, like
    `random_plus_term`; with bad, one of its leaves is replaced by bad,
    which later ^+ nodes may or may not cover."""
    parts = [Letter(rng.choice("xy")) for _ in range(rng.randint(1, 5))]
    parts += [Identity() for _ in range(rng.randint(0, 1))]
    if bad is not None:
        parts[rng.randrange(len(parts))] = bad
    rng.shuffle(parts)
    while len(parts) > 1 or rng.random() < 0.3:
        if len(parts) > 1 and rng.random() < 0.6:
            i = rng.randrange(len(parts) - 1)
            parts[i : i + 2] = [Product(parts[i], parts[i + 1])]
        else:
            i = rng.randrange(len(parts))
            parts[i] = Plus(parts[i])
    return parts[0]


def malformed_pairs(seed, count):
    """Seeded specs whose sides may hold a ^* (of a letter or of a term)
    or a node that is no term, on either side, both, or neither."""
    rng = random.Random(seed)
    for _ in range(count):
        sides = []
        for _ in range(2):
            r = rng.random()
            if r < 0.3:
                bad = None
            elif r < 0.55:
                bad = Star(Letter(rng.choice("xy")))
            elif r < 0.8:
                bad = Star(malformed_term(rng, None))
            else:
                bad = rng.choice(["q", 2.5, ("x",)])
            sides.append(malformed_term(rng, bad))
        yield IdentitySpec(*sides)


def decision(check, s):
    """check(s)'s verdict, tag and witness (letters and codes), or the
    type and message of the ValueError or TypeError it raises."""
    try:
        r = check(s)
    except (ValueError, TypeError) as e:
        return type(e).__name__, str(e)
    witness = r.witness and sorted((x, e.code) for x, e in r.witness.items())
    return r.satisfied, r.failing_condition, witness


class TestMalformedDigest:
    # sha256 of every checker's answer, or its error's type and message,
    # on seeded specs with ^* nodes and non-term nodes in any place;
    # taken before the checkers decided anything ahead of evaluation
    DIGEST = "74818ee66401d52811082d4c1d3b20740323f2a22fab3cccb831a6b7ad6c6d66"
    CHECKERS = (
        ("fladX", check_fladX),
        ("flad1", check_enriched_flad1),
        ("frad1", check_enriched_frad1),
        ("left", lambda s: check_plain(s, "left")),
        ("right", lambda s: check_plain(s, "right")),
    )

    def test_answers_digest(self):
        digest = hashlib.sha256()
        kinds = set()
        for s in malformed_pairs(51, 4000):
            for name, check in self.CHECKERS:
                answer = decision(check, s)
                kinds.add((name, answer[0]))
                digest.update(repr((name, s, answer)).encode())
        # every checker answers some specs and rejects others with an error
        assert {"TypeError", "FlavorError", True, False} <= {k for n, k in kinds if n == "fladX"}
        assert digest.hexdigest() == self.DIGEST


class TestNormalFormAccept:
    """Both enriched checkers accept at once when the two sides rewrite to
    one non-nested word, and `check_plain` when both words are equal; the
    reference oracle still decides every pair through all four conditions."""

    def pairs(self):
        for seed, letters, size in ((61, "xyz", 6), (62, "wxyz", 14)):
            for u, _ in shaped_pairs(seed, 1500, letters, size):
                yield u, u
                yield u, str(to_nonnested(parse_term(u)))
        rng = random.Random(63)
        for _ in range(1500):
            t = random_plus_term(rng, rng.randint(1, 8), "xyz")
            yield term_to_str(t), str(to_nonnested(t))
        yield "(xy^+z)^+", "(xy)^+(xz)^+"
        yield "((x^+)^+y)^+", "x^+y^+"

    def test_same_answers_as_the_reference(self, monkeypatch):
        def never(*args):
            raise AssertionError("equal normal forms went on to condition (iii)")

        monkeypatch.setattr(I, "_condition_iii", never)
        monkeypatch.setattr(I, "convex_dominates", never)
        differ = 0
        for u, v in self.pairs():
            s = spec(u, v)
            differ += s.lhs != s.rhs
            assert to_nonnested(s.lhs) == to_nonnested(s.rhs), (u, v)
            assert reference_check_enriched_flad1(s) == (True, None), (u, v)
            assert verdict(check_enriched_flad1(s)) == (True, None), (u, v)
            right = IdentitySpec(reverse_term(s.lhs), reverse_term(s.rhs))
            assert verdict(check_enriched_frad1(right)) == (True, None), (u, v)
        # distinct terms, not only a term against itself
        assert differ > 1000

    @pytest.mark.parametrize("u", ["x^*", "(xy^*)^+", "x(y)^+((z)^*)^+", "1^*"])
    def test_identical_sides_are_still_read(self, u):
        with pytest.raises(NestedTermError, match="left-adequate"):
            check_enriched_flad1(spec(u, u))
        mirrored = u.replace("*", "#").replace("+", "*").replace("#", "+")
        with pytest.raises(NestedTermError, match="right-adequate"):
            check_enriched_frad1(spec(mirrored, mirrored))
        with pytest.raises(ValueError, match="plain word expected"):
            check_plain(spec(u, u), "left")

    def test_non_terms_are_still_rejected(self):
        s = IdentitySpec(Product(Letter("x"), "q"), Product(Letter("x"), "q"))
        for check in (check_enriched_flad1, check_enriched_frad1):
            with pytest.raises(TypeError, match="not a term: 'q'"):
                check(s)

    def test_plain_words(self):
        rng = random.Random(64)
        for n in range(6):
            w = "".join(rng.choice("xyz") for _ in range(n)) or "1"
            s = spec(w, w)
            assert check_plain(s, "left") == check_plain(s, "right") == I.CheckResult(True)
            with pytest.raises(ValueError, match="side must be"):
                check_plain(s, "both")


def trunk_labels(t):
    """The labels of the trunk of t's value on distinct left generators,
    from start to end, read off the evaluated tree."""
    tree = eval_term(t, {x: generator(x, Flavor.LEFT) for x in letters_of(t)}, Flavor.LEFT).tree
    into = {b: (a, label) for a, b, label in tree.edges}
    labels, v = [], tree.end
    while v != tree.start:
        v, label = into[v]
        labels.append(label)
    return "".join(reversed(labels))


def rank_pairs(seed, count):
    """Seeded rank-2 and rank-3 pairs: non-nested terms against another
    term or a law rewrite, as the benchmark draws them, and nested ^+ terms
    drawn like `reproduce._random_term` and like `random_plus_term`."""
    rng = random.Random(seed)
    for i in range(count):
        letters = "xy" if i % 2 else "xyz"
        kind = i % 3
        if kind == 0:
            n = rng.randint(1, 5)
            u = shaped_term(rng, letters, n)
            if rng.random() < 0.5:
                v = shaped_term(rng, letters, n)
            else:
                v = u if rng.random() < 0.5 else "(%s)^+(%s)" % (u, u)
            yield spec(u, v)
        elif kind == 1:
            u, v = _random_term(rng), _random_term(rng)
            if rng.random() < 0.3:
                v = Product(Plus(u), u)
            yield IdentitySpec(u, v)
        else:
            u = random_plus_term(rng, rng.randint(1, 6), letters)
            v = random_plus_term(rng, rng.randint(1, 6), letters) if rng.random() < 0.7 else u
            yield IdentitySpec(u, v)


class TestTrunkReject:
    """`check_fladX` tells two sides apart by their trunk words before it
    evaluates them; its oracle compares the evaluated values' codes."""

    def test_same_answers_as_comparing_values(self):
        kinds = set()
        for s in rank_pairs(71, 6000):
            gens = {x: generator(x, Flavor.LEFT) for x in s.alphabet}
            equal = eval_term(s.lhs, gens, Flavor.LEFT).code == eval_term(s.rhs, gens, Flavor.LEFT).code
            got = check_fladX(s)
            assert verdict(got) == ((True, None) if equal else (False, "tree-inequality")), s
            witness = got.witness and {x: e.code for x, e in got.witness.items()}
            assert witness == (None if equal else {x: e.code for x, e in gens.items()}), s
            kinds.add((equal, trunk_labels(s.lhs) == trunk_labels(s.rhs), len(s.alphabet)))
        # both verdicts on equal trunks, unequal trunks, ranks 2 and 3
        assert {(True, True), (False, True), (False, False)} == {k[:2] for k in kinds}
        assert {2, 3} <= {k[2] for k in kinds}

    def test_trunk_words_are_the_trunks_of_the_values(self):
        for s in rank_pairs(72, 3000):
            for t in (s.lhs, s.rhs):
                assert "".join(I._trunk(t)[0]) == trunk_labels(t), t

    def test_unequal_trunks_evaluate_nothing(self, monkeypatch):
        def never(*args):
            raise AssertionError("eval_code called on unequal trunk words")

        monkeypatch.setattr(I, "eval_code", never)
        rejected = 0
        for s in rank_pairs(73, 3000):
            if trunk_labels(s.lhs) != trunk_labels(s.rhs):
                assert verdict(check_fladX(s)) == (False, "tree-inequality")
                rejected += 1
        assert rejected > 1000

    def test_long_and_deep_sides_without_evaluation(self, monkeypatch):
        def never(*args):
            raise AssertionError("eval_code called on unequal trunk words")

        monkeypatch.setattr(I, "eval_code", never)
        rng = random.Random(74)
        word = "".join(rng.choice("xy") for _ in range(200_000))
        deep = Letter("x")
        for _ in range(50_000):
            deep = Plus(deep)
        for s in (spec(word, word + "x"), IdentitySpec(deep, Letter("y"))):
            assert verdict(check_fladX(s)) == (False, "tree-inequality")

    @pytest.mark.parametrize(
        "u,v", [("(x(y)^*)^+x", "y"), ("x", "(x(y)^*)^+y"), ("((y^*)^+)^+x", "y"), ("xy^*", "y"), ("x", "y^*y")]
    )
    def test_a_star_still_raises(self, u, v):
        # the trunk words x and y differ; the ^*, under a ^+ or not, decides
        with pytest.raises(FlavorError, match="star operator"):
            check_fladX(spec(u, v))


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


def reference_positions(flavor, letters, n):
    """The codes of the falsifier's first n assignments, in letter order:
    the pool tuples by total edge count, then draws from random.Random(7)."""
    pool = I.monogenic_pool(flavor)
    combos = I._by_total_weight([e.edge_count for e in pool], letters)
    want = [tuple(pool[j].code for j in combo) for combo in itertools.islice(combos, n)]
    rng = random.Random(7)
    while len(want) < n:
        want.append(tuple(random_monogenic_element(rng, flavor).code for _ in range(letters)))
    return want


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


# sha256 of the sweep's witnesses, the same whatever number of random
# draws is kept
WITNESS_DIGEST = "aa3d06ba03fd1fc71302a30d8b41ad432ad4435e703b25479d3412103360e682"


@pytest.fixture
def fresh_caches(monkeypatch):
    monkeypatch.setattr(I, "_POOL_CACHE", {})
    monkeypatch.setattr(I, "_EVAL_CACHE", I._SideCodes())


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
    def test_pool_is_small_first(self, flavor):
        # the falsifier reads the pool's edge counts as its tuple weights
        # without sorting them
        weights = [e.edge_count for e in I.monogenic_pool(flavor)]
        assert weights == sorted(weights) and len(set(weights)) > 1

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

    @pytest.mark.parametrize("keep", [I._RANDOM_KEEP, 5])
    def test_witness_digest(self, keep, fresh_caches, monkeypatch):
        # pins the witnesses of every sweep pair at budgets 10 and 400;
        # with 5 draws kept, later assignments are tried past the listing
        monkeypatch.setattr(I, "_RANDOM_KEEP", keep)
        digest = hashlib.sha256()
        for flavor in Flavor:
            for u, v in sweep_pairs(flavor):
                for budget in (10, 400):
                    w = falsify_by_substitution(spec(u, v), flavor, budget=budget)
                    trees = w and sorted((x, to_json(e.tree)) for x, e in w.items())
                    digest.update(repr((flavor.value, u, v, budget, trees)).encode())
        assert digest.hexdigest() == WITNESS_DIGEST

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_eval_cache_keys(self, flavor, fresh_caches):
        # each key is a side, (printed term, flavor value, alphabet), and
        # each value that side's codes at distinct assignments 0, 1, ...
        sides = {}
        for u, v in sweep_pairs(flavor):
            s = spec(u, v)
            falsify_by_substitution(s, flavor, budget=50)
            for t in (s.lhs, s.rhs):
                sides[term_to_str(t), flavor.value, s.alphabet] = t
        assert set(I._EVAL_CACHE) == set(sides)
        for side, side_codes in I._EVAL_CACHE.items():
            assert side_codes and all(type(c) is bytes for c in side_codes)
            letters = side[2]
            seq = I._assignments(flavor, len(letters))
            for d, code in enumerate(side_codes):
                assignment = dict(zip(letters, seq.distinct[d]))
                assert code == eval_term(sides[side], assignment, flavor).code
        assert I._EVAL_CACHE.held == sum(map(len, I._EVAL_CACHE.values()))

    def test_eval_cache_bound(self, fresh_caches, monkeypatch):
        # the bound is on codes held over all sides, not on sides
        monkeypatch.setattr(I, "_EVAL_CACHE_LIMIT", 8)
        inner = I.eval_code

        def held():
            assert I._EVAL_CACHE.held == sum(map(len, I._EVAL_CACHE.values()))
            return I._EVAL_CACHE.held

        ran = [0]

        def eval_within_bound(*args):
            assert held() <= 8
            ran[0] += 1
            return inner(*args)

        monkeypatch.setattr(I, "eval_code", eval_within_bound)
        for u, v in sweep_pairs(Flavor.LEFT):
            s = spec(u, v)
            want = codes(reference_falsify(s, Flavor.LEFT, 400))
            for _ in range(2):
                assert codes(falsify_by_substitution(s, Flavor.LEFT, budget=400)) == want
                assert held() <= 8
                # older sides make room for the latest pair
                sides = [(term_to_str(t), Flavor.LEFT.value, s.alphabet) for t in (s.lhs, s.rhs)]
                assert any(I._EVAL_CACHE.get(side) for side in sides)
        assert ran[0] > 0  # the falsifier evaluates through the patched name

    @pytest.mark.parametrize("edges", [4, 0])
    def test_listing_stops_at_the_kept_draws(self, edges, fresh_caches, monkeypatch):
        # past the pool tuples and the kept draws, positions are evaluated
        # without being listed or stored; with a pool of the identity
        # alone, most witnesses lie there
        monkeypatch.setattr(I, "_RANDOM_KEEP", 5)
        monkeypatch.setattr(I, "_POOL_EDGES", edges)
        past = 0
        for u, v in sweep_pairs(Flavor.LEFT):
            s = spec(u, v)
            want = reference_falsify(s, Flavor.LEFT, 200)
            for _ in range(2):
                got = falsify_by_substitution(s, Flavor.LEFT, budget=200)
                assert codes(got) == codes(want), (u, v)
            past += want is not None and want["x"] not in I.monogenic_pool(Flavor.LEFT)
        pooled = len(I.monogenic_pool(Flavor.LEFT))
        assert pooled == 18 or past > 5
        seqs = {n: I._assignments(Flavor.LEFT, n) for n in (1, 2)}
        assert seqs[1].listed <= pooled + 5 and seqs[2].listed <= pooled**2 + 2
        distinct = {n: len(seq.distinct) for n, seq in seqs.items()}
        assert distinct[1] <= pooled + 5 and distinct[2] <= pooled**2 + 2
        for (_, _, letters), side_codes in I._EVAL_CACHE.items():
            assert len(side_codes) <= distinct[len(letters)]

    @pytest.mark.parametrize("edges", [4, 0])
    def test_budget_bounds_the_positions_tried(self, edges, fresh_caches, monkeypatch):
        # a witness at position p is found with budget p + 1 and not with
        # budget p, cold or warm; with a pool of the identity alone, most
        # witnesses lie past the listing
        monkeypatch.setattr(I, "_RANDOM_KEEP", 5)
        monkeypatch.setattr(I, "_POOL_EDGES", edges)
        positions = {n: reference_positions(Flavor.LEFT, n, 200) for n in (1, 2)}
        for u, v in sweep_pairs(Flavor.LEFT):
            s = spec(u, v)
            want = reference_falsify(s, Flavor.LEFT, 200)
            if want is None:
                continue
            p = positions[len(s.alphabet)].index(tuple(want[x].code for x in s.alphabet))
            I._EVAL_CACHE.clear()
            for budget in filter(None, (p, p + 1, p, p + 1)):
                got = falsify_by_substitution(s, Flavor.LEFT, budget=budget)
                assert codes(got) == (codes(want) if budget > p else None), (u, v, budget)

    @pytest.mark.parametrize("flavor", list(Flavor))
    @pytest.mark.parametrize("letters", [1, 2, 3])
    def test_first_positions(self, flavor, letters, fresh_caches):
        # the listed sequence is the pool tuples in _by_total_weight order
        # (checked against the sorted product above), then the draws a
        # letter count at a time; distinct and at hold its first
        # occurrences of each codes tuple and their positions
        want = reference_positions(flavor, letters, 500)
        firsts = [i for i, c in enumerate(want) if want.index(c) == i]
        seq = I._assignments(flavor, letters)
        assert seq.before(500) == len(firsts) and seq.listed == 500
        assert seq.at == firsts
        assert [tuple(e.code for e in els) for els in seq.distinct] == [want[i] for i in firsts]
        for budget in (1, 17, 250):
            assert seq.before(budget) == sum(i < budget for i in firsts)

    @pytest.mark.parametrize("budget", [10, 400])
    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_warm_call_evaluates_nothing(self, flavor, budget, fresh_caches, monkeypatch):
        calls = count_evals(monkeypatch)
        for u, v in sweep_pairs(flavor):
            s = spec(u, v)
            want = codes(falsify_by_substitution(s, flavor, budget=budget))
            before = calls[0]
            assert codes(falsify_by_substitution(s, flavor, budget=budget)) == want
            assert calls[0] == before, (u, v)
        assert calls[0] > 0

    def test_known_sides_evaluate_nothing(self, fresh_caches, monkeypatch):
        # the sides of a new pair are known from two satisfied pairs
        calls = count_evals(monkeypatch)
        for u, v in [("x^+x", "x"), ("(x^+)^+", "x^+"), ("x^+y^+", "y^+x^+")]:
            assert falsify_by_substitution(spec(u, v), Flavor.LEFT, budget=400) is None
        before = calls[0]
        assert before > 0
        for u, v in [("x^+x", "x^+"), ("x", "(x^+)^+"), ("x^+y^+", "y^+x^+")]:
            s = spec(u, v)
            want = codes(reference_falsify(s, Flavor.LEFT, 400))
            assert codes(falsify_by_substitution(s, Flavor.LEFT, budget=400)) == want
        assert calls[0] == before

    def test_cleared_cache_stores_again(self, fresh_caches, monkeypatch):
        # a cache that was full before clear() stores again after it
        s = spec("x^+x", "x")
        distinct = len(set(reference_positions(Flavor.LEFT, 1, 400)))
        monkeypatch.setattr(I, "_EVAL_CACHE_LIMIT", 2 * distinct)
        assert falsify_by_substitution(s, Flavor.LEFT, budget=400) is None
        assert I._EVAL_CACHE.held == 2 * distinct
        I._EVAL_CACHE.clear()
        assert I._EVAL_CACHE.held == 0
        calls = count_evals(monkeypatch)
        assert falsify_by_substitution(s, Flavor.LEFT, budget=400) is None
        # each side is evaluated once per distinct assignment
        assert calls[0] == 2 * distinct < 400 and I._EVAL_CACHE.held == 2 * distinct
        before = calls[0]
        assert falsify_by_substitution(s, Flavor.LEFT, budget=400) is None
        assert calls[0] == before

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_constant_sides(self, flavor, fresh_caches):
        # with no letters every assignment is the empty one
        s = spec("1", "11")
        assert falsify_by_substitution(s, flavor, budget=50) is None
        assert reference_falsify(s, flavor, 50) is None

    @pytest.mark.parametrize("u", ["1", "x", "(xy)^+x"])
    def test_identical_sides_evaluate_nothing(self, u, fresh_caches, monkeypatch):
        calls = count_evals(monkeypatch)
        assert falsify_by_substitution(spec(u, u), Flavor.LEFT, budget=400) is None
        assert calls[0] == 0 and reference_falsify(spec(u, u), Flavor.LEFT, 400) is None


def count_evals(monkeypatch):
    """Patch the falsifier's eval_code to count its calls in calls[0]."""
    calls = [0]
    inner = I.eval_code

    def counting(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(I, "eval_code", counting)
    return calls
