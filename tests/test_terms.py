"""Term grammar, normal forms, and word combinatorics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adequa.algebra import Flavor, eval_term, generator
from adequa.terms import (
    AtomNotInSupport,
    EMPTY_WORD,
    Identity,
    Letter,
    NonNestedWord,
    Plus,
    PlusBlock,
    Product,
    Star,
    TermSyntaxError,
    dualize_term,
    letter_counts,
    letters_of,
    parse_term,
    plain_projection,
    pqr_sets,
    suff,
    swap_unary,
    term_length,
    term_to_str,
    to_nonnested,
)


def terms_strategy():
    letters = st.sampled_from("abxyz").map(Letter)
    return st.recursive(
        st.one_of(letters, st.just(Identity())),
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: Product(*p)),
            kids.map(Plus),
            kids.map(Star),
        ),
        max_leaves=12,
    )


class TestGrammar:
    def test_basic_parses(self):
        assert parse_term("1") == Identity()
        assert parse_term("a") == Letter("a")
        assert parse_term("ab") == Product(Letter("a"), Letter("b"))
        assert parse_term("a^+") == Plus(Letter("a"))
        assert parse_term("a^*") == Star(Letter("a"))
        assert parse_term("(ab)^+") == Plus(Product(Letter("a"), Letter("b")))
        assert parse_term("1^+") == Plus(Identity())
        assert parse_term(" a  b ") == parse_term("ab")

    def test_postfix_binds_to_factor(self):
        assert parse_term("ab^+") == Product(Letter("a"), Plus(Letter("b")))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("(a", "unbalanced parenthesis"),
            ("a)", "unexpected character"),
            ("a^", "dangling '^'"),
            ("^+a", "unexpected character"),
            ("", "empty term"),
            ("()", "empty term"),
            ("a$b", "unexpected character"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(TermSyntaxError) as exc:
            parse_term(text)
        assert fragment in str(exc.value)
        assert exc.value.position >= 0

    @given(terms_strategy())
    @settings(max_examples=200)
    def test_print_parse_roundtrip(self, t):
        assert parse_term(term_to_str(t)) == t

    @given(terms_strategy())
    def test_term_length_counts_letters(self, t):
        assert term_length(t) == term_to_str(t).count("a") + sum(
            term_to_str(t).count(c) for c in "bxyz"
        )

    def test_length_examples(self):
        assert term_length(parse_term("(ab)^+a(ba)^+")) == 5
        assert term_length(parse_term("1")) == 0


class TestDuality:
    @given(terms_strategy())
    def test_dualize_involution(self, t):
        assert dualize_term(dualize_term(t)) == t

    @given(terms_strategy())
    def test_swap_unary_involution(self, t):
        assert swap_unary(swap_unary(t)) == t

    def test_dualize_reverses_products(self):
        assert dualize_term(parse_term("ab^+c")) == Product(
            Letter("c"), Product(Plus(Letter("b")), Letter("a"))
        )


class TestNonNested:
    def test_rules(self):
        assert to_nonnested(parse_term("1^+")) == EMPTY_WORD
        assert to_nonnested(parse_term("(a^+)^+")) == NonNestedWord((PlusBlock("a"),))
        assert to_nonnested(parse_term("(ab^+c)^+")) == NonNestedWord(
            (PlusBlock("ab"), PlusBlock("ac"))
        )
        assert to_nonnested(parse_term("(aa^+a)^+")) == NonNestedWord(
            (PlusBlock("aa"), PlusBlock("aa"))
        )

    def test_star_rejected(self):
        from adequa.terms import NestedTermError

        with pytest.raises(NestedTermError):
            to_nonnested(parse_term("a^*"))

    @given(terms_strategy())
    @settings(max_examples=150, deadline=None)
    def test_normal_form_preserves_value(self, t):
        # normalization may duplicate letters, so lengths can grow; the
        # monoid value is what must be preserved
        if "^*" in term_to_str(t):
            return
        word = to_nonnested(t)
        back = parse_term(str(word))
        assign = {x: generator(x, Flavor.LEFT) for x in letters_of(t) | {"a"}}
        assert eval_term(t, assign, Flavor.LEFT) == eval_term(
            back, assign, Flavor.LEFT
        )

    @given(terms_strategy())
    @settings(max_examples=100)
    def test_normal_form_idempotent(self, t):
        if "^*" in term_to_str(t):
            return
        word = to_nonnested(t)
        assert to_nonnested(parse_term(str(word))) == word


U = to_nonnested(parse_term("a(ab)^+cb^+(bc)^+bab^+ba^+c^+b^+ba"))
W = PlusBlock("bc")


def _word(s):
    # build directly so a trailing empty block survives (to_nonnested
    # would normalize it away)
    atoms = []
    i = 0
    while i < len(s):
        if s[i] == "(":
            j = s.index(")", i)
            atoms.append(PlusBlock(s[i + 1 : j]))
            i = j + 3
        elif i + 1 < len(s) and s[i + 1] == "^":
            atoms.append(PlusBlock("" if s[i] == "1" else s[i]))
            i += 3
        else:
            atoms.append(s[i])
            i += 1
    return NonNestedWord(tuple(atoms))


def _words(strings):
    return frozenset(_word(s) for s in strings)


class TestWordCombinatorics:
    def test_projection_and_counts(self):
        assert plain_projection(U) == "acbabba"
        assert letter_counts(U) == {"a": 3, "b": 3, "c": 1}

    def test_suff_examples(self):
        assert str(suff(U, W)) == "b^+(bc)^+bab^+ba^+c^+b^+ba"
        assert str(suff(U, "c")) == "b^+ba"[0:0] + "cb^+(bc)^+bab^+ba^+c^+b^+ba"
        assert str(suff(U, "b")) == "ba"

    def test_missing_atom_raises(self):
        with pytest.raises(AtomNotInSupport):
            suff(U, PlusBlock("zz"))

    def test_pqr_worked_example(self):
        p, q, r = pqr_sets(U, W, "b")
        assert p == _words(["b^+", "(bc)^+", "bab^+", "babb^+"])
        assert q == p | _words(["babba1^+"])
        assert r == _words(["bab^+", "babb^+", "babba1^+"])
        p, q, r = pqr_sets(U, W, "c")
        assert p == q == _words(["(bc)^+", "babc^+"])
        assert r == _words(["babc^+"])

    def test_pqr_containments(self):
        for x in "bc":
            p, q, r = pqr_sets(U, W, x)
            assert p <= q and r <= q
            assert len(q) - len(p) <= 1

    def test_pqr_errors(self):
        with pytest.raises(AtomNotInSupport):
            pqr_sets(U, PlusBlock("zz"), "z")
        with pytest.raises(AtomNotInSupport):
            pqr_sets(U, W, "a")
