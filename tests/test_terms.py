"""Term grammar, normal forms, and word combinatorics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adequa.algebra import Flavor, eval_term
from adequa.identities import monogenic_pool
from adequa.terms import (
    AtomNotInSupport,
    Identity,
    Letter,
    NestedTermError,
    NonNestedWord,
    Plus,
    PlusBlock,
    Product,
    Star,
    TermSyntaxError,
    _fold,
    letters_of,
    parse_term,
    pqr_sets,
    suff,
    term_length,
    term_to_str,
    to_nonnested,
)


def reverse_term(t):
    """The left/right anti-isomorphism: reverse every product and exchange
    ^+ with ^*; an involution.  The oracle of `to_nonnested`'s mirrored
    reading."""
    keep = lambda x: x
    return _fold(t, keep, lambda left, right: Product(right, left), Star, Plus)


def reference_term_to_str(t) -> str:
    """The printer as it dispatched with isinstance, two pushes per product:
    the reference of `term_to_str`."""
    out: list[str] = []
    todo: list = [(t, True)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, as_seq = item
        if isinstance(node, Product):
            if as_seq:
                todo += ((node.right, False), (node.left, True))
            else:
                out.append("(")
                todo += (")", (node, True))
        elif isinstance(node, Letter):
            out.append(node.name)
        elif isinstance(node, Identity):
            out.append("1" if as_seq else "(1)")
        elif isinstance(node, (Plus, Star)):
            todo += ("^+" if isinstance(node, Plus) else "^*", (node.child, False))
        else:
            raise TypeError("not a term: %r" % (node,))
    return "".join(out)


def right_nested(word):
    """word as products nested to the right, a(b(c...)), which the parser
    never makes."""
    t = Letter(word[-1])
    for ch in reversed(word[:-1]):
        t = Product(Letter(ch), t)
    return t


def letter_counts(u: NonNestedWord) -> dict[str, int]:
    """|u|_y per letter y; PlusBlock contents are not counted."""
    counts: dict[str, int] = {}
    for a in u.atoms:
        if isinstance(a, str):
            counts[a] = counts.get(a, 0) + 1
    return counts


def plain_projection(u: NonNestedWord) -> str:
    return "".join(a for a in u.atoms if isinstance(a, str))


def reference_nonnested(t) -> NonNestedWord:
    """The normal form as one `_fold`: a ^+ rewrites its child's atoms
    p0 b1 p1 ... bm pm to (p0..p_{i-1} w_i)+ for each i, then (p0..pm)+,
    dropping every empty word."""

    def leaf(node):
        return (node.name,) if isinstance(node, Letter) else ()

    def plus(inner):
        out = []
        plain_prefix = ""
        for a in inner:
            if isinstance(a, PlusBlock):
                w = plain_prefix + a.word
                if w:
                    out.append(PlusBlock(w))
            else:
                plain_prefix += a
        if plain_prefix:
            out.append(PlusBlock(plain_prefix))
        return tuple(out)

    def star(inner):
        raise NestedTermError("star nodes have no non-nested normal form")

    return NonNestedWord(_fold(t, leaf, tuple.__add__, plus, star))


def random_plus_term(rng, n_letters, letters="abc"):
    """A random term of n_letters letters over letters, products and ^+
    nodes only, with some 1 leaves."""
    parts = [Letter(rng.choice(letters)) for _ in range(n_letters)]
    parts += [Identity() for _ in range(rng.randint(not parts, 2))]
    rng.shuffle(parts)
    while len(parts) > 1 or rng.random() < 0.3:
        if len(parts) > 1 and rng.random() < 0.6:
            i = rng.randrange(len(parts) - 1)
            parts[i : i + 2] = [Product(parts[i], parts[i + 1])]
        else:
            i = rng.randrange(len(parts))
            parts[i] = Plus(parts[i])
    return parts[0]


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


class TestPrinter:
    """`term_to_str` walks each product's left spine; its reference pushes
    both operands.  The two print the same bytes."""

    @given(terms_strategy())
    @settings(max_examples=300)
    def test_drawn_terms(self, t):
        assert term_to_str(t) == reference_term_to_str(t)

    def test_seeded_terms_of_any_association(self):
        # random_plus_term groups products at random; its reversal puts
        # the stars where the pluses were
        rng = random.Random(8)
        for _ in range(5000):
            t = random_plus_term(rng, rng.randint(0, 12))
            for term in (t, reverse_term(t)):
                assert term_to_str(term) == reference_term_to_str(term)

    @pytest.mark.parametrize("t, text", [
        (Product(Letter("a"), Product(Letter("b"), Letter("c"))), "a(bc)"),
        (Product(Product(Letter("a"), Letter("b")), Product(Letter("c"), Letter("d"))), "ab(cd)"),
        (Product(Identity(), Identity()), "1(1)"),
        (Product(Letter("a"), Product(Identity(), Letter("b"))), "a(1b)"),
        (Product(Letter("a"), Identity()), "a(1)"),
        (Plus(Product(Letter("a"), Product(Letter("b"), Star(Identity())))), "(a(b(1)^*))^+"),
        (Star(Product(Product(Identity(), Letter("a")), Letter("b"))), "(1ab)^*"),
        (Product(Plus(Identity()), Product(Star(Letter("a")), Identity())), "(1)^+(a^*(1))"),
    ])
    def test_hand_built_terms(self, t, text):
        assert term_to_str(t) == reference_term_to_str(t) == text
        assert parse_term(text) == t

    def test_long_words_without_recursion(self):
        word = "".join(random.Random(9).choice("xyz") for _ in range(200_000))
        assert term_to_str(parse_term(word)) == word
        t = right_nested(word)
        text = term_to_str(t)
        assert text == reference_term_to_str(t)
        assert text == "(".join(word[:-1]) + word[-1] + ")" * (len(word) - 2)

    @pytest.mark.parametrize("bad", [None, "x", Product(Letter("x"), 3), Plus(Product(Star(1.5), Letter("a")))])
    def test_non_term_node(self, bad):
        with pytest.raises(TypeError) as got:
            term_to_str(bad)
        with pytest.raises(TypeError) as want:
            reference_term_to_str(bad)
        assert str(got.value) == str(want.value)


class TestDuality:
    @given(terms_strategy())
    def test_reverse_involution(self, t):
        assert reverse_term(reverse_term(t)) == t

    @given(terms_strategy())
    def test_reverse_is_dualize_then_swap(self, t):
        # the two folds reverse_term replaced, composed: reverse every
        # product keeping the unary nodes, then exchange ^+ and ^*
        keep = lambda x: x
        dualized = _fold(t, keep, lambda left, right: Product(right, left), Plus, Star)
        assert reverse_term(t) == _fold(dualized, keep, Product, Star, Plus)

    def test_reverse_reverses_products_and_swaps_unary(self):
        assert reverse_term(parse_term("ab^+c")) == Product(
            Letter("c"), Product(Star(Letter("b")), Letter("a"))
        )


class TestNonNested:
    def test_rules(self):
        assert to_nonnested(parse_term("1^+")) == NonNestedWord(())
        assert to_nonnested(parse_term("(a^+)^+")) == NonNestedWord((PlusBlock("a"),))
        assert to_nonnested(parse_term("(ab^+c)^+")) == NonNestedWord(
            (PlusBlock("ab"), PlusBlock("ac"))
        )
        assert to_nonnested(parse_term("(aa^+a)^+")) == NonNestedWord(
            (PlusBlock("aa"), PlusBlock("aa"))
        )

    def test_star_rejected(self):
        with pytest.raises(NestedTermError, match=r"\^\* is not in the left-adequate"):
            to_nonnested(parse_term("a^*"))
        with pytest.raises(NestedTermError):
            to_nonnested(parse_term("(ab^+(c^*)^+)^+"))

    def test_matches_the_fold(self):
        # the dedicated loop against the normaliser it replaced, on seeded
        # random ^+ terms of up to 20 letters
        rng = random.Random(5)
        for _ in range(10_000):
            t = random_plus_term(rng, rng.randint(0, 20))
            assert to_nonnested(t) == reference_nonnested(t), term_to_str(t)

    @given(terms_strategy())
    @settings(max_examples=200)
    def test_matches_the_fold_on_drawn_terms(self, t):
        try:
            want = reference_nonnested(t)
        except NestedTermError:
            with pytest.raises(NestedTermError):
                to_nonnested(t)
        else:
            assert to_nonnested(t) == want

    def test_deep_plus_without_recursion(self):
        # (...((x)^+)^+...)^+ nested 100 000 deep is the single block x^+
        t = Letter("x")
        for _ in range(100_000):
            t = Plus(t)
        assert to_nonnested(t) == NonNestedWord((PlusBlock("x"),))
        t = Product(Letter("y"), t)
        for _ in range(100_000):
            t = Plus(t)
        assert to_nonnested(t) == NonNestedWord((PlusBlock("yx"), PlusBlock("y")))

    @given(terms_strategy())
    @settings(max_examples=300)
    def test_mirrored_reading_on_drawn_terms(self, t):
        self.mirrors(t)

    def test_mirrored_reading_on_seeded_terms(self):
        # each ^+ term is rejected mirrored; its reversal, a ^* term, is read
        rng = random.Random(6)
        for _ in range(10_000):
            t = random_plus_term(rng, rng.randint(0, 20))
            self.mirrors(t)
            self.mirrors(reverse_term(t))

    @staticmethod
    def mirrors(t):
        """to_nonnested(t, mirror=True) is the normal form of reverse_term(t);
        where that has a ^*, t has a ^+, and the error names it."""
        try:
            want = to_nonnested(reverse_term(t))
        except NestedTermError:
            with pytest.raises(NestedTermError) as got:
                to_nonnested(t, mirror=True)
            assert str(got.value) == "^+ is not in the right-adequate signature"
        else:
            assert to_nonnested(t, mirror=True) == want

    def test_deep_star_mirrored_without_recursion(self):
        t = Letter("x")
        for _ in range(100_000):
            t = Star(t)
        assert to_nonnested(t, mirror=True) == NonNestedWord((PlusBlock("x"),))
        assert to_nonnested(reverse_term(t)) == NonNestedWord((PlusBlock("x"),))
        # read right to left: y, then the block of x
        t = Product(t, Letter("y"))
        for _ in range(100_000):
            t = Star(t)
        want = NonNestedWord((PlusBlock("yx"), PlusBlock("y")))
        assert to_nonnested(t, mirror=True) == to_nonnested(reverse_term(t)) == want

    @pytest.mark.parametrize("text", ["x^+", "x^*(yx^+)^*", "(xy^*)^+", "((x)^*)^+y"])
    def test_plus_rejected_mirrored(self, text):
        t = parse_term(text)
        with pytest.raises(NestedTermError):
            to_nonnested(reverse_term(t))
        with pytest.raises(NestedTermError, match=r"^\^\+ is not in the right-adequate signature$"):
            to_nonnested(t, mirror=True)

    @pytest.mark.parametrize("bad", [None, Product(Letter("x"), "y"), Star(Product(3, Letter("x")))])
    def test_non_term_node_mirrored(self, bad):
        with pytest.raises(TypeError) as got:
            to_nonnested(bad, mirror=True)
        with pytest.raises(TypeError) as want:
            to_nonnested(reverse_term(bad))
        assert str(got.value) == str(want.value)

    @given(terms_strategy(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_normal_form_preserves_value(self, t, data):
        # normalization may duplicate letters, so lengths can grow; the
        # value in the monogenic monoid is what must be preserved, whatever
        # monogenic element each letter stands for.  Distinct generators
        # would not do: (aa^+b)^+ and (aa)^+(ab)^+ differ in rank 2.
        if "^*" in term_to_str(t):
            return
        word = to_nonnested(t)
        back = parse_term(str(word))
        pool = st.sampled_from(monogenic_pool(Flavor.LEFT))
        assign = {x: data.draw(pool) for x in sorted(letters_of(t) | {"a"})}
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
