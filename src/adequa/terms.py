"""Terms of the free unary/biunary monoid and their word combinatorics.

Covers parsing and printing of the surface syntax, letter-count length,
normalization of plus-terms into non-nested words, and the suffix
machinery (suff and the P/Q/R sets) of the identity conditions, whose
count vectors the identity checker reads without building these sets.
"""

from __future__ import annotations

import string
from dataclasses import dataclass


# ---------------------------------------------------------------- term AST


@dataclass(frozen=True, slots=True)
class Identity:
    pass


@dataclass(frozen=True, slots=True)
class Letter:
    name: str


@dataclass(frozen=True, slots=True)
class Product:
    left: "Term"
    right: "Term"


@dataclass(frozen=True, slots=True)
class Plus:
    child: "Term"


@dataclass(frozen=True, slots=True)
class Star:
    child: "Term"


Term = Identity | Letter | Product | Plus | Star


class TermSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


# One shared node per letter and for 1: terms are immutable, so every
# parse can hand out the same leaves.
_LETTERS = {ch: Letter(ch) for ch in string.ascii_lowercase}
_ONE = Identity()


def parse_term(text: str) -> Term:
    """Parse the surface syntax.

    Grammar:
        term    := factor { factor } | "1"
        factor  := atom [ "^+" | "^*" ]
        atom    := LETTER | "(" term ")"
    Whitespace between factors is insignificant.  Parentheses are kept
    on an explicit stack, so nesting depth needs no recursion.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t\n":
            pos += 1

    skip_ws()
    # one frame per open term: (its factors, where it starts, the
    # position of its "(" or None at the top level)
    frames: list[tuple[list[Term], int, int | None]] = [([], pos, None)]
    while True:
        skip_ws()
        ch = text[pos] if pos < n else ""
        if ch == "(":
            open_pos = pos
            pos += 1
            skip_ws()
            frames.append(([], pos, open_pos))
            continue
        if ch in _LETTERS:
            atom = _LETTERS[ch]
            pos += 1
        elif ch == "1":
            atom = _ONE
            pos += 1
        elif ch == "" or ch == ")":
            factors, start, open_pos = frames.pop()
            if not factors:
                raise TermSyntaxError("empty term", start)
            atom = factors[0]
            for f in factors[1:]:
                atom = Product(atom, f)
            if open_pos is None:
                if pos != n:
                    raise TermSyntaxError("unexpected character %r" % ch, pos)
                return atom
            if ch != ")":
                raise TermSyntaxError("unbalanced parenthesis", open_pos)
            pos += 1
        else:
            raise TermSyntaxError("unexpected character %r" % ch, pos)
        skip_ws()
        while pos < n and text[pos] == "^":
            if pos + 1 >= n or text[pos + 1] not in "+*":
                raise TermSyntaxError("dangling '^'", pos)
            atom = Plus(atom) if text[pos + 1] == "+" else Star(atom)
            pos += 2
            skip_ws()
        frames[-1][0].append(atom)


# markers on _fold's stack: the arguments of this node are on `values`
_PRODUCT, _PLUS, _STAR = object(), object(), object()


def _fold(t: Term, leaf, product, plus, star):
    """Combine t bottom-up without recursion.

    leaf(node) gives the value of a letter or 1, and product(left,
    right), plus(child) and star(child) combine the values below a node.
    """
    values: list = []
    todo: list = [t]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is Product:
            todo += (_PRODUCT, item.right, item.left)
        elif kind is Plus:
            todo += (_PLUS, item.child)
        elif kind is Star:
            todo += (_STAR, item.child)
        elif kind is Letter or kind is Identity:
            values.append(leaf(item))
        elif item is _PRODUCT:
            right = values.pop()
            values[-1] = product(values[-1], right)
        elif item is _PLUS:
            values[-1] = plus(values[-1])
        elif item is _STAR:
            values[-1] = star(values[-1])
        else:
            raise TypeError("not a term: %r" % (item,))
    return values[0]


def _keep(x):
    return x


def term_to_str(t: Term) -> str:
    """Inverse of parse_term up to the grammar's left-associated products."""
    out: list[str] = []
    # literal text, or (subterm, printed as a sequence rather than a factor)
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


def term_length(t: Term) -> int:
    """Number of letter occurrences; unary operators add nothing."""
    return _fold(t, lambda leaf: int(isinstance(leaf, Letter)), int.__add__, _keep, _keep)


def letters_of(t: Term) -> set[str]:
    """The letters occurring in t, found without recursion."""
    found: set[str] = set()
    todo = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, Letter):
            found.add(node.name)
        elif isinstance(node, Product):
            todo += (node.left, node.right)
        elif isinstance(node, (Plus, Star)):
            todo.append(node.child)
    return found


def reverse_term(t: Term) -> Term:
    """The left/right anti-isomorphism: reverse every product and exchange
    ^+ with ^*; an involution."""
    return _fold(t, _keep, lambda left, right: Product(right, left), Star, Plus)


# ------------------------------------------------------- non-nested words


@dataclass(frozen=True, slots=True)
class PlusBlock:
    """A +-applied plain word; the word may be empty (the atom ε⁺)."""

    word: str


Atom = str | PlusBlock


@dataclass(frozen=True, slots=True)
class NonNestedWord:
    atoms: tuple[Atom, ...]

    def __str__(self) -> str:
        if not self.atoms:
            return "1"
        out = []
        for a in self.atoms:
            if isinstance(a, PlusBlock):
                if not a.word:
                    out.append("1^+")
                elif len(a.word) == 1:
                    out.append(a.word + "^+")
                else:
                    out.append("(" + a.word + ")^+")
            else:
                out.append(a)
        return "".join(out)


class NestedTermError(ValueError):
    pass


# marks, on to_nonnested's stack, the end of a ^+ whose atoms are open
_CLOSE = object()


def to_nonnested(t: Term) -> NonNestedWord:
    """Normal form under ε⁺→ε, (x⁺)⁺→x⁺, (xy⁺z)⁺→(xy)⁺(xz)⁺.

    Innermost-first rewriting; sound for the left signature only, so Star
    nodes are rejected, and in the monogenic monoid only, whatever element
    each letter stands for: with distinct generators a and b, (aa⁺b)⁺ and
    (aa)⁺(ab)⁺ differ.  One loop without recursion: letters append to the
    innermost open atom list, and a ^+ opens a list that its end rewrites.
    """
    lists: list[list[Atom]] = [[]]
    todo: list = [t]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Letter:
            lists[-1].append(node.name)
        elif kind is Product:
            todo += (node.right, node.left)
        elif kind is Plus:
            lists.append([])
            todo += (_CLOSE, node.child)
        elif node is _CLOSE:
            # u = p0 b1 p1 ... bm pm; u+ = prod_i (p0..p_{i-1} w_i)+ . (p0..pm)+
            # with every empty-word factor dropped (the rule eps+ -> eps)
            inner = lists.pop()
            out = lists[-1]
            prefix = ""
            for a in inner:
                if type(a) is str:
                    prefix += a
                else:
                    out.append(PlusBlock(prefix + a.word) if prefix else a)
            if prefix:
                out.append(PlusBlock(prefix))
        elif kind is Star:
            raise NestedTermError("^* is not in the left-adequate signature")
        elif kind is not Identity:
            raise TypeError("not a term: %r" % (node,))
    return NonNestedWord(tuple(lists[0]))


# The paper's definition of suff and of the P/Q/R sets, as written there:
# `AtomNotInSupport`, `suff`, `prefix_through_last` and `pqr_sets`.  The
# identity checker reads count vectors instead and calls none of them;
# they are kept here as the reference oracle that the tests hold
# `identities.check_enriched_flad1` to, and the benchmark's tracer names
# `pqr_sets` as a layer.


class AtomNotInSupport(ValueError):
    pass


def suff(u: NonNestedWord, x: Atom) -> NonNestedWord:
    """The anchored suffix at x.

    For a letter: the shortest suffix containing x.  For a block: from
    the last occurrence, extended left through blocks only (the longest
    suffix adding no further letters).
    """
    last = None
    for i in range(len(u.atoms) - 1, -1, -1):
        if u.atoms[i] == x:
            last = i
            break
    if last is None:
        raise AtomNotInSupport("atom not in support: %r" % (x,))
    if isinstance(x, str):
        return NonNestedWord(u.atoms[last:])
    j = last
    while j > 0 and isinstance(u.atoms[j - 1], PlusBlock):
        j -= 1
    return NonNestedWord(u.atoms[j:])


def prefix_through_last(word: str, x: str) -> str | None:
    """The prefix of word up to and including its last x; None when x
    does not occur."""
    i = word.rfind(x)
    return None if i < 0 else word[: i + 1]


def pqr_sets(
    u: NonNestedWord, w_block: PlusBlock, x: str
) -> tuple[frozenset[NonNestedWord], frozenset[NonNestedWord], frozenset[NonNestedWord]]:
    """The P/Q/R word sets attached to a block occurrence and a letter.

    P collects, over each block occurrence k⁺ in the anchored suffix of
    w⁺ with x in supp(k), the plain projection of the prefix up to that
    occurrence followed by k⁺.  Q adds the whole projection followed by
    ε⁺ when the letter x itself occurs in the suffix.  R drops exactly
    the bare blocks whose mp letter counts at x match those of w.
    """
    if w_block not in set(u.atoms):
        raise AtomNotInSupport("block not in support: %r" % (w_block,))
    if x not in set(w_block.word):
        raise AtomNotInSupport("letter not in block support: %r" % (x,))
    s = suff(u, w_block)
    p_set: set[NonNestedWord] = set()
    plain_prefix = ""
    for a in s.atoms:
        if isinstance(a, PlusBlock):
            if x in a.word:
                p_set.add(NonNestedWord(tuple(plain_prefix) + (a,)))
        else:
            plain_prefix += a
    q_set = set(p_set)
    if x in plain_prefix:
        q_set.add(NonNestedWord(tuple(plain_prefix) + (PlusBlock(""),)))
    target = sorted(prefix_through_last(w_block.word, x))
    r_set = set()
    for el in q_set:
        # A one-atom element is a block of P, so its word contains x:
        # every element ends in a block, and the ε⁺ element is added only
        # when plain_prefix is non-empty, so its block has a letter before
        # it.  The two prefixes are compared as multisets of letters.
        if len(el.atoms) == 1 and sorted(prefix_through_last(el.atoms[0].word, x)) == target:
            continue
        r_set.add(el)
    return frozenset(p_set), frozenset(q_set), frozenset(r_set)
