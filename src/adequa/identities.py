"""Identity checking for free adequate monoids.

The monogenic left case follows the four-condition classification of
enriched non-nested identities; the right case goes through the product
anti-isomorphism; higher rank is decided by tree equality; the plain
two-sided case is trivial with an explicit separating witness.  A
substitution falsifier doubles as an independent oracle for all of them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import terms as T
from .algebra import (
    Element,
    Flavor,
    eval_term,
    generator,
    identity_element,
    make_element,
    multiply,
    plus_op,
    reverse_element,
)
from .exactlp import convex_dominates
from .growth import left_sphere, two_sided_sphere
from .terms import (
    NonNestedWord,
    PlusBlock,
    dualize_term,
    letter_counts,
    letters_of,
    mp,
    parse_term,
    plain_projection,
    pqr_sets,
    suff,
    swap_unary,
    to_nonnested,
    word_stats,
)
from .trees import XTree


@dataclass(frozen=True)
class IdentitySpec:
    lhs: T.Term
    rhs: T.Term

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted(letters_of(self.lhs) | letters_of(self.rhs)))

    @staticmethod
    def parse(lhs: str, rhs: str) -> "IdentitySpec":
        return IdentitySpec(parse_term(lhs), parse_term(rhs))


@dataclass
class CheckResult:
    satisfied: bool
    failing_condition: str | None = None
    witness: dict[str, Element] | None = None


# ------------------------------------------------ condition machinery


def _counts_vector(word: str, alphabet: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(word.count(y) for y in alphabet)


def _word_counts_vector(u: NonNestedWord, alphabet) -> tuple[int, ...]:
    c = letter_counts(u)
    return tuple(c.get(y, 0) for y in alphabet)


def _mp_plain(word: str, x: str) -> str | None:
    i = word.rfind(x)
    return None if i < 0 else word[: i + 1]


def dominance_holds(target, candidates) -> bool:
    """All nonnegative weightings admit a candidate at least as heavy."""
    return convex_dominates(target, candidates)


def _condition_iii(
    u: NonNestedWord, v: NonNestedWord, alphabet: tuple[str, ...]
) -> str | None:
    """None when condition (iii) holds for u against v, else a tag."""
    v_blocks = {a for a in v.atoms if isinstance(a, PlusBlock)}
    for w_block in {a for a in u.atoms if isinstance(a, PlusBlock)}:
        s_u = suff(u, w_block)
        s_u_counts = _word_counts_vector(s_u, alphabet)
        for x in sorted(set(w_block.word)):
            mw = _mp_plain(w_block.word, x)
            target = _counts_vector(mw, alphabet)
            # (a): convex dominance over the R-set
            _, _, r_set = pqr_sets(u, w_block, x)
            candidates = []
            for el in r_set:
                pk = plain_projection(el) + el.atoms[-1].word
                mpk = _mp_plain(pk, x)
                if mpk is not None:
                    candidates.append(_counts_vector(mpk, alphabet))
            if dominance_holds(target, candidates):
                continue
            # (b): a matching block on the other side
            ok = False
            for h in v_blocks:
                mh = _mp_plain(h.word, x)
                if mh is None or _counts_vector(mh, alphabet) != target:
                    continue
                if _word_counts_vector(suff(v, h), alphabet) == s_u_counts:
                    ok = True
                    break
            if not ok:
                return "block %s letter %s" % (w_block.word or "1", x)
    return None


def check_enriched_flad1(spec: IdentitySpec) -> CheckResult:
    """The four-condition classification over the monogenic left monoid."""
    u = to_nonnested(spec.lhs)
    v = to_nonnested(spec.rhs)
    alphabet = spec.alphabet
    cu = letter_counts(u)
    cv = letter_counts(v)
    # (i) letter counts agree
    for y in alphabet:
        if cu.get(y, 0) != cv.get(y, 0):
            return CheckResult(False, "i")
    # (ii) per letter: a covering block in the anchored suffix, or equal
    # suffix letter counts on both sides
    for side_u, side_v, tag in ((u, v, "ii"), (v, u, "ii-dual")):
        for x in sorted(letter_counts(side_u)):
            s = suff(side_u, x)
            if any(
                isinstance(a, PlusBlock) and x in a.word for a in s.atoms
            ):
                continue
            if x in letter_counts(side_v) and _word_counts_vector(
                s, alphabet
            ) == _word_counts_vector(suff(side_v, x), alphabet):
                continue
            return CheckResult(False, tag + "a/b")
    # (iii) and its dual (iv)
    fail = _condition_iii(u, v, alphabet)
    if fail is not None:
        return CheckResult(False, "iiia/b: " + fail)
    fail = _condition_iii(v, u, alphabet)
    if fail is not None:
        return CheckResult(False, "iv-dual: " + fail)
    return CheckResult(True)


def check_enriched_frad1(spec: IdentitySpec) -> CheckResult:
    """Right-signature identities, via the anti-isomorphism."""
    flip = lambda t: swap_unary(dualize_term(t))
    return check_enriched_flad1(IdentitySpec(flip(spec.lhs), flip(spec.rhs)))


def _require_plain(t: T.Term) -> str:
    if isinstance(t, T.Identity):
        return ""
    if isinstance(t, T.Letter):
        return t.name
    if isinstance(t, T.Product):
        return _require_plain(t.left) + _require_plain(t.right)
    raise ValueError("plain word expected, found a unary operator")


def check_plain(spec: IdentitySpec, side: str) -> CheckResult:
    """Plain-word identities: suffix counts (left) or prefix counts (right)."""
    u = _require_plain(spec.lhs)
    v = _require_plain(spec.rhs)
    if side == "right":
        u, v = u[::-1], v[::-1]
    elif side != "left":
        raise ValueError("side must be 'left' or 'right'")
    alphabet = spec.alphabet
    for y in alphabet:
        if u.count(y) != v.count(y):
            return CheckResult(False, "counts")
    for x in sorted(set(u)):
        su = u[u.rfind(x):]
        sv = v[v.rfind(x):]
        if _counts_vector(su, alphabet) != _counts_vector(sv, alphabet):
            return CheckResult(False, "suffix-counts" if side == "left" else "prefix-counts")
    return CheckResult(True)


def check_fladX(spec: IdentitySpec) -> CheckResult:
    """Higher-rank left identities: equality of the two generator-images."""
    assign = {x: generator(x, Flavor.LEFT) for x in spec.alphabet}
    lhs = eval_term(spec.lhs, assign, Flavor.LEFT)
    rhs = eval_term(spec.rhs, assign, Flavor.LEFT)
    if lhs.code == rhs.code:
        return CheckResult(True)
    return CheckResult(False, "tree-inequality", dict(assign))


def fad1_witness_element(n: int) -> Element:
    """The separating element (a(a^n)*)^+ a of the two-sided witness family."""
    a = generator("a", Flavor.TWO_SIDED)
    inner = a
    from .algebra import star_op

    power = a
    for _ in range(n - 1):
        power = multiply(power, a)
    return multiply(plus_op(multiply(a, star_op(power))), a)


def check_fad1_plain(spec: IdentitySpec) -> CheckResult:
    """Plain identities over the two-sided monogenic monoid are trivial."""
    u = _require_plain(spec.lhs)
    v = _require_plain(spec.rhs)
    if u == v:
        return CheckResult(True)
    base = max(len(u), len(v)) + 1
    witness = {
        x: fad1_witness_element(base + i)
        for i, x in enumerate(spec.alphabet)
    }
    lhs = eval_term(spec.lhs, witness, Flavor.TWO_SIDED)
    rhs = eval_term(spec.rhs, witness, Flavor.TWO_SIDED)
    if lhs.code == rhs.code:
        raise RuntimeError("witness family failed to separate")
    return CheckResult(False, "literal-inequality", witness)


# ------------------------------------------- auxiliary constructions


def scale_morphism(psi: dict[str, int], L: int, sigma_order) -> dict[str, int]:
    """Blow a weight morphism up so order comparisons become exact."""
    if L < 1:
        raise ValueError("L must be positive")
    r = len(sigma_order)
    return {
        s: L**r * psi[s] + L**i for i, s in enumerate(sigma_order)
    }


def trunk_plus_length(w: str, assignment: dict[str, Element]) -> int:
    """Edge count of the idempotent of the image of a plain word.

    Computed combinatorially as the maximum over letters of the trunk
    contribution before the last occurrence plus the letter's own
    idempotent size.
    """
    if not w:
        return 0
    rho = lambda word: sum(assignment[c].trunk_length for c in word)
    best = 0
    for x in set(w):
        mprime = w[: w.rfind(x)]
        ex = plus_op(assignment[x]).edge_count
        best = max(best, rho(mprime) + ex)
    return best


def embed_rank2(t: T.Term, sigma_order) -> T.Term:
    """Substitute the i-th letter by b a^i b throughout."""
    index = {s: i for i, s in enumerate(sigma_order)}

    def word_term(i: int) -> T.Term:
        acc: T.Term = T.Letter("b")
        for _ in range(i):
            acc = T.Product(acc, T.Letter("a"))
        return T.Product(acc, T.Letter("b"))

    def rec(t: T.Term) -> T.Term:
        if isinstance(t, T.Letter):
            return word_term(index[t.name])
        if isinstance(t, T.Product):
            return T.Product(rec(t.left), rec(t.right))
        if isinstance(t, T.Plus):
            return T.Plus(rec(t.child))
        if isinstance(t, T.Star):
            return T.Star(rec(t.child))
        return t

    return rec(t)


# ------------------------------------------------------------- falsifier

_POOL_CACHE: dict[tuple[Flavor, int], list[Element]] = {}
_EVAL_CACHE: dict = {}


def monogenic_pool(flavor: Flavor, max_edges: int = 4) -> list[Element]:
    """All monogenic elements with at most max_edges edges, small first."""
    key = (flavor, max_edges)
    if key in _POOL_CACHE:
        return _POOL_CACHE[key]
    pool: list[Element] = []
    for n in range(max_edges + 1):
        if flavor is Flavor.TWO_SIDED:
            els, _ = two_sided_sphere(n)
            pool.extend(els)
        else:
            els, _ = left_sphere(n, strategy="structural")
            if flavor is Flavor.LEFT:
                pool.extend(els)
            else:
                pool.extend(reverse_element(e) for e in els)
    _POOL_CACHE[key] = pool
    return pool


def _cached_eval(t: T.Term, assignment: dict[str, Element], flavor: Flavor) -> Element:
    key = (t, flavor, tuple(sorted((k, e.code) for k, e in assignment.items())))
    if key not in _EVAL_CACHE:
        _EVAL_CACHE[key] = eval_term(t, assignment, flavor)
    return _EVAL_CACHE[key]


def random_monogenic_element(rng: random.Random, flavor: Flavor, max_edges: int = 8) -> Element:
    """A random element built from a random word in a, a^+ (or duals)."""
    a = generator("a", flavor)
    acc = identity_element(flavor)
    for _ in range(rng.randint(1, max_edges)):
        piece = a
        if rng.random() < 0.5:
            k = rng.randint(1, 3)
            p = a
            for _ in range(k - 1):
                p = multiply(p, a)
            if flavor is Flavor.RIGHT:
                from .algebra import star_op

                piece = star_op(p)
            elif flavor is Flavor.TWO_SIDED and rng.random() < 0.5:
                from .algebra import star_op

                piece = star_op(p)
            else:
                piece = plus_op(p)
        acc = multiply(acc, piece)
        if acc.edge_count >= max_edges:
            break
    return acc


def falsify_by_substitution(
    spec: IdentitySpec,
    flavor: Flavor,
    budget: int = 2000,
    rng: random.Random | None = None,
) -> dict[str, Element] | None:
    """Search assignments for one separating the two sides.

    Systematic sweep over tuples from the graded small-element pool
    first, then random larger elements until the budget runs out.
    """
    letters = spec.alphabet
    if budget <= 0:
        return None
    pool = monogenic_pool(flavor)
    # order tuples by total edge count so small witnesses come first
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
        if _cached_eval(spec.lhs, assignment, flavor).code != _cached_eval(
            spec.rhs, assignment, flavor
        ).code:
            return assignment
    rng = rng or random.Random(7)
    while spent < budget:
        assignment = {
            x: random_monogenic_element(rng, flavor) for x in letters
        }
        spent += 1
        if _cached_eval(spec.lhs, assignment, flavor).code != _cached_eval(
            spec.rhs, assignment, flavor
        ).code:
            return assignment
    return None
