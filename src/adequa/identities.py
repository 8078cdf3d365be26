"""Identity checking for free adequate monoids.

The monogenic left case follows the four-condition classification of
enriched non-nested identities; the right case goes through the product
anti-isomorphism; higher rank is decided by tree equality; the plain
two-sided case is trivial with an explicit separating witness.  A
substitution falsifier doubles as an independent oracle for all of them.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

from . import terms as T
from .algebra import (
    Element,
    Flavor,
    eval_term,
    generator,
    identity_element,
    multiply,
    plus_op,
    reverse_element,
    star_op,
)
from .exactlp import convex_dominates
from .growth import left_sphere, two_sided_sphere
from .terms import (
    NonNestedWord,
    PlusBlock,
    dualize_term,
    letter_counts,
    letters_of,
    parse_term,
    plain_projection,
    pqr_sets,
    suff,
    swap_unary,
    term_to_str,
    to_nonnested,
)


@dataclass(frozen=True, slots=True)
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
            if convex_dominates(target, candidates):
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
    letters: list[str] = []
    todo = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, T.Product):
            todo += (node.right, node.left)
        elif isinstance(node, T.Letter):
            letters.append(node.name)
        elif not isinstance(node, T.Identity):
            raise ValueError("plain word expected, found a unary operator")
    return "".join(letters)


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


# ------------------------------------------------------------- falsifier

# Both falsifier caches are bounded.  _POOL_CACHE keeps the graded pools
# and, per flavor, the first _RANDOM_KEEP elements of the random phase;
# _EVAL_CACHE keeps at most _EVAL_CACHE_LIMIT codes of evaluated terms
# and drops the least recently used.
_RANDOM_KEEP = 4096
_EVAL_CACHE_LIMIT = 8192
_POOL_EDGES = 4

_POOL_CACHE: dict[tuple, list[Element] | tuple[random.Random, list[Element]]] = {}
_EVAL_CACHE: OrderedDict[tuple, bytes] = OrderedDict()


def monogenic_pool(flavor: Flavor) -> list[Element]:
    """All monogenic elements with at most _POOL_EDGES edges, small first."""
    key = ("pool", flavor)
    if key in _POOL_CACHE:
        return _POOL_CACHE[key]
    pool: list[Element] = []
    for n in range(_POOL_EDGES + 1):
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


def _cached_eval(
    t: T.Term, text: str, assignment: dict[str, Element], flavor: Flavor
) -> bytes:
    """The code of eval_term's value, memoised on the printed term, which
    names it uniquely, and the codes of the assignment."""
    key = (text, flavor, tuple(sorted((k, e.code) for k, e in assignment.items())))
    code = _EVAL_CACHE.get(key)
    if code is None:
        code = _EVAL_CACHE[key] = eval_term(t, assignment, flavor).code
        if len(_EVAL_CACHE) > _EVAL_CACHE_LIMIT:
            _EVAL_CACHE.popitem(last=False)
    else:
        _EVAL_CACHE.move_to_end(key)
    return code


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
                piece = star_op(p)
            elif flavor is Flavor.TWO_SIDED and rng.random() < 0.5:
                piece = star_op(p)
            else:
                piece = plus_op(p)
        acc = multiply(acc, piece)
        if acc.edge_count >= max_edges:
            break
    return acc


def _random_draws(flavor: Flavor) -> Iterator[Element]:
    """The draws of random_monogenic_element from one random.Random(7).

    The first _RANDOM_KEEP draws are built once per flavor and kept in
    _POOL_CACHE, extended as far as a caller reads.  Later draws are made
    again on each pass, from the generator state after the last kept one.
    """
    key = ("random", flavor)
    if key not in _POOL_CACHE:
        _POOL_CACHE[key] = (random.Random(7), [])
    rng, kept = _POOL_CACHE[key]
    i = 0
    while i < len(kept) or len(kept) < _RANDOM_KEEP:
        if i == len(kept):
            kept.append(random_monogenic_element(rng, flavor))
        yield kept[i]
        i += 1
    rest = random.Random()
    rest.setstate(rng.getstate())
    while True:
        yield random_monogenic_element(rest, flavor)


def _by_total_weight(weights: list[int], length: int) -> Iterator[tuple[int, ...]]:
    """Tuples of indices into the ascending weights, lightest total first.

    Ties keep product order, so this is a stable sort of
    itertools.product(range(len(weights)), repeat=length) by total weight,
    made one total at a time without building the product.
    """
    lo, hi = weights[0], weights[-1]
    for total in range(length * lo, length * hi + 1):
        # depth first in index order, each prefix extended only by
        # indices whose weight leaves the rest of the total reachable
        todo: list[tuple[tuple[int, ...], int]] = [((), total)]
        while todo:
            prefix, rest = todo.pop()
            left = length - len(prefix)
            if left == 0:
                yield prefix
                continue
            first = bisect_left(weights, rest - (left - 1) * hi)
            last = bisect_right(weights, rest - (left - 1) * lo)
            todo += ((prefix + (i,), rest - weights[i]) for i in range(last - 1, first - 1, -1))


def falsify_by_substitution(
    spec: IdentitySpec, flavor: Flavor, budget: int = 2000
) -> dict[str, Element] | None:
    """Search assignments for one separating the two sides.

    Systematic sweep over tuples from the graded small-element pool
    first, then random larger elements until the budget runs out.
    """
    letters = spec.alphabet
    if budget <= 0:
        return None
    lhs_text, rhs_text = term_to_str(spec.lhs), term_to_str(spec.rhs)

    def separates(assignment: dict[str, Element]) -> bool:
        lhs = _cached_eval(spec.lhs, lhs_text, assignment, flavor)
        return lhs != _cached_eval(spec.rhs, rhs_text, assignment, flavor)

    pool = monogenic_pool(flavor)
    # order tuples by total edge count so small witnesses come first
    indexed = sorted(range(len(pool)), key=lambda i: pool[i].edge_count)
    weights = [pool[i].edge_count for i in indexed]
    spent = 0
    for combo in _by_total_weight(weights, len(letters)):
        if spent >= budget:
            return None
        assignment = {x: pool[indexed[j]] for x, j in zip(letters, combo)}
        spent += 1
        if separates(assignment):
            return assignment
    draws = _random_draws(flavor)
    while spent < budget:
        assignment = {x: next(draws) for x in letters}
        spent += 1
        if separates(assignment):
            return assignment
    return None
