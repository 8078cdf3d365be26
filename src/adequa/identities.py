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
from dataclasses import dataclass, field
from itertools import chain, islice

from . import terms as T
from .algebra import (
    Element,
    Flavor,
    eval_code,
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
    Identity,
    Letter,
    NonNestedWord,
    Product,
    letters_of,
    parse_term,
    term_to_str,
    to_nonnested,
)

_LEFT = Flavor.LEFT  # a global reads faster than an enum member


@dataclass(frozen=True, slots=True)
class IdentitySpec:
    lhs: T.Term
    rhs: T.Term
    alphabet: tuple[str, ...] = field(init=False, compare=False, repr=False)
    # both sides as term_to_str prints them, set by `_printed_sides`
    _printed: tuple[str, str] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        letters = tuple(sorted(letters_of(self.lhs) | letters_of(self.rhs)))
        object.__setattr__(self, "alphabet", letters)

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
    return tuple(map(word.count, alphabet))


def _side(u: NonNestedWord) -> tuple[str, list[tuple[int, str]], dict[str, int]]:
    """u's plain projection; its block occurrences as (ps, word), ps the
    number of plain letters before the block; and each distinct block
    word, in order of first occurrence, mapped to the ps of its last
    occurrence, whose anchored suffix holds the plain letters from ps on
    and the blocks with ps or more plain letters before them."""
    plain: list[str] = []
    blocks: list[tuple[int, str]] = []
    starts: dict[str, int] = {}
    for a in u.atoms:
        if type(a) is str:
            plain.append(a)
        else:
            blocks.append((len(plain), a.word))
            starts[a.word] = len(plain)
    return "".join(plain), blocks, starts


def _rows(side: tuple, alphabet: tuple[str, ...]) -> list[tuple]:
    """(word, ps, plain counts of its anchored suffix, [(x, counts of the
    word through its last x) for x in the word, sorted]) per distinct
    block of a `_side`, in order of first occurrence, so the reported
    block never depends on the string-hash seed."""
    plain, _, starts = side
    return [
        (w, ps, _counts_vector(plain[ps:], alphabet), [
            (x, _counts_vector(w[: w.rfind(x) + 1], alphabet)) for x in sorted(set(w))
        ])
        for w, ps in starts.items()
    ]


def _condition_iii(side: tuple, rows: list, other_rows: list, alphabet, dominated) -> str | None:
    """None when condition (iii) holds for a `_side` with its `_rows`
    against the other side's rows, else a tag.  `dominated` holds the
    answer to each convex-dominance question asked, (target, candidates)."""
    plain, blocks, _ = side
    for w, ps, counts, letters in rows:
        tail = plain[ps:]
        scan = [(plain[ps:pj], word) for pj, word in blocks if pj >= ps]
        for x, target in letters:
            # (a): convex dominance over the R-set.  Each block k+ of the
            # suffix with x in k gives the counts of (plain prefix so far,
            # k through its last x), dropped when the prefix is empty and
            # the counts are the target; the ε+ element, when x is in the
            # suffix's plain letters, gives those letters through the last x
            candidates = set()
            for prefix, word in scan:
                i = word.rfind(x)
                if i >= 0:
                    vec = _counts_vector(prefix + word[: i + 1], alphabet)
                    if prefix or vec != target:
                        candidates.add(vec)
            i = tail.rfind(x)
            if i >= 0:
                candidates.add(_counts_vector(tail[: i + 1], alphabet))
            question = (target, frozenset(candidates))
            if question not in dominated:
                dominated[question] = convex_dominates(target, candidates)
            # (b): a block of the other side with the same counts through
            # its last x and the same plain counts in its anchored suffix
            if not dominated[question] and not any(
                c == counts and (x, target) in xs for _, _, c, xs in other_rows
            ):
                return "block %s letter %s" % (w, x)
    return None


def _check_enriched(spec: IdentitySpec, mirror: bool) -> CheckResult:
    """The four conditions on both sides' normal forms, read mirrored if set."""
    alphabet = spec.alphabet
    u, v = _side(to_nonnested(spec.lhs, mirror)), _side(to_nonnested(spec.rhs, mirror))
    # (i) letter counts agree
    if sorted(u[0]) != sorted(v[0]):
        return CheckResult(False, "i")
    # (ii) per letter: a covering block after its last plain occurrence, or
    # equal suffix letter counts on both sides; by (i) both have the same letters
    for (plain, blocks, _), (other, _, _), tag in ((u, v, "ii"), (v, u, "ii-dual")):
        for x in alphabet:
            p = plain.rfind(x)
            if p < 0 or any(pj > p and x in word for pj, word in blocks):
                continue
            if sorted(plain[p:]) != sorted(other[other.rfind(x) :]):
                return CheckResult(False, tag + "a/b")
    # (iii) and its dual (iv), which ask many of the same questions
    u_rows, v_rows = _rows(u, alphabet), _rows(v, alphabet)
    dominated: dict[tuple, bool] = {}
    directions = ((u, u_rows, v_rows, "iiia/b"), (v, v_rows, u_rows, "iv-dual"))
    for side, rows, other_rows, tag in directions:
        fail = _condition_iii(side, rows, other_rows, alphabet, dominated)
        if fail is not None:
            return CheckResult(False, "%s: %s" % (tag, fail))
    return CheckResult(True)


def check_enriched_flad1(spec: IdentitySpec) -> CheckResult:
    """The four-condition classification over the monogenic left monoid."""
    return _check_enriched(spec, False)


def check_enriched_frad1(spec: IdentitySpec) -> CheckResult:
    """Right-signature identities, via the anti-isomorphism."""
    return _check_enriched(spec, True)


def _require_plain(t: T.Term) -> str:
    letters: list[str] = []
    todo = [t]
    while todo:
        node = todo.pop()
        while type(node) is Product:  # down the left spine
            todo.append(node.right)
            node = node.left
        if type(node) is Letter:
            letters.append(node.name)
        elif type(node) is not Identity:
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
    """Higher-rank left identities: equality of the two generator-images,
    compared by their codes (`eval_code`)."""
    assign = {x: generator(x, _LEFT) for x in spec.alphabet}
    if eval_code(spec.lhs, assign, _LEFT) == eval_code(spec.rhs, assign, _LEFT):
        return CheckResult(True)
    return CheckResult(False, "tree-inequality", dict(assign))


def fad1_witness_element(n: int) -> Element:
    """The separating element (a(a^n)*)^+ a of the two-sided witness family."""
    term = parse_term("(a(%s)^*)^+a" % ("a" * n))
    return eval_term(term, {"a": generator("a", Flavor.TWO_SIDED)}, Flavor.TWO_SIDED)


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

# Both falsifier caches are bounded.  _POOL_CACHE keeps the graded pools,
# per flavor the first _RANDOM_KEEP elements of the random phase, and per
# flavor and letter count the distinct assignments those make, listed as
# far as callers have read and no further than the kept elements go.
# _EVAL_CACHE maps each side, (printed term, flavor value, alphabet), to
# its codes at distinct assignments 0, 1, ...; it holds at most
# _EVAL_CACHE_LIMIT codes over all sides and drops the least recently
# used side first.
_RANDOM_KEEP = 4096
_EVAL_CACHE_LIMIT = 8192
_POOL_EDGES = 4


class _SideCodes(OrderedDict):
    """Side -> its codes by distinct assignment, least recently used first.

    `held` counts the codes of all sides; clear() resets it, so a cache
    cleared between runs goes on storing.
    """

    held = 0

    def clear(self) -> None:
        super().clear()
        self.held = 0

    def side(self, key: tuple) -> list[bytes]:
        """The codes of side key, now the most recently used."""
        codes = self.get(key)
        if codes is None:
            codes = self[key] = []
        else:
            self.move_to_end(key)
        return codes

    def append(self, codes: list[bytes], code: bytes) -> None:
        """Append code to codes, the most recently used side's list, if
        dropping the other sides makes room for it."""
        while self.held >= _EVAL_CACHE_LIMIT and len(self) > 1:
            self.held -= len(self.popitem(last=False)[1])
        if self.held < _EVAL_CACHE_LIMIT:
            codes.append(code)
            self.held += 1


_POOL_CACHE: dict[
    tuple, list[Element] | tuple[random.Random, list[Element]] | _Assignments
] = {}
_EVAL_CACHE = _SideCodes()


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
            els, _ = left_sphere(n)
            if flavor is Flavor.LEFT:
                pool.extend(els)
            else:
                pool.extend(reverse_element(e) for e in els)
    _POOL_CACHE[key] = pool
    return pool


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


class _Assignments:
    """The falsifier's distinct assignments for one flavor and letter count.

    The falsifier tries positions 0, 1, ...: the pool tuples lightest
    total first (the pool is small first, so small witnesses come first),
    then the random draws taken a letter count at a time.  Positions are
    listed as far as callers have read, and only while the draws are kept
    ones.  A position whose codes repeat an earlier one's cannot separate
    two sides that the earlier one did not, so only first occurrences are
    kept: distinct[d] holds the elements, in letter order, of the d-th and
    at[d] the position where it first appears.
    """

    def __init__(self, flavor: Flavor, letters: int):
        pool = monogenic_pool(flavor)
        kept = islice(_random_draws(flavor), _RANDOM_KEEP)
        self.flavor = flavor
        self.pooled = len(pool) ** letters
        self.listed = 0
        self.distinct: list[tuple[Element, ...]] = []
        self.at: list[int] = []
        self._seen: set[tuple[bytes, ...]] = set()
        self._letters = letters
        self._source = chain(
            (
                tuple([pool[j] for j in combo])
                for combo in _by_total_weight([e.edge_count for e in pool], letters)
            ),
            zip(*[kept] * letters),
        )

    def before(self, budget: int) -> int:
        """List positions below budget as far as kept elements go; how
        many distinct assignments the listed positions below budget hold."""
        for elements in islice(self._source, max(budget - self.listed, 0)):
            codes = tuple([e.code for e in elements])
            if codes not in self._seen:
                self._seen.add(codes)
                self.distinct.append(elements)
                self.at.append(self.listed)
            self.listed += 1
        return bisect_left(self.at, budget)

    def past(self, budget: int) -> Iterator[tuple[Element, ...]]:
        """The elements at the positions past the listing and below budget."""
        if budget > self.listed:
            start = (self.listed - self.pooled) * self._letters
            draws = islice(_random_draws(self.flavor), start, None)
            yield from islice(zip(*[draws] * self._letters), budget - self.listed)


def _assignments(flavor: Flavor, letters: int) -> _Assignments:
    key = ("assignments", flavor, letters)
    if key not in _POOL_CACHE:
        _POOL_CACHE[key] = _Assignments(flavor, letters)
    return _POOL_CACHE[key]


def _cached_eval(
    t: T.Term, side: tuple[str, str, tuple[str, ...]], d: int, seq: _Assignments
) -> bytes:
    """The code of t's value, t the term printed in side, at
    seq.distinct[d]: read from side's codes if they reach d, else
    evaluated by `eval_code`, and appended to them if they end at d."""
    codes = _EVAL_CACHE.side(side)
    if d < len(codes):
        return codes[d]
    code = eval_code(t, dict(zip(side[2], seq.distinct[d])), seq.flavor)
    if d == len(codes):
        _EVAL_CACHE.append(codes, code)
    return code


def _printed_sides(spec: IdentitySpec) -> tuple[str, str]:
    """Both sides printed by `term_to_str`, stored on the spec at the
    first call: most specs are decided without being falsified."""
    if spec._printed is None:
        object.__setattr__(spec, "_printed", (term_to_str(spec.lhs), term_to_str(spec.rhs)))
    return spec._printed


def falsify_by_substitution(
    spec: IdentitySpec, flavor: Flavor, budget: int = 2000
) -> dict[str, Element] | None:
    """Search assignments for one separating the two sides.

    Systematic sweep over tuples from the graded small-element pool
    first, then random larger elements until the budget runs out.  A
    budget below 1 raises ValueError: trying nothing is not "not falsified".
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    letters = spec.alphabet
    if not letters:
        # every assignment is the empty one
        budget = 1
    printed_lhs, printed_rhs = _printed_sides(spec)
    lhs_side = (printed_lhs, flavor.value, letters)
    rhs_side = (printed_rhs, flavor.value, letters)
    if lhs_side == rhs_side:
        # one term on both sides has one value at every assignment
        return None
    seq = _assignments(flavor, len(letters))
    n = seq.before(budget)
    # the assignments both sides already know are compared at once
    lc = _EVAL_CACHE.side(lhs_side)
    rc = _EVAL_CACHE.side(rhs_side)
    k = min(len(lc), len(rc), n)
    if lc[:k] != rc[:k]:
        d = next(d for d in range(k) if lc[d] != rc[d])
        return dict(zip(letters, seq.distinct[d]))
    for d in range(k, n):
        lhs = _cached_eval(spec.lhs, lhs_side, d, seq)
        if lhs != _cached_eval(spec.rhs, rhs_side, d, seq):
            return dict(zip(letters, seq.distinct[d]))
    for elements in seq.past(budget):
        assignment = dict(zip(letters, elements))
        if eval_code(spec.lhs, assignment, flavor) != eval_code(spec.rhs, assignment, flavor):
            return assignment
    return None
