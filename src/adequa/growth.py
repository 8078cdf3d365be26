"""Partition arithmetic, sphere enumeration, and zig-zag counting.

The module reproduces the counting results for monogenic free adequate
monoids: left sphere sizes against the partition function, the trunk and
first-branch refinements, the two-sided sphere table, and the ballot
count of retract-free zig-zag idempotents.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .algebra import Element, Flavor
from .retract import is_retract_free
from .trees import XTree, _with_end, canonical_code, validate

GENERIC_LEFT_BOUND = 12
LEFT_SPHERE_BOUND = 30
TWO_SIDED_BOUND = 8
ZIGZAG_BOUND = 18
PARTITION_BOUND = 600


def _check_size(n: int, bound: int, what: str) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > bound:
        raise ValueError("n=%d exceeds the %s bound %d" % (n, what, bound))


# P_ROWS[n][k] counts the partitions of n into exactly k parts, Q_ROWS[n][k]
# those into k distinct parts.  Each table grows from its own rows on
# demand, up to PARTITION_BOUND; a negative control may swap in a corrupted
# table, since P and Q read these names at call time.
P_ROWS: list[list[int]] = [[1]]
Q_ROWS: list[list[int]] = [[1]]


def _partitions(rows: list[list[int]], n: int, k: int | None, distinct: bool) -> int:
    """Entry (n, k) of a partition table, or the sum of row n when k is
    None.  The table first grows to row n by the recurrence
    P(m,j) = P(m-1,j-1) + P(m-j,j), or Q(m,j) = Q(m-j,j-1) + Q(m-j,j)."""
    if n < 0:
        return 0
    _check_size(n, PARTITION_BOUND, "partition")
    while len(rows) <= n:
        m = len(rows)
        # P(m-j,j) and Q(m-j,j) vanish once j > m - j, Q(m-j,j-1) once
        # j - 1 > m - j
        if distinct:
            row = [0] + [rows[m - j][j - 1] for j in range(1, (m + 1) // 2 + 1)]
            row += [0] * (m + 1 - len(row))
        else:
            row = [0] + rows[m - 1]
        for j in range(1, m // 2 + 1):
            row[j] += rows[m - j][j]
        rows.append(row)
    if k is None:
        return sum(rows[n])
    return rows[n][k] if 0 <= k <= n else 0


def P(n: int, k: int | None = None) -> int:
    """P(n), or P(n,k): the partitions of n into exactly k parts."""
    return _partitions(P_ROWS, n, k, False)


def Q(n: int, k: int | None = None) -> int:
    """Q(n), or Q(n,k): the partitions of n into exactly k distinct parts."""
    return _partitions(Q_ROWS, n, k, True)


def partitions_into_distinct_parts(n: int, k: int):
    """All partitions of n into exactly k distinct positive parts, descending."""

    def rec(n: int, k: int, cap: int):
        if k == 0:
            if n == 0:
                yield ()
            return
        # largest part first; remaining k-1 distinct parts below it
        lo = (k * (k + 1)) // 2
        if n < lo:
            return
        for first in range(min(n - lo + k, cap), k - 1, -1):
            for rest in rec(n - first, k - 1, first - 1):
                yield (first,) + rest

    return rec(n, k, n)


# ---------------------------------------------------------------- censuses


@dataclass
class CensusRow:
    n: int
    total: int
    by_trunk: dict[int, int]
    by_trunk_and_first_branch: dict[tuple[int, int], int]
    idempotent_count: int


def _first_branch_index(t: XTree) -> int | None:
    """Smallest trunk index (from the start) carrying a non-trunk out-edge."""
    trunk = validate(t)
    index = {v: i for i, v in enumerate(trunk.vertices)}
    anchors = [a for v, a in enumerate(trunk.parent) if trunk.forward[v] and v not in index]
    return min((index[a] for a in anchors if a in index), default=None)


def _census(n: int, rows) -> CensusRow:
    """The census of n-edge trees from (trunk length, first branch) pairs."""
    rows = list(rows)
    by_trunk = dict(Counter(k for k, _ in rows))
    by_kl = dict(Counter(kl for kl in rows if kl[1] is not None))
    return CensusRow(n, len(rows), by_trunk, by_kl, by_trunk.get(0, 0))


def census_from_trees(n: int, trees: list[XTree]) -> CensusRow:
    """The census read from the trees themselves, each validated."""
    return _census(n, ((validate(t).length, _first_branch_index(t)) for t in trees))


# -------------------------------------------------- structural left sphere


def structural_left_trees(n: int) -> list[XTree]:
    """All retract-free left a-trees with n edges, built directly."""
    return [t for _, _, t in _left_rows(n)]


def left_census(n: int) -> CensusRow:
    """The structural left sphere's census, read from its construction."""
    return _census(n, ((k, l) for k, l, _ in _left_rows(n)))


def _left_rows(n: int):
    """Each structural left tree with n edges as (k, l, tree).

    For trunk length k, a tree is determined by the set Y of distances
    from the end carrying a branch and, per branch, its excess length
    over that distance; retract-freeness forces the excesses to be
    distinct, positive, and increasing with the distance.  Only the sets
    Y that leave room for r distinct positive excesses are visited, so
    the work grows with the output.  The first branch hangs off trunk
    vertex l = k - max(Y), and l is None when Y is empty.
    """
    _check_size(n, LEFT_SPHERE_BOUND, "left sphere")
    for k in range(n + 1):
        budget = n - k
        for r in range(0, k + 2):
            # r branch positions among distances {0..k}; the excesses
            # need at least 1 + 2 + ... + r edges
            cap = budget - r * (r + 1) // 2
            for Y in _capped_subsets(k + 1, r, cap):
                l = k - Y[-1] if Y else None
                for tau in partitions_into_distinct_parts(budget - sum(Y), r):
                    # tau descending; match to Y descending
                    lengths = {y: y + tau[j] for j, y in enumerate(reversed(Y))}
                    yield k, l, _build_left_tree(k, lengths)


def _capped_subsets(m: int, r: int, cap: int, lo: int = 0):
    """The r-subsets of range(lo, m) with sum at most cap.

    In itertools.combinations order; a branch stops once its smallest
    completion, first + (first+1) + ... + (first+r-1), exceeds the cap.
    """
    if r == 0:
        yield ()
        return
    for first in range(lo, m - r + 1):
        if first * r + r * (r - 1) // 2 > cap:
            return
        for rest in _capped_subsets(m, r - 1, cap - first, first + 1):
            yield (first,) + rest


def _build_left_tree(k: int, branch_by_distance: dict[int, int]) -> XTree:
    # trunk vertices 0..k (start 0, end k), branch paths hang off v_{k-d}
    edges = [(i, i + 1, "a") for i in range(k)]
    nv = k + 1
    for d, length in sorted(branch_by_distance.items()):
        at = k - d
        prev = at
        for _ in range(length):
            edges.append((prev, nv, "a"))
            prev = nv
            nv += 1
    return XTree(nv, tuple(edges), 0, k)


def left_sphere(n: int) -> tuple[list[Element], CensusRow]:
    """The structural left sphere as elements in code order, with its census."""
    rows = list(_left_rows(n))
    coded = sorted(((canonical_code(t), t) for _, _, t in rows), key=lambda ct: ct[0])
    elements = [Element(t, code, Flavor.LEFT) for code, t in coded]
    return elements, _census(n, ((k, l) for k, l, _ in rows))


# ----------------------------------------------------- generic enumeration


def rooted_tree_level_sequences(n_vertices: int):
    """Level sequences of all unlabeled rooted trees on n_vertices vertices."""
    if n_vertices <= 0:
        return
    if n_vertices == 1:
        yield [0]
        return
    L = list(range(n_vertices))
    yield L[:]
    while True:
        p = -1
        for i in range(n_vertices - 1, -1, -1):
            if L[i] > 1:
                p = i
                break
        if p < 0:
            return
        q = p - 1
        while L[q] != L[p] - 1:
            q -= 1
        for i in range(p, n_vertices):
            L[i] = L[i - (p - q)]
        yield L[:]


def _level_sequence_to_edges(L: list[int]) -> list[tuple[int, int, str]]:
    edges = []
    stack = [0]
    for i in range(1, len(L)):
        while len(stack) > L[i]:
            stack.pop()
        edges.append((stack[-1], i, "a"))
        stack.append(i)
    return edges


def _twin_free_masks(L: list[int], all_masks: bool) -> list[tuple[int, int]]:
    """The orientations of shape L with at most one twin leaf, ascending,
    each with its twin leaf (-1 for none).

    Bit i of a mask points edge i of `_level_sequence_to_edges(L)`, which
    joins vertex i + 1 to its parent, towards the root; without all_masks
    only mask 0, every edge away from the root, is tried.

    A twin leaf is a leaf v, not the start (vertex 0), whose edge to its
    neighbour u has a twin at u: another edge with the same label and the
    same direction seen from u; let w be its far endpoint.  If v is not
    the end either, the map sending v to w and fixing every other vertex
    carries v's edge onto the twin edge and every other edge onto itself,
    so it is an endomorphism; it fixes both roots, m(m(v)) = m(w) = w
    makes it idempotent, and it moves v.  A tree with a twin leaf other
    than its end is therefore not retract-free (Hell & Nesetril, "The
    core of a graph", 1992: it retracts onto the tree without v), and one
    with two twin leaves is retract-free for no end.

    Every edge is labelled a, so whether a leaf child of u is a twin
    depends on the directions of u's edges alone.  The vertices are
    visited parents first, choosing the directions of each one's child
    edges once the edge to its own parent is fixed, and a choice is
    dropped as soon as it makes a second twin leaf.
    """
    children: list[list[int]] = [[] for _ in L]
    for a, b, _ in _level_sequence_to_edges(L):
        children[a].append(b)
    states = [(0, -1)]  # (the mask so far, its twin leaf)
    for u, kids in enumerate(children):
        if not kids:
            continue
        # For each direction of the edge from u's parent (u's bit set:
        # out of u), the child flips (bit j: kids[j]'s edge into u) that
        # leave at most one twin leaf among u's children.
        choices: list[list[tuple[int, int]]] = [[], []]
        for up_out in (0, 1) if u else (0,):
            for flips in range(1 << len(kids)) if all_masks else (0,):
                # u's edges in each direction, the one to its parent included
                into = flips.bit_count() + (u > 0 and not up_out)
                out = len(kids) + (u > 0) - into
                bits, twins = 0, []
                for j, c in enumerate(kids):
                    flipped = (flips >> j) & 1
                    bits |= flipped << (c - 1)
                    if not children[c] and (into if flipped else out) > 1:
                        twins.append(c)
                if len(twins) < 2:
                    choices[up_out].append((bits, twins[0] if twins else -1))
        states = [
            (mask | bits, max(twin, more))
            for mask, twin in states
            for bits, more in choices[u > 0 and (mask >> (u - 1)) & 1]
            if twin < 0 or more < 0
        ]
    states.sort()
    return states


def _oriented_ends(base: list[tuple[int, int, str]], mask: int, twin: int = -1):
    """The shape with edge i, which joins vertex i + 1 to its parent,
    reversed where bit i of mask is set, started at vertex 0, at each end
    the start reaches, ascending, or at `twin` alone if twin >= 0.  The
    tree is built and validated once, if some end is left."""
    reach = [True]
    for i, (a, _, _) in enumerate(base):
        reach.append(reach[a] and not (mask >> i) & 1)
    ends = [v for v, r in enumerate(reach) if r and twin in (-1, v)]
    if ends:
        edges = [(e[1], e[0], e[2]) if (mask >> i) & 1 else e for i, e in enumerate(base)]
        t = XTree(len(reach), edges, 0, 0)
        yield from (_with_end(t, end) for end in ends)


def oriented_trees(n: int):
    """Every a-tree with n edges, rooted at vertex 0, in raw form.

    Each shape in level-sequence order, each of its 2**n edge
    orientations, each end a directed path from the start reaches, in
    ascending order, sharing one rooting; isomorphic trees recur.
    """
    for L in rooted_tree_level_sequences(n + 1):
        base = _level_sequence_to_edges(L)
        for mask in range(1 << n):
            yield from _oriented_ends(base, mask)


def _free_classes(n: int, all_masks: bool) -> list[tuple[bytes, XTree]]:
    """The retract-free trees among the orientations, one per isomorphism
    class: the first in oriented_trees order, ascending by code.

    Only the orientations `_twin_free_masks` yields are built, in
    ascending order, so the first tree of each class is the one the
    unpruned order meets first.  An orientation with a twin leaf tries
    only that leaf as its end, since the start is vertex 0 whatever the
    end; one without tries every end.  Each orientation with an end to
    try is validated once, and its ends share that rooting.
    """
    free: dict[bytes, XTree] = {}
    for L in rooted_tree_level_sequences(n + 1):
        base = _level_sequence_to_edges(L)
        for mask, twin in _twin_free_masks(L, all_masks):
            for u in _oriented_ends(base, mask, twin):
                if is_retract_free(u):
                    free.setdefault(canonical_code(u), u)
    return sorted(free.items(), key=lambda ct: ct[0])


def generic_left_trees(n: int) -> list[XTree]:
    """All retract-free left a-trees with n edges, by exhaustive search:
    every shape with its edges pointing away from the start."""
    _check_size(n, GENERIC_LEFT_BOUND, "generic left")
    return [t for _, t in _free_classes(n, False)]


def two_sided_sphere(n: int) -> tuple[list[Element], CensusRow]:
    """All retract-free a-trees with n edges: shapes x orientations x ends."""
    _check_size(n, TWO_SIDED_BOUND, "two-sided")
    elements = [Element(t, c, Flavor.TWO_SIDED) for c, t in _free_classes(n, True)]
    return elements, census_from_trees(n, [e.tree for e in elements])


# ------------------------------------------------------------------ zig-zags


@dataclass(frozen=True)
class ZigZag:
    """A non-branching idempotent a-tree as an orientation word.

    away[i] is True when the i-th path edge (counted from the common
    start/end extremity) points away from the start.
    """

    away: tuple[bool, ...]

    @property
    def edges(self) -> int:
        return len(self.away)

    @property
    def height(self) -> int:
        return sum(self.away)


def zigzag_tree(z: ZigZag) -> XTree:
    n = z.edges
    edges = tuple(
        (i, i + 1, "a") if z.away[i] else (i + 1, i, "a") for i in range(n)
    )
    return XTree(n + 1, edges, 0, 0)


def p_zigzag(n: int, i: int) -> ZigZag:
    """The minimal member of Z(n,i)."""
    if not (0 <= i < n / 2):
        raise ValueError("need 0 <= i < n/2")
    word = [False] * (n - 2 * i - 1)
    for j in range(2 * i):
        word.append(j % 2 == 0)
    word.append(False)
    return ZigZag(tuple(word))


def zigzag_ge(t: ZigZag, s: ZigZag) -> bool:
    """Prefix dominance of away-counts."""
    if t.edges != s.edges:
        raise ValueError("length mismatch")
    ct = cs = 0
    for at, as_ in zip(t.away, s.away):
        ct += at
        cs += as_
        if ct < cs:
            return False
    return True


def zigzag_census(n: int) -> dict[int, dict]:
    """Per height i: the total count C(n,i) and the Z(n,i) members."""
    if not (1 <= n <= ZIGZAG_BOUND):
        raise ValueError("n=%d outside 1..%d" % (n, ZIGZAG_BOUND))
    out: dict[int, dict] = {}
    max_i = (n - 1) // 2
    for i in range(max_i + 1):
        least = p_zigzag(n, i)
        members = []
        for positions in combinations(range(n), i):
            away = [False] * n
            for p in positions:
                away[p] = True
            z = ZigZag(tuple(away))
            if zigzag_ge(z, least):
                members.append(z)
        out[i] = {
            "all_count": math.comb(n, i),
            "Z_count": len(members),
            "members": members,
        }
    return out


# --------------------------------------------------- identity checks


def sums_with_t_check(m: int, r: int, t: int) -> bool:
    """Both sides of the subset-sum partition identity, compared exactly."""
    if m < 1 or r < 1 or t < 1:
        raise ValueError("m, r, t must be >= 1")

    def side(rr: int, mm: int, tt: int) -> int:
        # sum over Y subset of [rr] = {0..rr}; [-1] = empty set
        total = 0
        idx = list(range(rr + 1)) if rr >= 0 else []
        for size in range(len(idx) + 1):
            for Y in combinations(idx, size):
                total += Q(mm - sum(Y), size + tt)
        return total

    lhs = side(r - 1, m, t)
    rhs = side(r - 2, m + t + 1, t + 1)
    return lhs == rhs


def hardy_ramanujan_estimate(n: int) -> float:
    """The classical asymptotic for the partition function P(n)."""
    if n <= 0:
        return 1.0
    return math.exp(math.pi * math.sqrt(2 * n / 3)) / (4 * n * math.sqrt(3))


PUBLISHED_TABLE_S = [1, 3, 6, 14, 29, 74]
PUBLISHED_TABLE_SE = [1, 2, 3, 6, 11, 28]


def growth_report(n_max: int, rank: int = 1, two_sided_max: int = 5) -> dict:
    """Exact counts next to the reported growth estimates and bounds."""
    _check_size(n_max, LEFT_SPHERE_BOUND, "left sphere")  # before any row is built
    rows = []
    for n in range(n_max + 1):
        census = left_census(n)
        binom = math.comb(n - 1, (n - 1) // 2) if n >= 1 else 1
        row = {
            "n": n,
            "left_sphere": census.total,
            "partition_value": P(n + 1),
            "hardy_ramanujan_estimate": hardy_ramanujan_estimate(n + 1),
            "idempotent_binomial_bound": binom,
        }
        if n <= two_sided_max:
            _, tcensus = two_sided_sphere(n)
            row["two_sided_sphere"] = tcensus.total
            row["two_sided_idempotents"] = tcensus.idempotent_count
            row["verified_by_published_table"] = n < len(PUBLISHED_TABLE_S)
            if row["two_sided_idempotents"] < binom:
                raise RuntimeError(
                    "idempotent count below the binomial bound at n=%d" % n
                )
        rows.append(row)
    report = {
        "rank": rank,
        "growth_rate_lower_bound_base": 2 * rank,
        "rows": rows,
    }
    if rank >= 2:
        for row in rows:
            n = row["n"]
            row["rank_idempotent_lower_bound"] = (
                rank**n * row["idempotent_binomial_bound"]
            )
    return report
