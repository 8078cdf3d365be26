"""Partition arithmetic, sphere enumeration, and zig-zag counting.

The module reproduces the counting results for monogenic free adequate
monoids: left sphere sizes against the partition function, the trunk and
first-branch refinements, the two-sided sphere table, and the ballot
count of retract-free zig-zag idempotents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .algebra import Element, Flavor
from .retract import is_retract_free
from .trees import XTree, canonical_code, directed_walk, validate

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
    trunk_next = {a: b for a, b, _ in trunk.edges}
    children, _ = directed_walk(t)
    for i, v in enumerate(trunk.vertices):
        nxt = trunk_next.get(v)
        if any(w != nxt for w in children[v]):
            return i
    return None


def census_from_trees(n: int, trees: list[XTree]) -> CensusRow:
    by_trunk: dict[int, int] = {}
    by_kl: dict[tuple[int, int], int] = {}
    idem = 0
    for t in trees:
        k = validate(t).length
        by_trunk[k] = by_trunk.get(k, 0) + 1
        if k == 0:
            idem += 1
        l = _first_branch_index(t)
        if l is not None:
            by_kl[(k, l)] = by_kl.get((k, l), 0) + 1
    return CensusRow(n, len(trees), by_trunk, by_kl, idem)


# -------------------------------------------------- structural left sphere


def structural_left_trees(n: int) -> list[XTree]:
    """All retract-free left a-trees with n edges, built directly.

    For trunk length k, a tree is determined by the set Y of distances
    from the end carrying a branch and, per branch, its excess length
    over that distance; retract-freeness forces the excesses to be
    distinct, positive, and increasing with the distance.  Only the sets
    Y that leave room for r distinct positive excesses are visited, so
    the work grows with the output.
    """
    _check_size(n, LEFT_SPHERE_BOUND, "left sphere")
    out: list[XTree] = []
    for k in range(n + 1):
        budget = n - k
        for r in range(0, k + 2):
            # r branch positions among distances {0..k}; the excesses
            # need at least 1 + 2 + ... + r edges
            cap = budget - r * (r + 1) // 2
            for Y in _capped_subsets(k + 1, r, cap):
                for tau in partitions_into_distinct_parts(budget - sum(Y), r):
                    # tau descending; match to Y descending
                    lengths = {y: y + tau[j] for j, y in enumerate(reversed(Y))}
                    out.append(_build_left_tree(k, lengths))
    return out


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


def generic_left_trees(n: int) -> list[XTree]:
    """All retract-free left a-trees with n edges, by exhaustive search."""
    _check_size(n, GENERIC_LEFT_BOUND, "generic left")
    seen: dict[bytes, XTree] = {}
    for L in rooted_tree_level_sequences(n + 1):
        edges = tuple(_level_sequence_to_edges(L))
        for end in range(n + 1):
            t = XTree(n + 1, edges, 0, end)
            if not is_retract_free(t):
                continue
            code = canonical_code(t)
            if code not in seen:
                seen[code] = t
    return [seen[c] for c in sorted(seen)]


def left_sphere(n: int, strategy: str = "structural") -> tuple[list[Element], CensusRow]:
    if strategy == "structural":
        trees = structural_left_trees(n)
    elif strategy == "generic":
        trees = generic_left_trees(n)
    else:
        raise ValueError("unknown strategy: %r" % strategy)
    coded = sorted(((canonical_code(t), t) for t in trees), key=lambda ct: ct[0])
    elements = [Element(t, code, Flavor.LEFT) for code, t in coded]
    return elements, census_from_trees(n, [t for _, t in coded])


def oriented_trees(n: int):
    """Every a-tree with n edges, rooted at vertex 0, in raw form.

    Each shape in level-sequence order, each of its 2**n edge
    orientations, each end a directed path from the start reaches, in
    ascending order; isomorphic trees recur.
    """
    for L in rooted_tree_level_sequences(n + 1):
        base = _level_sequence_to_edges(L)
        for mask in range(1 << n):
            edges = tuple(
                (b, a, lab) if (mask >> i) & 1 else (a, b, lab)
                for i, (a, b, lab) in enumerate(base)
            )
            t = XTree(n + 1, edges, 0, 0)
            for end in sorted(directed_walk(t)[1]):
                yield t if end == 0 else XTree(n + 1, t.edges, 0, end)


def two_sided_sphere(n: int) -> tuple[list[Element], CensusRow]:
    """All retract-free a-trees with n edges: shapes x orientations x ends."""
    _check_size(n, TWO_SIDED_BOUND, "two-sided")
    seen: set[bytes] = set()
    free: dict[bytes, XTree] = {}
    for t in oriented_trees(n):
        code = canonical_code(t)
        if code in seen:
            continue
        seen.add(code)
        if is_retract_free(t, engine="generic"):
            free[code] = t
    elements = [Element(free[c], c, Flavor.TWO_SIDED) for c in sorted(free)]
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


def in_Z(z: ZigZag, i: int) -> bool:
    n = z.edges
    if i >= n / 2 or z.height != i:
        return False
    return zigzag_ge(z, p_zigzag(n, i))


def zigzag_census(n: int) -> dict[int, dict]:
    """Per height i: the total count C(n,i) and the Z(n,i) members."""
    if not (1 <= n <= ZIGZAG_BOUND):
        raise ValueError("n=%d outside 1..%d" % (n, ZIGZAG_BOUND))
    out: dict[int, dict] = {}
    max_i = (n - 1) // 2
    for i in range(max_i + 1):
        members = []
        for positions in combinations(range(n), i):
            away = [False] * n
            for p in positions:
                away[p] = True
            z = ZigZag(tuple(away))
            if in_Z(z, i):
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
    rows = []
    for n in range(n_max + 1):
        _, census = left_sphere(n, strategy="structural")
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
