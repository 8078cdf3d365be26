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
from .trees import XTree, _rooted_tree, _sorted_tree, _with_end, canonical_code, validate

GENERIC_LEFT_BOUND = 12
LEFT_SPHERE_BOUND = 30
TWO_SIDED_BOUND = 12
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
# DISTINCT_PARTS[m][r] lists the partitions of m into r distinct parts, in
# the order of `partitions_into_distinct_parts`, each with its parts
# ascending.  The structural left sphere reads it; it grows on demand, up
# to LEFT_SPHERE_BOUND, and is never rebuilt.
DISTINCT_PARTS: list[list[list[tuple[int, ...]]]] = []


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
    """All partitions of n into exactly k distinct positive parts, descending;
    none when k is negative."""

    def rec(n: int, k: int, cap: int):
        if k <= 0:
            if k == 0 and n == 0:
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
    """The census of n-edge trees from (trunk length, first branch) pairs;
    a first branch of None is not counted."""
    rows = list(rows)
    by_trunk = dict(Counter(k for k, _ in rows))
    by_kl = dict(Counter(kl for kl in rows if kl[1] is not None))
    return CensusRow(n, len(rows), by_trunk, by_kl, by_trunk.get(0, 0))


def _coded(trees) -> list[tuple[bytes, XTree]]:
    """The trees with their codes, in code order."""
    return sorted(((canonical_code(t), t) for t in trees), key=lambda ct: ct[0])


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
    the work grows with the output, and the excesses are read from
    `DISTINCT_PARTS`.  The first branch hangs off trunk vertex
    l = k - max(Y), and l is None when Y is empty.  Trunk vertices are
    0..k, start 0 and end k; the branches follow, by ascending distance,
    each a path numbered away from its trunk vertex.  Each edge list is
    sorted once, and the tree carries no rooting.
    """
    _check_size(n, LEFT_SPHERE_BOUND, "left sphere")
    while len(DISTINCT_PARTS) <= n:
        m = len(DISTINCT_PARTS)
        DISTINCT_PARTS.append(
            [[p[::-1] for p in partitions_into_distinct_parts(m, r)] for r in range(m + 1)]
        )
    chain = [(v, v + 1, "a") for v in range(n)]  # the a-path 0 -> ... -> n
    for k in range(n + 1):
        budget = n - k
        for r in range(0, k + 2):
            # r branch positions among distances {0..k}; the excesses
            # need at least 1 + 2 + ... + r edges
            cap = budget - r * (r + 1) // 2
            if cap < 0:
                break
            for Y in _capped_subsets(k + 1, r, cap):
                l = k - Y[-1] if Y else None
                for tau in DISTINCT_PARTS[budget - sum(Y)][r]:
                    # Y and tau both ascending: the excesses grow with
                    # the distance
                    edges = chain[:k]
                    nv = k + 1
                    for y, excess in zip(Y, tau):
                        edges.append((k - y, nv, "a"))
                        edges += chain[nv:nv + y + excess - 1]
                        nv += y + excess
                    edges.sort()
                    yield k, l, _sorted_tree(nv, tuple(edges), 0, k)


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


def left_sphere(n: int) -> tuple[list[Element], CensusRow]:
    """The structural left sphere as elements in code order, with its census."""
    rows = list(_left_rows(n))
    elements = [Element(t, code, Flavor.LEFT) for code, t in _coded(t for _, _, t in rows)]
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


def oriented_trees(n: int):
    """Every a-tree with n edges, rooted at vertex 0, in raw form.

    Each shape in level-sequence order, each of its 2**n edge
    orientations, each end a directed path from the start reaches, in
    ascending order, sharing one rooting; isomorphic trees recur.  Edge
    i of a shape joins vertex i + 1 to its parent, and bit i of the mask
    reverses it.
    """
    for L in rooted_tree_level_sequences(n + 1):
        base = _level_sequence_to_edges(L)
        for mask in range(1 << n):
            reach = [True]
            for i, (a, _, _) in enumerate(base):
                reach.append(reach[a] and not (mask >> i) & 1)
            edges = [(e[1], e[0], e[2]) if (mask >> i) & 1 else e for i, e in enumerate(base)]
            t = XTree(n + 1, edges, 0, 0)
            yield from (_with_end(t, end) for end, r in enumerate(reach) if r)


# ------------------------------------------------ spheres from rooted cores

# An edge kind is a direction with the label a: 0 when the edge points
# away from the root of its rooted subtree, 1 when it points towards it.
# The left sphere hangs only away edges; the two-sided sphere both.
_AWAY = (0,)
_BOTH = (0, 1)

# A rooted a-tree in canonical form is (shape, pattern).  shape is its
# level sequence with children in non-increasing order of their subtrees'
# sequences (Beyer & Hedetniemi, "Constant time generation of rooted
# trees", 1980), the one `rooted_tree_level_sequences` lists; bit v of
# pattern is set when the edge from vertex v to its parent points towards
# the root, and bit 0, the root's, is clear.  Children of equal shape come
# in descending order of their subtrees' patterns, their own edges' bits
# included, so pattern >> 1 is the least orientation mask over the
# numberings with that level sequence: the one `oriented_trees` meets
# first.  A block is a branch, the edge from a root to a child with the
# child's subtree, in canonical form numbered from the child, the edge's
# kind in bit 0.  A rooted core is (shape, pattern, blocks), its blocks in
# descending order; _EMPTY is the single vertex.
_EMPTY = ((0,), 0, ())

# _CORES[kinds][m] maps (shape, pattern) to each rooted core with m edges;
# _POSITIONS[kinds, up, down, m] the ones that a trunk with `up` edges
# before their root and `down` after it leaves retract-free.  Both grow
# on demand, up to the sphere bounds, and are never rebuilt.
_CORES: dict[tuple[int, ...], list[dict]] = {}
_POSITIONS: dict[tuple, dict] = {}


def _node(blocks) -> tuple[tuple[int, ...], int]:
    """The canonical form of a root with these blocks, in this order."""
    shape = [0]
    pattern = 0
    for s, p in blocks:
        pattern |= p << len(shape)
        shape.extend(x + 1 for x in s)
    return tuple(shape), pattern


def _attach(blocks, below):
    """The canonical form of a trunk vertex with its bundle's blocks and
    the subtree `below` it on the trunk (None at the end), with the offset
    of its trunk child.  The trunk child holds the end, so it precedes the
    blocks equal to it: that puts the end first among equal siblings."""
    if below is None:
        return _node(blocks), 0
    i = 0
    while i < len(blocks) and blocks[i] > below:
        i += 1
    blocks = blocks[:i] + (below,) + blocks[i:]
    return _node(blocks), 1 + sum(len(s) for s, _ in blocks[:i])


def _build(shape, pattern: int, end: int) -> XTree:
    """The a-tree started at vertex 0 and numbered by its level sequence,
    with the rooting `validate` would find: breadth-first, each vertex's
    children whose edge leaves it ascending, then those whose edge enters
    it, which is the order of their sorted edges.  The edges are made in
    vertex order and sorted once."""
    n = len(shape)
    parent, forward = [0] * n, [False] * n
    edges = []
    away: list[list[int]] = [[] for _ in shape]
    into: list[list[int]] = [[] for _ in shape]
    last = [0] * n  # last[d]: the last vertex met at level d
    for v in range(1, n):
        d = shape[v]
        last[d] = v
        p = parent[v] = last[d - 1]
        if pattern >> v & 1:
            edges.append((v, p, "a"))
            into[p].append(v)
        else:
            forward[v] = True
            edges.append((p, v, "a"))
            away[p].append(v)
    edges.sort()
    order = [0]
    for v in order:
        order += away[v]
        order += into[v]
    return _rooted_tree(n, tuple(edges), 0, end, parent, forward, [""] + ["a"] * (n - 1), order)


def _birooted(bundles) -> XTree:
    """The tree whose trunk vertex i carries rooted core bundles[i]."""
    below, end = None, 0
    for core in reversed(bundles):
        below, offset = _attach(core[2], below)
        end += offset
    return _build(*below, end)


def _rooted_cores(m: int, kinds: tuple[int, ...]) -> dict:
    """The rooted cores with m edges of these kinds, one per class.

    A rooted core is a set of distinct branches, each an edge kind with a
    rooted core below it: a retraction of a branch or of a subset of the
    branches, fixing the root, extends by the identity to the whole
    (Hell & Nesetril, "The core of a graph", 1992).  A single branch is a
    core exactly when the child's core, hung at the end of a one-edge
    trunk (away) or at its start (towards), is retract-free there, since
    a retraction fixing the root fixes its one neighbour; `_position`
    answers that.  A set of more branches is its largest branch added to
    a core of smaller ones, tried only when each set one smaller is a
    core, and kept when `is_retract_free` passes it with start and end at
    the root.
    """
    table = _CORES.setdefault(kinds, [{_EMPTY[:2]: _EMPTY}])
    while len(table) <= m:
        size = len(table)
        new = {}
        for kind, up, down in ((0, 1, 0), (1, 0, 1)):
            if kind in kinds:
                for s, p, _ in _position(up, down, size - 1, kinds).values():
                    blocks = ((s, p | kind),)
                    core = _node(blocks) + (blocks,)
                    new[core[:2]] = core
        for s in range(1, size):
            singles = [c[2][0] for c in table[s].values() if len(c[2]) == 1]
            for largest in singles:
                for base in table[size - s].values():
                    if base[2][0] >= largest:
                        continue
                    blocks = (largest,) + base[2]
                    core = _node(blocks) + (blocks,)
                    if all(rest in table[r] for rest, r in _one_branch_less(core)):
                        if is_retract_free(_birooted([core])):
                            new[core[:2]] = core
        table.append(new)
    return table[m]


def _position(up: int, down: int, m: int, kinds: tuple[int, ...]) -> dict:
    """The rooted cores with m edges that leave a trunk retract-free when
    hung at a vertex with `up` trunk edges before it and `down` after it.

    A retraction of the trunk with the core fixes the trunk and keeps the
    core within m edges of its root, so trunk edges further off change
    nothing: callers cap both distances at m.  A longer trunk only adds
    to what the core may fold onto, and so does a larger subset of its
    branches, so a core is tested only when it passes one edge less on
    either side and each set of its branches one smaller passes.
    """
    key = (kinds, up, down, m)
    got = _POSITIONS.get(key)
    if got is not None:
        return got
    if up == down == 0 or m == 0:
        got = _rooted_cores(m, kinds)
    else:
        nearer = [
            _position(u, d, m, kinds) for u, d in ((up - 1, down), (up, down - 1)) if min(u, d) >= 0
        ]
        got = {}
        for code, core in nearer[0].items():
            if all(code in table for table in nearer[1:]) and all(
                rest in _position(min(up, size), min(down, size), size, kinds)
                for rest, size in _one_branch_less(core)
            ):
                if is_retract_free(_birooted([_EMPTY] * up + [core] + [_EMPTY] * down)):
                    got[code] = core
    _POSITIONS[key] = got
    return got


def _one_branch_less(core):
    """Each set of the core's branches but one, with its size, when there
    are at least two."""
    blocks = core[2]
    if len(blocks) < 2:
        return
    m = len(core[0]) - 1
    for j, (s, _) in enumerate(blocks):
        yield _node(blocks[:j] + blocks[j + 1:]), m - len(s)


def _free_rows(n: int, kinds: tuple[int, ...]):
    """Each retract-free a-tree with n edges of these kinds off the trunk,
    once, as (k, tree), k its trunk length.

    A birooted tree is its trunk with one rooted core hanging at each
    trunk vertex, and the class fixes the trunk and each core, so each
    class is built once.  The cores are chosen from the end to the start,
    each from the `_position` table of its place, and the canonical form
    grows with them.  The whole tree is tested only when two or more
    cores are not empty; with one, its place's table has decided.
    The tree is the first of its class in `oriented_trees` order: the
    canonical numbering with its least orientation mask, the end put
    first among equal siblings.
    """

    def hang(i, budget, below, end, filled):
        for m in range(budget + 1) if i else (budget,):
            if i and budget - m not in fits[i - 1]:
                continue
            more = filled + (m > 0)
            for blocks in places[i][m]:
                node, offset = _attach(blocks, below)
                if i:
                    yield from hang(i - 1, budget - m, node, end + offset, more)
                else:
                    t = _build(*node, end + offset)
                    if more < 2 or is_retract_free(t):
                        yield k, t

    for k in range(n + 1):
        budget = n - k
        # places[i][m]: the blocks of each core with m edges that trunk
        # vertex i may carry; fits[i]: the edge counts vertices 0..i can
        # carry between them
        places = [
            [
                [core[2] for core in _position(min(i, m), min(k - i, m), m, kinds).values()]
                for m in range(budget + 1)
            ]
            for i in range(k + 1)
        ]
        fits = [{m for m, cores in enumerate(places[0]) if cores}]
        for place in places[1:]:
            fits.append({b + m for b in fits[-1] for m in range(budget + 1 - b) if place[m]})
        if budget in fits[k]:
            yield from hang(k, budget, None, 0, 0)


def generic_left_trees(n: int) -> list[XTree]:
    """All retract-free left a-trees with n edges, in code order, from the
    rooted cores of away edges (bare paths) on every trunk."""
    _check_size(n, GENERIC_LEFT_BOUND, "generic left")
    return [t for _, t in _coded(t for _, t in _free_rows(n, _AWAY))]


def two_sided_sphere(n: int) -> tuple[list[Element], CensusRow]:
    """All retract-free a-trees with n edges in code order, with their
    census, from the rooted cores on every trunk.  The census counts
    trunk lengths only: its first-branch refinement is empty."""
    _check_size(n, TWO_SIDED_BOUND, "two-sided")
    rows = list(_free_rows(n, _BOTH))
    elements = [Element(t, c, Flavor.TWO_SIDED) for c, t in _coded(t for _, t in rows)]
    return elements, _census(n, ((k, None) for k, _ in rows))


def two_sided_census(n: int) -> CensusRow:
    """The two-sided sphere's census, as `two_sided_sphere` gives it,
    counted as the generator builds each tree: no tree is coded, sorted
    or kept."""
    _check_size(n, TWO_SIDED_BOUND, "two-sided")
    return _census(n, ((k, None) for k, _ in _free_rows(n, _BOTH)))


# ------------------------------------------------------------------ zig-zags


def zigzag_tree(z: tuple[bool, ...]) -> XTree:
    """The zig-zag with orientation word z: a non-branching idempotent
    a-tree whose i-th path edge, counted from the common start/end
    extremity, points away from the start when z[i] is True.  The
    height of z is sum(z).  The path is built rooted at its start:
    vertex i + 1 hangs off vertex i, in breadth-first order.  The i-th
    edge joins vertices i and i + 1, so the edges come in sorted order."""
    n = len(z) + 1
    edges = [(i, i + 1, "a") if away else (i + 1, i, "a") for i, away in enumerate(z)]
    parent, forward = [0, *range(n - 1)], [False, *map(bool, z)]
    return _rooted_tree(n, tuple(edges), 0, 0, parent, forward, [""] + ["a"] * len(z), list(range(n)))


def p_zigzag(n: int, i: int) -> tuple[bool, ...]:
    """The minimal member of Z(n,i)."""
    if not (0 <= i < n / 2):
        raise ValueError("need 0 <= i < n/2")
    word = [False] * (n - 2 * i - 1)
    for j in range(2 * i):
        word.append(j % 2 == 0)
    word.append(False)
    return tuple(word)


def zigzag_census(n: int) -> dict[int, dict]:
    """Per height i: the total count C(n,i) and the Z(n,i) members.

    A word with i away steps is a member when its away-counts dominate
    those of p_zigzag(n, i) on every prefix, that is when its k-th away
    step comes no later than the k-th away step of p_zigzag(n, i), for
    every k.  The members are listed directly, in itertools.combinations
    order of their away positions: each position is chosen in turn,
    ascending, up to its cap.  The caps grow by 2 from step to step, so
    every choice extends to a member, and the work grows with Z(n,i),
    not with C(n,i).
    """
    if not (1 <= n <= ZIGZAG_BOUND):
        raise ValueError("n=%d outside 1..%d" % (n, ZIGZAG_BOUND))
    out: dict[int, dict] = {}
    max_i = (n - 1) // 2
    for i in range(max_i + 1):
        caps = [j for j, away in enumerate(p_zigzag(n, i)) if away]
        # each prefix as (the first position still open, the word before it)
        words = [(0, ())]
        for cap in caps:
            words = [
                (p + 1, w + (False,) * (p - lo) + (True,))
                for lo, w in words
                for p in range(lo, cap + 1)
            ]
        members = [w + (False,) * (n - lo) for lo, w in words]
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


class ReportCheckError(RuntimeError):
    """A count of the growth report contradicts a published value or bound."""


def growth_report(n_max: int, rank: int = 1, two_sided_max: int = 5) -> dict:
    """Exact counts next to the reported growth estimates and bounds;
    ReportCheckError when a two-sided count misses its published value
    or the binomial bound."""
    # both bounds before any row is built
    _check_size(n_max, LEFT_SPHERE_BOUND, "left sphere")
    _check_size(max(min(n_max, two_sided_max), 0), TWO_SIDED_BOUND, "two-sided")
    if rank < 1:
        raise ValueError("rank must be at least 1")
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
            tcensus = two_sided_census(n)
            row["two_sided_sphere"] = tcensus.total
            row["two_sided_idempotents"] = tcensus.idempotent_count
            if row["two_sided_idempotents"] < binom:
                raise ReportCheckError(
                    "idempotent count below the binomial bound at n=%d" % n
                )
            row["verified_by_published_table"] = n < len(PUBLISHED_TABLE_S)
            if row["verified_by_published_table"] and (
                tcensus.total != PUBLISHED_TABLE_S[n]
                or tcensus.idempotent_count != PUBLISHED_TABLE_SE[n]
            ):
                raise ReportCheckError("two-sided counts differ from the published table at n=%d" % n)
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
