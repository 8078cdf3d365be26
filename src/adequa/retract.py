"""The retraction engine.

A branch of a tree is a non-trunk edge a-b, with b the endpoint away
from the trunk, together with the subtree hanging below b.  It folds
when it admits a label- and direction-preserving morphism into the rest
of the tree that fixes its anchor a.  Extending such a morphism by the
identity on the rest yields an idempotent endomorphism fixing both
roots, so each deletion of a folding branch realises a retraction.

Completeness: if a proper retraction with image R exists, R contains
the trunk and is connected, so some edge outside R has its anchor in R,
and the whole branch below it is disjoint from R and maps into R.  A
tree with no folding branch is therefore retract-free.  Uniqueness of
the retract-free retract up to isomorphism is a general fact about
relational structures (Hell & Nesetril, "The core of a graph", 1992),
so the engine may delete in whatever order is cheapest.

One pass suffices.  Over the rooting `validate` returns, the branches
are visited leaves first, over one adjacency in which the head of each
folded branch is marked dead, cutting the branch off.  Deleting a
branch disjoint from B only shrinks the host that B must map into, so
a branch found rigid stays rigid; and every branch inside B is settled
before B is tested, so B's pattern never changes after its test.  A
branch of the final tree that folded there would have folded when it
was tested, hence the result is retract-free.

Most branches are settled without a search.  The kind of an edge at a
vertex is its label with its direction seen from that vertex.  A
morphism fixing the anchor a sends the branch's edge a-b to an edge at a
of the same kind, and since the host avoids b, to another one.  So a
branch whose kind occurs once among its anchor's alive edges is rigid,
and the pass searches only where a kind repeats at its anchor, keeping
a count per anchor and kind that drops as heads die.  The test is the
first step of the search itself, so the branches that fold are the same.

Monogenic left trees, the trees of the left growth count, skip the
morphism search: one height walk finds what they keep.  Which engine
folds a tree is private to this module; callers see `retract` and
`is_retract_free` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .trees import (
    XTree,
    TrunkInfo,
    is_monogenic,
    undirected_adjacency,
    validate,
)

ORACLE_EDGE_BOUND = 8

Adjacency = list[list[tuple[int, bool, str]]]


@dataclass(frozen=True)
class Endomorphism:
    vertex_map: tuple[int, ...]

    @property
    def is_idempotent(self) -> bool:
        m = self.vertex_map
        return all(m[m[v]] == m[v] for v in range(len(m)))

    @property
    def is_identity(self) -> bool:
        return all(m == v for v, m in enumerate(self.vertex_map))


def _rooted(t: XTree) -> tuple[Adjacency, list[int], list[int]]:
    """Adjacency, parent array and order of the non-trunk vertices.

    The adjacency is built here, for the leaves-first pass alone; the
    rest is taken from the rooting at the start: a non-trunk vertex's
    path to the start enters the trunk at its branch's anchor, so
    parent[b] is that anchor for the head b of a branch (-1 on the
    trunk), and every vertex comes after its parent in the order.
    """
    trunk = validate(t)
    parent = trunk.parent.copy()
    for v in trunk.vertices:
        parent[v] = -1
    return undirected_adjacency(t), parent, [v for v in trunk.order if parent[v] >= 0]


def hom_exists(adj: Adjacency, parent: list[int], alive: list[bool], b: int) -> bool:
    """Does the branch headed by b map into the rest of the tree?

    The morphism fixes the anchor a = parent[b], preserves edge
    directions and labels, and may fold.  Pattern and host avoid every
    vertex that is not alive, and with it the subtree it heads; the host
    never steps onto b, its only way into the branch.  Depth-first over
    (pattern, host) vertex pairs with an explicit stack and a memo local
    to this test.
    """
    a = parent[b]
    n = len(adj)
    memo: dict[int, bool] = {}
    # A frame tries to map pattern vertex p to host vertex h.  It holds
    # [p, h, p's unmatched pattern children, host candidates for the
    # current child, the current child]; `done` carries the answer of a
    # finished frame to the one below.  The root frame maps a to itself.
    _, out, lab = next(e for e in adj[b] if e[0] == a)
    stack = [[a, a, iter(((b, not out, lab),)), None, None]]
    done = None
    while stack:
        frame = stack[-1]
        if done:
            frame[3] = None  # the current child is matched
        done = None
        p, h, children, candidates, child = frame
        if candidates is None:
            child = frame[4] = next(children, None)
            if child is None:
                memo[p * n + h] = done = True
                stack.pop()
                continue
            candidates = frame[3] = iter(adj[h])
        c, out, lab = child
        for w, out2, lab2 in candidates:
            if out2 != out or lab2 != lab or w == b or not alive[w]:
                continue
            known = memo.get(c * n + w)
            if known is None:
                pc = parent[c]
                kids = [e for e in adj[c] if e[0] != pc and alive[e[0]]]
                stack.append([c, w, iter(kids), None, None])
                break
            if known:
                done = True
                break
        else:
            memo[p * n + h] = done = False
            stack.pop()
    return bool(done)


def _folds(adj: Adjacency, parent: list[int], order: list[int]) -> Iterator[int]:
    """The heads of the branches that fold, leaves first.

    Each head is marked dead as its branch folds, which cuts the whole
    branch from the tree the later tests see and takes one edge of its
    kind off its anchor.  A branch is searched only when its kind occurs
    at least twice among its anchor's alive edges.
    """
    alive = [True] * len(adj)
    # count[a, out, lab]: anchor a's alive edges of that kind; kind[b]:
    # the kind of b's edge, seen from its anchor
    count: dict[tuple[int, bool, str], int] = {}
    kind: list[tuple[int, bool, str] | None] = [None] * len(adj)
    for a in {parent[b] for b in order}:
        for w, out, lab in adj[a]:
            key = (a, out, lab)
            count[key] = count.get(key, 0) + 1
            if parent[w] == a:
                kind[w] = key
    for b in reversed(order):
        key = kind[b]
        if count[key] > 1 and hom_exists(adj, parent, alive, b):
            alive[b] = False
            count[key] -= 1
            yield b


def find_foldable_branch(t: XTree) -> int | None:
    """The head of a branch mapping into the rest of the tree, or None if
    retract-free.

    Deterministic: the first foldable branch of the leaves-first pass.
    The head may be vertex 0, so test the result against None.
    """
    adj, parent, order = _rooted(t)
    return next(_folds(adj, parent, order), None)


def _delete(t: XTree, gone: set[int]) -> XTree:
    keep = [v for v in range(t.vertices) if v not in gone]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = tuple(
        (relabel[a], relabel[b], lab)
        for a, b, lab in t.edges
        if a not in gone and b not in gone
    )
    return XTree(len(keep), edges, relabel[t.start], relabel[t.end])


def _left_monogenic_kept(t: XTree, trunk: TrunkInfo) -> list[int] | None:
    """The vertices the retract of a monogenic left tree keeps, from one
    height walk; None if t is not left.

    In a monogenic out-tree a branch folds at its anchor iff some sibling
    subtree is at least as high.  So the retract is the trunk plus, at
    each trunk vertex, a bare path as high as its highest side child,
    kept only when strictly higher than the trunk child (at the end,
    whenever there is a side child).  Ties go to the first highest child,
    as in the leaves-first pass, so `_delete` builds the same tree.
    """
    if trunk.forward.count(True) != t.vertices - 1:
        return None
    parent = trunk.parent
    height = [0] * t.vertices
    highest = [-1] * t.vertices  # the first highest child off the trunk
    on_trunk = set(trunk.vertices)
    # Children come before parents and siblings last to first, so of the
    # children of equal height the first is seen last and kept.
    for v in reversed(trunk.order[1:]):
        p = parent[v]
        if height[v] >= height[p]:
            height[p] = height[v] + 1
        if v not in on_trunk and (highest[p] < 0 or height[v] >= height[highest[p]]):
            highest[p] = v
    kept = list(trunk.vertices)
    tc = -1  # the trunk child of v; none at the end
    for v in reversed(trunk.vertices):
        side = highest[v]
        if side >= 0 and (tc < 0 or height[side] > height[tc]):
            while side >= 0:
                kept.append(side)
                side = highest[side]
        tc = v
    return kept


def retract(t: XTree) -> XTree:
    """The retract-free retract; independent of deletion order.

    A monogenic left tree is retracted by the height rule of
    `_left_monogenic_kept`; any other tree by the leaves-first pass.
    """
    trunk = validate(t)
    kept = _left_monogenic_kept(t, trunk) if is_monogenic(t) else None
    if kept is not None:
        gone = set(range(t.vertices)).difference(kept)
    else:
        adj, parent, order = _rooted(t)
        gone = set(_folds(adj, parent, order))
        for v in order:  # parents come first, so each dead head takes its subtree
            if parent[v] in gone:
                gone.add(v)
    return _delete(t, gone) if gone else t


def is_retract_free(t: XTree, engine: str = "auto") -> bool:
    """True iff the tree admits no non-trivial retraction.

    engine="auto" answers monogenic left trees by the height rule of
    `_left_monogenic_kept`, without building the retract, and sends the
    rest to the morphism search that engine="generic" always runs.
    """
    trunk = validate(t)
    if engine not in ("auto", "generic"):
        raise ValueError("unknown engine: %r" % engine)
    if engine == "auto" and is_monogenic(t):
        kept = _left_monogenic_kept(t, trunk)
        if kept is not None:
            return len(kept) == t.vertices
    return find_foldable_branch(t) is None


def endomorphism_oracle(t: XTree) -> Iterator[Endomorphism]:
    """All label/direction-preserving self-maps fixing start and end.

    Brute-force validation oracle: the tree is retract-free iff the
    identity is the only idempotent map yielded.  The tree and the edge
    bound are checked on the call; the maps are generated lazily, so a
    caller looking for one non-identity idempotent stops at the first.
    """
    validate(t)
    if t.edge_count > ORACLE_EDGE_BOUND:
        raise ValueError(
            "tree has %d edges; oracle bound is %d" % (t.edge_count, ORACLE_EDGE_BOUND)
        )
    adj = undirected_adjacency(t)
    # BFS order from the start so every vertex is constrained by its parent.
    order: list[tuple[int, int, bool, str]] = []
    seen = {t.start}
    queue = [t.start]
    while queue:
        v = queue.pop(0)
        for w, out, lab in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append((w, v, out, lab))
                queue.append(w)

    amap = [-1] * t.vertices
    amap[t.start] = t.start

    def extend(i: int) -> Iterator[Endomorphism]:
        if i == len(order):
            if amap[t.end] == t.end:
                yield Endomorphism(tuple(amap))
            return
        v, par, out, lab = order[i]
        for w, out2, lab2 in adj[amap[par]]:
            if out2 == out and lab2 == lab:
                amap[v] = w
                yield from extend(i + 1)
        amap[v] = -1

    return extend(0)

