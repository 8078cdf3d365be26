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

One pass suffices.  It reads the rooting `validate` returns, in which
every vertex comes after its parent and the parent of a branch's head is
the branch's anchor, and visits the branches leaves first, over one
adjacency in which the head of each folded branch is marked dead,
cutting the branch off.  Deleting a branch disjoint from B only shrinks
the host that B must map into, so a branch found rigid stays rigid; and
every branch inside B is settled before B is tested, so B's pattern
never changes after its test.  A branch of the final tree that folded
there would have folded when it was tested, hence the result is
retract-free.

Most branches are settled without a search.  The kind of an edge at a
vertex is its label with its direction seen from that vertex.  A
morphism fixing the anchor a sends the branch's edge a-b to an edge at a
of the same kind, and since the host avoids b, to another one.  So a
branch whose kind occurs once among its anchor's alive edges is rigid,
and the pass searches only where a kind repeats at its anchor.  The
rooting lists each vertex's children consecutively, so the pass counts
kinds only inside runs of two or more siblings, per anchor and kind, and
the count drops as heads die; an only child has count 1, and the edge to
the anchor's own parent is added at test time.  The test is the first
step of the search itself, so the branches that fold are the same.

Levels rule out more.  Give the start level 0 and each vertex the level
of its parent plus one when their edge points away from the start, minus
one otherwise: every edge joins two adjacent levels, and a morphism
preserves level differences (Hell & Nesetril, "Graphs and
Homomorphisms", 2004).  A fold fixes the anchor, so it keeps each
vertex's level: every level of the folded branch occurs in the rest, and
the alive tree keeps its set of levels through the pass.  A branch whose
subtree holds every vertex at the tree's highest level, or every one at
its lowest, is pinned: its alive part still reaches that level and
nothing outside it does, so it never folds.  The pinned branches are
found at the first branch whose kind repeats, before any search, so a
pass whose only candidates are pinned searches nothing.  The levels and
the kind counts come from one loop over the rooting, and the adjacency
the search reads is built only when a pass searches.

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
    _rooted_tree,
    _walk,
    is_monogenic,
    undirected_adjacency,
    validate,
)

ORACLE_EDGE_BOUND = 8

Adjacency = list[list[tuple[int, bool, str]]]
# `trees._walk`'s rooting with the adjacency its walk built, if it built one
Walked = tuple[TrunkInfo, Adjacency | None]


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


def hom_exists(adj: Adjacency, parent: list[int], alive: list[bool], b: int) -> bool:
    """Does the branch headed by b map into the rest of the tree?

    `parent` is the rooting's, so a = parent[b] is the branch's anchor.
    The morphism fixes a, preserves edge directions and labels, and may
    fold.  Pattern and host avoid every vertex that is not alive, and
    with it the subtree it heads; the host never steps onto b, its only
    way into the branch.  Depth-first over (pattern, host) vertex pairs
    with an explicit stack and a memo local to this test.
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


def _pinned(trunk: TrunkInfo, level: list[int], on_trunk: set[int]) -> set[int]:
    """The non-trunk vertices whose subtree holds every vertex at the
    tree's highest level, or every one at its lowest.

    `level[v]` is v's level, as the module docstring defines it, and
    `on_trunk` the set of trunk vertices.  The trunk holds levels 0 to
    its length, so only a level beyond those can lie within one branch;
    the vertices whose subtree holds all of it are the common ancestors,
    off the trunk, of the vertices at that level: when one vertex holds
    the level, that vertex and its ancestors off the trunk.  Each walk up
    from one of them stops at the trunk or at the first vertex an earlier
    walk reached, so every vertex is walked at most once.
    """
    parent = trunk.parent
    pinned: set[int] = set()
    for x in (max(level), min(level)):
        if 0 <= x <= trunk.length:
            continue
        i = v = level.index(x)
        above = []  # i and its ancestors off the trunk, upwards
        while v not in on_trunk:
            above.append(v)
            v = parent[v]
        lo = 0  # the common ancestors are above[lo:]
        others = level.count(x) - 1
        if others:
            # where a later walk up stops: the vertex's index in `above`,
            # or -1 where an even later one passed
            stop = dict(zip(above, range(len(above))))
            for _ in range(others):
                i = v = level.index(x, i + 1)
                while v not in stop and v not in on_trunk:
                    stop[v] = -1
                    v = parent[v]
                if v in on_trunk:  # i lies in another branch
                    lo = len(above)
                    break
                lo = max(lo, stop[v])
        pinned.update(above[lo:])
    return pinned


def _folds(t: XTree, walked: Walked) -> Iterator[int]:
    """The heads of the branches that fold, leaves first.

    `walked` is `_walk(t)`: t's rooting, and the adjacency its walk
    built, if it built one.  The branches are the non-trunk vertices of
    the rooting's order, each with its parent as anchor; a head's kind,
    its edge seen from its anchor, is (parent, forward, label) in the
    rooting.  One loop over the order, parents first, sets each vertex's
    level and counts the kinds of the child edges at each vertex.  The
    order lists each vertex's children consecutively, so a kind can
    repeat among them only inside a run of two or more siblings: only
    those runs are counted, and a head absent from the count is its
    anchor's only child, of count 1.  An anchor's edge to its own parent
    adds one to its kind at test time.  Each head is marked dead as its
    branch folds, which cuts the whole branch from the tree the later
    tests see and takes one edge of its kind off its anchor.  A branch is
    searched only when its kind occurs at least twice among its anchor's
    alive edges and it is not pinned to an extreme level (`_pinned`,
    built at the first such branch).  The adjacency the search reads is
    built before the first search, when the walk built none, so a pass
    that searches nothing builds none.
    """
    trunk, adj = walked
    parent, forward, label = trunk.parent, trunk.forward, trunk.label
    order = trunk.order
    level = [0] * len(parent)
    # count[a, out, lab]: the alive child edges of that kind at a, for
    # the anchors a with two or more children
    count: dict[tuple[int, bool, str], int] = {}
    run = -1  # the parent of the current sibling run
    first = -1  # the run's first vertex, until a second one counts it
    for v in order[1:]:
        a, out = parent[v], forward[v]
        level[v] = level[a] + 1 if out else level[a] - 1
        if a != run:
            run, first = a, v
            continue
        if first >= 0:
            key = (a, forward[first], label[first])
            count[key] = count.get(key, 0) + 1
            first = -1
        key = (a, out, label[v])
        count[key] = count.get(key, 0) + 1
    on_trunk = set(trunk.vertices)
    alive = [True] * len(parent)
    pinned: set[int] | None = None
    for b in reversed(order):
        if b in on_trunk:
            continue
        a, out, lab = key = (parent[b], forward[b], label[b])
        # the anchor's edge to its parent points the other way seen from
        # the anchor; the start's label is "", which no edge carries
        if count.get(key, 1) + (forward[a] != out and label[a] == lab) < 2:
            continue
        if pinned is None:
            pinned = _pinned(trunk, level, on_trunk)
        if b in pinned:
            continue
        if adj is None:
            adj = undirected_adjacency(t)
        if hom_exists(adj, parent, alive, b):
            alive[b] = False
            count[key] = count.get(key, 1) - 1
            yield b


def find_foldable_branch(t: XTree, walked: Walked | None = None) -> int | None:
    """The head of a branch mapping into the rest of the tree, or None if
    retract-free.

    Deterministic: the first foldable branch of the leaves-first pass.
    The head may be vertex 0, so test the result against None.  `walked`
    is `_walk(t)` when the caller has already taken it.
    """
    return next(_folds(t, walked or _walk(t)), None)


def _delete(t: XTree, trunk: TrunkInfo, gone: set[int]) -> XTree:
    """t without the vertices in `gone`, a union of whole branches, with
    t's rooting carried over.  Renumbering the kept vertices in order
    keeps the sorted edge order, so the rooting restricted to them is
    the breadth-first walk `validate` would make of the result."""
    keep = [v for v in range(t.vertices) if v not in gone]
    relabel = dict(zip(keep, range(len(keep))))
    edges = tuple(
        (relabel[a], relabel[b], lab)
        for a, b, lab in t.edges
        if a not in gone and b not in gone
    )
    parent, forward, label = trunk.parent, trunk.forward, trunk.label
    return _rooted_tree(
        len(keep), edges, relabel[t.start], relabel[t.end],
        [relabel[parent[v]] for v in keep],
        [forward[v] for v in keep],
        [label[v] for v in keep],
        [relabel[v] for v in trunk.order if v not in gone],
    )


def _left_monogenic_kept(t: XTree, trunk: TrunkInfo) -> list[int] | None:
    """The vertices the retract of a monogenic left tree keeps, from one
    height walk; None if t is not left or not monogenic.

    In a monogenic out-tree a branch folds at its anchor iff some sibling
    subtree is at least as high.  So the retract is the trunk plus, at
    each trunk vertex, a bare path as high as its highest side child,
    kept only when strictly higher than the trunk child (at the end,
    whenever there is a side child).  Ties go to the first highest child,
    as in the leaves-first pass, so `_delete` builds the same tree.
    """
    if trunk.forward.count(True) != t.vertices - 1 or not is_monogenic(t):
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


def retract(t: XTree, walked: Walked | None = None) -> XTree:
    """The retract-free retract; independent of deletion order.

    A monogenic left tree is retracted by the height rule of
    `_left_monogenic_kept`; any other tree by the leaves-first pass.
    `walked` is the rooting walk the package's own builders take
    (`trees._root`); without it, a tree not yet validated is checked and
    walked once by `_walk`.
    """
    walked = walked or _walk(t)
    trunk = walked[0]
    kept = _left_monogenic_kept(t, trunk)
    if kept is not None:
        gone = set(range(t.vertices)).difference(kept)
    else:
        gone = set(_folds(t, walked))
        for v in trunk.order:  # parents come first, so each dead head takes its subtree
            if trunk.parent[v] in gone:
                gone.add(v)
    return _delete(t, trunk, gone) if gone else t


def is_retract_free(t: XTree, engine: str = "auto") -> bool:
    """True iff the tree admits no non-trivial retraction.

    engine="auto" answers monogenic left trees by the height rule of
    `_left_monogenic_kept`, without building the retract, and sends the
    rest to the morphism search that engine="generic" always runs.
    """
    if engine not in ("auto", "generic"):
        raise ValueError("unknown engine: %r" % engine)
    walked = _walk(t)
    kept = _left_monogenic_kept(t, walked[0]) if engine == "auto" else None
    if kept is not None:
        return len(kept) == t.vertices
    return find_foldable_branch(t, walked) is None


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

