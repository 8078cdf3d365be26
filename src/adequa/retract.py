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

A leaf whose kind repeats folds without a search.  Another edge of its
kind at its anchor a is alive: a sibling's, or a's own edge to its
parent, as the pass reaches a only after b.  Sending the leaf b to that
edge's far end, with a fixed, is a fold.  That far end sits at b's level
(see below) outside b's subtree, so such a leaf is never pinned either.

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
found before the first search, so a pass whose only candidates are
pinned or leaves searches nothing.  The levels and the kind counts come
from one loop over the rooting, and the adjacency the search reads is
built only when a pass searches.

A rooting with no run of two or more siblings, such as a zig-zag's, is a
path from the start: its count stays empty and its pass takes a shorter
way to the same decisions.  A head's only other edge at its anchor is
the anchor's edge to its parent, so the head is a candidate when that
edge has its kind, two reads of the rooting.  Every subtree of a path is
a suffix of the order, so a subtree holds all of a level exactly when it
starts no later than the level's first vertex, and the pinned branches
are a prefix: the branches up to the furthest first position of an
extreme level, found without `_pinned`'s walks.

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
    # [p, h, an iterator over adj[p], p's parent, host candidates for the
    # current child, the current child]: p's pattern children are the
    # entries of adj[p] other than its parent and the dead, skipped as
    # the iterator reaches them.  A leaf of the pattern gets no frame, as
    # it maps wherever its edge does.  `done` carries the answer of a
    # finished frame to the one below.  The root frame maps a to itself,
    # with b its only child.
    _, out, lab = next(e for e in adj[b] if e[0] == a)
    stack = [[a, a, iter(((b, not out, lab),)), -1, None, None]]
    done = None
    while stack:
        frame = stack[-1]
        if done:
            frame[4] = None  # the current child is matched
        done = None
        p, h, children, up, candidates, child = frame
        if candidates is None:
            for child in children:
                c = child[0]
                if c != up and alive[c]:
                    break
            else:
                memo[p * n + h] = done = True
                stack.pop()
                continue
            frame[5] = child
            candidates = frame[4] = iter(adj[h])
        c, out, lab = child
        for w, out2, lab2 in candidates:
            if out2 != out or lab2 != lab or w == b or not alive[w]:
                continue
            around = adj[c]
            if len(around) == 1:  # a leaf: its only edge is the one just matched
                done = True
                break
            known = memo.get(c * n + w)
            if known is None:
                stack.append([c, w, iter(around), p, None, None])
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

    A pass over a rooting without a run of siblings, a path from the
    start, does not walk: there every subtree is a suffix of the order,
    so the common ancestors off the trunk of a level's vertices are the
    branches up to the level's first one, a prefix that `_path_pins`
    finds by position.
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


def _path_pins(order: list[int], level: list[int], length: int) -> int:
    """The last position of `order` whose vertex is pinned, for a rooting
    that is a path from the start with a trunk of `length` edges; `length`
    itself when none is.

    The subtree of the vertex at position i is order[i:], so it holds
    every vertex at a level exactly when i is at most the level's first
    position: the pinned vertices, the set `_pinned` finds, are those off
    the trunk up to the furthest first position of an extreme level
    beyond the trunk's levels 0 to `length`.
    """
    seq = list(map(level.__getitem__, order))
    last = length
    for x in (max(seq), min(seq)):
        if not 0 <= x <= length:
            last = max(last, seq.index(x))
    return last


def _folds(t: XTree, adj: Adjacency | None) -> Iterator[int]:
    """The heads of the branches that fold, leaves first.

    t is rooted, and `adj` is the adjacency its rooting walk built, or
    None if it built none.  The branches are the non-trunk vertices of
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
    tests see and takes one edge of its kind off its anchor.  A head
    whose kind occurs at least twice among its anchor's alive edges
    folds at once when it is a leaf: the other edge of that kind takes
    it, and its far end, at the leaf's level and outside it, keeps the
    leaf from being pinned.  Any other such head is searched unless it is
    pinned to an extreme level (`_pinned`, built at the first one).  The
    adjacency the search reads is built before the first search, when
    the walk built none, so a pass that searches nothing builds none.
    With the walk's adjacency a leaf is a head with one edge in it, told
    before the pins are built.  Without it, a head the pins leave is
    looked up in the set of parents, built just before the first such
    head's adjacency would be, so a pass that meets no leaf builds that
    set at most once, beside an adjacency it builds anyway.

    When the count stays empty the rooting is a path from the start, and
    the pass decides the same by position: the trunk is the order's
    first `length` + 1 vertices, a head is a candidate when its edge and
    its anchor's edge to its parent are of one kind, tested as
    `forward[a] != forward[b] and label[a] == label[b]` with no key and
    no lookup, the last vertex is the one leaf, and the pins are the
    branches up to the position `_path_pins` gives.  A run-free pass
    never calls `_pinned`.
    """
    trunk = t.rooting
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
    alive = [True] * len(parent)
    if not count:
        # no run of siblings: a path from the start, decided by position
        last = len(order) - 1
        pins = -1  # the last position of a pinned head, once known
        for i in range(last, trunk.length, -1):
            b = order[i]
            a = parent[b]
            if forward[a] == forward[b] or label[a] != label[b]:
                continue
            if i < last:
                if pins < 0:
                    pins = _path_pins(order, level, trunk.length)
                if i <= pins:
                    continue
                if adj is None:
                    adj = undirected_adjacency(t)
                if not hom_exists(adj, parent, alive, b):
                    continue
            alive[b] = False
            yield b
        return
    on_trunk = set(trunk.vertices)
    pinned: set[int] | None = None
    has_child: set[int] | None = None
    for b in reversed(order):
        if b in on_trunk:
            continue
        a, out, lab = key = (parent[b], forward[b], label[b])
        # the anchor's edge to its parent points the other way seen from
        # the anchor; the start's label is "", which no edge carries
        if count.get(key, 1) + (forward[a] != out and label[a] == lab) < 2:
            continue
        # a leaf folds at once; the start, its own parent, is on the trunk
        if adj is None or len(adj[b]) > 1:
            if pinned is None:
                pinned = _pinned(trunk, level, on_trunk)
            if b in pinned:
                continue
            if adj is None:
                if has_child is None:
                    has_child = set(parent)
                if b in has_child:
                    adj = undirected_adjacency(t)
            if adj is not None and not hom_exists(adj, parent, alive, b):
                continue
        alive[b] = False
        count[key] = count.get(key, 1) - 1
        yield b


def find_foldable_branch(t: XTree, adj: Adjacency | None = None) -> int | None:
    """The head of a branch mapping into the rest of the tree, or None if
    retract-free.

    Deterministic: the first foldable branch of the leaves-first pass.
    The head may be vertex 0, so test the result against None.  `adj` is
    what `_walk(t)` returned when the caller has already taken it.
    """
    return next(_folds(t, adj or _walk(t)), None)


def _delete(t: XTree, trunk: TrunkInfo, dead: list[bool]) -> XTree:
    """t without the vertices v with `dead[v]`, a union of whole branches,
    with t's rooting carried over.  Renumbering the kept vertices in
    order keeps the sorted edge order, so the rooting restricted to them
    is the breadth-first walk `validate` would make of the result."""
    keep = [v for v in range(t.vertices) if not dead[v]]
    relabel = [-1] * t.vertices
    for i, v in enumerate(keep):
        relabel[v] = i
    edges = tuple([
        (relabel[a], relabel[b], lab)
        for a, b, lab in t.edges
        if not (dead[a] or dead[b])
    ])
    parent, forward, label = trunk.parent, trunk.forward, trunk.label
    return _rooted_tree(
        len(keep), edges, relabel[t.start], relabel[t.end],
        [relabel[parent[v]] for v in keep],
        [forward[v] for v in keep],
        [label[v] for v in keep],
        [relabel[v] for v in trunk.order if not dead[v]],
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


def retract(t: XTree, adj: Adjacency | None = None) -> XTree:
    """The retract-free retract; independent of deletion order.

    A monogenic left tree is retracted by the height rule of
    `_left_monogenic_kept`; any other tree by the leaves-first pass.
    `adj` is the adjacency of the rooting walk the package's own builders
    take (`trees._root`), which leaves t rooted; without it, a tree not
    yet rooted is walked once by `_walk`.
    """
    adj = adj or _walk(t)
    trunk = t.rooting
    kept = _left_monogenic_kept(t, trunk)
    if kept is not None:
        if len(kept) == t.vertices:
            return t
        dead = [True] * t.vertices
        for v in kept:
            dead[v] = False
    else:
        heads = list(_folds(t, adj))
        if not heads:
            return t
        dead = [False] * t.vertices
        for b in heads:
            dead[b] = True
        parent = trunk.parent
        for v in trunk.order:  # parents come first, so each dead head takes its subtree
            if dead[parent[v]]:
                dead[v] = True
    return _delete(t, trunk, dead)


def is_retract_free(t: XTree, engine: str = "auto") -> bool:
    """True iff the tree admits no non-trivial retraction.

    engine="auto" answers monogenic left trees by the height rule of
    `_left_monogenic_kept`, without building the retract, and sends the
    rest to the morphism search that engine="generic" always runs.
    """
    if engine not in ("auto", "generic"):
        raise ValueError("unknown engine: %r" % engine)
    adj = _walk(t)
    kept = _left_monogenic_kept(t, t.rooting) if engine == "auto" else None
    if kept is not None:
        return len(kept) == t.vertices
    return find_foldable_branch(t, adj) is None


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

