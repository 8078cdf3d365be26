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

One pass suffices.  Rooting the tree once at its trunk, the branches
are visited leaves first, over one adjacency in which the head of each
folded branch is marked dead, cutting the branch off.  Deleting a
branch disjoint from B only shrinks the host that B must map into, so
a branch found rigid stays rigid; and every branch inside B is settled
before B is tested, so B's pattern never changes after its test.  A
branch of the final tree that folded there would have folded when it
was tested, hence the result is retract-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .trees import (
    XTree,
    TrunkInfo,
    classify,
    is_monogenic,
    undirected_adjacency,
    validate,
)

ORACLE_EDGE_BOUND = 8

Adjacency = list[list[tuple[int, bool, str]]]


@dataclass(frozen=True)
class Branch:
    """A deletable unit: a non-trunk edge plus the subtree hanging off it.

    `vertices` is the vertex set of the hanging subtree (anchor excluded);
    the trunk lies entirely outside it.
    """

    anchor: int
    edge: tuple[int, int, str]
    vertices: frozenset[int]


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


def _rooted(
    t: XTree, trunk: TrunkInfo, rng: random.Random | None = None
) -> tuple[Adjacency, list[int], list[int]]:
    """Adjacency, parent array and BFS order of the non-trunk vertices.

    The BFS starts from every trunk vertex at once, so parent[b] is the
    anchor of the branch headed by b (-1 on the trunk), and every vertex
    comes after its parent in the order.  An RNG shuffles neighbour order.
    """
    adj = undirected_adjacency(t)
    if rng is not None:
        for nbrs in adj:
            rng.shuffle(nbrs)
    parent = [-2] * t.vertices  # -2: not reached yet
    for v in trunk.vertices:
        parent[v] = -1
    queue = list(trunk.vertices)
    for v in queue:
        for w, _, _ in adj[v]:
            if parent[w] == -2:
                parent[w] = v
                queue.append(w)
    return adj, parent, queue[len(trunk.vertices):]


def _branch(adj: Adjacency, parent: list[int], b: int) -> Branch:
    """The branch headed by b."""
    a = parent[b]
    inside = {b}
    stack = [b]
    while stack:
        v = stack.pop()
        for w, _, _ in adj[v]:
            if w != parent[v]:
                inside.add(w)
                stack.append(w)
    _, out, lab = next(e for e in adj[b] if e[0] == a)
    return Branch(a, (b, a, lab) if out else (a, b, lab), frozenset(inside))


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
    branch from the tree the later tests see.
    """
    alive = [True] * len(adj)
    for b in reversed(order):
        if hom_exists(adj, parent, alive, b):
            alive[b] = False
            yield b


def branches(t: XTree, trunk: TrunkInfo | None = None) -> list[Branch]:
    """All branches of t, one per non-trunk edge, in sorted edge order."""
    adj, parent, order = _rooted(t, validate(t) if trunk is None else trunk)
    return sorted((_branch(adj, parent, b) for b in order), key=lambda br: br.edge)


def find_foldable_branch(t: XTree) -> Branch | None:
    """A branch mapping into the rest of the tree, or None if retract-free.

    Deterministic: the first foldable branch of the leaves-first pass.
    """
    adj, parent, order = _rooted(t, validate(t))
    b = next(_folds(adj, parent, order), None)
    return None if b is None else _branch(adj, parent, b)


def _delete(t: XTree, gone: frozenset[int] | set[int]) -> XTree:
    keep = [v for v in range(t.vertices) if v not in gone]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = tuple(
        (relabel[a], relabel[b], lab)
        for a, b, lab in t.edges
        if a not in gone and b not in gone
    )
    return XTree(len(keep), edges, relabel[t.start], relabel[t.end])


def delete_branch(t: XTree, br: Branch) -> XTree:
    return _delete(t, br.vertices)


def retract(t: XTree, rng: random.Random | None = None) -> XTree:
    """The retract-free retract; independent of deletion order.

    An RNG shuffles the order in which sibling branches are visited and
    candidate images are tried, so isomorphic but differently numbered
    results may come back.
    """
    adj, parent, order = _rooted(t, validate(t), rng)
    gone = set(_folds(adj, parent, order))
    if not gone:
        return t
    for v in order:  # parents come first, so each dead head takes its subtree
        if parent[v] in gone:
            gone.add(v)
    return _delete(t, gone)


def _left_monogenic_retract_free(t: XTree, trunk: TrunkInfo) -> bool:
    # Fast path for monogenic out-trees: a branch folds at its anchor iff
    # some sibling subtree is at least as high, so the tree is retract-free
    # iff every non-trunk child is its vertex's unique strict height maximum.
    children: list[list[int]] = [[] for _ in range(t.vertices)]
    for a, b, _ in t.edges:
        children[a].append(b)
    height = [0] * t.vertices
    order: list[int] = []
    stack = [t.start]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    for v in reversed(order):
        height[v] = 1 + max((height[c] for c in children[v]), default=-1)
    on_trunk = [False] * t.vertices
    trunk_child = [-1] * t.vertices
    for a, b, _ in trunk.edges:
        on_trunk[a] = True
        trunk_child[a] = b
    on_trunk[t.end] = True
    for v in range(t.vertices):
        kids = children[v]
        for c in kids:
            if c == trunk_child[v]:
                continue
            if any(height[c] <= height[c2] for c2 in kids if c2 != c):
                return False
    return True


def is_retract_free(t: XTree, engine: str = "auto") -> bool:
    """True iff the tree admits no non-trivial retraction.

    engine="auto" dispatches monogenic left trees to a height-comparison
    fast path (cross-validated against the generic engine); "generic"
    always runs the morphism search.
    """
    trunk = validate(t)
    if engine == "auto" and is_monogenic(t) and classify(t).is_left:
        return _left_monogenic_retract_free(t, trunk)
    if engine not in ("auto", "generic"):
        raise ValueError("unknown engine: %r" % engine)
    return find_foldable_branch(t) is None


def endomorphism_oracle(t: XTree, max_edges: int = ORACLE_EDGE_BOUND) -> list[Endomorphism]:
    """All label/direction-preserving self-maps fixing start and end.

    Brute-force validation oracle: the tree is retract-free iff the
    identity is the only idempotent map returned.
    """
    validate(t)
    if t.edge_count > max_edges:
        raise ValueError(
            "tree has %d edges; oracle bound is %d" % (t.edge_count, max_edges)
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

    results: list[Endomorphism] = []
    amap = [-1] * t.vertices
    amap[t.start] = t.start

    def extend(i: int) -> None:
        if i == len(order):
            if amap[t.end] == t.end:
                results.append(Endomorphism(tuple(amap)))
            return
        v, par, out, lab = order[i]
        for w, out2, lab2 in adj[amap[par]]:
            if out2 == out and lab2 == lab:
                amap[v] = w
                extend(i + 1)
        amap[v] = -1

    extend(0)
    return results


def embeddings(small: XTree, big: XTree) -> list[tuple[int, ...]]:
    """All injective root-fixing morphisms of `small` into `big`."""
    validate(small)
    validate(big)
    if small.start == small.end:
        if big.start != big.end:
            return []
    elif big.start == big.end:
        return []
    adj_s = undirected_adjacency(small)
    adj_b = undirected_adjacency(big)
    order: list[tuple[int, int, bool, str]] = []
    seen = {small.start}
    queue = [small.start]
    while queue:
        v = queue.pop(0)
        for w, out, lab in adj_s[v]:
            if w not in seen:
                seen.add(w)
                order.append((w, v, out, lab))
                queue.append(w)

    results: list[tuple[int, ...]] = []
    amap = [-1] * small.vertices
    amap[small.start] = big.start
    used = [False] * big.vertices
    used[big.start] = True

    def extend(i: int) -> None:
        if i == len(order):
            if amap[small.end] == big.end:
                results.append(tuple(amap))
            return
        v, par, out, lab = order[i]
        for w, out2, lab2 in adj_b[amap[par]]:
            if out2 == out and lab2 == lab and not used[w]:
                amap[v] = w
                used[w] = True
                extend(i + 1)
                used[w] = False
        amap[v] = -1

    extend(0)
    return results


def strongly_retracts(t: XTree, path: list[tuple[int, int, str]]) -> bool:
    """True iff no root-fixing embedded copy of retract(t) meets the path."""
    validate(t)
    edge_set = set(t.edges)
    for i, e in enumerate(path):
        if tuple(e) not in edge_set:
            raise ValueError("path edge %r not in tree" % (e,))
        if i > 0 and path[i - 1][1] != e[0]:
            raise ValueError("edges do not form a directed path")
    path_set = {tuple(e) for e in path}
    rf = retract(t)
    for amap in embeddings(rf, t):
        image_edges = {(amap[a], amap[b], lab) for a, b, lab in rf.edges}
        if image_edges & path_set:
            return False
    return True
