"""Birooted, edge-labelled directed trees.

A tree here is a directed graph whose underlying undirected graph is a
tree, carrying two distinguished vertices (start and end) joined by a
directed path called the trunk.  All semantic operations are invariant
under renaming of vertex indices; equality of isomorphism types is
decided through :func:`canonical_code`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class InvalidTreeError(ValueError):
    """Raised when a vertex/edge structure is not a valid birooted tree."""


@dataclass(frozen=True, slots=True, weakref_slot=True)
class XTree:
    """A birooted edge-labelled directed tree.

    Vertices are 0..vertices-1; edges are (src, dst, label) triples.
    Edge order is normalised (sorted) so structurally equal trees with
    the same indexing compare equal.  `rooting` is set by `validate`,
    `_root` or `_rooted_tree`; it is not part of the tree's value, so
    `==`, `hash` and `repr` ignore it.
    """

    vertices: int
    edges: tuple[tuple[int, int, str], ...]
    start: int
    end: int
    rooting: TrunkInfo | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(map(tuple, self.edges))))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, slots=True)
class TrunkInfo:
    """The unique directed start-to-end path of a valid tree, with the
    rooting at the start that found it.

    The rooting is flat per-vertex arrays: `parent[v]` is v's neighbour
    towards the start (the start is its own parent), `forward[v]` says
    whether their edge is (parent[v], v), `label[v]` is its label ("" at
    the start), and `order` is breadth-first, each vertex after its
    parent and each vertex's children in one consecutive run: the
    leaves-first pass of `retract` counts edge kinds inside those runs
    only.  Every builder of a rooting (`validate`, `_rooted_tree`'s
    callers) keeps that order.  It is computed once per tree object and
    kept on it, so the lists are shared by every reader and must not be
    changed.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]
    parent: list[int]
    forward: list[bool]
    label: list[str]
    order: list[int]

    @property
    def length(self) -> int:
        return len(self.edges)


EPSILON = XTree(1, (), 0, 0)


def generator_tree(label: str) -> XTree:
    """The single-edge tree representing a generator."""
    return XTree(2, ((0, 1, label),), 0, 1)


def undirected_adjacency(t: XTree) -> list[list[tuple[int, bool, str]]]:
    """adj[v] lists (neighbour, outgoing?, label) over both edge directions."""
    adj: list[list[tuple[int, bool, str]]] = [[] for _ in range(t.vertices)]
    for src, dst, lab in t.edges:
        adj[src].append((dst, True, lab))
        adj[dst].append((src, False, lab))
    return adj


# bytes that delimit labels in canonical_code or end a quoted DOT label
_RESERVED = frozenset('()<>"\\')


def validate(t: XTree) -> TrunkInfo:
    """Check the tree and trunk invariants; return the trunk and the
    rooting on success.

    Raises InvalidTreeError("not a tree") on disconnection, bad counts or
    out-of-range indices, and InvalidTreeError("no trunk") when there is
    no directed start-to-end path.  Labels may not be empty or contain
    the bytes that delimit them in `canonical_code` or `to_dot`.  A
    success is stored in the tree's `rooting`, which later calls return
    without checking again; a failure is not stored, so an invalid tree
    raises on every call.

    A tree is checked in full where it enters the package: here, and so
    in `from_json`, `canonical_code`, `retract`, `is_retract_free`,
    `algebra.make_element`, `algebra.generator` and the construction of
    an `algebra.Element`.  The trees the package builds from checked ones
    (a product, a term's raw tree, a moved root, a reversal) take only
    the rooting walk, `_root`, and `_rooted_tree`'s callers derive their
    rooting without one.
    """
    if t.rooting is not None:
        return t.rooting
    return _walk(t)[0]


def _walk(t: XTree) -> tuple[TrunkInfo, list[list[tuple[int, bool, str]]] | None]:
    """`validate`'s checks and walk, for a caller that also wants the
    adjacency the walk built: (rooting, adjacency) when the rooting is not
    known yet, and (rooting, None) when it is."""
    if t.rooting is not None:
        return t.rooting, None
    _check_edges(t)
    return _root(t)


def _check_edges(t: XTree) -> None:
    """The checks of `validate` that read the counts and the edge list:
    at least one vertex, roots and endpoints in range, n - 1 edges, and
    labels that are non-empty strings without a `_RESERVED` byte."""
    n = t.vertices
    if n < 1:
        raise InvalidTreeError("not a tree: need at least one vertex")
    if not (0 <= t.start < n and 0 <= t.end < n):
        raise InvalidTreeError("not a tree: root out of range")
    if len(t.edges) != n - 1:
        raise InvalidTreeError(
            "not a tree: expected %d edges, got %d" % (n - 1, len(t.edges))
        )
    for src, dst, lab in t.edges:
        if not (0 <= src < n and 0 <= dst < n):
            raise InvalidTreeError("not a tree: edge endpoint out of range")
        if not (isinstance(lab, str) and lab):
            raise InvalidTreeError("not a tree: empty edge label")
        if not _RESERVED.isdisjoint(lab):
            raise InvalidTreeError("bad edge label %r: has one of ( ) < > \" \\" % lab)


def _root(t: XTree) -> tuple[TrunkInfo, list[list[tuple[int, bool, str]]]]:
    """The rooting walk of `validate`, without `_check_edges`: breadth
    first from the start, the connectivity check and `_trunk`.  Stores the
    rooting on t and returns it with the adjacency the walk built.

    Called alone only on a tree the package glued, moved or reversed
    from checked trees, whose counts, ranges and labels hold by
    construction; the errors it raises are still those of `validate`."""
    # BFS from the start; each vertex records its parent and the direction
    # and label of the edge it was reached by.
    n = t.vertices
    adj = undirected_adjacency(t)
    parent = [-1] * n
    forward = [False] * n
    label = [""] * n
    parent[t.start] = t.start
    order = [t.start]
    for v in order:
        for w, out, lab in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                forward[w] = out
                label[w] = lab
                order.append(w)
    if len(order) != n:
        raise InvalidTreeError("not a tree: graph is disconnected")
    info = _trunk(t.start, t.end, parent, forward, label, order)
    object.__setattr__(t, "rooting", info)
    return info, adj


def _trunk(
    start: int, end: int, parent: list[int], forward: list[bool], label: list[str], order: list[int]
) -> TrunkInfo:
    """The rooting with the trunk from start to `end`.  The undirected
    path, read up the parent array, is unique; InvalidTreeError("no
    trunk") unless each edge on it points away from the start."""
    path = [end]
    while path[-1] != start:
        if not forward[path[-1]]:
            raise InvalidTreeError("no trunk: no directed start-to-end path")
        path.append(parent[path[-1]])
    path.reverse()
    edges = tuple((parent[b], b, label[b]) for b in path[1:])
    return TrunkInfo(tuple(path), edges, parent, forward, label, order)


def _rooted_tree(
    vertices: int, edges, start: int, end: int,
    parent: list[int], forward: list[bool], label: list[str], order: list[int],
) -> XTree:
    """The tree with the rooting at the start its builder already knows:
    the arrays must be the ones `validate` would compute, which is taken
    on trust.  The trunk and its errors are `_trunk`'s."""
    t = XTree(vertices, edges, start, end)
    object.__setattr__(t, "rooting", _trunk(start, end, parent, forward, label, order))
    return t


def _with_end(t: XTree, end: int) -> XTree:
    """t with its end moved to `end`, sharing t's rooting at the start."""
    r = validate(t)
    if end == t.end:
        return t
    return _rooted_tree(t.vertices, t.edges, t.start, end, r.parent, r.forward, r.label, r.order)


@dataclass(frozen=True)
class Classification:
    is_left: bool
    is_right: bool
    is_idempotent_shape: bool


def is_left(t: XTree) -> bool:
    """Does every edge point away from the start?  The start is never forward."""
    return validate(t).forward.count(True) == t.vertices - 1


def is_right(t: XTree) -> bool:
    """Does every edge off the trunk point towards it, so that each vertex
    reaches the end along the edges?  The trunk is forward after the start."""
    trunk = validate(t)
    return trunk.forward.count(True) == trunk.length


def classify(t: XTree) -> Classification:
    """Left/right tree tests and the trunk-length-zero idempotency shape."""
    trunk = validate(t)
    return Classification(is_left(t), is_right(t), trunk.length == 0)


def is_monogenic(t: XTree) -> bool:
    return len({lab for _, _, lab in t.edges}) <= 1


def canonical_code(t: XTree) -> bytes:
    """Isomorphism-invariant code for the birooted tree.

    Bottom-up encoding rooted at the start vertex: each vertex becomes
    (end-flag, sorted children encodings), where a child enters the code
    with its direction relative to the traversal and its label.  Codes
    are equal iff the trees are isomorphic as birooted labelled trees.
    """
    r = validate(t)
    parent, forward, label, end = r.parent, r.forward, r.label, t.end
    # Walking `order` backwards finishes children before parents; each
    # vertex hands its code, with its edge's direction and label, to its
    # parent.  The start, last and its own parent, hands it to itself.
    # A list is emptied once joined, so only the codes of vertices whose
    # parent is not yet done are alive: memory stays linear in the tree.
    parts: list[list[bytes]] = [[] for _ in parent]
    for v in reversed(r.order):
        ps = parts[v]
        ps.sort()
        code = (b"(E" if v == end else b"(") + b"".join(ps) + b")"
        ps.clear()
        parts[parent[v]].append((b">" if forward[v] else b"<") + label[v].encode() + code)
    return code


def theta(t: XTree) -> XTree:
    """The trunk-only subtree: same start/end, all branches removed."""
    trunk = validate(t)
    relabel = {v: i for i, v in enumerate(trunk.vertices)}
    edges = tuple(
        (relabel[a], relabel[b], lab) for a, b, lab in trunk.edges
    )
    return XTree(trunk.length + 1, edges, 0, trunk.length)


def reverse_tree(t: XTree) -> XTree:
    """Flip every edge and swap the roots (the left/right anti-isomorphism)."""
    return XTree(
        t.vertices,
        tuple((b, a, lab) for a, b, lab in t.edges),
        t.end,
        t.start,
    )


def to_json(t: XTree) -> str:
    validate(t)
    return json.dumps(
        {
            "vertices": t.vertices,
            "start": t.start,
            "end": t.end,
            "edges": [[a, b, lab] for a, b, lab in t.edges],
        },
        separators=(",", ":"),
    )


def from_json(text: str) -> XTree:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidTreeError("malformed JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise InvalidTreeError("malformed JSON at $: expected an object")
    for key, kind in (("vertices", int), ("start", int), ("end", int), ("edges", list)):
        if key not in obj:
            raise InvalidTreeError("malformed JSON at $.%s: missing" % key)
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise InvalidTreeError("malformed JSON at $.%s: wrong type" % key)
    edges = []
    for i, e in enumerate(obj["edges"]):
        if (
            not isinstance(e, list)
            or len(e) != 3
            or any(not isinstance(v, int) or isinstance(v, bool) for v in e[:2])
            or not isinstance(e[2], str)
        ):
            raise InvalidTreeError("malformed JSON at $.edges[%d]" % i)
        edges.append((e[0], e[1], e[2]))
    t = XTree(obj["vertices"], tuple(edges), obj["start"], obj["end"])
    validate(t)
    return t


def to_dot(t: XTree) -> str:
    """Human-inspection DOT output; start marked '+', end 'x'."""
    validate(t)
    lines = ["digraph xtree {"]
    for v in range(t.vertices):
        marks = ("+" if v == t.start else "") + ("×" if v == t.end else "")
        lines.append('  %d [label="%s"];' % (v, marks))
    for a, b, lab in t.edges:
        lines.append('  %d -> %d [label="%s"];' % (a, b, lab))
    lines.append("}")
    return "\n".join(lines)
