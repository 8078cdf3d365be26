"""Birooted, edge-labelled directed trees.

A tree here is a directed graph whose underlying undirected graph is a
tree, carrying two distinguished vertices (start and end) joined by a
directed path called the trunk.  All semantic operations are invariant
under renaming of vertex indices; equality of isomorphism types is
decided through :func:`canonical_code`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace


class InvalidTreeError(ValueError):
    """Raised when a vertex/edge structure is not a valid birooted tree."""


@dataclass(frozen=True, slots=True, weakref_slot=True)
class XTree:
    """A birooted edge-labelled directed tree.

    Vertices are 0..vertices-1; edges are (src, dst, label) triples.
    Edge order is normalised (sorted) so structurally equal trees with
    the same indexing compare equal.  `rooting` is set by `validate` or
    `_with_end`; it is not part of the tree's value, so `==`, `hash` and
    `repr` ignore it.
    """

    vertices: int
    edges: tuple[tuple[int, int, str], ...]
    start: int
    end: int
    rooting: TrunkInfo | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, slots=True)
class TrunkInfo:
    """The unique directed start-to-end path of a valid tree, with the
    rooting at the start that found it.

    `adj` is the tree's `undirected_adjacency`; `parent[v]` is the
    neighbour of v towards the start (the start is its own parent);
    `forward[v]` says whether the edge between them is (parent[v], v);
    `order` is the breadth-first order, each vertex after its parent.
    It is computed once per tree object and kept on the tree, so the
    lists are shared by every reader and must not be changed.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]
    adj: list[list[tuple[int, bool, str]]]
    parent: list[int]
    forward: list[bool]
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
    no directed start-to-end path.  A success is stored in the tree's
    `rooting`, which later calls return without checking again; a
    failure is not stored, so an invalid tree raises on every call.
    `_with_end` is the one other writer of `rooting`.  Labels may not
    contain the bytes that delimit them in `canonical_code` or `to_dot`.
    """
    if t.rooting is not None:
        return t.rooting
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

    # BFS from the start; each vertex records its parent and the direction
    # and label of the edge it was reached by.
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

    # The undirected start->end path is unique; the trunk exists iff every
    # edge along it is oriented forward.
    path = [t.end]
    while path[-1] != t.start:
        path.append(parent[path[-1]])
    path.reverse()
    if not all(forward[b] for b in path[1:]):
        raise InvalidTreeError("no trunk: no directed start-to-end path")
    trunk_edges = tuple((parent[b], b, label[b]) for b in path[1:])
    info = TrunkInfo(tuple(path), trunk_edges, adj, parent, forward, order)
    object.__setattr__(t, "rooting", info)
    return info


def _with_end(t: XTree, end: int) -> XTree:
    """t with its end moved to `end`, sharing t's rooting at the start.
    The new trunk is the parent path from `end`; InvalidTreeError("no
    trunk") unless each edge on it points away from the start."""
    r = validate(t)
    if end == t.end:
        return t
    path = [end]
    while path[-1] != t.start:
        if not r.forward[path[-1]]:
            raise InvalidTreeError("no trunk: no directed start-to-end path")
        path.append(r.parent[path[-1]])
    path.reverse()
    # b's edge to its parent a is the one entry for a in adj[b]
    edges = tuple(
        (a, b, lab) for a, b in zip(path, path[1:]) for w, _, lab in r.adj[b] if w == a
    )
    u = XTree(t.vertices, t.edges, t.start, end)
    object.__setattr__(u, "rooting", replace(r, vertices=tuple(path), edges=edges))
    return u


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
    rooting = validate(t)
    adj, parent, end = rooting.adj, rooting.parent, t.end
    # Every vertex follows its parent in `order`, so walking it backwards
    # encodes children before parents; a child's code is dropped once used.
    code: dict[int, bytes] = {}
    for v in reversed(rooting.order):
        p = parent[v]
        parts = [
            (b">" if out else b"<") + lab.encode() + code.pop(w)
            for w, out, lab in adj[v]
            if w != p
        ]
        parts.sort()
        code[v] = (b"(E" if v == end else b"(") + b"".join(parts) + b")"
    return code[t.start]


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
