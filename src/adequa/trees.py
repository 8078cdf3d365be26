"""Birooted, edge-labelled directed trees.

A tree here is a directed graph whose underlying undirected graph is a
tree, carrying two distinguished vertices (start and end) joined by a
directed path called the trunk.  All semantic operations are invariant
under renaming of vertex indices; equality of isomorphism types is
decided through :func:`canonical_code`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass


class InvalidTreeError(ValueError):
    """Raised when a vertex/edge structure is not a valid birooted tree."""


@dataclass(frozen=True)
class XTree:
    """A birooted edge-labelled directed tree.

    Vertices are 0..vertices-1; edges are (src, dst, label) triples.
    Edge order is normalised (sorted) so structurally equal trees with
    the same indexing compare equal.
    """

    vertices: int
    edges: tuple[tuple[int, int, str], ...]
    start: int
    end: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class TrunkInfo:
    """The unique directed start-to-end path of a valid tree."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]

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


def out_adjacency(t: XTree) -> list[list[tuple[int, str]]]:
    adj: list[list[tuple[int, str]]] = [[] for _ in range(t.vertices)]
    for src, dst, lab in t.edges:
        adj[src].append((dst, lab))
    return adj


def validate(t: XTree) -> TrunkInfo:
    """Check the tree and trunk invariants; return the trunk on success.

    Raises InvalidTreeError("not a tree") on disconnection, bad counts or
    out-of-range indices, and InvalidTreeError("no trunk") when there is
    no directed start-to-end path.
    """
    if t.vertices < 1:
        raise InvalidTreeError("not a tree: need at least one vertex")
    if not (0 <= t.start < t.vertices and 0 <= t.end < t.vertices):
        raise InvalidTreeError("not a tree: root out of range")
    if len(t.edges) != t.vertices - 1:
        raise InvalidTreeError(
            "not a tree: expected %d edges, got %d" % (t.vertices - 1, len(t.edges))
        )
    for src, dst, lab in t.edges:
        if not (0 <= src < t.vertices and 0 <= dst < t.vertices):
            raise InvalidTreeError("not a tree: edge endpoint out of range")
        if not (isinstance(lab, str) and lab):
            raise InvalidTreeError("not a tree: empty edge label")

    adj = undirected_adjacency(t)
    parent: dict[int, tuple[int, bool, str]] = {t.start: (t.start, True, "")}
    order = deque([t.start])
    while order:
        v = order.popleft()
        for w, out, lab in adj[v]:
            if w not in parent:
                parent[w] = (v, out, lab)
                order.append(w)
    if len(parent) != t.vertices:
        raise InvalidTreeError("not a tree: graph is disconnected")

    # The undirected start->end path is unique; the trunk exists iff every
    # edge along it is oriented forward.
    path = [t.end]
    while path[-1] != t.start:
        path.append(parent[path[-1]][0])
    path.reverse()
    trunk_edges = []
    for a, b in zip(path, path[1:]):
        _, out, lab = parent[b]
        if not out:
            raise InvalidTreeError("no trunk: no directed start-to-end path")
        trunk_edges.append((a, b, lab))
    return TrunkInfo(tuple(path), tuple(trunk_edges))


@dataclass(frozen=True)
class Classification:
    is_left: bool
    is_right: bool
    is_idempotent_shape: bool


def classify(t: XTree) -> Classification:
    """Left/right tree tests and the trunk-length-zero idempotency shape."""
    trunk = validate(t)
    out = out_adjacency(t)
    seen = {t.start}
    stack = [t.start]
    while stack:
        v = stack.pop()
        for w, _ in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    is_left = len(seen) == t.vertices

    rev: list[list[int]] = [[] for _ in range(t.vertices)]
    for src, dst, _ in t.edges:
        rev[dst].append(src)
    seen_r = {t.end}
    stack = [t.end]
    while stack:
        v = stack.pop()
        for w in rev[v]:
            if w not in seen_r:
                seen_r.add(w)
                stack.append(w)
    is_right = len(seen_r) == t.vertices
    return Classification(is_left, is_right, trunk.length == 0)


def is_monogenic(t: XTree) -> bool:
    return len({lab for _, _, lab in t.edges}) <= 1


def canonical_code(t: XTree) -> bytes:
    """Isomorphism-invariant code for the birooted tree.

    Bottom-up encoding rooted at the start vertex: each vertex becomes
    (end-flag, sorted children encodings), where a child enters the code
    with its direction relative to the traversal and its label.  Codes
    are equal iff the trees are isomorphic as birooted labelled trees.
    """
    validate(t)
    adj = undirected_adjacency(t)
    parent = [-1] * t.vertices
    order = [t.start]
    for v in order:
        for w, _, _ in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    # Every vertex follows its parent in `order`, so walking it backwards
    # encodes children before parents; a child's code is dropped once used.
    code: dict[int, bytes] = {}
    for v in reversed(order):
        parts = sorted(
            (b">" if out else b"<") + lab.encode() + code.pop(w)
            for w, out, lab in adj[v]
            if w != parent[v]
        )
        flag = b"E" if v == t.end else b""
        code[v] = b"(" + flag + b"".join(parts) + b")"
    return code[t.start]


def theta(t: XTree) -> XTree:
    """The trunk-only subtree: same start/end, all branches removed."""
    trunk = validate(t)
    relabel = {v: i for i, v in enumerate(trunk.vertices)}
    edges = tuple(
        (relabel[a], relabel[b], lab) for a, b, lab in trunk.edges
    )
    return XTree(trunk.length + 1, edges, 0, trunk.length)


def relabel_tree(t: XTree, perm: dict[int, int]) -> XTree:
    """Apply a vertex bijection; semantics-preserving by construction."""
    return XTree(
        t.vertices,
        tuple((perm[a], perm[b], lab) for a, b, lab in t.edges),
        perm[t.start],
        perm[t.end],
    )


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
            "edges": [[a, b, lab] for a, b, lab in sorted(t.edges)],
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
            or not isinstance(e[0], int)
            or not isinstance(e[1], int)
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
    for a, b, lab in sorted(t.edges):
        lines.append('  %d -> %d [label="%s"];' % (a, b, lab))
    lines.append("}")
    return "\n".join(lines)


def serialize(t: XTree, format: str = "json") -> str:
    if format == "json":
        return to_json(t)
    if format == "dot":
        return to_dot(t)
    raise ValueError("unknown format: %r" % format)
