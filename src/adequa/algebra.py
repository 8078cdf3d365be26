"""Arithmetic of free (left/right/two-sided) adequate monoid elements.

Elements are stored as retract-free trees whose canonical code is built
the first time it is read, so equality is code comparison.
Multiplication glues end-to-start and retracts; the unary operations
relocate a root and retract.  A term is evaluated by building its
unretracted tree and retracting once.  Every flavour shares one path:
`retract` chooses its engine, and `canonical_code` codes the result when
it is asked for.

A tree's fields are checked where it is built with `XTree(...)`.  The
trees built here from elements (a product, a term's raw tree, a moved
start, a reversal) are glued from checked trees, so they are built
through `trees._sorted_tree` without that check, and take the rooting
walk, `trees._root`, whose adjacency the retraction reuses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import terms as terms_mod
from .retract import Adjacency, retract
from .trees import (
    EPSILON,
    XTree,
    _root,
    _sorted_tree,
    _with_end,
    canonical_code,
    generator_tree,
    is_left,
    is_right,
    reverse_tree,
    validate,
)


class Flavor(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two-sided"


class FlavorError(ValueError):
    pass


@dataclass(frozen=True, slots=True, init=False)
class Element:
    """A free adequate monoid element: a retract-free tree and its flavor.

    `Element(tree, code, flavor)` roots the tree with `validate`, which
    returns at once for a tree whose rooting is stored, as every tree the
    package builds has.  `code` is the tree's canonical code when the
    caller has it, else None: the code is then built the first time
    `code`, `==` or `hash` reads it, and kept.
    """

    tree: XTree
    flavor: Flavor
    _code: bytes | None = field(repr=False)

    def __init__(self, tree: XTree, code: bytes | None, flavor: Flavor):
        validate(tree)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "_code", code)

    @property
    def code(self) -> bytes:
        code = self._code
        if code is None:
            code = canonical_code(self.tree)
            object.__setattr__(self, "_code", code)
        return code

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if self.flavor is not other.flavor:
            raise FlavorError("cannot compare elements of different flavors")
        return self.code == other.code

    def __hash__(self):
        return hash((self.code, self.flavor))

    @property
    def edge_count(self) -> int:
        return self.tree.edge_count

    @property
    def trunk_length(self) -> int:
        return validate(self.tree).length


def make_element(tree: XTree, flavor: Flavor, adj: Adjacency | None = None) -> Element:
    """Retract eagerly and check the flavor's tree-shape invariant; the
    element's code is built when it is first read.

    `retract` picks its engine.  Without `adj` it roots the input with
    the rooting walk, unless it is rooted already; the builders of this
    module pass the adjacency of that walk (`trees._root`), taken on the
    tree they glued.  A left (right) element must then reach every vertex
    from its start along the edges (from its end against them).
    """
    tree = retract(tree, adj)
    if flavor is Flavor.LEFT and not is_left(tree):
        raise FlavorError("tree is not a left tree")
    if flavor is Flavor.RIGHT and not is_right(tree):
        raise FlavorError("tree is not a right tree")
    return Element(tree, None, flavor)


_IDENTITIES: dict[Flavor, Element] = {}


def identity_element(flavor: Flavor) -> Element:
    """The flavor's identity, built on first use and shared afterwards."""
    e = _IDENTITIES.get(flavor)
    if e is None:
        e = _IDENTITIES[flavor] = make_element(EPSILON, flavor)
    return e


_GENERATORS: dict[tuple[str, Flavor], Element] = {}


def generator(label: str, flavor: Flavor) -> Element:
    """The generator `label` of the flavor, built on first use and shared
    afterwards; a label that `XTree(...)` rejects raises on every call."""
    e = _GENERATORS.get((label, flavor))
    if e is None:
        e = _GENERATORS[label, flavor] = make_element(generator_tree(label), flavor)
    return e


def glue(s: XTree, t: XTree) -> XTree:
    """Glue t to s start-to-end, without retracting."""
    shift = s.vertices
    relabel = lambda v: s.end if v == t.start else (v + shift - (1 if v > t.start else 0))
    edges = s.edges + tuple((relabel(a), relabel(b), lab) for a, b, lab in t.edges)
    return _sorted_tree(s.vertices + t.vertices - 1, tuple(sorted(edges)), s.start, relabel(t.end))


def multiply(s: Element, t: Element) -> Element:
    if s.flavor is not t.flavor:
        raise FlavorError("flavor mismatch: %s vs %s" % (s.flavor, t.flavor))
    glued = glue(s.tree, t.tree)
    return make_element(glued, s.flavor, _root(glued))


def plus_op(t: Element) -> Element:
    """Move the end marker to the start vertex, sharing the operand's
    rooting at the start, then retract."""
    if t.flavor is Flavor.RIGHT:
        raise FlavorError("plus is not in the right-adequate signature")
    return make_element(_with_end(t.tree, t.tree.start), t.flavor)


def star_op(t: Element) -> Element:
    """Move the start marker to the end vertex, then retract.

    Reversal is an anti-isomorphism that commutes with retraction, so
    this is reverse . plus . reverse.
    """
    if t.flavor is Flavor.LEFT:
        raise FlavorError("star is not in the left-adequate signature")
    moved = _sorted_tree(t.tree.vertices, t.tree.edges, t.tree.end, t.tree.end)
    return make_element(moved, t.flavor, _root(moved))


_DUAL = {Flavor.LEFT: Flavor.RIGHT, Flavor.RIGHT: Flavor.LEFT, Flavor.TWO_SIDED: Flavor.TWO_SIDED}


def reverse_element(t: Element) -> Element:
    """The anti-isomorphism image: flip all edges, swap roots, swap flavor."""
    flipped = reverse_tree(t.tree)
    return make_element(flipped, _DUAL[t.flavor], _root(flipped))


_END = object()  # on eval_term's stack: (_END, v, star) ends a ^+ or ^* begun at v


def eval_term(t: "terms_mod.Term", assignment: dict[str, Element], flavor: Flavor) -> Element:
    """Structural evaluation: the unique morphism extending the assignment.

    A term's value is the retract of its raw tree (Kambites).  One
    iterative pass builds that tree, threading the current vertex down
    the term, and it is retracted once.  Only ^* identifies two vertices:
    its argument's end, built from a fresh vertex, with the current one.
    An operator outside the flavor's signature is rejected before its
    argument is visited.
    """
    edges: list[tuple[int, int, str]] = []
    n = 1  # vertices made so far; vertex 0 is the start
    cur = 0  # where the next subterm starts, and then where it ended
    same: list[tuple[int, int]] = []  # (e, v): ^* identified e with v
    todo: list = [t]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is terms_mod.Product:
            todo += (node.right, node.left)
        elif kind is terms_mod.Letter:
            try:
                e = assignment[node.name]
            except KeyError:
                raise ValueError("unassigned letter: %s" % node.name) from None
            if e.flavor is not flavor:
                raise FlavorError("assignment flavor mismatch for %s" % node.name)
            s = e.tree.start
            if e.tree.vertices == 2:  # one edge, as a generator's: its other end is n
                (a, _, lab), = e.tree.edges
                edges.append((cur, n, lab) if a == s else (n, cur, lab))
                if e.tree.end != s:
                    cur = n
                n += 1
            else:
                at = [cur if v == s else n + v - (v > s) for v in range(e.tree.vertices)]
                edges += [(at[a], at[b], lab) for a, b, lab in e.tree.edges]
                cur = at[e.tree.end]
                n += e.tree.vertices - 1
        elif kind is terms_mod.Plus:
            if flavor is Flavor.RIGHT:
                raise FlavorError("plus operator not valid for the right flavor")
            todo += ((_END, cur, False), node.child)
        elif kind is terms_mod.Star:
            if flavor is Flavor.LEFT:
                raise FlavorError("star operator not valid for the left flavor")
            todo += ((_END, cur, True), node.child)
            cur = n
            n += 1
        elif kind is tuple and node[0] is _END:
            if node[2]:
                same.append((cur, node[1]))
            cur = node[1]
        elif kind is not terms_mod.Identity:
            raise TypeError("not a term: %r" % (node,))
    if type(t) is terms_mod.Letter:  # its value is its element, retracted already
        return e
    if same:
        # e is never visited again once identified with the older v, so v can
        # only be identified later: resolving from the last one is final.
        rep = list(range(n))
        for e, v in reversed(same):
            rep[e] = rep[v]
        index = {v: i for i, v in enumerate(sorted(set(rep)))}
        edges = [(index[rep[a]], index[rep[b]], lab) for a, b, lab in edges]
        n, cur = len(index), index[rep[cur]]
    raw = _sorted_tree(n, tuple(sorted(edges)), 0, cur)
    return make_element(raw, flavor, _root(raw))
