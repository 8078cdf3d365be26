"""Arithmetic of free (left/right/two-sided) adequate monoid elements.

Elements are stored as retract-free trees with a cached canonical code,
so equality is code comparison.  Multiplication glues end-to-start and
retracts; the unary operations relocate a root and retract.  A term is
evaluated by building its unretracted tree and retracting once.  Every
flavour shares one path: `retract` chooses its engine, and
`canonical_code` codes the result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import terms as terms_mod
from .retract import retract
from .trees import (
    EPSILON,
    XTree,
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


@dataclass(frozen=True, slots=True)
class Element:
    """A free adequate monoid element: retract-free tree plus its code."""

    tree: XTree
    code: bytes
    flavor: Flavor

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


def make_element(tree: XTree, flavor: Flavor) -> Element:
    """Retract eagerly, check the flavor's tree-shape invariant, and code.

    `retract` validates the input and picks its engine.  A left (right)
    element must then reach every vertex from its start along the edges
    (from its end against them).  `canonical_code` gives the code.
    """
    tree = retract(tree)
    if flavor is Flavor.LEFT and not is_left(tree):
        raise FlavorError("tree is not a left tree")
    if flavor is Flavor.RIGHT and not is_right(tree):
        raise FlavorError("tree is not a right tree")
    return Element(tree, canonical_code(tree), flavor)


_IDENTITIES: dict[Flavor, Element] = {}


def identity_element(flavor: Flavor) -> Element:
    """The flavor's identity, built on first use and shared afterwards."""
    e = _IDENTITIES.get(flavor)
    if e is None:
        e = _IDENTITIES[flavor] = make_element(EPSILON, flavor)
    return e


def generator(label: str, flavor: Flavor) -> Element:
    return make_element(generator_tree(label), flavor)


def glue(s: XTree, t: XTree) -> XTree:
    """Glue t to s start-to-end, without retracting."""
    shift = s.vertices
    relabel = lambda v: s.end if v == t.start else (v + shift - (1 if v > t.start else 0))
    edges = s.edges + tuple((relabel(a), relabel(b), lab) for a, b, lab in t.edges)
    return XTree(s.vertices + t.vertices - 1, edges, s.start, relabel(t.end))


def multiply(s: Element, t: Element) -> Element:
    if s.flavor is not t.flavor:
        raise FlavorError("flavor mismatch: %s vs %s" % (s.flavor, t.flavor))
    return make_element(glue(s.tree, t.tree), s.flavor)


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
    moved = XTree(t.tree.vertices, t.tree.edges, t.tree.end, t.tree.end)
    return make_element(moved, t.flavor)


_DUAL = {Flavor.LEFT: Flavor.RIGHT, Flavor.RIGHT: Flavor.LEFT, Flavor.TWO_SIDED: Flavor.TWO_SIDED}


def reverse_element(t: Element) -> Element:
    """The anti-isomorphism image: flip all edges, swap roots, swap flavor."""
    return make_element(reverse_tree(t.tree), _DUAL[t.flavor])


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
    return make_element(XTree(n, edges, 0, cur), flavor)
