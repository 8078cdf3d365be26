"""Arithmetic of free (left/right/two-sided) adequate monoid elements.

Elements are stored as retract-free trees with a cached canonical code,
so equality is code comparison.  Multiplication glues end-to-start and
retracts; the unary operations relocate a root and retract.  The right
flavour is driven through the left machinery by the edge-reversing
anti-isomorphism.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import terms as terms_mod
from .retract import left_monogenic_core, retract
from .trees import (
    EPSILON,
    XTree,
    canonical_code,
    generator_tree,
    is_left,
    is_monogenic,
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
    """Retract eagerly and check the flavor's tree-shape invariant.

    The input is validated here.  A monogenic left tree is retracted and
    coded in one height walk; any other tree, including a non-left one
    that may retract to a left one, goes through the generic engine.  A
    left (right) element must then reach every vertex from its start
    along the edges (from its end against them).
    """
    trunk = validate(tree)
    if flavor is Flavor.LEFT and is_monogenic(tree):
        core = left_monogenic_core(tree, trunk)
        if core is not None:
            return Element(core[0], core[1], flavor)
    tree = retract(tree)
    if flavor is Flavor.LEFT and not is_left(tree):
        raise FlavorError("tree is not a left tree")
    if flavor is Flavor.RIGHT and not is_right(tree):
        raise FlavorError("tree is not a right tree")
    return Element(tree, canonical_code(tree), flavor)


def identity_element(flavor: Flavor) -> Element:
    return make_element(EPSILON, flavor)


def generator(label: str, flavor: Flavor) -> Element:
    return make_element(generator_tree(label), flavor)


def _require_same_flavor(s: Element, t: Element) -> None:
    if s.flavor is not t.flavor:
        raise FlavorError("flavor mismatch: %s vs %s" % (s.flavor, t.flavor))


def glue(s: XTree, t: XTree) -> XTree:
    """Glue t to s start-to-end, without retracting."""
    shift = s.vertices
    relabel = lambda v: s.end if v == t.start else (v + shift - (1 if v > t.start else 0))
    edges = s.edges + tuple((relabel(a), relabel(b), lab) for a, b, lab in t.edges)
    return XTree(s.vertices + t.vertices - 1, edges, s.start, relabel(t.end))


def multiply(s: Element, t: Element) -> Element:
    _require_same_flavor(s, t)
    return make_element(glue(s.tree, t.tree), s.flavor)


def plus_op(t: Element) -> Element:
    """Move the end marker to the start vertex, then retract."""
    if t.flavor is Flavor.RIGHT:
        raise FlavorError("plus is not in the right-adequate signature")
    moved = XTree(t.tree.vertices, t.tree.edges, t.tree.start, t.tree.start)
    return make_element(moved, t.flavor)


def star_op(t: Element) -> Element:
    """Move the start marker to the end vertex, then retract.

    Reversal is an anti-isomorphism that commutes with retraction, so
    this is reverse . plus . reverse.
    """
    if t.flavor is Flavor.LEFT:
        raise FlavorError("star is not in the left-adequate signature")
    moved = XTree(t.tree.vertices, t.tree.edges, t.tree.end, t.tree.end)
    return make_element(moved, t.flavor)


def _dual_flavor(f: Flavor) -> Flavor:
    if f is Flavor.LEFT:
        return Flavor.RIGHT
    if f is Flavor.RIGHT:
        return Flavor.LEFT
    return Flavor.TWO_SIDED


def reverse_element(t: Element) -> Element:
    """The anti-isomorphism image: flip all edges, swap roots, swap flavor."""
    return make_element(reverse_tree(t.tree), _dual_flavor(t.flavor))


def eval_term(t: "terms_mod.Term", assignment: dict[str, Element], flavor: Flavor) -> Element:
    """Structural evaluation: the unique morphism extending the assignment.

    Iterative, so a long word, which parses to a product nested as deep
    as the word is long, needs no recursion.  Subterms are evaluated left
    to right and an operator outside the flavor's signature is rejected
    before its argument is evaluated.
    """
    values: list[Element] = []
    todo = [(t, False)]  # (subterm, its arguments are on top of `values`)
    while todo:
        node, ready = todo.pop()
        if isinstance(node, terms_mod.Product):
            if ready:
                right = values.pop()
                values[-1] = multiply(values[-1], right)
            else:
                todo += ((node, True), (node.right, False), (node.left, False))
        elif isinstance(node, terms_mod.Letter):
            try:
                e = assignment[node.name]
            except KeyError:
                raise ValueError("unassigned letter: %s" % node.name) from None
            if e.flavor is not flavor:
                raise FlavorError("assignment flavor mismatch for %s" % node.name)
            values.append(e)
        elif isinstance(node, terms_mod.Plus):
            if ready:
                values[-1] = plus_op(values[-1])
            elif flavor is Flavor.RIGHT:
                raise FlavorError("plus operator not valid for the right flavor")
            else:
                todo += ((node, True), (node.child, False))
        elif isinstance(node, terms_mod.Star):
            if ready:
                values[-1] = star_op(values[-1])
            elif flavor is Flavor.LEFT:
                raise FlavorError("star operator not valid for the left flavor")
            else:
                todo += ((node, True), (node.child, False))
        elif isinstance(node, terms_mod.Identity):
            values.append(identity_element(flavor))
        else:
            raise TypeError("not a term: %r" % (node,))
    return values[0]

