"""Arithmetic of free (left/right/two-sided) adequate monoid elements.

Elements are stored as retract-free trees whose canonical code is built
the first time it is read, so equality is code comparison.
Multiplication glues end-to-start and retracts; the unary operations
relocate a root and retract.  A term is evaluated by building its
unretracted tree and retracting once.  Every flavour shares one path:
`retract` chooses its engine, and `canonical_code` codes the result when
it is asked for.  `eval_code` gives the code of a term's value alone,
which is all an identity check compares; for the left flavor it builds
no element, and `eval_term` is its oracle.

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


_LEFT = Flavor.LEFT  # a global reads faster than an enum member
_RIGHT = Flavor.RIGHT


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
    if flavor is _LEFT and not is_left(tree):
        raise FlavorError("tree is not a left tree")
    if flavor is _RIGHT and not is_right(tree):
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
    n, ts = s.vertices, t.start
    at = [s.end if v == ts else n + v - (v > ts) for v in range(t.vertices)]
    edges = list(s.edges)
    edges += [(at[a], at[b], lab) for a, b, lab in t.edges]
    edges.sort()
    return _sorted_tree(n + t.vertices - 1, tuple(edges), s.start, at[t.end])


def multiply(s: Element, t: Element) -> Element:
    if s.flavor is not t.flavor:
        raise FlavorError("flavor mismatch: %s vs %s" % (s.flavor, t.flavor))
    glued = glue(s.tree, t.tree)
    return make_element(glued, s.flavor, _root(glued))


def plus_op(t: Element) -> Element:
    """Move the end marker to the start vertex, sharing the operand's
    rooting at the start, then retract."""
    if t.flavor is _RIGHT:
        raise FlavorError("plus is not in the right-adequate signature")
    return make_element(_with_end(t.tree, t.tree.start), t.flavor)


def star_op(t: Element) -> Element:
    """Move the start marker to the end vertex, then retract.

    Reversal is an anti-isomorphism that commutes with retraction, so
    this is reverse . plus . reverse.
    """
    if t.flavor is _LEFT:
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
            if flavor is _RIGHT:
                raise FlavorError("plus operator not valid for the right flavor")
            todo += ((_END, cur, False), node.child)
        elif kind is terms_mod.Star:
            if flavor is _LEFT:
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


def eval_code(t: "terms_mod.Term", assignment: dict[str, Element], flavor: Flavor) -> bytes:
    """`eval_term(t, assignment, flavor).code`, byte for byte.

    The left flavor is coded without building an element.  Its raw tree
    is an out-tree, so a branch b folds at its anchor exactly when it
    maps, b to c, into another alive child c of the anchor with b's
    label; a retract-free result keeps no such branch.  One iterative
    pass over the term builds the raw tree as child lists, its vertices
    numbered parents first; a letter's tree is copied in the order of
    its stored rooting, and a ^+ returns to the vertex where it began.
    One pass from the last vertex to the first then drops, at each
    vertex, every child off the trunk (the end and its ancestors) that
    maps into a sibling (`_maps_into`), and writes the `canonical_code`
    bytes of the children it keeps.  Over one label a branch maps into a
    sibling exactly when it is no higher: the height rule of the
    monogenic retraction, which the search tests first.  The other
    flavors, and a left element whose tree is not a left tree, go
    through `eval_term`.  The errors are eval_term's, raised at the same
    node.
    """
    if flavor is not _LEFT:
        return eval_term(t, assignment, flavor).code
    par = [0]  # par[v]: v's parent; the start is its own
    # edge[v]: the bytes `canonical_code` writes for the edge into v,
    # b">" and its label, so that equal labels have equal bytes
    edge = [b""]
    kids: list[list[int]] = [[]]  # v's children, then those kept
    n = 1
    cur = 0
    plans: dict[str, tuple] = {}  # letter -> `_copy_plan` of its tree
    todo: list = [t]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is terms_mod.Product:
            todo += (node.right, node.left)
        elif kind is terms_mod.Letter:
            plan = plans.get(node.name)
            if plan is None:  # the letter's first occurrence
                try:
                    e = assignment[node.name]
                except KeyError:
                    raise ValueError("unassigned letter: %s" % node.name) from None
                if e.flavor is not flavor:
                    raise FlavorError("assignment flavor mismatch for %s" % node.name)
                plan = plans[node.name] = _copy_plan(e.tree)
                if plan is None:  # not a left tree: eval_term says what it is
                    return eval_term(t, assignment, flavor).code
            steps, end = plan
            base = n - 1  # the plan's i-th vertex becomes base + i
            for p, lb in steps:
                a = base + p if p else cur
                par.append(a)
                edge.append(lb)
                kids.append([])
                kids[a].append(n)
                n += 1
            if end:
                cur = base + end
        elif kind is terms_mod.Plus:
            todo += (cur, node.child)
        elif kind is int:  # a ^+ ends where it began
            cur = node
        elif kind is terms_mod.Star:
            raise FlavorError("star operator not valid for the left flavor")
        elif kind is not terms_mod.Identity:
            raise TypeError("not a term: %r" % (node,))
    if type(t) is terms_mod.Letter:  # its value is its element
        return e.code
    end = cur
    trunk = bytearray(n)
    v = end
    while v:
        trunk[v] = 1
        v = par[v]
    trunk[0] = 1
    height = [0] * n
    code: list = [None] * n  # v's code, until its parent's is written
    memo: dict[int, bool] = {}
    for v in range(n - 1, -1, -1):
        ks = kids[v]
        if not ks:
            code[v] = b"(E)" if v == end else b"()"
            if not height[par[v]]:
                height[par[v]] = 1
            continue
        if len(ks) > 1:
            kept = ks[:]
            for b in ks:
                if trunk[b]:
                    continue
                eb, hb, cb = edge[b], height[b], code[b]
                for c in kept:
                    if c != b and edge[c] == eb and height[c] >= hb and (
                        code[c] == cb or _maps_into(b, c, kids, edge, height, memo, n)
                    ):
                        kept.remove(b)
                        break
            kids[v] = ks = kept
        if len(ks) == 1:
            c = ks[0]
            body = edge[c] + code[c]
        else:
            parts = [edge[c] + code[c] for c in ks]
            parts.sort()
            body = b"".join(parts)
        for c in ks:
            code[c] = None
        code[v] = (b"(E" if v == end else b"(") + body + b")"
        h = height[v] + 1
        if h > height[par[v]]:
            height[par[v]] = h
    return code[0]


def _copy_plan(t: XTree) -> tuple | None:
    """How `eval_code` copies a left tree: its non-start vertices in the
    order of its rooting, each as (its parent's place in that order, the
    start's being 0, the bytes of its edge), and the end's place; None if
    t is not a left tree."""
    if t.vertices == 2:  # one edge, as a generator's
        (a, _, lab), = t.edges
        if a != t.start:
            return None
        lb = b">" + lab.encode()
        return ((0, lb),), 0 if t.end == t.start else 1
    r = validate(t)
    order, parent, forward, label = r.order, r.parent, r.forward, r.label
    place = {v: i for i, v in enumerate(order)}
    steps = []
    for v in order[1:]:
        if not forward[v]:
            return None
        steps.append((place[parent[v]], b">" + label[v].encode()))
    return steps, place[t.end]


def _maps_into(b: int, c: int, kids: list[list[int]], edge: list[bytes], height: list[int],
               memo: dict[int, bool], n: int) -> bool:
    """Does the subtree at b map into the one at c, b to c, keeping edge
    labels?  Both are subtrees of one out-tree, so each child of a
    pattern vertex must go to a child of its image with the same edge
    and no smaller height.  Depth first with an explicit stack; `memo`
    holds the answers of one `eval_code` call by pair p * n + h."""
    stack = [(b, c)]
    while stack:
        p, h = stack[-1]
        holds = True
        wait = None  # a pair whose answer this one needs first
        for x in kids[p]:
            ex, hx = edge[x], height[x]
            found = False
            for y in kids[h]:
                if edge[y] != ex or height[y] < hx:
                    continue
                if not kids[x]:
                    found = True
                    break
                m = memo.get(x * n + y)
                if m is None:
                    wait = (x, y)
                    break
                if m:
                    found = True
                    break
            if wait is not None:
                break
            if not found:
                holds = False
                break
        if wait is not None:
            stack.append(wait)
        else:
            memo[p * n + h] = holds
            stack.pop()
    return memo[b * n + c]
