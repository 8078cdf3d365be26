"""Retraction engine: folding, confluence, oracle agreement, fast path."""

import itertools
import os
import random
import sys
from dataclasses import fields

import pytest

from adequa.growth import (
    _level_sequence_to_edges,
    oriented_trees,
    rooted_tree_level_sequences,
    structural_left_trees,
)
from adequa.retract import (
    _folds,
    _left_monogenic_kept,
    _rooted,
    endomorphism_oracle,
    find_foldable_branch,
    hom_exists,
    is_retract_free,
    retract,
)
from adequa.trees import (
    TrunkInfo,
    XTree,
    canonical_code,
    generator_tree,
    is_left,
    is_right,
    undirected_adjacency,
    validate,
)

from .test_trees import relabel_tree

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def below(t, b):
    """b and every vertex whose path to the start passes through b."""
    r = validate(t)
    inside = {b}
    for v in r.order:
        if r.parent[v] in inside and v != t.start:
            inside.add(v)
    return inside


def assert_found_head_keeps_retract(t):
    b = find_foldable_branch(t)
    if b is None:
        assert retract(t) == t
        return
    assert b not in validate(t).vertices, t
    d = induced(t, set(range(t.vertices)) - below(t, b))
    assert canonical_code(retract(d)) == canonical_code(retract(t)), t


def a_tree(edges, start, end):
    n = 1 + max(max(a, b) for a, b, *_ in edges)
    return XTree(n, tuple((a, b, "a") for a, b, *_ in edges), start, end)


def induced(t, keep):
    """The subtree of t on the vertex set keep, renumbered in order."""
    relabel = {v: i for i, v in enumerate(sorted(keep))}
    edges = tuple(
        (relabel[a], relabel[b], lab)
        for a, b, lab in t.edges
        if a in relabel and b in relabel
    )
    return XTree(len(relabel), edges, relabel[t.start], relabel[t.end])


class TestFolding:
    def test_sibling_branch_folds(self):
        # single-edge branches at the start all fold into the trunk edge
        t = a_tree([(0, 1), (0, 2), (0, 3)], 0, 1)
        r = retract(t)
        assert canonical_code(r) == canonical_code(a_tree([(0, 1)], 0, 1))

    def test_branch_shorter_than_sibling_folds(self):
        t = a_tree([(0, 1), (0, 2), (2, 3), (0, 4)], 0, 1)
        r = retract(t)
        assert canonical_code(r) == canonical_code(
            a_tree([(0, 1), (0, 2), (2, 3)], 0, 1)
        )

    def test_branch_folds_into_trunk(self):
        # (a^2)+ (a^5)+ = (a^5)+: the short chain folds into the long trunk
        t = a_tree([(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7)], 0, 0)
        # model: idempotent with two chains from the root, start = end = 0
        r = retract(t)
        assert r.edge_count == 5

    def test_retract_free_fixed(self):
        t = a_tree([(0, 1), (0, 2), (2, 3)], 0, 1)
        assert retract(t) == t
        assert is_retract_free(t)

    def test_trunk_never_deleted(self):
        for t in itertools.islice(oriented_trees(5), 0, None, 17):
            r = retract(t)
            assert len(validate(r).edges) == len(validate(t).edges)
            assert r.edge_count <= t.edge_count

    def test_found_branch_keeps_retract(self):
        for t in itertools.islice(oriented_trees(5), 0, None, 7):
            assert_found_head_keeps_retract(t)

    def test_long_foldable_branch(self):
        # a 250-edge a-branch at the start of a 300-edge a-trunk folds away
        trunk = [(i, i + 1, "a") for i in range(300)]
        branch = [(0, 301, "a")] + [(i, i + 1, "a") for i in range(301, 550)]
        r = retract(XTree(551, tuple(trunk + branch), 0, 300))
        assert r.edge_count == 300
        assert canonical_code(r) == canonical_code(XTree(301, tuple(trunk), 0, 300))

    def test_wide_fan_folds_onto_one_leaf(self):
        # 3000 a-leaves out of the trunk's end, which the trunk enters: all
        # but one fold onto a surviving sibling
        leaves = tuple((0, i, "a") for i in range(2, 3002))
        r = retract(XTree(3002, ((1, 0, "a"),) + leaves, 1, 0))
        one_leaf = XTree(3, ((1, 0, "a"), (0, 2, "a")), 1, 0)
        assert canonical_code(r) == canonical_code(one_leaf)


def random_tree(rng, n_edges, labels):
    """A random tree with mixed edge directions; end reachable from start."""
    edges = []
    out = [[] for _ in range(n_edges + 1)]
    for v in range(1, n_edges + 1):
        p = rng.randrange(v)
        lab = rng.choice(labels)
        if rng.random() < 0.5:
            edges.append((p, v, lab))
            out[p].append(v)
        else:
            edges.append((v, p, lab))
            out[v].append(p)
    reach = [0]
    for v in reach:
        reach.extend(out[v])
    return XTree(n_edges + 1, tuple(edges), 0, rng.choice(reach))


def core_of(t):
    """The smallest image of an idempotent endomorphism, as a tree."""
    image = min(
        (set(e.vertex_map) for e in endomorphism_oracle(t) if e.is_idempotent),
        key=len,
    )
    return induced(t, image)


def core_with_copies(rng, n_edges):
    """A tree of n_edges edges and its retract-free retract, by construction.

    The core is a two-label trunk plus branches headed by labels used
    nowhere else, below which siblings carry distinct labels and point the
    same way, so the core is rigid.  The rest are copies of connected parts
    of the core, each attached next to its original, so each folds onto it.
    """
    k = 40
    edges = [(i, i + 1, rng.choice("ab")) for i in range(k)]
    nv = k + 1
    for head in range(30):
        anchor = rng.randrange(nv)
        away = rng.random() < 0.5
        v = nv
        nv += 1
        edges.append((anchor, v, "u%d" % head) if away else (v, anchor, "u%d" % head))
        frontier = [v]
        for _ in range(rng.randint(2, 8)):
            p = frontier.pop(rng.randrange(len(frontier)))
            for lab in rng.sample("abc", rng.randint(1, 3)):
                edges.append((p, nv, lab) if away else (nv, p, lab))
                frontier.append(nv)
                nv += 1
    core = XTree(nv, tuple(edges), 0, k)
    adj = [[] for _ in range(nv)]
    for a, b, lab in edges:
        adj[a].append((b, True, lab))
        adj[b].append((a, False, lab))
    while len(edges) < n_edges:
        v = rng.randrange(core.vertices)
        w, _, _ = rng.choice(adj[v])
        # copy a connected piece beyond v, grown from w, and hang it on v
        copy = {v: v}
        parent = {w: v}
        queue = [w]
        for x in queue:
            if len(edges) == n_edges:
                break
            copy[x] = nv
            nv += 1
            p = parent[x]
            for y, out, lab in adj[x]:
                if y == p:
                    edges.append((copy[x], copy[p], lab) if out else (copy[p], copy[x], lab))
                elif y not in parent:
                    parent[y] = x
                    queue.append(y)
    return XTree(nv, tuple(edges), 0, k), core


def folded_heads(t):
    """The heads of the branches that the retraction pass deletes."""
    adj, parent, order = _rooted(t)
    return set(_folds(adj, parent, order))


def rooting_sample():
    """Every tree of oriented_trees(n), n <= 5, with every end, and 300
    seeded two-label trees with mixed edge directions."""
    for n in range(6):
        yield from oriented_trees(n)
    rng = random.Random(19)
    for _ in range(300):
        yield random_tree(rng, rng.randint(1, 12), "ab")


def reaches_every_vertex(t, along):
    """Does the walk from the start along the edges (along=True), or from
    the end against them, reach every vertex?"""
    succ = [[] for _ in range(t.vertices)]
    for a, b, _ in t.edges:
        (succ[a] if along else succ[b]).append(b if along else a)
    seen = {t.start if along else t.end}
    stack = list(seen)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == t.vertices


class TestRooting:
    """The rooting `validate` returns, which canonical_code, the engine
    and the shape tests read instead of walking the tree again."""

    def test_rooting_contract(self):
        shapes = set()
        for t in rooting_sample():
            r = validate(t)
            edges = {(a, b) for a, b, _ in t.edges}
            labels = {}
            for a, b, lab in t.edges:
                labels[a, b] = labels[b, a] = lab
            assert r.order[0] == t.start == r.parent[t.start]
            assert sorted(r.order) == list(range(t.vertices))
            position = {v: i for i, v in enumerate(r.order)}
            for v in range(t.vertices):
                p = r.parent[v]
                assert v == t.start or position[p] < position[v]
                assert v == t.start or (p, v) in edges or (v, p) in edges
                assert r.forward[v] == ((p, v) in edges)
                assert r.label[v] == ("" if v == t.start else labels[p, v])
            left, right = reaches_every_vertex(t, True), reaches_every_vertex(t, False)
            assert (is_left(t), is_right(t)) == (left, right)
            shapes.add((left, right))
        assert len(shapes) == 4

    def test_rooting_is_flat(self):
        # a kept rooting holds per-vertex arrays of scalars and the trunk's
        # own edge triples, nothing the garbage collector must walk into
        for t in rooting_sample():
            r = validate(t)
            for f in fields(TrunkInfo):
                value = getattr(r, f.name)
                assert isinstance(value, (tuple, list)), f.name
                items = [x for e in value for x in e] if f.name == "edges" else value
                assert all(type(x) in (int, bool, str) for x in items), f.name
                if f.name in ("parent", "forward", "label", "order"):
                    assert len(value) == t.vertices, f.name
            assert all(len(e) == 3 for e in r.edges) and len(r.edges) == r.length

    def test_rooted_branches_follow_their_parents(self):
        for t in rooting_sample():
            trunk = validate(t)
            before = list(trunk.parent)
            adj, parent, order = _rooted(t)
            assert adj == undirected_adjacency(t) and trunk.parent == before
            assert all(parent[v] == -1 for v in trunk.vertices)
            assert sorted(order) == sorted(set(range(t.vertices)) - set(trunk.vertices))
            placed = set(trunk.vertices)
            for v in order:
                assert parent[v] in placed and parent[v] == trunk.parent[v]
                placed.add(v)


def searched_folds(t):
    """The heads the leaves-first pass deletes when every branch is
    searched, whatever the kinds at its anchor."""
    adj, parent, order = _rooted(t)
    alive = [True] * len(adj)
    heads = []
    for b in reversed(order):
        if hom_exists(adj, parent, alive, b):
            alive[b] = False
            heads.append(b)
    return heads


def kind_sample():
    """Every tree of oriented_trees(n), n <= 6, with every end; 3000 seeded
    trees with two or three labels, mixed edge directions and scrambled
    vertex numbers; and 20 of the benchmark's large trees."""
    for n in range(7):
        yield from oriented_trees(n)
    rng = random.Random(29)
    for i in range(3000):
        t = random_tree(rng, rng.randint(1, 14), "ab" if i % 2 else "abc")
        perm = list(range(t.vertices))
        rng.shuffle(perm)
        yield relabel_tree(t, perm)
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    rng = random.Random(7)
    sizes = [150, 240, 375, 590, 935]
    for i in range(20):
        yield workloads.big_tree(rng, sizes[i % len(sizes)])[0]


class TestKindFilter:
    """`_folds` searches a branch only when its kind (direction seen from
    the anchor, and label) occurs twice among its anchor's alive edges."""

    def test_same_folds_as_searching_every_branch(self):
        for t in kind_sample():
            adj, parent, order = _rooted(t)
            assert list(_folds(adj, parent, order)) == searched_folds(t), t

    @pytest.fixture
    def searches(self, monkeypatch):
        """The heads `hom_exists` is called on, in call order."""
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return hom_exists(*args)

        monkeypatch.setattr("adequa.retract.hom_exists", counted)
        return calls

    def test_distinct_kinds_make_no_search(self, searches):
        # a directed a-path hanging off the start: one edge in and one out
        # at each vertex; and a tree whose edges all carry distinct labels
        t = random_tree(random.Random(31), 200, "a")
        edges = tuple((a, b, "e%d" % i) for i, (a, b, _) in enumerate(t.edges))
        distinct = XTree(t.vertices, edges, t.start, t.end)
        path = XTree(301, tuple((i, i + 1, "a") for i in range(300)), 0, 0)
        for t in (path, distinct):
            assert validate(t).length < t.edge_count
            assert is_retract_free(t, engine="generic")
            assert retract(t) is t
        assert searches == []

    def test_a_dead_head_leaves_its_kind_count(self, searches):
        # three a-leaves out of the start: the last two tested fold, and the
        # first, with no a-edge left beside it, is not searched
        t = XTree(5, ((0, 1, "b"), (0, 2, "a"), (0, 3, "a"), (0, 4, "a")), 0, 1)
        assert folded_heads(t) == {3, 4}
        assert searches == [4, 3]


class TestConfluence:
    def test_random_order_same_retract(self):
        # The pass visits branches in an order set by the vertex numbers,
        # so a randomly renumbered copy may delete other, isomorphic
        # branches; its retract must still be the same tree up to
        # isomorphism (Hell & Nesetril).
        rng = random.Random(11)
        pool = list(oriented_trees(6))
        reordered = 0
        for t in rng.sample(pool, 300):
            expected = canonical_code(retract(t))
            heads = folded_heads(t)
            for _ in range(3):
                perm = list(range(t.vertices))
                rng.shuffle(perm)
                s = relabel_tree(t, perm)
                assert canonical_code(retract(s)) == expected
                reordered += {perm.index(b) for b in folded_heads(s)} != heads
        # the copies really do change which branches fold
        assert reordered > 0

    def test_retract_is_idempotent(self):
        rng = random.Random(13)
        pool = list(oriented_trees(6))
        for t in rng.sample(pool, 200):
            r = retract(t)
            assert retract(r) == r


class TestOracle:
    def test_oracle_agreement_sampled(self):
        rng = random.Random(17)
        pool = list(oriented_trees(6))
        for t in rng.sample(pool, 400):
            engine = is_retract_free(t, engine="generic")
            oracle = all(
                not e.is_idempotent or e.is_identity for e in endomorphism_oracle(t)
            )
            assert engine == oracle, t

    def test_oracle_agreement_two_labels(self):
        rng = random.Random(19)
        for _ in range(300):
            t = random_tree(rng, rng.randint(1, 8), "ab")
            oracle_free = all(
                not e.is_idempotent or e.is_identity for e in endomorphism_oracle(t)
            )
            assert is_retract_free(t, engine="generic") == oracle_free, t
            assert canonical_code(retract(t)) == canonical_code(core_of(t)), t

    def test_known_retract_of_large_tree(self):
        rng = random.Random(23)
        t, core = core_with_copies(rng, 1000)
        assert t.edge_count == 1000
        assert canonical_code(retract(t)) == canonical_code(core)
        assert is_retract_free(core, engine="generic")

    def test_oracle_bound_enforced(self):
        t = a_tree([(i, i + 1) for i in range(9)], 0, 9)
        with pytest.raises(ValueError, match="oracle bound"):
            endomorphism_oracle(t)

    def test_idempotent_maps_are_retractions(self):
        t = a_tree([(0, 1), (0, 2), (0, 3)], 0, 1)
        endos = endomorphism_oracle(t)
        assert any(e.is_idempotent and not e.is_identity for e in endos)


class TestFastPath:
    def test_matches_generic_on_left_trees(self):
        for n in range(13):
            for t in structural_left_trees(n):
                assert is_retract_free(t, engine="auto")
                assert is_retract_free(t, engine="generic")

    def test_matches_generic_on_all_left_a_trees(self):
        # every monogenic tree <= 6 edges, retract-free or not; the non-left
        # ones fall through from the fast path to the generic engine
        for t in oriented_trees(6):
            assert is_retract_free(t, engine="auto") == is_retract_free(
                t, engine="generic"
            )

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            is_retract_free(generator_tree("a"), engine="nope")


def generic_retract(t):
    """The retract by the leaves-first pass, whatever the tree: every
    folded head is deleted with the subtree below it."""
    gone = set()
    for b in folded_heads(t):
        gone |= below(t, b)
    return induced(t, set(range(t.vertices)) - gone)


def assert_kernel_matches_generic(t):
    r = retract(t)
    assert r == generic_retract(t), t
    assert is_retract_free(t) == is_retract_free(t, engine="generic"), t
    assert_found_head_keeps_retract(t)
    return r


class TestMonogenicLeftCore:
    """`retract` and `is_retract_free` answer monogenic left trees by the
    height rule; the leaves-first pass stays their arbiter."""

    def test_matches_generic_on_all_small_left_trees(self):
        # every monogenic left tree <= 8 edges: each rooted shape, each end
        for n in range(9):
            for L in rooted_tree_level_sequences(n + 1):
                edges = tuple(_level_sequence_to_edges(L))
                for end in range(n + 1):
                    assert_kernel_matches_generic(XTree(n + 1, edges, 0, end))

    def test_matches_generic_on_large_random_left_trees(self):
        rng = random.Random(41)
        for i in range(30):
            n = rng.randint(50, 300)
            reach = 3 if i % 2 else n  # deep, path-like trees and bushy ones
            edges = tuple((rng.randrange(max(0, v - reach), v), v, "a") for v in range(1, n + 1))
            core = assert_kernel_matches_generic(XTree(n + 1, edges, 0, rng.randrange(n + 1)))
            assert is_retract_free(core, engine="generic")

    def test_returns_input_when_nothing_folds(self):
        for t in structural_left_trees(8):
            assert retract(t) is t

    def test_none_for_non_left_tree(self):
        t = a_tree([(0, 1), (1, 2), (3, 1)], 0, 2)
        assert _left_monogenic_kept(t, validate(t)) is None


class TestIdempotentShape:
    def test_trunk_length_preserved(self):
        # retraction cannot create or destroy trunk edges
        for t in itertools.islice(oriented_trees(5), 0, None, 7):
            before = len(validate(t).edges)
            after = len(validate(retract(t)).edges)
            assert before == after
