"""Retraction engine: folding, confluence, oracle agreement, fast path."""

import itertools
import random

import pytest

from adequa.growth import (
    _level_sequence_to_edges,
    oriented_trees,
    rooted_tree_level_sequences,
    structural_left_trees,
)
from adequa.retract import (
    _folds,
    _rooted,
    endomorphism_oracle,
    find_foldable_branch,
    is_retract_free,
    left_monogenic_core,
    retract,
)
from adequa.trees import XTree, canonical_code, generator_tree, validate

from .test_trees import relabel_tree


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
            br = find_foldable_branch(t)
            if br is None:
                assert retract(t) == t
                continue
            assert br.anchor not in br.vertices and br.edge in t.edges
            d = induced(t, set(range(t.vertices)) - br.vertices)
            assert canonical_code(retract(d)) == canonical_code(retract(t))

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
    adj, parent, order = _rooted(t, validate(t))
    return set(_folds(adj, parent, order))


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


def assert_core_matches_generic(t):
    core, code = left_monogenic_core(t, validate(t))
    assert code == canonical_code(retract(t)), t
    assert canonical_code(core) == code, t
    return core


class TestMonogenicLeftCore:
    def test_matches_generic_on_all_small_left_trees(self):
        # every monogenic left tree <= 8 edges: each rooted shape, each end
        for n in range(9):
            for L in rooted_tree_level_sequences(n + 1):
                edges = tuple(_level_sequence_to_edges(L))
                for end in range(n + 1):
                    assert_core_matches_generic(XTree(n + 1, edges, 0, end))

    def test_matches_generic_on_large_random_left_trees(self):
        rng = random.Random(41)
        for i in range(30):
            n = rng.randint(50, 300)
            reach = 3 if i % 2 else n  # deep, path-like trees and bushy ones
            edges = tuple((rng.randrange(max(0, v - reach), v), v, "a") for v in range(1, n + 1))
            core = assert_core_matches_generic(XTree(n + 1, edges, 0, rng.randrange(n + 1)))
            assert is_retract_free(core, engine="generic")

    def test_returns_input_when_nothing_folds(self):
        for t in structural_left_trees(8):
            assert left_monogenic_core(t, validate(t))[0] is t

    def test_none_for_non_left_tree(self):
        t = a_tree([(0, 1), (1, 2), (3, 1)], 0, 2)
        assert left_monogenic_core(t, validate(t)) is None


class TestIdempotentShape:
    def test_trunk_length_preserved(self):
        # retraction cannot create or destroy trunk edges
        for t in itertools.islice(oriented_trees(5), 0, None, 7):
            before = len(validate(t).edges)
            after = len(validate(retract(t)).edges)
            assert before == after
