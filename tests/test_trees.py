"""Birooted tree structure, validation, canonical codes, serialization."""

import gc
import itertools
import json
import random
import weakref

import pytest

import adequa.trees
from adequa.algebra import Flavor, make_element
from adequa.growth import oriented_trees
from adequa.trees import (
    EPSILON,
    InvalidTreeError,
    XTree,
    _with_end,
    canonical_code,
    classify,
    from_json,
    generator_tree,
    is_monogenic,
    reverse_tree,
    theta,
    to_dot,
    to_json,
    validate,
)


def relabel_tree(t: XTree, perm) -> XTree:
    """Apply a vertex bijection; semantics-preserving by construction."""
    return XTree(
        t.vertices,
        tuple((perm[a], perm[b], lab) for a, b, lab in t.edges),
        perm[t.start],
        perm[t.end],
    )


def brute_force_iso(s: XTree, t: XTree) -> bool:
    """Ground-truth birooted isomorphism by trying every vertex bijection."""
    if s.vertices != t.vertices or len(s.edges) != len(t.edges):
        return False
    t_edges = set(t.edges)
    for perm in itertools.permutations(range(s.vertices)):
        if perm[s.start] != t.start or perm[s.end] != t.end:
            continue
        if {(perm[a], perm[b], lab) for a, b, lab in s.edges} == t_edges:
            return True
    return False


class TestValidation:
    def test_epsilon(self):
        assert EPSILON.vertices == 1
        assert EPSILON.start == EPSILON.end == 0
        validate(EPSILON)

    def test_generator(self):
        t = generator_tree("a")
        info = validate(t)
        assert [e[2] for e in info.edges] == ["a"]
        assert info.vertices == (0, 1)

    def test_disconnected_rejected(self):
        t = XTree(4, ((0, 1, "a"), (2, 3, "a")), 0, 1)
        with pytest.raises(InvalidTreeError, match="not a tree"):
            validate(t)

    def test_cycle_rejected(self):
        t = XTree(3, ((0, 1, "a"), (1, 2, "a"), (2, 0, "a")), 0, 1)
        with pytest.raises(InvalidTreeError, match="not a tree"):
            validate(t)

    def test_no_directed_trunk_rejected(self):
        # path exists undirected but the middle edge points the wrong way
        t = XTree(3, ((0, 1, "a"), (2, 1, "a")), 0, 2)
        with pytest.raises(InvalidTreeError, match="no trunk"):
            validate(t)

    def test_bad_indices_rejected(self):
        with pytest.raises(InvalidTreeError):
            validate(XTree(2, ((0, 5, "a"),), 0, 1))
        with pytest.raises(InvalidTreeError):
            validate(XTree(2, ((0, 1, "a"),), 0, 7))

    @pytest.mark.parametrize("char", list('()<>"\\'))
    def test_reserved_label_bytes_rejected(self, char):
        t = XTree(2, ((0, 1, "a%sb" % char),), 0, 1)
        with pytest.raises(InvalidTreeError, match="bad edge label"):
            validate(t)

    def test_labels_cannot_forge_a_code(self):
        # "a()>b" once wrote the same code bytes as two sibling edges a, b
        pair = XTree(3, ((0, 1, "a"), (0, 2, "b")), 0, 0)
        forged = XTree(2, ((0, 1, "a()>b"),), 0, 0)
        assert canonical_code(pair) == b"(E>a()>b())"
        with pytest.raises(InvalidTreeError):
            make_element(forged, Flavor.TWO_SIDED)

    def test_moved_end_shares_the_rooting(self):
        t = XTree(4, ((0, 1, "a"), (1, 2, "b"), (3, 1, "c")), 0, 0)
        assert _with_end(t, 0) is t
        u = _with_end(t, 2)
        assert u == XTree(4, t.edges, 0, 2)
        assert u.rooting == validate(XTree(4, t.edges, 0, 2))
        shared = ("parent", "forward", "label", "order")
        assert all(getattr(u.rooting, f) is getattr(t.rooting, f) for f in shared)
        with pytest.raises(InvalidTreeError, match="no trunk"):
            _with_end(t, 3)

    def test_invalid_tree_raises_on_every_call(self):
        t = XTree(3, ((0, 1, "a"), (2, 1, "a")), 0, 2)
        for _ in range(3):
            with pytest.raises(InvalidTreeError, match="no trunk"):
                validate(t)
        assert t.rooting is None

    def test_each_tree_is_checked_once(self, monkeypatch):
        # t, another tree, t again: the second check of t reads its rooting
        walks = []

        def counted(t):
            walks.append(t)
            return adjacency(t)

        adjacency = adequa.trees.undirected_adjacency
        monkeypatch.setattr(adequa.trees, "undirected_adjacency", counted)
        t = XTree(3, ((0, 1, "a"), (1, 2, "b")), 0, 2)
        other = XTree(3, ((0, 1, "a"), (0, 2, "a")), 0, 1)
        first = validate(t)
        validate(other)
        assert validate(t) is first is t.rooting
        assert walks == [t, other]

    def test_rooting_is_not_part_of_the_value(self):
        for t in itertools.islice(oriented_trees(4), 0, None, 3):
            twin = XTree(t.vertices, t.edges, t.start, t.end)
            before = (repr(t), hash(t))
            validate(t)
            assert t.rooting is not None and twin.rooting is None
            assert t == twin and (repr(t), hash(t)) == before == (repr(twin), hash(twin))

    def test_memo_returns_each_trees_own_trunk(self):
        chain = ((0, 1, "a"), (1, 2, "a"))
        mixed = ((0, 1, "a"), (1, 2, "b"))
        cases = [
            # equal in value, distinct objects
            (XTree(3, chain, 0, 2), XTree(3, chain, 0, 2), chain, chain),
            # different trees
            (XTree(3, mixed, 0, 2), XTree(3, ((0, 1, "a"), (0, 2, "a")), 0, 1),
             mixed, ((0, 1, "a"),)),
        ]
        for t1, t2, trunk1, trunk2 in cases:
            assert t1 is not t2
            for t, trunk in ((t1, trunk1), (t2, trunk2), (t1, trunk1)):
                assert validate(t).edges == trunk

    def test_memo_keeps_only_the_last_tree(self):
        t1 = XTree(2, ((0, 1, "a"),), 0, 1)
        validate(t1)
        validate(XTree(2, ((0, 1, "b"),), 0, 1))
        ref = weakref.ref(t1)
        del t1
        gc.collect()
        assert ref() is None

    def test_trunk_unique(self):
        # the directed start-to-end path in a tree is unique; check the
        # reported trunk is a path with the right endpoints on a sweep
        for t in oriented_trees(4):
            info = validate(t)
            assert info.vertices[0] == t.start
            assert info.vertices[-1] == t.end
            for (a, b, _), nxt in zip(info.edges, info.vertices[1:]):
                assert b == nxt


class TestClassify:
    def test_flavors(self):
        a = generator_tree("a")
        c = classify(a)
        assert c.is_left and c.is_right
        left_only = XTree(3, ((0, 1, "a"), (0, 2, "a")), 0, 1)
        c = classify(left_only)
        assert c.is_left and not c.is_right
        right_only = reverse_tree(left_only)
        c = classify(right_only)
        assert c.is_right and not c.is_left

    def test_monogenic(self):
        assert is_monogenic(generator_tree("a"))
        assert not is_monogenic(XTree(3, ((0, 1, "a"), (1, 2, "b")), 0, 2))


def recursive_code(t: XTree) -> bytes:
    """Reference encoder: the recursive form of canonical_code."""
    adj = [[] for _ in range(t.vertices)]
    for a, b, lab in t.edges:
        adj[a].append((b, True, lab))
        adj[b].append((a, False, lab))

    def enc(v, parent):
        parts = sorted(
            (b">" if out else b"<") + lab.encode() + enc(w, v)
            for w, out, lab in adj[v]
            if w != parent
        )
        return b"(" + (b"E" if v == t.end else b"") + b"".join(parts) + b")"

    return enc(t.start, -1)


class TestCanonicalCode:
    def test_matches_recursive_reference(self):
        for n in range(7):
            for t in oriented_trees(n):
                assert canonical_code(t) == recursive_code(t), t

    def test_deep_chain(self):
        n = 2000
        t = XTree(n + 1, tuple((i, i + 1, "a") for i in range(n)), 0, n)
        code = canonical_code(t)
        assert code == b"(>a" * n + b"(E" + b")" * (n + 1)

    def test_matches_brute_force_exhaustive(self):
        trees = list(oriented_trees(3))
        for s in trees:
            for t in trees:
                same = canonical_code(s) == canonical_code(t)
                assert same == brute_force_iso(s, t), (s, t)

    def test_matches_brute_force_sampled(self):
        rng = random.Random(3)
        trees = list(oriented_trees(5))
        for _ in range(400):
            s, t = rng.choice(trees), rng.choice(trees)
            assert (canonical_code(s) == canonical_code(t)) == brute_force_iso(
                s, t
            )

    def test_relabel_invariance(self):
        rng = random.Random(5)
        for t in itertools.islice(oriented_trees(4), 0, None, 7):
            perm = list(range(t.vertices))
            rng.shuffle(perm)
            assert canonical_code(relabel_tree(t, perm)) == canonical_code(t)

    def test_distinguishes_roots(self):
        t = XTree(3, ((0, 1, "a"), (1, 2, "a")), 0, 2)
        s = XTree(3, ((0, 1, "a"), (1, 2, "a")), 0, 1)
        assert canonical_code(t) != canonical_code(s)

    def test_reverse_is_involution(self):
        for t in itertools.islice(oriented_trees(4), 0, None, 5):
            assert canonical_code(reverse_tree(reverse_tree(t))) == canonical_code(t)

    def test_theta_keeps_trunk_only(self):
        t = XTree(4, ((0, 1, "a"), (1, 2, "a"), (1, 3, "a")), 0, 2)
        th = theta(t)
        info = validate(th)
        assert th.edge_count == len(info.edges) == 2


class TestSerialization:
    def test_roundtrip(self):
        for t in itertools.islice(oriented_trees(4), 0, None, 11):
            back = from_json(to_json(t))
            assert canonical_code(back) == canonical_code(t)

    def test_json_is_plain(self):
        obj = json.loads(to_json(generator_tree("b")))
        assert set(obj) == {"vertices", "edges", "start", "end"}

    def test_malformed_json(self):
        with pytest.raises(InvalidTreeError, match="malformed JSON"):
            from_json("{nope")
        with pytest.raises(InvalidTreeError):
            from_json('{"vertices": 2}')

    def test_dot_output(self):
        dot = to_dot(generator_tree("a"))
        assert dot.startswith("digraph") and '"a"' in dot
