"""Birooted tree structure, validation, canonical codes, serialization."""

import collections
import dataclasses
import gc
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import weakref

import pytest

import adequa.algebra
import adequa.growth
import adequa.trees
from adequa.algebra import Flavor, generator, make_element, multiply, plus_op, star_op
from adequa.growth import (
    generic_left_trees,
    oriented_trees,
    structural_left_trees,
    two_sided_sphere,
    zigzag_census,
    zigzag_tree,
)
from adequa.retract import retract
from adequa.trees import (
    EPSILON,
    InvalidTreeError,
    TrunkInfo,
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


def trunk_edges(info) -> tuple[tuple[int, int, str], ...]:
    """The trunk's edges, read from its vertices and their labels."""
    v = info.vertices
    return tuple((a, b, info.label[b]) for a, b in zip(v, v[1:]))


def spy_walks(monkeypatch, walks: list) -> list:
    """Append to `walks` each tree a rooting walk builds an adjacency for,
    in `trees`: the entry walk's checked one (`_checked_adjacency`) and
    the unchecked one of the trees the package builds (`_root`'s
    `undirected_adjacency`).  Returns `walks`."""
    for name in ("_checked_adjacency", "undirected_adjacency"):
        build = getattr(adequa.trees, name)
        monkeypatch.setattr(adequa.trees, name, lambda t, build=build: walks.append(t) or build(t))
    return walks


def relabel_tree(t: XTree, perm) -> XTree:
    """Apply a vertex bijection; semantics-preserving by construction."""
    return XTree(
        t.vertices,
        tuple((perm[a], perm[b], lab) for a, b, lab in t.edges),
        perm[t.start],
        perm[t.end],
    )


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CAP_BYTES = 512 << 20


def run_capped(*argv):
    """Run the interpreter on argv in a child process whose address space
    is capped at CAP_BYTES, so that memory, not time, bounds the call."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))

    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], preexec_fn=cap, env=env, capture_output=True, timeout=120
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
        assert info.vertices == (0, 1) and info.label[1] == "a"

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

    @pytest.mark.parametrize("label", [5, None, b"a", ("a",)])
    def test_non_string_label_is_named(self, label):
        # a non-string label was once reported as an empty one
        t = XTree(2, ((0, 1, label),), 0, 1)
        for _ in range(2):
            with pytest.raises(InvalidTreeError, match="edge label %s is not a string" % re.escape(repr(label))):
                validate(t)
        with pytest.raises(InvalidTreeError, match="empty edge label"):
            validate(XTree(2, ((0, 1, ""),), 0, 1))

    @pytest.mark.parametrize(
        "edges, message",
        [
            # the first bad edge names the error, its endpoints before its label
            (((0, 1, "a(b"), (1, 9, "a")), "bad edge label 'a(b': has one of ( ) < > \" \\"),
            (((0, 9, "a"), (1, 2, "a(b")), "not a tree: edge endpoint out of range"),
            (((0, 1, "a"), (1, 2, 5), (2, 9, "a")), "not a tree: edge label 5 is not a string"),
            (((0, 1, ""), (1, 2, "a"), (2, 9, "a")), "not a tree: empty edge label"),
            # a label accepted once is accepted again, and a later edge still checked
            (((0, 1, "a"), (1, 2, "a"), (2, 3, "")), "not a tree: empty edge label"),
            (((0, 1, "a"), (1, 2, "a"), (2, 3, "b)")), "bad edge label 'b)': has one of ( ) < > \" \\"),
            (((0, 1, "a"), (1, 2, "a"), (2, 9, "a")), "not a tree: edge endpoint out of range"),
            (((0, 1, "a"), (1, 2, "a"), (2, 3, None)), "not a tree: edge label None is not a string"),
        ],
    )
    def test_first_bad_edge_names_the_error(self, edges, message):
        t = XTree(len(edges) + 1, edges, 0, 1)
        for _ in range(2):
            with pytest.raises(InvalidTreeError) as caught:
                validate(t)
            assert str(caught.value) == message

    def test_unhashable_label_is_named(self):
        # the label's type is tested before it is hashed
        t = XTree(2, ((0, 1, ["a"]),), 0, 1)
        with pytest.raises(InvalidTreeError) as caught:
            validate(t)
        assert str(caught.value) == "not a tree: edge label ['a'] is not a string"

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
        walks = spy_walks(monkeypatch, [])
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
                assert trunk_edges(validate(t)) == trunk

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
            for a, b in zip(info.vertices, info.vertices[1:]):
                assert (a, b, info.label[b]) in t.edges


def recorded_builds(monkeypatch) -> list[tuple[str, XTree]]:
    """Every tree `trees._sorted_tree` makes from here on, as (builder,
    tree): the builder is the function that called it, or that called
    `_rooted_tree`."""
    built = []
    make = adequa.trees._sorted_tree

    def recording(*args):
        t = make(*args)
        caller = sys._getframe(1).f_code.co_name
        if caller == "_rooted_tree":
            caller = sys._getframe(2).f_code.co_name
        built.append((caller, t))
        return t

    for module in (adequa.trees, adequa.growth, adequa.algebra):
        monkeypatch.setattr(module, "_sorted_tree", recording)
    return built


class TestBuilderContract:
    """The package's own builders make their trees without the public
    constructor's sort, on the promise that their edges come sorted; a
    tree so built must be the public constructor's tree, and a rooting
    handed with it the one `validate` finds."""

    def test_every_builder_keeps_the_contract(self, monkeypatch):
        built = recorded_builds(monkeypatch)
        for n in range(1, 14):
            for row in zigzag_census(n).values():
                for z in row["members"]:
                    zigzag_tree(z)
        for n in range(13):
            structural_left_trees(n)
        for n in range(10):
            generic_left_trees(n)
        for n in range(7):
            two_sided_sphere(n)
        for t in itertools.islice(oriented_trees(6), 0, None, 7):  # _with_end
            retract(t)  # _delete
        rng = random.Random(5)
        gens = [generator(lab, Flavor.TWO_SIDED) for lab in "ab"]
        for _ in range(300):
            x = gens[rng.randrange(2)]
            for _ in range(rng.randrange(1, 6)):
                y = rng.choice(gens)
                x = rng.choice((multiply(x, y), multiply(y, x), star_op(x), plus_op(x)))
            star_op(x)
        counts = collections.Counter(builder for builder, _ in built)
        for builder in ("zigzag_tree", "_left_rows", "_build", "_delete", "_with_end", "star_op"):
            assert counts[builder] > 100, (builder, counts)
        for builder, t in built:
            assert type(t.edges) is tuple and all(type(e) is tuple for e in t.edges), builder
            assert t.edges == tuple(sorted(t.edges)), (builder, t)
            public = XTree(t.vertices, t.edges, t.start, t.end)
            shuffled = XTree(t.vertices, t.edges[::-1], t.start, t.end)
            assert t == public == shuffled and public == t, (builder, t)
            assert hash(t) == hash(public) == hash(shuffled), (builder, t)
            if t.rooting is not None:
                want = validate(public)
                for f in dataclasses.fields(TrunkInfo):
                    assert getattr(t.rooting, f.name) == getattr(want, f.name), (builder, f.name, t)


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

    def test_deep_path_in_linear_memory(self):
        # the code of a path holds every shorter path's code inside it;
        # kept all at once they would take about 2 d^2 bytes, 1.8 GB here
        script = (
            "from adequa.trees import XTree, canonical_code\n"
            "n = 30000\n"
            "t = XTree(n + 1, tuple((i, i + 1, 'a') for i in range(n)), 0, n)\n"
            "assert canonical_code(t) == b'(>a' * n + b'(E' + b')' * (n + 1)\n"
        )
        proc = run_capped("-c", script)
        assert proc.returncode == 0, proc.stderr.decode()[-500:]

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
        assert th.edge_count == info.length == 2
        assert th.edges == trunk_edges(info) == ((0, 1, "a"), (1, 2, "a"))


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
