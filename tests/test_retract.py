"""Retraction engine: folding, confluence, oracle agreement, fast path."""

import hashlib
import itertools
import os
import random
import sys
import time
from dataclasses import fields

import pytest

from adequa.growth import (
    ZIGZAG_BOUND,
    _free_rows,
    _level_sequence_to_edges,
    oriented_trees,
    rooted_tree_level_sequences,
    structural_left_trees,
    zigzag_census,
    zigzag_tree,
)
from adequa.retract import (
    Adjacency,
    _folds,
    _left_monogenic_kept,
    _path_pins,
    _pinned,
    endomorphism_oracle,
    find_foldable_branch,
    hom_exists,
    is_retract_free,
    retract,
)
from adequa.trees import (
    InvalidTreeError,
    TrunkInfo,
    XTree,
    _walk,
    canonical_code,
    generator_tree,
    is_left,
    is_right,
    to_json,
    undirected_adjacency,
    validate,
)

from .test_algebra import arith_calls
from .test_trees import relabel_tree, spy_walks

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
            assert trunk_word(r) == trunk_word(t)
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


def trunk_word(t):
    """The labels along t's trunk, from the start."""
    r = validate(t)
    return [r.label[v] for v in r.vertices[1:]]


def folded_heads(t):
    """The heads of the branches that the retraction pass deletes."""
    return set(_folds(t, _walk(t)))


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
        # vertices, nothing the garbage collector must walk into
        for t in rooting_sample():
            r = validate(t)
            for f in fields(TrunkInfo):
                value = getattr(r, f.name)
                assert isinstance(value, (tuple, list)), f.name
                assert all(type(x) in (int, bool, str) for x in value), f.name
                if f.name in ("parent", "forward", "label", "order"):
                    assert len(value) == t.vertices, f.name
            assert type(r.vertices) is tuple and len(r.vertices) == r.length + 1

    def test_rooted_branches_follow_their_parents(self):
        # the leaves-first pass reads the rooting as it is: each non-trunk
        # vertex comes after its parent, which is its branch's anchor, and
        # (parent, forward, label) is an edge of the adjacency at it
        for t in rooting_sample():
            trunk = validate(t)
            before = [list(trunk.parent), list(trunk.forward), list(trunk.label), list(trunk.order)]
            adj = undirected_adjacency(t)
            # a fresh copy is validated by the walk that builds its adjacency
            fresh = XTree(t.vertices, t.edges, t.start, t.end)
            assert _walk(fresh) == adj and fresh.rooting == trunk
            assert _walk(t) is None
            on_trunk = set(trunk.vertices)
            placed = set(on_trunk)
            for v in trunk.order:
                if v not in on_trunk:
                    p = trunk.parent[v]
                    assert p in placed and (v, trunk.forward[v], trunk.label[v]) in adj[p]
                    placed.add(v)
            assert placed == set(range(t.vertices))
            list(_folds(t, _walk(t)))
            assert [trunk.parent, trunk.forward, trunk.label, trunk.order] == before

    def test_children_are_consecutive_in_order(self):
        # the pass counts kinds inside sibling runs, so every rooting it
        # reads must list each vertex's children in one run: those of
        # `validate`, of `_delete` (a folded retract), of `growth._build`
        # (both sphere generators) and of `zigzag_tree`
        def runs_hold(trunk):
            done = set()  # the parents whose run has ended
            run = None
            for v in trunk.order[1:]:
                p = trunk.parent[v]
                if p != run:
                    if p in done:
                        return False
                    done.add(run)
                    run = p
            return True

        validated, deleted = [], []
        for t in map(fresh, rooting_sample()):
            r = retract(t)  # walks the fresh t, and roots a folded r by `_delete`
            validated.append(t.rooting)
            if r is not t:
                deleted.append(r.rooting)
        built = [t.rooting for n in range(9) for _, t in _free_rows(n, (0, 1))]
        built += [t.rooting for n in range(11) for _, t in _free_rows(n, (0,))]
        zigzags = [
            zigzag_tree(z).rooting for n in range(1, 11) for z in itertools.product((False, True), repeat=n)
        ]
        for rootings in (validated, deleted, built, zigzags):
            assert len(rootings) > 2000, len(rootings)
            assert all(runs_hold(r) for r in rootings)
        # the check sees a split run
        split = TrunkInfo((0,), [0, 0, 1, 0], [False, True, True, True], ["", "a", "a", "a"], [0, 1, 2, 3])
        assert not runs_hold(split)

    def test_generic_retract_builds_the_adjacency_once(self, monkeypatch, searches):
        import adequa.retract

        built = spy_walks(monkeypatch, [])
        adjacency = adequa.retract.undirected_adjacency
        monkeypatch.setattr(adequa.retract, "undirected_adjacency", lambda t: built.append(t) or adjacency(t))
        rng = random.Random(23)
        sample = [random_tree(rng, rng.randint(2, 12), "ab") for _ in range(50)]
        sample = [t for t in sample if len({lab for _, _, lab in t.edges}) == 2]
        assert len(sample) > 40
        # each tree fresh, then again once validated: the walk of a fresh
        # tree builds the adjacency the pass reads, and the pass over a
        # validated tree builds one only when it searches
        unsearched = 0
        for i, t in enumerate(sample + sample):
            built.clear()
            searches.clear()
            retract(t)
            assert built == ([t] if i < len(sample) or searches else []), t
            unsearched += not searches
        assert unsearched > 10
        # a fresh monogenic tree that is not left: the walk that chooses the
        # engine builds the adjacency the leaves-first pass reads
        words = [z for z in itertools.product((False, True), repeat=6) if not all(z)]
        for check in (retract, is_retract_free, lambda t: is_retract_free(t, "generic")):
            for z in words:
                t = fresh(zigzag_tree(z))
                built.clear()
                check(t)
                assert built == [t], z
        # a validated monogenic left tree goes to the height rule: no build
        left = a_tree([(0, 1), (0, 2), (2, 3)], 0, 0)
        validate(left)
        built.clear()
        assert retract(left) != left and not is_retract_free(left)
        assert built == []


def fresh(t):
    """A copy of t whose rooting is not known yet."""
    return XTree(t.vertices, t.edges, t.start, t.end)


def derived_sample():
    """Every tree of oriented_trees(n), n <= 6, with every end; 3000 seeded
    two-label trees with scrambled vertex numbers; 20 000 seeded monogenic
    trees, every other one left, so that the height rule folds them; and
    the benchmark's 20 large trees.  Each is fresh."""
    for n in range(7):
        yield from map(fresh, oriented_trees(n))
    rng = random.Random(29)
    for _ in range(3000):
        t = random_tree(rng, rng.randint(1, 14), "ab")
        perm = list(range(t.vertices))
        rng.shuffle(perm)
        yield relabel_tree(t, perm)
    rng = random.Random(31)
    for i in range(20000):
        t = random_tree(rng, rng.randint(1, 14), "a")
        if i % 2:
            t = XTree(t.vertices, tuple((min(a, b), max(a, b), lab) for a, b, lab in t.edges), 0, t.end)
        yield t
    yield from big_trees()


class TestDerivedRooting:
    """A folded retract carries its input's rooting, restricted to the
    kept vertices and renumbered, and a zig-zag is built rooted
    (`tests/test_growth.py` checks its rooting): neither is walked again."""

    def test_folded_retracts_carry_the_rooting_validate_finds(self):
        folded = kernel = 0
        for t in derived_sample():
            r = retract(t)
            if r is not t:
                assert r.rooting is not None, t
                want = validate(fresh(r))
                for f in fields(TrunkInfo):
                    assert getattr(r.rooting, f.name) == getattr(want, f.name), (f.name, t)
                folded += 1
                kernel += is_left(t) and len({lab for _, _, lab in t.edges}) == 1
        assert folded > 10000 and kernel > 5000

    def test_a_folded_retract_is_not_walked_again(self, monkeypatch, searches):
        import adequa.retract

        checks, passes = spy_walks(monkeypatch, []), []
        adjacency = adequa.retract.undirected_adjacency
        monkeypatch.setattr(adequa.retract, "undirected_adjacency", lambda t: passes.append(t) or adjacency(t))
        rng = random.Random(37)
        sample = [random_tree(rng, rng.randint(4, 12), "ab") for _ in range(200)]
        sample = [t for t in sample if find_foldable_branch(fresh(t)) is not None]
        assert len(sample) > 50
        for t in sample:
            checks.clear()
            canonical_code(retract(t))
            assert checks == [t] and passes == []
        # a zig-zag: no checking walk, and one build for the leaves-first
        # pass exactly when it searches
        searched = 0
        for z in itertools.product((False, True), repeat=8):
            checks.clear()
            passes.clear()
            searches.clear()
            t = zigzag_tree(z)
            is_retract_free(t, engine="generic")
            assert checks == [] and passes == ([t] if searches else []), z
            searched += bool(searches)
        assert 0 < searched < 2**8


def searched_folds(t):
    """The heads the leaves-first pass deletes when every branch is
    searched, whatever the kinds at its anchor."""
    trunk, adj = validate(t), undirected_adjacency(t)
    alive = [True] * len(adj)
    heads = []
    for b in reversed(trunk.order):
        if b not in trunk.vertices and hom_exists(adj, trunk.parent, alive, b):
            alive[b] = False
            heads.append(b)
    return heads


def all_kinds_pinned(trunk, level):
    """`_pinned` as it was before it shared the pass's trunk set: each
    extreme level builds its own stop map, seeded with the trunk."""
    parent = trunk.parent
    pinned = set()
    for x in (max(level), min(level)):
        if 0 <= x <= trunk.length:
            continue
        stop = dict.fromkeys(trunk.vertices)
        i = v = level.index(x)
        above = []
        while v not in stop:
            above.append(v)
            v = parent[v]
        stop.update(zip(above, range(len(above))))
        lo = 0
        for _ in range(level.count(x) - 1):
            i = v = level.index(x, i + 1)
            while v not in stop:
                stop[v] = -1
                v = parent[v]
            if stop[v] is None:
                lo = len(above)
                break
            lo = max(lo, stop[v])
        pinned.update(above[lo:])
    return pinned


def all_kinds_folds(t, adj):
    """The leaves-first pass as it was before it counted kinds only inside
    sibling runs: a count for every child edge of every vertex, and
    `all_kinds_pinned`.  The oracle of the pass's head sequence."""
    trunk = t.rooting
    parent, forward, label = trunk.parent, trunk.forward, trunk.label
    level = [0] * len(parent)
    count = {}
    for v in trunk.order[1:]:
        a, out = parent[v], forward[v]
        level[v] = level[a] + 1 if out else level[a] - 1
        key = (a, out, label[v])
        count[key] = count.get(key, 0) + 1
    on_trunk = set(trunk.vertices)
    alive = [True] * len(parent)
    pinned = None
    for b in reversed(trunk.order):
        if b in on_trunk:
            continue
        a, out, lab = key = (parent[b], forward[b], label[b])
        if count[key] + (forward[a] != out and label[a] == lab) < 2:
            continue
        if pinned is None:
            pinned = all_kinds_pinned(trunk, level)
        if b in pinned:
            continue
        if adj is None:
            adj = undirected_adjacency(t)
        if hom_exists(adj, parent, alive, b):
            alive[b] = False
            count[key] -= 1
            yield b


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
    yield from big_trees()


def big_trees():
    """The benchmark's 20 large trees, from seed 7."""
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    rng = random.Random(7)
    sizes = [150, 240, 375, 590, 935]
    for i in range(20):
        yield workloads.big_tree(rng, sizes[i % len(sizes)])[0]


@pytest.fixture
def searches(monkeypatch):
    """The heads `hom_exists` is called on, in call order."""
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return hom_exists(*args)

    monkeypatch.setattr("adequa.retract.hom_exists", counted)
    return calls


def reference_hom_exists(adj: Adjacency, parent: list[int], alive: list[bool], b: int) -> bool:
    """Does the branch headed by b map into the rest of the tree?

    `parent` is the rooting's, so a = parent[b] is the branch's anchor.
    The morphism fixes a, preserves edge directions and labels, and may
    fold.  Pattern and host avoid every vertex that is not alive, and
    with it the subtree it heads; the host never steps onto b, its only
    way into the branch.  Depth-first over (pattern, host) vertex pairs
    with an explicit stack and a memo local to this test.
    """
    a = parent[b]
    n = len(adj)
    memo: dict[int, bool] = {}
    # A frame tries to map pattern vertex p to host vertex h.  It holds
    # [p, h, p's unmatched pattern children, host candidates for the
    # current child, the current child]; `done` carries the answer of a
    # finished frame to the one below.  The root frame maps a to itself.
    _, out, lab = next(e for e in adj[b] if e[0] == a)
    stack = [[a, a, iter(((b, not out, lab),)), None, None]]
    done = None
    while stack:
        frame = stack[-1]
        if done:
            frame[3] = None  # the current child is matched
        done = None
        p, h, children, candidates, child = frame
        if candidates is None:
            child = frame[4] = next(children, None)
            if child is None:
                memo[p * n + h] = done = True
                stack.pop()
                continue
            candidates = frame[3] = iter(adj[h])
        c, out, lab = child
        for w, out2, lab2 in candidates:
            if out2 != out or lab2 != lab or w == b or not alive[w]:
                continue
            known = memo.get(c * n + w)
            if known is None:
                pc = parent[c]
                kids = [e for e in adj[c] if e[0] != pc and alive[e[0]]]
                stack.append([c, w, iter(kids), None, None])
                break
            if known:
                done = True
                break
        else:
            memo[p * n + h] = done = False
            stack.pop()
    return bool(done)


class TestSearchOracle:
    """`hom_exists` reads each pattern vertex's children straight from
    the adjacency; `reference_hom_exists` is the search that first listed
    them in a new list per frame.  Both see the same dead heads."""

    def test_same_answers_as_the_listing_search(self, monkeypatch):
        answers = []

        def both(adj, parent, alive, b):
            got = hom_exists(adj, parent, alive, b)
            answers.append((got, reference_hom_exists(adj, parent, alive, b)))
            return got

        monkeypatch.setattr("adequa.retract.hom_exists", both)
        trees = itertools.chain(itertools.chain.from_iterable(map(oriented_trees, range(8))), big_trees())
        for t in trees:
            list(_folds(t, _walk(t)))
        assert all(got == want for got, want in answers)
        assert sum(not got for got, _ in answers) > 500
        assert sum(got for got, _ in answers) > 500

    def test_same_answers_with_any_dead_heads(self):
        # heads the pass would not have killed, inside the pattern too
        rng = random.Random(41)
        differ = 0
        for t in itertools.islice(oriented_trees(7), 0, None, 7):
            trunk, adj = validate(t), undirected_adjacency(t)
            off = [v for v in range(t.vertices) if v not in trunk.vertices]
            for b in off:
                alive = [v == b or rng.random() < 0.7 for v in range(t.vertices)]
                got = hom_exists(adj, trunk.parent, alive, b)
                assert got == reference_hom_exists(adj, trunk.parent, alive, b), (t, alive, b)
                differ += got != hom_exists(adj, trunk.parent, [True] * t.vertices, b)
        assert differ > 100


class TestKindFilter:
    """`_folds` searches a branch only when its kind (direction seen from
    the anchor, and label) occurs twice among its anchor's alive edges."""

    def test_same_folds_as_searching_every_branch(self):
        for t in kind_sample():
            assert list(_folds(t, _walk(t))) == searched_folds(t), t

    def test_same_heads_as_counting_every_kind(self):
        # the pass counts kinds only inside sibling runs; the oracle counts
        # every child edge, and both must delete the same heads in the
        # same order on every sample, fresh or validated (both samples end
        # with the benchmark's big trees)
        zigzags = (
            zigzag_tree(z) for n in range(1, 13) for z in itertools.product((False, True), repeat=n)
        )
        folded = 0
        for t in itertools.chain(kind_sample(), derived_sample(), zigzags):
            adj = _walk(t)
            heads = list(_folds(t, adj))
            assert heads == list(all_kinds_folds(t, adj)), t
            folded += bool(heads)
        assert folded > 20000

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
        # three a-leaves out of the start: the last two tested fold without
        # a search, being leaves, and the first, with no a-edge left beside
        # it, is not tested
        t = XTree(5, ((0, 1, "b"), (0, 2, "a"), (0, 3, "a"), (0, 4, "a")), 0, 1)
        assert folded_heads(t) == {3, 4}
        assert searches == []


def arith_raw_trees(count):
    """The first `count` unretracted trees that `make_element` receives
    while `arith_calls` runs: products, moved roots (^+ and ^*) and the
    raw trees of terms, over all three flavors, fresh."""
    import adequa.algebra

    raw = []
    real = adequa.algebra.retract

    def recorded(t, adj=None):
        raw.append(fresh(t))
        return real(t, adj)

    adequa.algebra.retract = recorded
    try:
        for fn, args in arith_calls(17, count):
            fn(*args)
            if len(raw) >= count:
                break
    finally:
        adequa.algebra.retract = real
    return raw[:count]


def leaf_rule_sample():
    """`kind_sample()`, `derived_sample()`, every zig-zag of at most 11
    edges and 3000 arith raw trees, each fresh."""
    zigzags = (
        fresh(zigzag_tree(z)) for n in range(1, 12) for z in itertools.product((False, True), repeat=n)
    )
    return itertools.chain(map(fresh, kind_sample()), derived_sample(), zigzags, arith_raw_trees(3000))


def both_passes(t):
    """(tree, adj) for the two ways a pass starts: a fresh copy of t with
    the adjacency of its rooting walk, and a copy rooted beforehand,
    with None."""
    walked, rooted = fresh(t), fresh(t)
    validate(rooted)
    return (walked, _walk(walked)), (rooted, None)


class TestLeafRule:
    """A head with no child whose kind repeats at its anchor folds without
    a search: the other alive edge of its kind there takes it."""

    def test_leaves_fold_unsearched_and_the_heads_stay(self, monkeypatch):
        # on every sample and both ways a pass starts, the heads are the
        # oracles', no leaf is searched, and a direct search in the alive
        # state the pass reached takes every head it did not search
        searched = []

        def spied(adj, parent, alive, b):
            assert len(adj[b]) > 1, b
            searched.append(b)
            return hom_exists(adj, parent, alive, b)

        monkeypatch.setattr("adequa.retract.hom_exists", spied)
        unsearched = 0
        for t in leaf_rule_sample():
            want = searched_folds(t)
            for u, adj in both_passes(t):
                trunk, full = validate(u), undirected_adjacency(u)
                alive = [True] * u.vertices
                searched.clear()
                heads = list(_folds(u, adj))
                assert heads == want == list(all_kinds_folds(u, adj)), (t, adj is None)
                for b in heads:
                    if b not in searched:
                        assert b not in trunk.parent, (t, b)
                        assert hom_exists(full, trunk.parent, alive, b), (t, b)
                        unsearched += 1
                    alive[b] = False
        assert unsearched > 200000


    def test_a_rooted_tree_tells_its_leaves_in_linear_time(self, searches):
        # a b-leaf and k a-leaves out of the start of a tree rooted
        # beforehand, so the pass gets no adjacency: every a-leaf but the
        # first folds, unsearched, and the child test costs one set
        k = 60000
        edges = tuple((0, i, "a") for i in range(1, k + 1)) + ((0, k + 1, "b"),)
        t = XTree(k + 2, edges, 0, 0)
        validate(t)
        began = time.perf_counter()
        r = retract(t)
        assert time.perf_counter() - began < 1.0
        assert searches == [] and (r.vertices, r.edges) == (3, ((0, 1, "a"), (0, 2, "b")))


def levels(t):
    """Each vertex's level, by a walk over the edges from the start: one
    up along an edge, one down against it."""
    level = {t.start: 0}
    stack = [t.start]
    while stack:
        v = stack.pop()
        for a, b, _ in t.edges:
            if a == v and b not in level:
                level[b] = level[v] + 1
                stack.append(b)
            elif b == v and a not in level:
                level[a] = level[v] - 1
                stack.append(a)
    return level


def rooted_levels(trunk):
    """The levels `_folds` hands `_pinned`, read from the rooting, parents
    first."""
    level = [0] * len(trunk.parent)
    for v in trunk.order[1:]:
        level[v] = level[trunk.parent[v]] + (1 if trunk.forward[v] else -1)
    return level


def seeded_paths(count):
    """`count` seeded paths from the start, of 0 to 14 edges: a trunk of
    0 to n edges, the rest of either direction, two labels, and shuffled
    vertex numbers."""
    rng = random.Random(41)
    for _ in range(count):
        n = rng.randint(0, 14)
        k = rng.randint(0, n)
        path = list(range(n + 1))
        rng.shuffle(path)
        edges = []
        for i in range(n):
            a, b, lab = path[i], path[i + 1], rng.choice("ab")
            edges.append((a, b, lab) if i < k or rng.random() < 0.5 else (b, a, lab))
        yield XTree(n + 1, tuple(edges), path[0], path[k])


def run_free_passes():
    """(tree, adj) for each run-free pass of the sample, with the tree
    its heads are searched on: every orientation word of at most 12 edges
    as `zigzag_tree` builds it, with None, and as a fresh copy with the
    adjacency of its rooting walk; and `both_passes` of 20 000
    `seeded_paths`."""
    for n in range(13):
        for z in itertools.product((False, True), repeat=n):
            t = zigzag_tree(z)
            walked = fresh(t)
            yield t, ((t, None), (walked, _walk(walked)))
    for t in seeded_paths(20000):
        yield t, both_passes(t)


class TestLevelFilter:
    """Before its first search, `_folds` finds the branches whose subtree
    holds every vertex at the tree's highest or lowest level, and skips
    them."""

    def test_no_pinned_branch_folds(self):
        pinned_heads = 0
        for t in kind_sample():
            trunk = validate(t)
            order = [v for v in trunk.order if v not in trunk.vertices]
            rooted = rooted_levels(trunk)
            pinned = _pinned(trunk, rooted, set(trunk.vertices))
            assert pinned == all_kinds_pinned(trunk, rooted), t
            assert not pinned.intersection(searched_folds(t)), t
            if t.vertices <= 15:
                level = levels(t)
                assert rooted == [level[v] for v in range(t.vertices)], t
                want = set()
                for x in (max(level.values()), min(level.values())):
                    at = {v for v in level if level[v] == x}
                    want.update(b for b in order if at <= below(t, b))
                assert pinned == want, t
            pinned_heads += len(pinned)
        assert pinned_heads > 10000

    def test_a_run_free_pass_pins_a_prefix(self, monkeypatch):
        # a rooting with no run of siblings is a path from the start: its
        # pass pins the branches up to the furthest first position of an
        # extreme level and never walks `_pinned`; those pins and the
        # heads are the oracles'
        import adequa.retract

        def walked(*args):
            raise AssertionError("a run-free pass walked _pinned")

        used = []

        def spied(order, level, length):
            last = _path_pins(order, level, length)
            used.append(set(order[length + 1:last + 1]))
            return last

        monkeypatch.setattr(adequa.retract, "_pinned", walked)
        monkeypatch.setattr(adequa.retract, "_path_pins", spied)
        cases = pinned = folded = 0
        for t, passes in run_free_passes():
            want = searched_folds(t)
            for u, adj in passes:
                trunk = validate(u)
                children = [trunk.parent[v] for v in trunk.order[1:]]
                assert len(set(children)) == len(children), u
                level = rooted_levels(trunk)
                pins = all_kinds_pinned(trunk, level)
                last = _path_pins(trunk.order, level, trunk.length)
                assert set(trunk.order[trunk.length + 1:last + 1]) == pins, u
                used.clear()
                heads = list(_folds(u, adj))
                assert heads == want == list(all_kinds_folds(u, adj)), (u, adj is None)
                assert all(got == pins for got in used), u
                cases += 1
                pinned += bool(used and pins)
                folded += bool(heads)
        assert cases > 50000 and pinned > 10000 and folded > 10000

    def test_zigzag_searches(self, searches):
        # A retract-free zig-zag of at most 7 edges makes no search, and
        # one of 8 or 9 edges at most one.  From 10 edges on, levels alone
        # do not always settle the rest: the levels 0 1 2 1 2 3 2 3 2 1 0
        # make three, as each of the last three branches reaches level 0,
        # where the start also is, and none holds the peak at vertex 5.
        # The zig-zags of at most 10 edges make 3606 searches without the
        # level filter and 1674 with it.
        total = 0
        for n in range(1, 11):
            for z in itertools.product((False, True), repeat=n):
                searches.clear()
                free = is_retract_free(zigzag_tree(z), engine="generic")
                assert not free or len(searches) <= (0 if n < 8 else 1 if n < 10 else 3), z
                total += len(searches)
        assert total <= 1674

    def test_ballot_zigzags_make_no_search(self, monkeypatch, searches):
        # every ballot zig-zag is retract-free, and its levels settle every
        # branch whose kind repeats: no search and no adjacency
        import adequa.retract

        built = []
        monkeypatch.setattr(adequa.retract, "undirected_adjacency", built.append)
        members = 0
        for n in range(1, ZIGZAG_BOUND + 1):
            for row in zigzag_census(n).values():
                for z in row["members"]:
                    assert is_retract_free(zigzag_tree(z), engine="generic"), z
                    members += 1
        assert members > 50000 and searches == [] and built == []

    def test_big_trees_search_as_before(self, searches):
        # the big trees pin none of the branches their passes search, so
        # building the pins before the first search skips no search there
        folded = 0
        for t in big_trees():
            folded += retract(t) != t
        assert folded == 20 and len(searches) == 120

    def test_deep_common_ancestors_are_found_in_linear_time(self, searches):
        # a broom: an a-path 0 -> ... -> d off the start, and at d k leaves
        # of distinct labels, a c-leaf x and a c-edge to w, which an e-edge
        # enters.  The k + 2 vertices at the highest level share the d
        # path vertices as ancestors, all pinned; w is tested first, fails,
        # and x, a leaf, folds onto w without a search.
        d = k = 16000
        edges = [(i, i + 1, "a") for i in range(d)]
        edges += [(d, d + 1 + j, "b%d" % j) for j in range(k)]
        x, w, u = d + k + 1, d + k + 2, d + k + 3
        edges += [(d, x, "c"), (d, w, "c"), (u, w, "e")]
        t = XTree(d + k + 4, tuple(edges), 0, 0)
        trunk = validate(t)
        assert _pinned(trunk, rooted_levels(trunk), set(trunk.vertices)) == set(range(1, d + 1))
        began = time.perf_counter()
        r = retract(t)
        assert time.perf_counter() - began < 1.0
        assert searches == [w] and r.edge_count == d + k + 2 == 32002
        kept = tuple((a - (a > x), b - (b > x), lab) for a, b, lab in edges if x not in (a, b))
        assert (r.vertices, r.edges, r.start, r.end) == (t.vertices - 1, kept, 0, 0)


class TestGoldenOutput:
    """The pass's outputs over `kind_sample()`, pinned byte for byte, so
    that a refactor of the pass keeps every fold, retract and code."""

    def test_kind_sample_digest(self):
        h = hashlib.sha256()
        for t in kind_sample():
            f = fresh(t)
            r = retract(f)
            h.update(to_json(r).encode())
            h.update(canonical_code(f))
            h.update(canonical_code(r))
            h.update(b"1" if is_retract_free(fresh(t)) else b"0")
        assert h.hexdigest() == "a4674715f59c0badef4ed8d80639be4067012b304811250ad2a79d53ae947c2a"

    def test_zigzag_digest(self):
        # every zig-zag of at most 11 edges: its generic verdict, and its
        # retract's JSON and canonical code
        h = hashlib.sha256()
        for n in range(1, 12):
            for z in itertools.product((False, True), repeat=n):
                h.update(b"1" if is_retract_free(zigzag_tree(z), engine="generic") else b"0")
                r = retract(zigzag_tree(z))
                h.update(to_json(r).encode())
                h.update(canonical_code(r))
        assert h.hexdigest() == "b445d2921e2d55606ed638764a55f6f450e1f2a11179c20425d5911659168fd8"


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

    def test_engine_is_checked_before_the_tree(self):
        # a bad engine is reported as such, on an invalid tree too, and a
        # valid tree is not walked for it
        with pytest.raises(InvalidTreeError, match="expected 2 edges, got 1"):
            XTree(3, ((0, 1, "a"),), 0, 1)
        for t in (XTree(3, ((0, 1, "a"), (2, 1, "a")), 0, 2), XTree(2, ((0, 1, "a"),), 0, 1)):
            with pytest.raises(ValueError, match="unknown engine"):
                is_retract_free(t, engine="nope")
            assert t.rooting is None


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
        # a left tree with two labels goes to the leaves-first pass
        t = XTree(4, ((0, 1, "a"), (0, 2, "b"), (2, 3, "a")), 0, 1)
        assert is_left(t) and _left_monogenic_kept(t, validate(t)) is None


class TestIdempotentShape:
    def test_trunk_length_preserved(self):
        # retraction cannot create or destroy trunk edges
        for t in itertools.islice(oriented_trees(5), 0, None, 7):
            before = len(validate(t).vertices)
            after = len(validate(retract(t)).vertices)
            assert before == after
