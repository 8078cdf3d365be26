"""Partition numbers, sphere enumeration, zig-zags, growth report."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import fields
from itertools import accumulate, combinations, product

import pytest

import adequa.growth as growth
from adequa.growth import (
    GENERIC_LEFT_BOUND,
    _birooted,
    _capped_subsets,
    _left_rows,
    _level_sequence_to_edges,
    _rooted_cores,
    P,
    Q,
    PUBLISHED_TABLE_S,
    PUBLISHED_TABLE_SE,
    generic_left_trees,
    hardy_ramanujan_estimate,
    left_census,
    left_sphere,
    oriented_trees,
    p_zigzag,
    partitions_into_distinct_parts,
    rooted_tree_level_sequences,
    structural_left_trees,
    sums_with_t_check,
    two_sided_census,
    two_sided_sphere,
    zigzag_census,
    zigzag_tree,
)
from adequa.retract import endomorphism_oracle, is_retract_free
from adequa.trees import (
    InvalidTreeError,
    TrunkInfo,
    XTree,
    _with_end,
    canonical_code,
    is_left,
    to_json,
    validate,
)

from .test_trees import SRC, spy_checks, spy_walks

BENCH_SPEC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spec.json"
)


def _twin_leaves(t: XTree) -> list[int]:
    """The leaves of t, other than its start, that have a twin.

    A leaf v != start with its one edge to u has a twin when another
    edge at u has the same label and the same direction seen from u; let
    w be that edge's far endpoint.  If v is not the end either, the map
    sending v to w and fixing every other vertex carries v's edge onto
    the twin edge and every other edge onto itself, so it is an
    endomorphism; it fixes both roots, m(m(v)) = m(w) = w makes it
    idempotent, and it moves v.  A tree with a twin leaf other than its
    end is therefore not retract-free (Hell & Nesetril, "The core of a
    graph", 1992: it retracts onto the tree without v).
    """
    degree = [0] * t.vertices
    kinds: dict[tuple[int, bool, str], int] = {}
    for a, b, lab in t.edges:
        degree[a] += 1
        degree[b] += 1
        kinds[a, True, lab] = kinds.get((a, True, lab), 0) + 1
        kinds[b, False, lab] = kinds.get((b, False, lab), 0) + 1
    twins = []
    for a, b, lab in t.edges:
        if degree[b] == 1 and b != t.start and kinds[a, True, lab] > 1:
            twins.append(b)
        elif degree[a] == 1 and a != t.start and kinds[b, False, lab] > 1:
            twins.append(a)
    return twins


def census_from_trees(n: int, trees: list[XTree]) -> growth.CensusRow:
    """The census read from the trees themselves, each validated: the
    oracle of the censuses the spheres read from their construction."""
    return growth._census(n, ((validate(t).length, growth._first_branch_index(t)) for t in trees))


def _oriented_ends(base: list[tuple[int, int, str]], mask: int, twin: int = -1):
    """The shape with edge i, which joins vertex i + 1 to its parent,
    reversed where bit i of mask is set, started at vertex 0, at each end
    the start reaches, ascending, as `oriented_trees` lists them, or at
    `twin` alone if twin >= 0.  The tree is built and validated once, if
    some end is left."""
    reach = [True]
    for i, (a, _, _) in enumerate(base):
        reach.append(reach[a] and not (mask >> i) & 1)
    ends = [v for v, r in enumerate(reach) if r and twin in (-1, v)]
    if ends:
        edges = [(e[1], e[0], e[2]) if (mask >> i) & 1 else e for i, e in enumerate(base)]
        t = XTree(len(reach), edges, 0, 0)
        yield from (_with_end(t, end) for end in ends)


def _twin_free_masks(L: list[int], all_masks: bool) -> list[tuple[int, int]]:
    """The orientations of the shape with level sequence L that have at
    most one twin leaf, ascending, each with its twin leaf (-1 for none).

    Vertex v of the shape is position v of L and hangs off the last
    vertex before it one level up; the filter reads L alone and builds no
    edge list or tree.  Bit v - 1 of a mask points the edge joining vertex
    v to its parent towards the root; without all_masks only mask 0,
    every edge away from the root, is tried.

    A tree with a twin leaf other than its end is not retract-free (see
    `_twin_leaves`), and one with two twin leaves is retract-free for no
    end.  Every edge is labelled a, so whether a leaf child of u is a twin
    depends on the directions of u's edges alone.  With every edge
    pointing away from the root, each edge at u but the one to u's parent
    points out of u, so a leaf is a twin exactly when its parent has
    another child.  Over all masks, the children are read from L in one
    pass and the vertices visited parents first, choosing the directions
    of each one's child edges once the edge to its own parent is fixed;
    a choice is dropped as soon as it makes a second twin leaf.
    """
    if not all_masks:
        # Vertex v > 0 is a leaf when the next level is no deeper.  It has
        # an earlier sibling when its level is no deeper than v - 1's (a
        # first child comes right after its parent), and a leaf has a later
        # one when v + 1 is on its level; a level of 0 closes the sequence.
        twins = [
            v
            for v, (before, level, after) in enumerate(zip(L, L[1:], [*L[2:], 0]), 1)
            if after <= level and (level <= before or after == level)
        ]
        return [(0, twins[0] if twins else -1)] if len(twins) < 2 else []
    children: list[list[int]] = [[] for _ in L]
    path = [0]  # path[d]: the last vertex met at level d
    for v in range(1, len(L)):
        del path[L[v]:]
        children[path[-1]].append(v)
        path.append(v)
    states = [(0, -1)]  # (the mask so far, its twin leaf)
    for u, kids in enumerate(children):
        if not kids:
            continue
        # For each direction of the edge from u's parent (u's bit set:
        # out of u) that some state has, the child flips (bit j: kids[j]'s
        # edge into u) that leave at most one twin leaf among u's children.
        choices: list[list[tuple[int, int]]] = [[], []]
        for up_out in {(mask >> (u - 1)) & 1 for mask, _ in states} if u else (0,):
            for flips in range(1 << len(kids)):
                # u's edges in each direction, the one to its parent included
                into = flips.bit_count() + (u > 0 and not up_out)
                out = len(kids) + (u > 0) - into
                bits, twins = 0, []
                for j, c in enumerate(kids):
                    flipped = (flips >> j) & 1
                    bits |= flipped << (c - 1)
                    if not children[c] and (into if flipped else out) > 1:
                        twins.append(c)
                if len(twins) < 2:
                    choices[up_out].append((bits, twins[0] if twins else -1))
        states = [
            (mask | bits, max(twin, more))
            for mask, twin in states
            for bits, more in choices[u > 0 and (mask >> (u - 1)) & 1]
            if twin < 0 or more < 0
        ]
        if not states:
            return states
    states.sort()
    return states


def _free_classes(n: int, all_masks: bool) -> list[tuple[bytes, XTree]]:
    """The brute-force oracle of both generic spheres: the retract-free
    trees among the orientations, one per isomorphism class, the first in
    `oriented_trees` order, ascending by code.

    Each shape's level sequence goes through `_twin_free_masks` first;
    only a shape that keeps some orientation gets its edge list, and only
    the orientations it keeps are built, in ascending order, so the first
    tree of each class is the one the unpruned order meets first.  An
    orientation with a twin leaf tries only that leaf as its end, since
    the start is vertex 0 whatever the end; one without tries every end.
    Each orientation with an end to try is validated once, and its ends
    share that rooting.
    """
    free: dict[bytes, XTree] = {}
    for L in rooted_tree_level_sequences(n + 1):
        masks = _twin_free_masks(L, all_masks)
        if not masks:
            continue
        base = growth._level_sequence_to_edges(L)
        for mask, twin in masks:
            for u in _oriented_ends(base, mask, twin):
                if is_retract_free(u):
                    free.setdefault(canonical_code(u), u)
    return sorted(free.items(), key=lambda ct: ct[0])


class TestPartitions:
    def test_small_values(self):
        # 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
        assert [P(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [Q(n) for n in range(10)] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8]

    def test_recurrence(self):
        for n in range(2, 50):
            for k in range(2, n + 1):
                assert P(n, k) == P(n - 1, k - 1) + P(n - k, k)
                assert Q(n, k) == Q(n - k, k - 1) + Q(n - k, k)

    def test_cross_law(self):
        # partitions into k parts vs k distinct parts, via the staircase shift
        for n in range(1, 30):
            for k in range(1, 15):
                assert P(n, k) == Q(n + math.comb(k, 2), k)

    def test_past_the_bound_rejected(self):
        for fn in (P, Q):
            with pytest.raises(ValueError, match="partition bound 600"):
                fn(growth.PARTITION_BOUND + 1)
            with pytest.raises(ValueError, match="partition bound 600"):
                fn(growth.PARTITION_BOUND + 1, 3)

    def test_distinct_part_lists(self):
        parts = list(partitions_into_distinct_parts(10, 3))
        assert all(len(p) == 3 and sum(p) == 10 for p in parts)
        assert all(sorted(set(p), reverse=True) == list(p) for p in parts)
        assert len(parts) == Q(10, 3)

    def test_negative_part_count_lists_nothing(self):
        # a negative k never reached the base case and recursed until
        # RecursionError; it now lists nothing, as Q counts nothing
        assert list(partitions_into_distinct_parts(3, -1)) == []
        for n in range(-2, 12):
            for k in range(-3, 0):
                assert list(partitions_into_distinct_parts(n, k)) == [] and Q(n, k) == 0

    def test_distinct_part_table(self, monkeypatch):
        # the structural sphere reads DISTINCT_PARTS, each partition with its
        # parts ascending, and lists no partition again once its row is there
        structural_left_trees(19)
        for m in range(20):
            for r in range(m + 1):
                want = [p[::-1] for p in partitions_into_distinct_parts(m, r)]
                assert growth.DISTINCT_PARTS[m][r] == want and len(want) == Q(m, r)
        listed = []
        monkeypatch.setattr(growth, "partitions_into_distinct_parts", lambda *a: listed.append(a) or iter(()))
        assert len(structural_left_trees(19)) == P(20) and listed == []

    def test_base_case_is_patchable(self, monkeypatch):
        # negative control: a corrupted base row must propagate to the rows
        # grown from it
        monkeypatch.setattr(growth, "P_ROWS", [[0]])
        assert P(5) != 7


class TestRootedTreeShapes:
    def test_counts(self):
        # rooted unlabelled trees: 1, 1, 2, 4, 9, 20, 48, 115
        got = [sum(1 for _ in rooted_tree_level_sequences(n)) for n in range(1, 9)]
        assert got == [1, 1, 2, 4, 9, 20, 48, 115]


def count_full_validations(monkeypatch) -> list:
    """Record every tree `validate` builds an adjacency for."""
    return spy_walks(monkeypatch, [])


class TestLeftSpheres:
    def test_sphere_equals_partition_function(self):
        for n in range(31):
            cen = left_census(n)
            assert cen.total == P(n + 1)
            for k in range(n + 1):
                assert cen.by_trunk.get(k, 0) == P(n + 1, k + 1)

    def test_census_from_construction_matches_validated_census(self, monkeypatch):
        walked = spy_checks(monkeypatch, count_full_validations(monkeypatch))
        for n in range(31):
            cen = left_census(n)
            assert walked == []
            assert cen == census_from_trees(n, structural_left_trees(n))
            walked.clear()

    def test_caps_cover_targets_and_benchmark(self):
        # the reproduction targets enumerate left spheres to n = 20, read P
        # to n = 21 and Q to n = m + t + 1 = 25; the benchmark's
        # enum workload enumerates to its largest structural size
        with open(BENCH_SPEC) as fh:
            sizes = json.load(fh)["workloads"]["enum"]["sizes"]["structural"]
        assert growth.LEFT_SPHERE_BOUND >= max(20, *sizes)
        assert growth.PARTITION_BOUND >= 26

    def test_negative_sizes_rejected(self):
        for fn in (structural_left_trees, growth.generic_left_trees, two_sided_sphere, two_sided_census):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                fn(-1)

    def test_capped_subsets_match_filtered_combinations(self):
        # the r-subsets of the trunk distances {0..k} that structural_left_trees
        # visits for every n <= 16, against the unpruned search
        for n in range(17):
            for k in range(n + 1):
                for r in range(k + 2):
                    cap = n - k - r * (r + 1) // 2
                    assert list(_capped_subsets(k + 1, r, cap)) == [
                        Y for Y in combinations(range(k + 1), r) if sum(Y) <= cap
                    ]

    def test_generic_matches_structural(self):
        for n in range(GENERIC_LEFT_BOUND + 1):
            trees_g = generic_left_trees(n)
            cen_g = census_from_trees(n, trees_g)
            els_s, cen_s = left_sphere(n)
            assert {canonical_code(t) for t in trees_g} == {e.code for e in els_s}
            assert cen_g.by_trunk == cen_s.by_trunk

    def test_trunk_refinement(self):
        for n in range(10):
            _, cen = left_sphere(n)
            for k in range(n + 1):
                assert cen.by_trunk.get(k, 0) == P(n + 1, k + 1)

    def test_members_are_retract_free(self):
        trees = structural_left_trees(9)
        assert len({canonical_code(t) for t in trees}) == len(trees)
        for t in trees:
            assert is_retract_free(t, engine="generic")

    def test_first_branch_recursion(self):
        census = {n: left_sphere(n)[1] for n in range(10)}
        for n in range(1, 10):
            for k in range(n):
                for l in range(k + 1):
                    assert census[n].by_trunk_and_first_branch.get(
                        (k, l), 0
                    ) == census[n - k - 1].by_trunk.get(k - l, 0)

    def test_specific_refined_count(self):
        _, cen = left_sphere(6)
        assert cen.by_trunk_and_first_branch.get((2, 1)) == 2


def _masks_choosing_every_direction(base, all_masks):
    """`_twin_free_masks` computing each vertex's child flips for both
    directions of its parent edge, whether a state uses it or not, and
    going on past a vertex that leaves no state."""
    children = [[] for _ in range(len(base) + 1)]
    for a, b, _ in base:
        children[a].append(b)
    states = [(0, -1)]
    for u, kids in enumerate(children):
        if not kids:
            continue
        choices = [[], []]
        for up_out in (0, 1) if u else (0,):
            for flips in range(1 << len(kids)) if all_masks else (0,):
                into = flips.bit_count() + (u > 0 and not up_out)
                out = len(kids) + (u > 0) - into
                bits, twins = 0, []
                for j, c in enumerate(kids):
                    flipped = (flips >> j) & 1
                    bits |= flipped << (c - 1)
                    if not children[c] and (into if flipped else out) > 1:
                        twins.append(c)
                if len(twins) < 2:
                    choices[up_out].append((bits, twins[0] if twins else -1))
        states = [
            (mask | bits, max(twin, more))
            for mask, twin in states
            for bits, more in choices[u > 0 and (mask >> (u - 1)) & 1]
            if twin < 0 or more < 0
        ]
    return sorted(states)


class TestTwoSidedSpheres:
    def test_oriented_trees_cover_every_birooted_tree(self):
        # brute force: hanging each vertex v > 0 off any u < v gives every
        # tree numbered from its start; add each orientation and each end
        # that has a trunk
        for n in range(5):
            brute = set()
            for parents in product(*(range(v) for v in range(1, n + 1))):
                for flips in product((False, True), repeat=n):
                    edges = tuple(
                        (v, u, "a") if f else (u, v, "a")
                        for v, u, f in zip(range(1, n + 1), parents, flips)
                    )
                    for end in range(n + 1):
                        t = XTree(n + 1, edges, 0, end)
                        try:
                            validate(t)
                        except InvalidTreeError:
                            continue
                        brute.add(canonical_code(t))
            got = list(oriented_trees(n))
            for t in got:
                validate(t)
            assert {canonical_code(t) for t in got} == brute

    def test_derived_rootings_equal_fresh_validation(self):
        trees = [t for n in range(7) for t in oriented_trees(n)]
        trees += [e.tree for n in range(9) for e in two_sided_sphere(n)[0]]
        trees += [t for n in range(13) for t in generic_left_trees(n)]
        trees += [_birooted([core]) for m in range(8) for core in _rooted_cores(m, (0, 1)).values()]
        trees += [zigzag_tree(z) for n in range(13) for z in product((False, True), repeat=n)]
        names = [f.name for f in fields(TrunkInfo)]
        assert "label" in names
        for t in trees:
            assert t.rooting is not None
            fresh = validate(XTree(t.vertices, t.edges, t.start, t.end))
            for name in names:
                assert getattr(t.rooting, name) == getattr(fresh, name), (name, t)

    def test_two_sided_validates_each_tested_orientation_once(self, monkeypatch):
        # an orientation is tested when it has no twin leaf, or its twin
        # leaf is an end the start reaches
        tested = 0
        for L in rooted_tree_level_sequences(9):
            base = _level_sequence_to_edges(L)
            for mask, twin in _twin_free_masks(L, True):
                edges = [
                    (b, a, lab) if mask >> i & 1 else (a, b, lab)
                    for i, (a, b, lab) in enumerate(base)
                ]
                try:
                    validate(XTree(9, edges, 0, max(twin, 0)))
                    tested += 1
                except InvalidTreeError:
                    pass
        walked = count_full_validations(monkeypatch)
        _free_classes(8, True)
        assert len(walked) == tested == 2389

    def test_published_table(self):
        for n in range(6):
            _, cen = two_sided_sphere(n)
            assert cen.total == PUBLISHED_TABLE_S[n]
            assert cen.idempotent_count == PUBLISHED_TABLE_SE[n]

    def test_idempotent_binomial_bound(self):
        for n in range(1, 6):
            _, cen = two_sided_sphere(n)
            assert cen.idempotent_count >= math.comb(n - 1, (n - 1) // 2)

    def test_members_distinct_and_retract_free(self):
        els, _ = two_sided_sphere(4)
        assert len({e.code for e in els}) == len(els)
        for e in els:
            assert is_retract_free(e.tree, engine="generic")

    def test_twin_leaf_trees_are_not_retract_free(self):
        # the lemma the enumerators prune by: a twin leaf other than the
        # end folds onto its twin
        pruned = 0
        for n in range(6):
            for t in oriented_trees(n):
                if any(v != t.end for v in _twin_leaves(t)):
                    pruned += 1
                    assert any(
                        e.is_idempotent and not e.is_identity
                        for e in endomorphism_oracle(t)
                    ), t
        assert pruned > 1000

    def test_generator_keeps_the_masks_with_at_most_one_twin_leaf(self):
        # the per-shape generator against the whole-tree scan: the same
        # masks, ascending, each with its one twin leaf or -1; every mask
        # to 6 edges, the all-away mask to the generic sphere's sizes
        for n in range(11):
            for L in rooted_tree_level_sequences(n + 1):
                base = _level_sequence_to_edges(L)
                for all_masks in (True, False) if n < 7 else (False,):
                    want = []
                    for mask in range(1 << n if all_masks else 1):
                        twins = _twin_leaves(next(_oriented_ends(base, mask)))
                        if len(twins) < 2:
                            want.append((mask, twins[0] if twins else -1))
                    assert _twin_free_masks(L, all_masks) == want, (L, all_masks)

    def test_generator_matches_choosing_every_direction(self):
        # choosing child flips for both directions of each parent edge and
        # pruning only at the end gives the same masks for every shape
        for n in range(10):
            for L in rooted_tree_level_sequences(n + 1):
                base = _level_sequence_to_edges(L)
                for all_masks in (True, False):
                    want = _masks_choosing_every_direction(base, all_masks)
                    assert _twin_free_masks(L, all_masks) == want, (L, all_masks)

    def test_edge_lists_only_for_kept_shapes(self, monkeypatch):
        # a shape whose every orientation has two twin leaves gets no edge
        # list: 409 of the 2962 shapes of the generic left spheres with 7
        # to 10 edges keep their all-away orientation, 56 of the 81 of the
        # two-sided spheres with 3 to 6 edges keep some orientation
        built = []

        def counted(L):
            built.append(L)
            return edges(L)

        edges = growth._level_sequence_to_edges
        monkeypatch.setattr(growth, "_level_sequence_to_edges", counted)
        for sizes, all_masks, shapes, kept in (
            (range(7, 11), False, 2962, 409),
            (range(3, 7), True, 81, 56),
        ):
            built.clear()
            for n in sizes:
                _free_classes(n, all_masks)
            assert sum(1 for n in sizes for _ in rooted_tree_level_sequences(n + 1)) == shapes
            assert len(built) == kept

    def test_counts_past_the_published_table(self):
        for n, total, idempotents in ((7, 465, 170), (8, 1215, 439)):
            _, cen = two_sided_sphere(n)
            assert (cen.total, cen.idempotent_count) == (total, idempotents)

    def test_matches_unpruned_search(self):
        def unpruned(n, keep):
            seen = set()
            free = {}
            for t in oriented_trees(n):
                if not keep(t):
                    continue
                code = canonical_code(t)
                if code not in seen:
                    seen.add(code)
                    if is_retract_free(t, engine="generic"):
                        free[code] = t
            return [free[c] for c in sorted(free)]

        for n in range(7):
            trees = unpruned(n, lambda t: True)
            els, cen = two_sided_sphere(n)
            assert [(e.code, e.tree) for e in els] == [
                (canonical_code(t), t) for t in trees
            ]
            want = census_from_trees(n, trees)
            assert (cen.total, cen.by_trunk, cen.idempotent_count) == (
                want.total, want.by_trunk, want.idempotent_count
            )
            assert cen.by_trunk_and_first_branch == {}
        for n in range(9):
            assert generic_left_trees(n) == unpruned(n, is_left)


class TestRootedCores:
    """The sphere generator against the brute-force oracle."""

    def test_cores_are_the_idempotent_classes(self):
        # a rooted core is a retract-free tree with its start and end at the
        # root: exactly the oracle's classes of trunk length 0
        for m in range(8):
            cores = _rooted_cores(m, (0, 1)).values()
            codes = sorted(canonical_code(_birooted([core])) for core in cores)
            oracle = [code for code, t in _free_classes(m, True) if t.start == t.end]
            assert codes == oracle
        counts = [len(_rooted_cores(m, (0, 1))) for m in range(8)]
        assert counts == [1, 2, 3, 6, 11, 28, 63, 170]

    def test_away_cores_are_bare_paths(self):
        for m in range(GENERIC_LEFT_BOUND + 1):
            (core,) = _rooted_cores(m, (0,)).values()
            t = _birooted([core])
            assert (t.vertices, t.edges) == (m + 1, tuple((v, v + 1, "a") for v in range(m)))

    def test_spheres_equal_the_oracle(self):
        for n in range(9):
            els, _ = two_sided_sphere(n)
            assert [(e.code, e.tree) for e in els] == _free_classes(n, True)
        for n in range(GENERIC_LEFT_BOUND + 1):
            trees = generic_left_trees(n)
            assert [(canonical_code(t), t) for t in trees] == _free_classes(n, False)

    def test_census_is_streamed(self, monkeypatch):
        # the census of the two-sided sphere, counted as the generator
        # builds each tree, with no tree coded or made an element
        spheres = [two_sided_sphere(n)[1] for n in range(9)]

        def refused(*args):
            raise AssertionError("the census coded a tree or built an element")

        monkeypatch.setattr(growth, "canonical_code", refused)
        monkeypatch.setattr(growth, "Element", refused)
        assert [two_sided_census(n) for n in range(9)] == spheres

    def test_at_most_two_candidates_per_class(self, monkeypatch):
        # every is_retract_free call of a cold call, the tables' included
        calls = []

        def counted(t, engine="auto"):
            calls.append(t)
            return free(t, engine)

        free = growth.is_retract_free
        monkeypatch.setattr(growth, "is_retract_free", counted)
        for n in range(11):
            monkeypatch.setattr(growth, "_CORES", {})
            monkeypatch.setattr(growth, "_POSITIONS", {})
            calls.clear()
            els, _ = two_sided_sphere(n)
            assert len(calls) <= 2 * len(els), n

    def test_census_to_ten_under_a_cpu_cap(self):
        # a cold census of every two-sided sphere to 10 edges, in a child
        # process whose CPU time alone is capped: it needs about 1.7 s of
        # it, the brute force with its size cap lifted about 7 s, on a
        # 2-core Xeon
        def cap():
            resource.setrlimit(resource.RLIMIT_CPU, (6, 6))

        argv = ["census", "--variant", "two-sided", "--max", "10", "--format", "csv"]
        proc = subprocess.run(
            [sys.executable, "-m", "adequa.cli", *argv],
            preexec_fn=cap,
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        rows = [line.split(",") for line in proc.stdout.decode().split()[1:]]
        totals = {int(n): (int(total), int(idem)) for n, total, _, _, idem in rows}
        assert totals[8] == (1215, 439)
        assert totals[10] == (9272, 3307)


def _prefix_dominating(n, i):
    """Every i-subset of the n positions, in combinations order, as an
    orientation word, kept when its away-counts dominate those of
    p_zigzag(n, i) on every prefix."""
    least = list(accumulate(p_zigzag(n, i)))
    words = (tuple(j in positions for j in range(n)) for positions in combinations(range(n), i))
    return [z for z in words if all(c >= m for c, m in zip(accumulate(z), least))]


class TestZigZags:
    def test_ballot_counts(self):
        for n in range(1, 13):
            zc = zigzag_census(n)
            for i, row in zc.items():
                assert row["all_count"] == math.comb(n, i)
                assert row["Z_count"] * n == (n - 2 * i) * math.comb(n, i)

    def test_partial_sums(self):
        for n in range(1, 13):
            zc = zigzag_census(n)
            for k in range((n - 1) // 2 + 1):
                assert sum(zc[i]["Z_count"] for i in range(k + 1)) == math.comb(
                    n - 1, k
                )

    def test_members_retract_free(self):
        for n in range(1, 11):
            for row in zigzag_census(n).values():
                for z in row["members"]:
                    assert is_retract_free(zigzag_tree(z), engine="generic")

    def test_prefix_dominance_order(self):
        # membership in Z is the prefix away-count dominance against the
        # extremal word with the same height: the census lists exactly the
        # dominating words, in combinations order, at every size and height
        for n in range(1, growth.ZIGZAG_BOUND + 1):
            census = zigzag_census(n)
            assert sorted(census) == list(range((n - 1) // 2 + 1))
            for i, row in census.items():
                assert row["members"] == _prefix_dominating(n, i), (n, i)

    def test_members_are_orientation_words(self):
        members = zigzag_census(5)[1]["members"]
        assert members[0] == (True, False, False, False, False)
        assert p_zigzag(5, 1) == (False, False, True, False, False) == members[-1]
        t = zigzag_tree((True, False))
        assert (t.vertices, t.edges, t.start, t.end) == (3, ((0, 1, "a"), (2, 1, "a")), 0, 0)


class TestGoldenOutput:
    """The enumerators' outputs pinned byte for byte: every tree and code
    of the generic left and two-sided spheres, and every zig-zag census
    row with its members in order."""

    def test_enumerator_digest(self):
        h = hashlib.sha256()
        for n in range(11):
            for t in generic_left_trees(n):
                h.update(to_json(t).encode())
                h.update(canonical_code(t))
        for n in range(8):
            for e in two_sided_sphere(n)[0]:
                h.update(to_json(e.tree).encode())
                h.update(e.code)
        for n in range(1, 17):
            census = zigzag_census(n)
            for i in sorted(census):
                row = census[i]
                h.update(("%d %d %d %d:" % (n, i, row["all_count"], row["Z_count"])).encode())
                words = ("".join("a" if away else "t" for away in z) for z in row["members"])
                h.update(" ".join(words).encode())
        assert h.hexdigest() == "03567fa01f0e065406da510e098ab3805d9cb72a4982003bf1940d44722e40ca"

    def test_structural_rows_digest(self):
        # every (k, l, tree) row of the structural left sphere to 19 edges,
        # the benchmark's largest, with each tree's vertex numbering
        h = hashlib.sha256()
        for n in range(20):
            for k, l, t in _left_rows(n):
                h.update(repr((n, k, l)).encode())
                h.update(to_json(t).encode())
        assert h.hexdigest() == "14b854c2c8e9224bcd71eccd2a054ee98519b8f098b5786baab3b1052367b41c"


class TestSubsetSumIdentity:
    def test_subset_sum_identity_small(self):
        for m in range(1, 8):
            for r in range(1, 8):
                for t in range(1, 8):
                    assert sums_with_t_check(m, r, t)

    def test_subset_sum_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sums_with_t_check(0, 1, 1)


class TestReport:
    def test_report_structure(self):
        rep = growth.growth_report(6, rank=1, two_sided_max=3)
        assert rep["growth_rate_lower_bound_base"] == 2
        rows = rep["rows"]
        assert [r["left_sphere"] for r in rows] == [P(n + 1) for n in range(7)]
        assert rows[3]["two_sided_sphere"] == PUBLISHED_TABLE_S[3]

    def test_report_rejects_idempotent_count_below_bound(self, monkeypatch):
        real = growth.two_sided_census

        def short(n):
            census = real(n)
            census.idempotent_count = 0
            return census

        monkeypatch.setattr(growth, "two_sided_census", short)
        with pytest.raises(RuntimeError, match="below the binomial bound at n=0"):
            growth.growth_report(2, two_sided_max=2)

    def test_report_checks_the_published_table(self, monkeypatch):
        rows = growth.growth_report(6, two_sided_max=6)["rows"]
        assert [r["verified_by_published_table"] for r in rows] == [True] * 6 + [False]
        monkeypatch.setattr(growth, "PUBLISHED_TABLE_S", [9] * 6)
        monkeypatch.setattr(growth, "PUBLISHED_TABLE_SE", [9] * 6)
        with pytest.raises(RuntimeError, match="differ from the published table at n=0"):
            growth.growth_report(3, two_sided_max=3)

    def test_report_higher_rank(self):
        rep = growth.growth_report(4, rank=2, two_sided_max=0)
        assert rep["growth_rate_lower_bound_base"] == 4
        # the rank-2 sphere by brute force: every a-tree relabelled by every
        # word over {a, b}, the retract-free ones, one per canonical code
        spheres, idempotents = [], []
        for n in range(5):
            free = {}
            for t in oriented_trees(n):
                for word in product("ab", repeat=n):
                    edges = tuple((a, b, lab) for (a, b, _), lab in zip(t.edges, word))
                    u = XTree(t.vertices, edges, t.start, t.end)
                    if is_retract_free(u, engine="generic"):
                        free.setdefault(canonical_code(u), u.start == u.end)
            spheres.append(len(free))
            idempotents.append(sum(free.values()))
        assert spheres == [1, 6, 34, 218, 1463]
        assert idempotents == [1, 4, 18, 100, 611]
        bounds = [r["rank_idempotent_lower_bound"] for r in rep["rows"]]
        assert bounds == [1, 2, 4, 16, 48]
        assert all(b <= e for b, e in zip(bounds, idempotents))

    def test_estimate_is_asymptotic(self):
        # the classical estimate tracks P(n) within a factor that shrinks
        assert hardy_ramanujan_estimate(100) == pytest.approx(
            P(100), rel=0.25
        )
