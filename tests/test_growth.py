"""Partition numbers, sphere enumeration, zig-zags, growth report."""

import json
import math
import os
import random
from dataclasses import fields
from itertools import combinations, product

import pytest

import adequa.growth as growth
from adequa.growth import (
    GENERIC_LEFT_BOUND,
    _capped_subsets,
    _free_classes,
    _level_sequence_to_edges,
    _oriented_ends,
    _twin_free_masks,
    P,
    Q,
    PUBLISHED_TABLE_S,
    PUBLISHED_TABLE_SE,
    ZigZag,
    census_from_trees,
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
    two_sided_sphere,
    zigzag_census,
    zigzag_ge,
    zigzag_tree,
)
from adequa.retract import endomorphism_oracle, is_retract_free
import adequa.trees
from adequa.trees import InvalidTreeError, TrunkInfo, XTree, canonical_code, is_left, validate

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
    walked = []

    def counted(t):
        walked.append(t)
        return adjacency(t)

    adjacency = adequa.trees.undirected_adjacency
    monkeypatch.setattr(adequa.trees, "undirected_adjacency", counted)
    return walked


class TestLeftSpheres:
    def test_sphere_equals_partition_function(self):
        for n in range(31):
            cen = left_census(n)
            assert cen.total == P(n + 1)
            for k in range(n + 1):
                assert cen.by_trunk.get(k, 0) == P(n + 1, k + 1)

    def test_census_from_construction_matches_validated_census(self, monkeypatch):
        walked = count_full_validations(monkeypatch)
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
        for fn in (structural_left_trees, growth.generic_left_trees, two_sided_sphere):
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
        trees += [t for n in range(9) for _, t in _free_classes(n, True)]
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
        two_sided_sphere(8)
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
        # masks, ascending, each with its one twin leaf or -1
        for n in range(7):
            for L in rooted_tree_level_sequences(n + 1):
                base = _level_sequence_to_edges(L)
                for all_masks in (True, False):
                    want = []
                    for mask in range(1 << n if all_masks else 1):
                        twins = _twin_leaves(next(_oriented_ends(base, mask)))
                        if len(twins) < 2:
                            want.append((mask, twins[0] if twins else -1))
                    assert _twin_free_masks(L, all_masks) == want, (L, all_masks)

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
            assert cen == census_from_trees(n, trees)
        for n in range(9):
            assert generic_left_trees(n) == unpruned(n, is_left)


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
        # extremal word with the same height
        rng = random.Random(31)
        n = 9
        census = zigzag_census(n)
        for _ in range(200):
            away = tuple(rng.random() < 0.4 for _ in range(n))
            z = ZigZag(away)
            i = z.height
            if i > (n - 1) // 2 or z.height != sum(away):
                continue
            assert (z in census[i]["members"]) == zigzag_ge(z, p_zigzag(n, i))

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
        real = growth.two_sided_sphere

        def short(n):
            els, census = real(n)
            census.idempotent_count = 0
            return els, census

        monkeypatch.setattr(growth, "two_sided_sphere", short)
        with pytest.raises(RuntimeError, match="below the binomial bound at n=0"):
            growth.growth_report(2, two_sided_max=2)

    def test_report_higher_rank(self):
        rep = growth.growth_report(4, rank=2, two_sided_max=0)
        assert rep["growth_rate_lower_bound_base"] == 4
        assert all("rank_idempotent_lower_bound" in r for r in rep["rows"])

    def test_estimate_is_asymptotic(self):
        # the classical estimate tracks P(n) within a factor that shrinks
        assert hardy_ramanujan_estimate(100) == pytest.approx(
            P(100), rel=0.25
        )
