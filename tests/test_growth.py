"""Partition numbers, sphere enumeration, zig-zags, growth report."""

import math
import random

import pytest

import adequa.growth as growth
from adequa.growth import (
    P,
    Q,
    PUBLISHED_TABLE_S,
    PUBLISHED_TABLE_SE,
    ZigZag,
    census_from_trees,
    d_value,
    hardy_ramanujan_estimate,
    in_Z,
    left_sphere,
    p_zigzag,
    partition_table,
    partitions_into_distinct_parts,
    rooted_tree_level_sequences,
    structural_left_trees,
    sums_with_t_check,
    tree_to_zigzag,
    two_sided_sphere,
    zigzag_census,
    zigzag_ge,
    zigzag_tree,
)
from adequa.retract import is_retract_free
from adequa.trees import XTree, canonical_code, validate


class TestPartitions:
    def test_small_values(self):
        # 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
        assert [P(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [Q(n) for n in range(10)] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8]

    def test_recurrence(self):
        table = partition_table(60)
        for n in range(2, 50):
            for k in range(2, n + 1):
                assert table.P[(n, k)] == table.P.get((n - 1, k - 1), 0) + table.P.get(
                    (n - k, k), 0
                )
                assert table.Q[(n, k)] == table.Q.get((n - k, k - 1), 0) + table.Q.get(
                    (n - k, k), 0
                )

    def test_cross_law(self):
        # partitions into k parts vs k distinct parts, via the staircase shift
        table = partition_table(130)
        for n in range(1, 30):
            for k in range(1, 15):
                assert table.P[(n, k)] == table.Q[(n + math.comb(k, 2), k)]

    def test_distinct_part_lists(self):
        parts = list(partitions_into_distinct_parts(10, 3))
        assert all(len(p) == 3 and sum(p) == 10 for p in parts)
        assert all(sorted(set(p), reverse=True) == list(p) for p in parts)
        assert len(parts) == Q(10, 3)

    def test_base_case_is_patchable(self, monkeypatch):
        # negative control: corrupting the base case must propagate
        monkeypatch.setattr(growth, "P_BASE", 0)
        assert P(5) != 7


class TestRootedTreeShapes:
    def test_counts(self):
        # rooted unlabelled trees: 1, 1, 2, 4, 9, 20, 48, 115
        got = [sum(1 for _ in rooted_tree_level_sequences(n)) for n in range(1, 9)]
        assert got == [1, 1, 2, 4, 9, 20, 48, 115]


class TestLeftSpheres:
    def test_sphere_equals_partition_function(self):
        for n in range(14):
            _, cen = left_sphere(n, "structural")
            assert cen.total == P(n + 1)

    def test_generic_matches_structural(self):
        for n in range(9):
            els_g, cen_g = left_sphere(n, "generic")
            els_s, cen_s = left_sphere(n, "structural")
            assert {e.code for e in els_g} == {e.code for e in els_s}
            assert cen_g.by_trunk == cen_s.by_trunk

    def test_trunk_refinement(self):
        for n in range(10):
            _, cen = left_sphere(n, "structural")
            for k in range(n + 1):
                assert cen.by_trunk.get(k, 0) == P(n + 1, k + 1)

    def test_members_are_retract_free(self):
        trees = structural_left_trees(9)
        assert len({canonical_code(t) for t in trees}) == len(trees)
        for t in trees:
            assert is_retract_free(t, engine="generic")

    def test_first_branch_recursion(self):
        census = {n: left_sphere(n, "structural")[1] for n in range(10)}
        for n in range(1, 10):
            for k in range(n):
                for l in range(k + 1):
                    assert census[n].by_trunk_and_first_branch.get(
                        (k, l), 0
                    ) == census[n - k - 1].by_trunk.get(k - l, 0)

    def test_specific_refined_count(self):
        _, cen = left_sphere(6, "structural")
        assert cen.by_trunk_and_first_branch.get((2, 1)) == 2


class TestTwoSidedSpheres:
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

    def test_tree_roundtrip(self):
        z = ZigZag((True, False, True, False, False))
        assert tree_to_zigzag(zigzag_tree(z)) == z

    def test_broken_path_raises(self, monkeypatch):
        # with validation bypassed, a path 0-1 plus a detached 2-cycle passes
        # the degree checks and must stop the walk rather than misdecode
        monkeypatch.setattr(growth, "validate", lambda t: None)
        t = XTree(4, ((0, 1, "a"), (2, 3, "a"), (3, 2, "a")), 0, 0)
        with pytest.raises(ValueError, match="path is broken"):
            tree_to_zigzag(t)

    def test_prefix_dominance_order(self):
        # membership in Z is the prefix away-count dominance against the
        # extremal word with the same height
        rng = random.Random(31)
        n = 9
        for _ in range(200):
            away = tuple(rng.random() < 0.4 for _ in range(n))
            z = ZigZag(away)
            i = z.height
            if i > (n - 1) // 2 or z.height != sum(away):
                continue
            assert in_Z(z, i) == zigzag_ge(z, p_zigzag(n, i))

    def test_d_values(self):
        z = ZigZag((False, True, False))  # toward, away, toward
        t = zigzag_tree(z)
        values = [d_value(t, v) for v in range(t.vertices)]
        assert max(values) <= len(z.away)
        assert values[t.start] == 0
        # idempotent zig-zags return to the start level
        if t.start == t.end:
            assert values[t.end] == 0

    def test_d_value_rejects_non_zigzags(self):
        from adequa.trees import XTree

        y_shaped = XTree(4, ((0, 1, "a"), (0, 2, "a"), (0, 3, "a")), 0, 1)
        with pytest.raises(ValueError):
            d_value(y_shaped, 0)


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

    def test_report_higher_rank(self):
        rep = growth.growth_report(4, rank=2, two_sided_max=0)
        assert rep["growth_rate_lower_bound_base"] == 4
        assert all("rank_idempotent_lower_bound" in r for r in rep["rows"])

    def test_estimate_is_asymptotic(self):
        # the classical estimate tracks P(n) within a factor that shrinks
        assert hardy_ramanujan_estimate(100) == pytest.approx(
            P(100), rel=0.25
        )
