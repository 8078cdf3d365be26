"""Acceptance gate: one check per published target, one verdict line each.

Each test computes its verdict, prints a single pass/fail line, then
asserts, so the printed table survives in captured output on failure and
under `pytest -s` on success.
"""

import time

from adequa import reproduce


def verdict(num: int, label: str, ok: bool, extra: str = "") -> None:
    line = "criterion %2d [%s]: %s" % (num, label, "PASS" if ok else "FAIL")
    if extra:
        line += " (%s)" % extra
    print(line)
    assert ok, line


def test_criterion_01_left_sphere_sizes():
    t0 = time.time()
    ok, _ = reproduce._left_sphere_sizes()
    elapsed = time.time() - t0
    verdict(1, "left sphere sizes", ok and elapsed < 120, "%.1fs" % elapsed)


def test_criterion_02_trunk_refinement():
    ok, _ = reproduce._trunk_refinement()
    verdict(2, "trunk refinement", ok)


def test_criterion_03_first_branch_recursion():
    ok, _ = reproduce._first_branch_recursion()
    verdict(3, "first-branch recursion", ok)


def test_criterion_04_refined_cell_trees():
    ok, detail = reproduce._refined_cell_check()
    verdict(4, "refined cell trees", ok, detail if not ok else "")


def test_criterion_05_two_sided_table():
    t0 = time.time()
    ok, _ = reproduce._two_sided_table()
    elapsed = time.time() - t0
    verdict(5, "two-sided table", ok and elapsed < 60, "%.1fs" % elapsed)


def test_criterion_06_zigzag_counts():
    ok, _ = reproduce._zigzag_counts()
    verdict(6, "zig-zag counts", ok)


def test_criterion_07_exponential_lower_bound():
    ok, _ = reproduce._idempotent_lower_bound()
    verdict(7, "idempotent lower bound", ok)


def test_criterion_08_partition_identity():
    ok, _ = reproduce._partition_identity()
    verdict(8, "partition identity sweep", ok)


def test_criterion_09_axiom_suite():
    ok, detail = reproduce._axiom_suite()
    verdict(9, "axiom suite", ok, detail if not ok else "1000 tuples")


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    ok, detail = reproduce._oracle_equivalence()
    elapsed = time.time() - t0
    verdict(10, "retraction oracle", ok and elapsed < 300, "%.1fs" % elapsed)


def test_criterion_11_identity_checker():
    ok, detail = reproduce._identity_checker()
    verdict(11, "identity checker", ok, detail if not ok else "")


def test_criterion_12_rank_X_checking():
    ok, detail = reproduce._fladX_checking()
    verdict(12, "rank-X checking", ok, detail if not ok else "")
