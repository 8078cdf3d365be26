"""Reproduction-suite plumbing: filtering and the negative control."""

import adequa.growth as growth
from adequa import reproduce


def test_target_names_unique_and_grouped():
    names = [name for name, _, _ in reproduce.TARGETS]
    assert len(set(names)) == len(names) == 12
    groups = {group for _, group, _ in reproduce.TARGETS}
    assert groups == {"growth", "algebra", "identities"}


def test_only_filter(monkeypatch):
    # stub targets: the acceptance tests run the real ones
    ran = []

    def target(name, ok):
        def fn():
            ran.append(name)
            return ok, name
        return fn

    monkeypatch.setattr(reproduce, "TARGETS", [
        ("g1", "growth", target("g1", True)),
        ("a1", "algebra", target("a1", True)),
        ("g2", "growth", target("g2", False)),
        ("i1", "identities", target("i1", True)),
    ])
    results = reproduce.run_targets(only="growth")
    assert ran == ["g1", "g2"]
    assert [(r.name, r.group, r.passed, r.detail) for r in results] == [
        ("g1", "growth", True, "g1"),
        ("g2", "growth", False, "g2"),
    ]
    assert [r.name for r in reproduce.run_targets()] == ["g1", "a1", "g2", "i1"]


def test_negative_control_partition_base(monkeypatch):
    # injecting a corrupted partition table must make the trunk-refinement
    # target fail: partition values are read at call time, not frozen
    monkeypatch.setattr(growth, "P_ROWS", [[0]])
    ok, detail = reproduce._trunk_refinement()
    assert not ok
    assert "mismatch" in detail


def test_expected_cell_trees_are_valid():
    from adequa.trees import canonical_code, validate

    t1, t2 = reproduce.expected_refined_cell_trees()
    for t in (t1, t2):
        info = validate(t)
        assert t.edge_count == 6 and len(info.edges) == 2
    assert canonical_code(t1) != canonical_code(t2)
