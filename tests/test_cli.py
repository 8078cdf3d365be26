"""Command-line interface: exit codes, output formats, determinism."""

import json

import pytest

from adequa.cli import main
from adequa.trees import generator_tree, to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestEval:
    def test_eval_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--flavor", "flad", "x^+x")
        assert code == 0
        obj = json.loads(out)
        assert obj["edges"] == 1 and obj["trunk_length"] == 1
        assert not obj["idempotent"]

    def test_eval_with_assignment(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--flavor", "flad", "--assign", "x=aa", "x"
        )
        assert code == 0
        assert json.loads(out)["edges"] == 2

    def test_eval_dot(self, capsys):
        code, out, _ = run(capsys, "eval", "--flavor", "fad", "--format", "dot", "a")
        assert code == 0 and out.startswith("digraph")

    def test_long_foldable_block(self, capsys):
        # (x^250)^+ x^300: the 250-edge plus block folds into the trunk
        term = "(" + "x" * 250 + ")^+" + "x" * 300
        code, out, _ = run(capsys, "eval", "--flavor", "flad", term)
        assert code == 0
        assert json.loads(out)["edges"] == 300

    def test_star_rejected_in_left_flavor(self, capsys):
        code, _, err = run(capsys, "eval", "--flavor", "flad", "x^*")
        assert code == 2 and err


class TestEqual:
    def test_equal_true(self, capsys):
        code, out, _ = run(capsys, "equal", "--flavor", "flad", "x^+x", "x")
        assert code == 0 and json.loads(out)["equal"] is True

    def test_equal_false_exit_one(self, capsys):
        code, out, _ = run(capsys, "equal", "--flavor", "flad", "xy", "yx")
        assert code == 1 and json.loads(out)["equal"] is False


class TestRetract:
    def test_retract_roundtrip(self, capsys):
        t = to_json(generator_tree("a"))
        code, out, _ = run(capsys, "retract", "--json", t)
        assert code == 0
        assert json.loads(out)["deleted_edges"] == 0

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "retract", "--json", "{oops")
        assert code == 2 and "malformed" in err


class TestEnumeration:
    def test_sphere_count_only(self, capsys):
        code, out, _ = run(
            capsys, "sphere", "--variant", "left", "--edges", "5", "--count-only"
        )
        assert code == 0
        assert json.loads(out) == {"edges": 5, "total": 11, "variant": "left"}

    def test_sphere_by_trunk(self, capsys):
        code, out, _ = run(
            capsys,
            "sphere", "--variant", "left", "--edges", "4", "--by-trunk", "--count-only",
        )
        obj = json.loads(out)
        assert sum(obj["by_trunk"].values()) == obj["total"] == 7

    def test_sphere_idempotents(self, capsys):
        _, out, _ = run(
            capsys,
            "sphere", "--variant", "two-sided", "--edges", "3",
            "--idempotents-only", "--count-only",
        )
        assert json.loads(out)["total"] == 6

    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "census", "--variant", "two-sided", "--max", "5")
        rows = json.loads(out)["rows"]
        assert [r["total"] for r in rows] == [1, 3, 6, 14, 29, 74]

    def test_census_csv(self, capsys):
        code, out, _ = run(
            capsys, "census", "--variant", "left", "--max", "2", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "n,total,k,count_by_trunk,idempotent_count"
        assert len(lines) == 1 + 1 + 2 + 3

    def test_partitions(self, capsys):
        _, out, _ = run(capsys, "partitions", "--n", "6")
        assert json.loads(out)["value"] == 11
        _, out, _ = run(capsys, "partitions", "--n", "10", "--k", "3", "--distinct")
        assert json.loads(out)["value"] == 4

    def test_zigzag(self, capsys):
        _, out, _ = run(capsys, "zigzag", "--edges", "5")
        rows = json.loads(out)["rows"]
        assert [r["retract_free_count"] for r in rows] == [1, 3, 2]

    def test_zigzag_height_filter(self, capsys):
        _, out, _ = run(capsys, "zigzag", "--edges", "5", "--height", "1")
        rows = json.loads(out)["rows"]
        assert len(rows) == 1 and rows[0]["height"] == 1


class TestIdentity:
    def test_satisfied(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--monoid", "flad1", "--enriched", "x^+x", "x"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {"satisfied": True, "failing_condition": None, "witness": None}

    def test_not_satisfied(self, capsys):
        code, out, _ = run(capsys, "identity", "--monoid", "flad1", "xy", "yx")
        assert code == 1
        assert json.loads(out)["failing_condition"]

    def test_fad1_witness_emitted(self, capsys):
        code, out, _ = run(capsys, "identity", "--monoid", "fad1", "xy", "yx")
        assert code == 1
        witness = json.loads(out)["witness"]
        assert set(witness) == {"x", "y"}
        assert all("edges" in t for t in witness.values())

    def test_plain_mode(self, capsys):
        code, _, _ = run(
            capsys, "identity", "--monoid", "frad1", "--plain", "xzytxy", "xzytyx"
        )
        assert code == 0

    def test_falsify(self, capsys):
        code, out, _ = run(
            capsys, "falsify", "--monoid", "flad1", "--budget", "200", "xy", "yx"
        )
        assert code == 1 and json.loads(out)["witness"] is not None
        code, out, _ = run(
            capsys, "falsify", "--monoid", "flad1", "--budget", "200", "x^+x", "x"
        )
        assert code == 0 and json.loads(out)["witness"] is None


class TestPlumbing:
    def test_usage_error(self, capsys):
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys, "sphere", "--variant", "left")[0] == 2

    def test_jobs_flag_accepted(self, capsys):
        code, _, _ = run(capsys, "--jobs", "2", "partitions", "--n", "3")
        assert code == 0
        assert run(capsys, "--jobs", "0", "partitions", "--n", "3")[0] == 2

    def test_deterministic_output(self, capsys):
        argv = ["census", "--variant", "two-sided", "--max", "3"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "eval", "--flavor", "flad", "x^")
        assert code == 2 and "dangling" in err

    def test_reproduce_only_filter(self, capsys):
        # run the cheap growth subset end to end through the CLI
        from adequa import reproduce

        results = reproduce.run_targets(only="growth")
        assert results and all(r.group == "growth" for r in results)
