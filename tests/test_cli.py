"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from adequa.algebra import Flavor, eval_term, generator
from adequa.cli import _element_obj, main
from adequa.growth import generic_left_trees
from adequa.terms import parse_term
from adequa.trees import canonical_code, from_json, generator_tree, to_json

from .test_algebra import BAD_LABELS, bad_tree
from .test_trees import run_capped


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_with_hash_seed(seed, *argv):
    """Run the CLI in a fresh interpreter under PYTHONHASHSEED=seed."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
    return subprocess.run(
        [sys.executable, "-m", "adequa.cli", *argv],
        capture_output=True, env=env, timeout=120,
    )


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

    @pytest.mark.parametrize("letter", ["X", "é", "1", "xy", ""])
    def test_assign_letter_outside_the_grammar_rejected(self, capsys, letter):
        code, out, err = run(
            capsys, "eval", "--flavor", "flad", "--assign", letter + "=y", "x"
        )
        assert code == 2 and out == ""
        assert "bad --assign letter" in err

    def test_letter_assigned_twice_rejected(self, capsys):
        code, out, err = run(
            capsys, "eval", "--flavor", "flad", "--assign", "x=x^+", "--assign", "x=y", "xx"
        )
        assert code == 2 and out == ""
        assert "letter x assigned twice" in err

    def test_eval_dot(self, capsys):
        code, out, _ = run(capsys, "eval", "--flavor", "fad", "--format", "dot", "a")
        assert code == 0 and out.startswith("digraph")

    def test_long_foldable_block(self, capsys):
        # (x^250)^+ x^300: the 250-edge plus block folds into the trunk
        term = "(" + "x" * 250 + ")^+" + "x" * 300
        code, out, _ = run(capsys, "eval", "--flavor", "flad", term)
        assert code == 0
        assert json.loads(out)["edges"] == 300

    def test_long_word(self, capsys):
        code, out, _ = run(capsys, "eval", "--flavor", "flad", "xy" * 600)
        assert code == 0
        assert json.loads(out)["trunk_length"] == 1200

    def test_long_word_in_linear_memory(self):
        proc = run_capped("-m", "adequa.cli", "eval", "--flavor", "flad", "xy" * 15000)
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        assert json.loads(proc.stdout)["trunk_length"] == 30000

    def test_star_rejected_in_left_flavor(self, capsys):
        code, _, err = run(capsys, "eval", "--flavor", "flad", "x^*")
        assert code == 2 and err


class TestEqual:
    def test_equal_true(self, capsys):
        code, out, _ = run(capsys, "equal", "--flavor", "flad", "x^+x", "x")
        assert code == 0 and json.loads(out)["equal"] is True

    def test_deeply_parenthesised_term(self, capsys):
        term = "(" * 1200 + "x" + ")" * 1200
        code, out, _ = run(capsys, "equal", "--flavor", "flad", term, "x")
        assert code == 0 and json.loads(out)["equal"] is True

    def test_equal_false_exit_one(self, capsys):
        code, out, _ = run(capsys, "equal", "--flavor", "flad", "xy", "yx")
        assert code == 1 and json.loads(out)["equal"] is False

    def test_long_words(self, capsys):
        # a 1200-letter word parses to a product nested 1200 deep
        word = "x" * 1200
        code, out, _ = run(capsys, "equal", "--flavor", "flad", word, word)
        assert code == 0 and json.loads(out)["equal"] is True


class TestRetract:
    def test_retract_roundtrip(self, capsys):
        t = to_json(generator_tree("a"))
        code, out, _ = run(capsys, "retract", "--json", t)
        assert code == 0
        assert json.loads(out)["deleted_edges"] == 0

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "retract", "--json", "{oops")
        assert code == 2 and "malformed" in err

    def test_dot_breaking_label_rejected(self, capsys):
        text = '{"vertices":2,"start":0,"end":0,"edges":[[0,1,"a\\"b"]]}'
        code, out, err = run(capsys, "retract", "--json", text, "--format", "dot")
        assert code == 2 and out == ""
        assert "bad edge label" in err

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_bad_label_rejected(self, capsys, label):
        t = bad_tree(label)
        text = json.dumps({"vertices": 3, "start": 0, "end": 1, "edges": [list(e) for e in t.edges]})
        for _ in range(2):
            code, out, err = run(capsys, "retract", "--json", text)
            assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("edge", ["[false,true,\"a\"]", "[0,true,\"a\"]", "[true,1,\"a\"]"])
    def test_boolean_endpoint_rejected(self, capsys, edge):
        text = '{"vertices":2,"start":0,"end":1,"edges":[%s]}' % edge
        code, out, err = run(capsys, "retract", "--json", text)
        assert code == 2 and out == ""
        assert "malformed JSON at $.edges[0]" in err


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

    @pytest.mark.parametrize("variant,n_max", [("left", 10), ("two-sided", 5)])
    def test_count_only_is_the_full_output_without_elements(self, capsys, variant, n_max):
        for n in range(n_max + 1):
            for flags in ([], ["--by-trunk"], ["--idempotents-only"],
                          ["--by-trunk", "--idempotents-only"]):
                argv = ["sphere", "--variant", variant, "--edges", str(n), *flags]
                _, full, _ = run(capsys, *argv)
                _, counted, _ = run(capsys, *argv, "--count-only")
                want = json.loads(full)
                del want["elements"]
                assert json.loads(counted) == want, (n, flags)

    def test_left_sphere_is_the_generic_set(self, capsys):
        for n in range(9):
            _, out, _ = run(capsys, "sphere", "--variant", "left", "--edges", str(n))
            trees = [from_json(json.dumps(t)) for t in json.loads(out)["elements"]]
            printed = [canonical_code(t) for t in trees]
            assert printed == sorted(canonical_code(t) for t in generic_left_trees(n))

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (("sphere", "--variant", "left", "--edges", "31"), "left sphere bound 30"),
            (("census", "--variant", "left", "--max", "31"), "left sphere bound 30"),
            (("partitions", "--n", "601"), "partition bound 600"),
            (("partitions", "--n", "601", "--distinct"), "partition bound 600"),
            (("sphere", "--variant", "left", "--edges", "-1"), "n must be nonnegative"),
            (("sphere", "--variant", "two-sided", "--edges", "-1"), "n must be nonnegative"),
            (("census", "--variant", "left", "--max", "-1"), "n must be nonnegative"),
            (("census", "--variant", "two-sided", "--max", "-1"), "n must be nonnegative"),
        ],
    )
    def test_sizes_past_the_caps_rejected(self, capsys, argv, bound):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert bound in err

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

    def test_two_sided_census_digest(self, capsys):
        # the printed census, byte for byte, as it was when the census
        # still built the sphere's elements
        assert main(["census", "--variant", "two-sided", "--max", "8"]) == 0
        out = capsys.readouterr().out
        assert hashlib.md5(out.encode()).hexdigest() == "291a00bfbbb7924cf6790c6e74bb15e5"

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

    @pytest.mark.parametrize("monoid,operator,side", [
        ("flad1", "^*", "left"), ("frad1", "^+", "right"),
    ])
    def test_operator_outside_the_signature(self, capsys, monoid, operator, side):
        # the error names the operator as written, not as the right
        # signature's reversal turns it
        code, out, err = run(capsys, "identity", "--monoid", monoid, "x%sx" % operator, "x")
        assert code == 2 and out == ""
        assert err == "error: %s is not in the %s-adequate signature" % (operator, side)

    def test_falsify(self, capsys):
        code, out, _ = run(
            capsys, "falsify", "--monoid", "flad1", "--budget", "200", "xy", "yx"
        )
        assert code == 1 and json.loads(out)["witness"] is not None
        code, out, _ = run(
            capsys, "falsify", "--monoid", "flad1", "--budget", "200", "x^+x", "x"
        )
        assert code == 0 and json.loads(out)["witness"] is None

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_falsify_budget_below_one_rejected(self, capsys, budget):
        # a search that tries nothing must not print "not falsified"
        code, out, err = run(
            capsys, "falsify", "--monoid", "flad1", "--budget", budget, "xy", "yx"
        )
        assert code == 2 and out == ""
        assert "budget must be at least 1" in err


class TestLongTerms:
    # a 1200-letter word parses to a product nested 1200 deep; no command
    # may walk it by recursion
    W = "xy" * 600

    @pytest.mark.parametrize("argv", [
        ("identity", "--monoid", "flad1", "--enriched"),
        ("identity", "--monoid", "frad1", "--enriched"),
        ("identity", "--monoid", "flad1", "--plain"),
        ("identity", "--monoid", "fad1"),
        ("falsify", "--monoid", "flad1", "--budget", "3"),
    ], ids=["flad1-enriched", "frad1-enriched", "flad1-plain", "fad1", "falsify"])
    def test_long_identity(self, capsys, argv):
        code, out, _ = run(capsys, *argv, self.W, self.W)
        assert code == 0
        assert json.loads(out)["witness"] is None


def run_with_stdin(text, *argv):
    """Run the CLI in a fresh interpreter with text on stdin."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "adequa.cli", *argv],
        input=text.encode(), capture_output=True, env=env, timeout=120,
    )


class TestStdin:
    """A term given as "-" is read from stdin, past the 128 KB the kernel
    allows one argument."""

    def test_long_word(self):
        word = "".join(random.Random(20000).choice("xy") for _ in range(20000))
        proc = run_with_stdin(word + "\n", "eval", "--flavor", "fad", "-")
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        gens = {x: generator(x, Flavor.TWO_SIDED) for x in "xy"}
        el = eval_term(parse_term(word), gens, Flavor.TWO_SIDED)
        want = json.dumps(_element_obj(el), sort_keys=True, separators=(",", ":")) + "\n"
        assert proc.stdout.decode() == want
        assert el.trunk_length == 20000

    @pytest.mark.parametrize("argv, terms", [
        (("eval", "--flavor", "fad"), ["(xy)^+(yx)^*x"]),
        (("equal", "--flavor", "flad"), ["x^+x", "x"]),
        (("equal", "--flavor", "frad"), ["xy", "yx"]),
        (("identity", "--monoid", "fad1"), ["xy", "yx"]),
        (("identity", "--monoid", "flad1", "--enriched"), ["x^+^+(xy)^+y", "y"]),
    ], ids=["eval", "equal", "equal-false", "identity-fad1", "identity-flad1"])
    def test_same_output_both_ways(self, capsys, argv, terms):
        code, out, _ = run(capsys, *argv, *terms)
        for i, term in enumerate(terms):
            args = terms[:i] + ["-"] + terms[i + 1:]
            proc = run_with_stdin(term, *argv, *args)
            assert (proc.returncode, proc.stdout.decode().strip()) == (code, out)

    def test_one_term_from_stdin(self):
        proc = run_with_stdin("x", "equal", "--flavor", "flad", "-", "-")
        assert proc.returncode == 2 and proc.stdout == b""
        assert b"only one term may be read from stdin" in proc.stderr


class TestPlumbing:
    def test_usage_error(self, capsys):
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys, "sphere", "--variant", "left")[0] == 2

    def test_deterministic_output(self, capsys):
        argv = ["census", "--variant", "two-sided", "--max", "3"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "eval", "--flavor", "flad", "x^")
        assert code == 2 and "dangling" in err

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        import adequa.cli as cli

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_partitions", boom)
        code, out, err = run(capsys, "partitions", "--n", "3")
        assert code == 3
        assert out == "" and "internal error: boom" in err

    def test_closed_stdout_exits_quietly(self):
        # about 120 KB of output overflows the pipe buffer, so the CLI is
        # still writing when the reader goes away, as under `| head -c 10`
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "adequa.cli", "zigzag", "--edges", "16"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(10) == b'{"edges":1'
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""

    def test_reproduce_only_filter(self, capsys, monkeypatch):
        # stub targets, one per group, so the table and exit code are exact
        from adequa import reproduce

        monkeypatch.setattr(reproduce, "TARGETS", [
            ("good", "growth", lambda: (True, "fine")),
            ("bad", "algebra", lambda: (False, "broken")),
        ])
        code, out, _ = run(capsys, "reproduce-paper", "--only", "growth")
        assert code == 0
        assert out.splitlines() == ["good  [growth]  PASS  fine", "1/1 targets passed"]
        code, out, _ = run(capsys, "reproduce-paper")
        assert code == 1
        assert out.splitlines() == [
            "good  [growth]  PASS  fine",
            "bad   [algebra]  FAIL  broken",
            "1/2 targets passed",
        ]
        code, out, _ = run(capsys, "reproduce-paper", "--only", "algebra")
        assert code == 1 and out.splitlines()[-1] == "0/1 targets passed"


class TestReproduction:
    """growth-report and identity-sweep under main's exit-code contract."""

    def test_identity_sweep(self, capsys):
        code, out, err = run(capsys, "identity-sweep", "--rounds", "20", "--budget", "50")
        assert code == 0, err
        assert out.endswith("0 disagreements")

    def test_identity_sweep_disagreement_exits_one(self, capsys):
        # one assignment per identity cannot separate most rejected identities
        code, out, err = run(capsys, "identity-sweep", "--rounds", "10", "--budget", "1")
        assert code == 1, err
        assert "DISAGREEMENT" in out

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_identity_sweep_rejects_budget_below_one(self, capsys, budget):
        code, out, err = run(capsys, "identity-sweep", "--rounds", "1", "--budget", budget)
        assert code == 2 and out == ""
        assert "at least 1" in err

    @pytest.mark.parametrize("argv, message", [
        (("growth-report", "--rank", "0"), "error: rank must be at least 1"),
        (("growth-report", "--rank", "-2"), "error: rank must be at least 1"),
        (("identity-sweep", "--rounds", "-5"), "error: rounds must be nonnegative"),
        # the budget is checked even when no identity is drawn
        (("identity-sweep", "--rounds", "0", "--budget", "0"), "error: budget must be at least 1"),
    ], ids=["rank-0", "rank-negative", "rounds-negative", "budget-0-no-rounds"])
    def test_bad_counts_rejected(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", message)

    def test_growth_report_past_the_bound_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "growth-report", "--max", "31")
        assert code == 2 and out == ""
        assert err == "error: n=31 exceeds the left sphere bound 30"

    def test_growth_report_json(self, capsys):
        code, out, err = run(capsys, "growth-report", "--max", "6", "--json")
        assert code == 0, err
        report = json.loads(out)
        assert [row["n"] for row in report["rows"]] == list(range(7))

    def test_growth_report_published_mismatch_exits_one(self, capsys, monkeypatch):
        from adequa import growth

        monkeypatch.setattr(growth, "PUBLISHED_TABLE_S", [9] * 6)
        monkeypatch.setattr(growth, "PUBLISHED_TABLE_SE", [9] * 6)
        code, out, err = run(capsys, "growth-report", "--max", "3", "--two-sided-max", "3")
        assert code == 1 and out == ""
        assert err == "check failed: two-sided counts differ from the published table at n=0"

    def test_identity_sweep_internal_error_exits_three(self, capsys, monkeypatch):
        from adequa import reproduce

        def boom(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(reproduce, "check_enriched_flad1", boom)
        code, out, err = run(capsys, "identity-sweep", "--rounds", "3")
        assert code == 3
        assert out == "" and "internal error: boom" in err


class TestByteDeterminism:
    """stdout is the same bytes whatever the string-hash seed."""

    # two labels, mixed directions, and two copies of one branch, one of
    # which folds
    FOLDING_TREE = (
        '{"vertices":7,"start":0,"end":1,"edges":'
        '[[0,1,"a"],[0,2,"a"],[2,3,"b"],[0,4,"a"],[4,5,"b"],[6,0,"b"]]}'
    )

    @pytest.mark.parametrize("argv", [
        ("eval", "--flavor", "fad", "(xy)^+(yx)^*x"),
        ("equal", "--flavor", "flad", "x^+x", "x"),
        ("retract", "--json", FOLDING_TREE),
        ("sphere", "--variant", "two-sided", "--edges", "3"),
        ("census", "--variant", "two-sided", "--max", "3"),
        ("identity", "--monoid", "fad1", "xy", "yx"),
        ("identity", "--monoid", "flad1", "--enriched", "x^+^+(xy)^+y", "y"),
    ], ids=["eval", "equal", "retract", "sphere", "census", "identity-fad1",
            "identity-flad1"])
    def test_same_bytes_under_two_hash_seeds(self, argv):
        first, second = (run_with_hash_seed(seed, *argv) for seed in (0, 1))
        assert first.returncode in (0, 1), first.stderr
        assert first.stdout and first.stdout == second.stdout
        assert first.returncode == second.returncode

    # eval and equal over every flavor, --assign and dot output; the
    # digest of their stdout, exit codes between, was taken when every
    # element was coded as it was made
    CODED_CALLS = [
        ("eval", "--flavor", "flad", "x^+y(xy)^+x"),
        ("eval", "--flavor", "frad", "(xy)^*yx^*"),
        ("eval", "--flavor", "fad", "(xy)^+(yx)^*x"),
        ("eval", "--flavor", "fad", "--assign", "x=(ab)^*a", "x^+yx"),
        ("eval", "--flavor", "fad", "--format", "dot", "(x^*y)^+z"),
        ("eval", "--flavor", "flad", "1"),
        ("equal", "--flavor", "flad", "x^+x", "x"),
        ("equal", "--flavor", "frad", "xx^*", "x"),
        ("equal", "--flavor", "fad", "(xy)^+", "(yx)^+"),
        ("equal", "--flavor", "fad", "x^+y^+", "y^+x^+"),
    ]
    CODED_DIGEST = "15864a17fefd8f662e2166b19bcbde1156de34db688496d9afc29a6b7349ea0e"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_eval_and_equal_digest(self, seed):
        script = "from adequa.cli import main\nfor argv in %r:\n    print(main(list(argv)))" % (
            self.CODED_CALLS,
        )
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        assert hashlib.sha256(proc.stdout).hexdigest() == self.CODED_DIGEST

    def test_identity_reports_the_first_failing_block(self):
        # u's plus blocks are tried in atom order: x before xy
        proc = run_with_hash_seed(0, "identity", "--monoid", "flad1", "--enriched",
                                  "x^+^+(xy)^+y", "y")
        assert json.loads(proc.stdout)["failing_condition"] == "iiia/b: block x letter x"
