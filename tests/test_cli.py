import gc
import json
import os
import subprocess
import sys

import pytest

from hallzero import cli, verification
from hallzero.algebra import H0Element
from hallzero.cli import main
from hallzero.degeneration import DegPoset
from hallzero.errors import InterpolationError
from hallzero.interpolate import IntPoly
from hallzero.partitions import parse_partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_module(*argv):
    """`python -m hallzero ARGV` in a fresh process, through `cli.run`, with
    stdout block-buffered as in a shell pipe, so only the exit flushes it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "hallzero", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


# Arguments for every subcommand of the command table, and for hallpoly.
VALUE_CASES = {
    "conj": ["(3,3,2,1)"],
    "add": ["(3^2,2,1)", "(2^2)"],
    "union": ["(3,3,2,1)", "(2,2)"],
    "degle": ["(3,1^2)", "(2^2,1)"],
    "genext": ["(1^3)", "(2)"],
    "fmap": ["(3,2)"],
    "h0mul": ["(2,1)", "(2)"],
    "const": ["(2,1)", "(2)", "(3,1^2)"],
    "hallnum": ["(1^2)", "(1)", "(1)", "--p", "2"],
    "hallpoly": ["(2,1)", "(2)", "(3,1^2)"],
}


def text_of(payload):
    """The text output that carries the same value as a JSON payload."""
    if "terms" in payload:
        terms = {parse_partition(t["partition"]): t["coeff"] for t in payload["terms"]}
        return str(H0Element(terms))
    if "coefficients" in payload:
        return str(IntPoly(tuple(payload["coefficients"])))
    result = payload["result"]
    return result if isinstance(result, str) else json.dumps(result)


class TestPartitionCommands:
    def test_conj(self, capsys):
        code, out, _ = run(capsys, "conj", "(3,3,2,1)")
        assert code == 0 and out.strip() == "(4,3,2)"

    def test_add(self, capsys):
        code, out, _ = run(capsys, "add", "(3^2,2,1)", "(2^2)")
        assert code == 0 and out.strip() == "(5^2,2,1)"

    def test_union(self, capsys):
        code, out, _ = run(capsys, "union", "(3,3,2,1)", "(2,2)")
        assert code == 0 and out.strip() == "(3^2,2^3,1)"

    def test_genext(self, capsys):
        code, out, _ = run(capsys, "genext", "(1^3)", "(2)")
        assert code == 0 and out.strip() == "(3,1^2)"

    @pytest.mark.parametrize(
        "command", [row[0] for row in cli.COMMANDS] + ["hallpoly"]
    )
    def test_json_matches_text(self, capsys, command):
        code, out, _ = run(capsys, command, *VALUE_CASES[command])
        json_code, payload = run_json(capsys, command, *VALUE_CASES[command])
        assert code == json_code == 0
        assert text_of(payload) == out.rstrip("\n")


class TestDegle:
    def test_true(self, capsys):
        code, out, _ = run(capsys, "degle", "(3,1^2)", "(2^2,1)")
        assert code == 0 and out.strip() == "true"

    def test_false(self, capsys):
        code, out, _ = run(capsys, "degle", "(3^2)", "(4,1^2)")
        assert code == 0 and out.strip() == "false"

    def test_json(self, capsys):
        code, payload = run_json(capsys, "degle", "(3,1^2)", "(2^2,1)")
        assert code == 0 and payload == {"result": True}

    def test_weight_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "degle", "(2)", "(2,1)")
        assert code == 2 and "weight mismatch" in err


class TestAlgebraCommands:
    def test_const(self, capsys):
        code, out, _ = run(capsys, "const", "(2,1)", "(2)", "(4,1)")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run(capsys, "const", "(2,1)", "(2)", "(3,1^2)")
        assert code == 0 and out.strip() == "-1"

    def test_const_is_capped_by_its_factors(self, capsys):
        # Total weight 50: each factor is within the weight cap.
        code, out, _ = run(capsys, "const", "(12,8,5)", "(10,9,6)", "(22,17,11)")
        assert code == 0 and out == "1\n"
        code, out, err = run(capsys, "const", "(31)", "()", "(31)")
        assert code == 3 and out == "" and "cap" in err

    def test_h0mul_is_capped_by_the_full_weight(self, capsys):
        code, out, err = run(capsys, "h0mul", "(16)", "(15)")
        assert code == 3 and out == "" and "cap" in err

    def test_fmap(self, capsys):
        code, payload = run_json(capsys, "fmap", "(3,2)")
        assert code == 0
        assert payload["terms"] == [
            {"partition": "(3,2)", "coeff": 1},
            {"partition": "(3,1^2)", "coeff": 1},
            {"partition": "(2^2,1)", "coeff": 1},
            {"partition": "(2,1^3)", "coeff": 1},
            {"partition": "(1^5)", "coeff": 1},
        ]

    def test_h0mul(self, capsys):
        code, out, _ = run(capsys, "h0mul", "(2,1)", "(2)")
        assert code == 0 and out.strip() == "u(4,1) - u(3,1^2)"
        code, payload = run_json(capsys, "h0mul", "(2,1)", "(2)")
        assert payload["terms"] == [
            {"partition": "(4,1)", "coeff": 1},
            {"partition": "(3,1^2)", "coeff": -1},
        ]


class TestOracleCommands:
    def test_hallnum(self, capsys):
        code, out, _ = run(capsys, "hallnum", "(1^2)", "(1)", "(1)", "--p", "2")
        assert code == 0 and out.strip() == "3"

    def test_hallnum_bad_prime(self, capsys):
        code, _, err = run(capsys, "hallnum", "(2)", "(1)", "(1)", "--p", "4")
        assert code == 2 and "unsupported prime" in err

    def test_hallnum_cap(self, capsys):
        code, _, err = run(
            capsys, "hallnum", "(1^9)", "(1^4)", "(1^5)", "--p", "2"
        )
        assert code == 3 and "cap" in err

    def test_hallpoly(self, capsys):
        code, out, _ = run(capsys, "hallpoly", "(2,1)", "(2)", "(3,1^2)")
        assert code == 0 and out.strip() == "-1 + 0*t + 1*t^2"
        code, payload = run_json(capsys, "hallpoly", "(1)", "(1)", "(1^2)")
        assert code == 0
        assert payload == {"feasible": True, "coefficients": [1, 1]}

    def test_hallpoly_interpolation_error(self, capsys, monkeypatch):
        def fail(*args):
            raise InterpolationError("validation failed at p=7")

        monkeypatch.setattr(cli, "interpolate_hall_poly", fail)
        code, out, err = run(capsys, "hallpoly", "(1)", "(1)", "(1^2)")
        assert (code, out, err) == (1, "", "error: validation failed at p=7\n")

    def test_hallpoly_infeasible(self, capsys):
        code, out, _ = run(capsys, "hallpoly", "(1^2)", "(1^3)", "(1^5)")
        assert code == 3 and out.strip() == "infeasible"
        code, payload = run_json(capsys, "hallpoly", "(1^2)", "(1^3)", "(1^5)")
        assert code == 3 and payload == {"feasible": False}


class TestPoset:
    def test_text_and_json(self, capsys):
        code, out, _ = run(capsys, "poset", "4")
        assert code == 0
        assert "weight: 4" in out
        assert "(2,1^2) -> (1^4)" in out
        code, payload = run_json(capsys, "poset", "4")
        assert payload["weight"] == 4
        assert payload["elements"][0] == "(4)"
        assert ["(4)", "(3,1)"] in payload["hasse_edges"]

    def test_dot_output(self, capsys, tmp_path):
        dot_file = tmp_path / "order.dot"
        code, _, _ = run(capsys, "poset", "3", "--dot", str(dot_file))
        assert code == 0
        assert dot_file.read_text() == (
            "digraph degeneration {\n"
            "  rankdir=TB;\n"
            '  "(3)";\n'
            '  "(2,1)";\n'
            '  "(1^3)";\n'
            '  "(3)" -> "(2,1)";\n'
            '  "(2,1)" -> "(1^3)";\n'
            "}\n"
        )

    def test_dot_computes_edges_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        hasse_edges = DegPoset.hasse_edges

        def counted(poset):
            calls.append(poset.n)
            return hasse_edges(poset)

        monkeypatch.setattr(DegPoset, "hasse_edges", counted)
        code, _, _ = run(capsys, "poset", "4", "--dot", str(tmp_path / "o.dot"))
        assert code == 0 and calls == [4]

    def test_cache_dir_flag(self, capsys, tmp_path):
        code, _, _ = run(capsys, "poset", "5", "--cache-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "degposet-5.json").exists()

    def test_cache_dir_is_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        code, out, err = run(capsys, "poset", "4", "--cache-dir", str(blocker))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_dot_into_missing_dir(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.dot"
        code, out, err = run(capsys, "poset", "4", "--dot", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.parent.exists()

    def test_dot_into_empty_path(self, capsys):
        code, out, err = run(capsys, "poset", "4", "--dot", "")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestVerify:
    def test_small_weight_passes(self, capsys):
        code, payload = run_json(capsys, "verify", "--max-weight", "3")
        assert code == 0
        assert payload["ok"] is True
        assert {c["name"] for c in payload["checks"]} == {
            "fmap_multiplicative",
            "ones_constant_terms",
            "extension_extremality",
            "interpolation_agreement",
        }
        assert all(c["passed"] for c in payload["checks"])

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-weight", "2")
        assert code == 0
        assert out.count("PASS") == 4
        assert "all checks passed" in out

    def test_negative_max_weight_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--max-weight", "-1", "--json")
        assert code == 2 and out == ""
        assert "--max-weight" in err

    def test_run_all_rejects_a_negative_bound(self, monkeypatch):
        # The library checks the bound itself, before any check runs,
        # rather than passing four checks over no weight at all.
        def unreachable(max_weight):
            raise AssertionError("a check ran with a negative bound")

        monkeypatch.setattr(verification, "check_fmap_multiplicative", unreachable)
        with pytest.raises(ValueError, match="non-negative"):
            verification.run_all(-1)

    def test_failure_exits_1_and_names_the_triple(self, capsys, monkeypatch):
        # A constant term wrong at one triple fails the two checks that
        # read it, each naming the triple, and the whole run.
        real = verification.constant_term
        wrong = tuple(map(parse_partition, ("(1)", "(1)", "(1^2)")))
        monkeypatch.setattr(
            verification, "constant_term", lambda *t: real(*t) + (t == wrong)
        )
        code, out, _ = run(capsys, "verify", "--max-weight", "2")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL ones_constant_terms: fails at ((1), (1), (1^2)): 2" in lines
        assert (
            "FAIL interpolation_agreement: constant mismatch at ((1), (1), (1^2))"
            in lines
        )
        assert out.count("PASS") == 2 and lines[-1] == "verification FAILED"
        code, payload = run_json(capsys, "verify", "--max-weight", "2")
        assert code == 1 and payload["ok"] is False
        assert [c["passed"] for c in payload["checks"]] == [True, False, True, False]

    @pytest.mark.parametrize("weight", [9, 30])
    def test_above_the_p2_cap_exits_3(self, capsys, monkeypatch, weight):
        # The cap is checked before any check runs: the products up to
        # weight 30 alone would take minutes.
        def unreachable(max_weight):
            raise AssertionError("a check ran above the cap")

        monkeypatch.setattr(verification, "check_fmap_multiplicative", unreachable)
        code, out, err = run(capsys, "verify", "--max-weight", str(weight))
        assert (code, out) == (3, "")
        assert "exceeds the enumeration cap 8 for p=2" in err


class TestExample:
    def test_matches_golden_file(self, capsys):
        golden = os.path.join(os.path.dirname(__file__), "data", "example_golden.txt")
        code, out, _ = run(capsys, "example")
        assert code == 0
        with open(golden, "rb") as fh:
            assert out.encode() == fh.read()

    def test_json_values(self, capsys):
        code, payload = run_json(capsys, "example")
        assert code == 0
        steps = payload["steps"]
        assert len(steps) == 4
        values = {
            (s["left"], s["right"], ct["target"]): ct["value"]
            for s in steps
            for ct in s["constant_terms"]
        }
        assert len(values) == 13
        assert values[("(2,1)", "(2)", "(4,1)")] == 1
        assert values[("(2,1)", "(2)", "(3,1^2)")] == -1
        assert values[("(1^3)", "(2)", "(2,1^3)")] == 0
        assert values[("(2,1)", "(1^2)", "(3,2)")] == 1


class TestUsageErrors:
    def test_bad_partition(self, capsys):
        code, _, err = run(capsys, "conj", "1,2")
        assert code == 2 and "position" in err

    def test_weight_bound(self, capsys):
        code, out, err = run(capsys, "conj", "2147483647")
        assert (code, out) == (2, "") and "exceeds the bound" in err
        code, out, err = run(capsys, "conj", "(1^3000000000)")
        assert (code, out) == (2, "") and "position 1" in err

    def test_long_and_zero_part_numbers(self, capsys):
        # Neither reaches int() on 5000 digits nor expands 10**12 zeros.
        for text, position in (("0" * 4999 + "1", 0), ("(3,0^1000000000000)", 3)):
            code, out, err = run(capsys, "conj", text)
            assert (code, out) == (2, "") and f"position {position}" in err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_long_input_gives_a_short_message(self, capsys):
        code, out, err = run(capsys, "conj", "9" * 5000)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert len(err) < 200 and "position 0" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2


class TestProcessEntry:
    def test_large_output_is_flushed(self, capsys):
        # The process entry freezes the heap before the interpreter exits;
        # the whole document still reaches stdout, as main() prints it.
        proc = run_module("poset", "16", "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(json.loads(proc.stdout)["elements"]) == 231
        assert run(capsys, "poset", "16", "--json") == (0, proc.stdout, "")

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("union", "(3,,1)", "(2,1)"), 2),
            (("hallnum", "(4,3)", "(6)", "(1)", "--p", "7"), 3),
        ],
    )
    def test_exit_codes(self, argv, code):
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_main_never_freezes(self, capsys):
        frozen = gc.get_freeze_count()
        assert run(capsys, "conj", "(3,1)") == (0, "(2,1^2)\n", "")
        assert gc.get_freeze_count() == frozen
