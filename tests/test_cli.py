import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from photonwalk import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDJ:
    def test_balanced_both_schemes(self, capsys):
        code, out, _ = run(capsys, "dj", "--function", "vii", "--scheme", "both")
        assert code == 0
        assert "p_all_zero=0.000000" in out
        assert "balanced" in out
        assert "schemes agree: yes" in out

    def test_constant_no_aux(self, capsys):
        code, out, _ = run(capsys, "dj", "--function", "i", "--scheme", "no-aux")
        assert code == 0
        assert "p_all_zero=1.000000" in out
        assert "constant" in out

    def test_promise_violation_exit_2(self, capsys, tmp_path):
        table = tmp_path / "and.json"
        table.write_text(json.dumps({"n": 2, "table": [0, 0, 0, 1]}))
        code, out, err = run(capsys, "dj", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err == "promise violated: function is neither constant nor balanced\n"

    def test_a_promise_violation_does_not_hide_a_bad_scheme(self, capsys, tmp_path):
        table = tmp_path / "and.json"
        table.write_text(json.dumps({"n": 2, "table": [0, 0, 0, 1]}))
        code, out, err = run(capsys, "dj", "--table", str(table), "--scheme", "bogus")
        assert code == 1
        assert out == ""
        assert err == "error: scheme: expected with-aux, no-aux or both, got 'bogus'\n"

    def test_unknown_function_exit_1(self, capsys):
        code, _, err = run(capsys, "dj", "--function", "ix")
        assert code == 1
        assert "ix" in err

    def test_bad_table_exit_1(self, capsys, tmp_path):
        table = tmp_path / "bad.json"
        table.write_text("{not json")
        code, _, err = run(capsys, "dj", "--table", str(table))
        assert code == 1

    def test_table_with_three_bits_exit_1(self, capsys, tmp_path):
        table = tmp_path / "n3.json"
        table.write_text(json.dumps({"n": 3, "table": [0, 0, 0, 0, 1, 1, 1, 1]}))
        code, _, err = run(capsys, "dj", "--table", str(table))
        assert code == 1
        assert err == "error: walk schemes support 2-bit functions\n"

    @pytest.mark.parametrize(
        "entries", [[0.5, 0, 1, 1], "0011", ["0", "0", "1", "1"], [[1], 0, 1, 1]],
        ids=["fraction", "string", "string-entries", "list-entry"],
    )
    def test_table_non_bit_entries_exit_1(self, capsys, tmp_path, entries):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"n": 2, "table": entries}))
        code, out, err = run(capsys, "dj", "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == "error: table: truth table entries must be 0 or 1\n"

    @pytest.mark.parametrize(
        "blob",
        [
            {"n": 2}, {"table": [0, 1, 1, 0]}, [1, 2], "0110", None,
            {"n": 2, "table": [0, 1, 1, 0], "scheme": "no-aux"},
        ],
        ids=["no-table", "no-n", "array", "string", "null", "extra-key"],
    )
    def test_table_that_is_not_an_object_with_both_keys_exit_1(self, capsys, tmp_path, blob):
        table = tmp_path / "t.json"
        table.write_text(json.dumps(blob))
        code, out, err = run(capsys, "dj", "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == 'error: table: expected a JSON object with keys "n" and "table"\n'

    def test_table_that_is_not_a_list_exit_1(self, capsys, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"n": 2, "table": 5}))
        code, out, err = run(capsys, "dj", "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == "error: table: truth table entries must be 0 or 1\n"

    def test_table_with_a_huge_n_exit_1(self, capsys, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"n": 20000, "table": [0, 1]}))
        code, out, err = run(capsys, "dj", "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == "error: table: truth table must have 2**20000 entries, got 2\n"

    @pytest.mark.parametrize("n", [2.5, "2", True], ids=["fraction", "string", "bool"])
    def test_table_non_int_n_exit_1(self, capsys, tmp_path, n):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"n": n, "table": [0, 0, 1, 1]}))
        code, out, err = run(capsys, "dj", "--table", str(table))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "n must be an int" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "dj", "--function", "ii", "--format", "json")
        blob = json.loads(out)
        assert code == 0
        assert blob["schemes_agree"] is True
        assert blob["results"][0]["p_all_zero"] == pytest.approx(1.0, abs=1e-10)

    def test_dump_state(self, capsys):
        code, out, _ = run(
            capsys, "dj", "--function", "i", "--scheme", "no-aux",
            "--format", "json", "--dump-state",
        )
        blob = json.loads(out)
        states = blob["results"][0]["states"]
        assert states[0]["stage"] == "initial"
        assert states[0]["state"]["amplitudes"][0] == [1.0, 0.0]

    @pytest.mark.parametrize("scheme,stages", [
        ("with-aux", ["initial", "prep", "coin_hadamard", "position_hadamard",
                      "oracle", "position_hadamard"]),
        ("no-aux", ["initial", "coin_hadamard", "position_hadamard", "oracle",
                    "coin_hadamard", "position_hadamard"]),
    ])
    def test_dump_state_stage_names(self, capsys, scheme, stages):
        for cmd in (("dj", "--function", "vii"), ("bv", "--string", "10")):
            code, out, _ = run(
                capsys, *cmd, "--scheme", scheme, "--format", "json", "--dump-state",
            )
            assert code == 0
            [result] = json.loads(out)["results"]
            assert [s["stage"] for s in result["states"]] == stages

    def test_function_and_table_exclude_each_other(self, capsys, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"n": 2, "table": [0, 0, 1, 1]}))
        code, out, err = run(capsys, "dj", "--function", "iii", "--table", str(table))
        assert code == 1
        assert out == ""
        assert err == "error: argument --table: not allowed with argument --function\n"

    def test_neither_function_nor_table_exit_1(self, capsys):
        code, out, err = run(capsys, "dj")
        assert code == 1
        assert out == ""
        assert err == "error: dj needs --function or --table\n"

    def test_empty_function_name_is_an_unknown_function(self, capsys):
        code, out, err = run(capsys, "dj", "--function", "")
        assert code == 1
        assert out == ""
        assert err == "error: unknown catalogue function '' (use i..viii)\n"

    def test_empty_table_path_is_a_missing_file(self, capsys):
        code, out, err = run(capsys, "dj", "--table", "")
        assert code == 1
        assert out == ""
        assert err.startswith("error: table: ") and "No such file" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 200_000,  # RecursionError
            b'{"n": ' + b"9" * 5000 + b', "table": [0, 1, 1, 0]}',  # over the int string limit
            b"\xff\xfe{bad",  # UnicodeDecodeError
        ],
        ids=["too-deep", "long-int", "not-utf8"],
    )
    def test_malformed_table_file_exit_1(self, capsys, tmp_path, content):
        table, output = tmp_path / "t.json", tmp_path / "out.txt"
        table.write_bytes(content)
        code, out, err = run(capsys, "dj", "--table", str(table), "--output", str(output))
        assert code == 1
        assert out == ""
        # The text after the prefix is CPython's and may differ between versions.
        assert err.startswith("error: table: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not output.exists()


class TestBV:
    def test_recovers(self, capsys):
        code, out, _ = run(capsys, "bv", "--string", "01")
        assert code == 0
        assert "recovered=01 p=1.000000" in out

    def test_with_aux_scheme(self, capsys):
        code, out, _ = run(
            capsys, "bv", "--string", "11", "--scheme", "with-aux"
        )
        assert code == 0
        assert "recovered=11" in out

    def test_bad_string_exit_1(self, capsys):
        code, _, err = run(capsys, "bv", "--string", "2x")
        assert code == 1

    def test_wrong_length_exit_1(self, capsys):
        code, _, _ = run(capsys, "bv", "--string", "010")
        assert code == 1


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = [l for l in out.strip().splitlines()]
        assert len(lines) == len(cli.ALL_SUITES)
        assert all(l.endswith("pass") for l in lines)

    def test_suite_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle-equiv")
        assert code == 0
        assert out.strip() == "oracle-equiv: pass"

    def test_unknown_suite_exit_1(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 1

    def test_empty_suite_name_is_an_unknown_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "")
        assert (code, out, err) == (1, "", "error: unknown suite ''\n")

    def test_perturbation_fails_fidelity(self, capsys):
        code, out, err = run(capsys, "verify", "--perturb", "hwp=0.01")
        assert code == 3
        assert "photonic-fidelity: FAIL" in out
        assert "first failure" in err

    def test_json_format(self, capsys):
        code, out, err = run(capsys, "verify", "--format", "json")
        assert code == 0
        assert err == ""
        blob = json.loads(out)
        assert blob["command"] == "verify"
        assert [r["suite"] for r in blob["results"]] == [n for n, _ in cli.ALL_SUITES]
        assert all(r["passed"] is True and r["message"] == "" for r in blob["results"])

    def test_json_format_reports_failure(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "photonic-fidelity",
            "--perturb", "hwp=0.01", "--format", "json",
        )
        message = "photonic/walk mismatch for i/with-aux"
        assert code == 3
        assert json.loads(out) == {
            "command": "verify",
            "results": [
                {"suite": "photonic-fidelity", "passed": False, "message": message}
            ],
        }
        assert err == f"first failure: photonic-fidelity: {message}\n"

    @pytest.mark.parametrize(
        "suite", [(), ("--suite", "photonic-fidelity"), ("--suite", "coin-unitarity")],
        ids=["all", "fidelity", "coin"],
    )
    def test_empty_perturbation_exit_1(self, capsys, suite):
        code, out, err = run(capsys, "verify", *suite, "--perturb", "")
        assert code == 1
        assert out == ""
        assert err == "error: perturb: expected key=value, got ''\n"

    def test_unknown_perturb_key_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "--perturb", "bs=0.5")
        assert code == 1
        assert out == ""
        assert "bs" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "suite", [(), ("--suite", "photonic-fidelity")], ids=["all", "one"]
    )
    def test_non_finite_perturbation_exit_1(self, capsys, value, suite):
        code, out, err = run(capsys, "verify", *suite, "--perturb", f"hwp={value}")
        assert code == 1
        assert out == ""
        assert err == "error: perturb: hwp must be a finite number\n"

    @pytest.mark.parametrize("value", ["1e308", "-9e307", "1.7976931348623157e308"])
    def test_a_perturbation_whose_double_overflows_exit_1(self, capsys, value):
        code, out, err = run(capsys, "verify", "--perturb", f"hwp={value}")
        assert code == 1
        assert out == ""
        assert err == "error: perturb: |hwp| must be at most 8.988e+307\n"

    @pytest.mark.parametrize("value", ["8.98e307", "-1e300"])
    def test_a_huge_finite_perturbation_fails_the_fidelity_suite(self, capsys, value):
        argv = ("verify", "--suite", "photonic-fidelity", "--perturb", f"hwp={value}")
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert out == "photonic-fidelity: FAIL -- photonic/walk mismatch for i/with-aux\n"

    @pytest.mark.parametrize("suite", ["coin-unitarity", "bv-exactness"])
    def test_perturb_without_the_fidelity_suite_exit_1(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--perturb", "hwp=0.5")
        assert code == 1
        assert out == ""
        assert err == "error: perturb: only the photonic-fidelity suite reads --perturb\n"

    def test_registry_covers_all_module_invariants(self):
        # one suite per invariant family declared across the three modules
        names = {name for name, _ in cli.ALL_SUITES}
        assert names == {
            "coin-unitarity",
            "shift-structure",
            "norm-preservation",
            "hadamard-involution",
            "oracle-equiv",
            "dj-determinism",
            "bv-exactness",
            "photonic-fidelity",
        }
        assert len(cli.ALL_SUITES) == 8


class TestRunSuites:
    @pytest.mark.parametrize(
        "names, bad",
        [
            (["photonic-fidelty"], "photonic-fidelty"),
            (["coin-unitarity", "norm"], "norm"),
            ("coin-unitarity,dj-determinism", "coin-unitarity,dj-determinism"),
            ("norm", "norm"),
            ("", ""),
        ],
        ids=["misspelt", "one-of-two", "joined-string", "substring", "empty-string"],
    )
    def test_an_unknown_suite_raises_a_one_line_value_error(self, names, bad):
        with pytest.raises(ValueError) as info:
            cli.run_suites(names)
        assert str(info.value) == f"unknown suite {bad!r}"

    @pytest.mark.parametrize(
        "names, message",
        [
            (5, "suites must be a str or iterable, got int"),
            (5.0, "suites must be a str or iterable, got float"),
            ([["a"]], "unknown suite ['a']"),
            ([5], "unknown suite 5"),
        ],
        ids=["int", "float", "nested-list", "int-name"],
    )
    def test_names_that_are_not_strings_raise_a_one_line_cli_error(self, names, message):
        with pytest.raises(cli.CLIError) as info:
            cli.run_suites(names)
        assert str(info.value) == message

    def test_an_iterator_of_names_runs_its_suites(self):
        assert cli.run_suites(iter(["coin-unitarity"])) == [("coin-unitarity", True, "")]

    def test_a_string_names_one_suite(self):
        assert cli.run_suites("coin-unitarity") == [("coin-unitarity", True, "")]

    def test_names_run_in_registry_order(self):
        results = cli.run_suites(["bv-exactness", "coin-unitarity", "bv-exactness"])
        assert [name for name, _, _ in results] == ["coin-unitarity", "bv-exactness"]

    @pytest.mark.parametrize(
        "perturb, message",
        [
            (5, "perturb must be a dict, got int"),
            ([("hwp", 0.1)], "perturb must be a dict, got list"),
            ("hwp=0.1", "perturb must be a dict, got str"),
            (0, "perturb must be a dict, got int"),
        ],
        ids=["int", "pairs", "spec-string", "falsy-int"],
    )
    def test_a_perturbation_that_is_not_a_dict_raises_a_one_line_cli_error(
        self, perturb, message
    ):
        with pytest.raises(cli.CLIError) as info:
            cli.run_suites(["photonic-fidelity"], perturb)
        assert str(info.value) == message


class TestRunSuitesPerturb:
    """``run_suites`` rejects the perturbations that ``verify --perturb`` rejects, with
    the CLI's messages, before any suite runs."""

    @pytest.mark.parametrize(
        "names, perturb, message",
        [
            (["photonic-fidelity"], {"HWP": 0.01}, "perturb: unknown key 'HWP' (use hwp)"),
            (None, {"hwp": 0.01, "bs": 0.1}, "perturb: unknown key 'bs' (use hwp)"),
            (["photonic-fidelity"], {"hwp": float("nan")}, "perturb: hwp must be a finite number"),
            (None, {"hwp": float("-inf")}, "perturb: hwp must be a finite number"),
            (None, {"hwp": "0.01"}, "perturb: hwp must be a finite number"),
            (None, {"hwp": True}, "perturb: hwp must be a finite number"),
            (None, {"hwp": 10**400}, "perturb: hwp must be a finite number"),
            (None, {"hwp": 1e308}, "perturb: |hwp| must be at most 8.988e+307"),
            (
                ["coin-unitarity"], {"hwp": 0.5},
                "perturb: only the photonic-fidelity suite reads --perturb",
            ),
            (
                "bv-exactness", {"hwp": 0.0},
                "perturb: only the photonic-fidelity suite reads --perturb",
            ),
            ([], {"hwp": 0.01}, "perturb: only the photonic-fidelity suite reads --perturb"),
        ],
        ids=[
            "key-case", "second-key", "nan", "-inf", "str", "bool", "huge-int",
            "double-overflows", "unread", "unread-zero", "no-suite",
        ],
    )
    def test_a_perturbation_verify_rejects_raises_its_message(self, names, perturb, message):
        with pytest.raises(cli.CLIError) as info:
            cli.run_suites(names, perturb)
        assert str(info.value) == message

    def test_an_unknown_suite_is_reported_before_a_bad_perturbation(self):
        with pytest.raises(ValueError, match="^unknown suite 'photonic'$"):
            cli.run_suites(["photonic"], {"HWP": float("nan")})

    @pytest.mark.parametrize("perturb", [None, {}])
    def test_no_perturbation_runs_any_selection(self, perturb):
        assert cli.run_suites(["coin-unitarity"], perturb) == [("coin-unitarity", True, "")]

    def test_a_perturbation_runs_with_the_fidelity_suite_among_others(self):
        results = cli.run_suites(["photonic-fidelity", "coin-unitarity"], {"hwp": 0.01})
        assert results == [
            ("coin-unitarity", True, ""),
            ("photonic-fidelity", False, "photonic/walk mismatch for i/with-aux"),
        ]


class TestReport:
    def test_row_counts(self, capsys):
        code, out, _ = run(capsys, "report", "--algorithms", "dj,bv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 16 + 8
        assert lines[0] == "function_name,scheme,hwp,bs,phase_shifter,pbs,total"

    def test_dj_only(self, capsys):
        code, out, _ = run(capsys, "report", "--algorithms", "dj")
        assert len(out.strip().splitlines()) == 17

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "report")
        _, out2, _ = run(capsys, "report")
        assert out1 == out2

    def test_totals_inequality(self, capsys):
        code, out, _ = run(capsys, "report", "--format", "json")
        rows = json.loads(out)["rows"]
        by_key = {}
        for row in rows:
            by_key.setdefault(row["function_name"], {})[row["scheme"]] = row["total"]
        for name, totals in by_key.items():
            assert totals["no-aux"] < totals["with-aux"], name

    def test_output_file_writes_csv_and_json(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, _, _ = run(capsys, "report", "--output", str(path))
        assert code == 0
        assert path.read_text().startswith("function_name,")
        blob = json.loads((tmp_path / "report.csv.json").read_text())
        assert len(blob["rows"]) == 24

    def test_unknown_algorithm_exit_1(self, capsys):
        code, _, _ = run(capsys, "report", "--algorithms", "grover")
        assert code == 1

    @pytest.mark.parametrize("algorithms", [",", "", " , "])
    def test_no_algorithm_exit_1(self, capsys, algorithms):
        code, out, err = run(capsys, "report", "--algorithms", algorithms)
        assert code == 1
        assert out == ""
        assert err == "error: report needs at least one algorithm (use dj, bv)\n"


class TestOutputFile:
    def test_replaces_a_longer_file(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("x" * 5000)
        _, out, _ = run(capsys, "bv", "--string", "11")
        code, _, _ = run(capsys, "bv", "--string", "11", "--output", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_report_replaces_both_longer_files(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        for p in (path, tmp_path / "report.csv.json"):
            p.write_text("x" * 50000)
        _, csv_out, _ = run(capsys, "report")
        _, json_out, _ = run(capsys, "report", "--format", "json")
        code, _, _ = run(capsys, "report", "--output", str(path))
        assert code == 0
        assert path.read_text() == csv_out
        assert (tmp_path / "report.csv.json").read_text() + "\n" == json_out

    def test_new_file_gets_the_usual_mode(self, capsys, tmp_path):
        reference = tmp_path / "reference"
        reference.write_text("")
        path = tmp_path / "out.json"
        code, _, _ = run(capsys, "dj", "--function", "i", "--output", str(path))
        assert code == 0
        assert path.stat().st_mode == reference.stat().st_mode

    def test_writes_to_a_device(self, capsys):
        code, _, _ = run(capsys, "dj", "--function", "i", "--output", os.devnull)
        assert code == 0

    def test_report_writes_no_sidecar_beside_a_fifo(self, capsys, tmp_path):
        # /dev/null behaves the same; a FIFO keeps the check inside tmp_path.
        fifo = tmp_path / "report.csv"
        os.mkfifo(fifo)
        _, csv_out, _ = run(capsys, "report")
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open returns
        try:
            code, out, err = run(capsys, "report", "--output", str(fifo))
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert (code, out, err) == (0, "", "")
        assert data.decode() == csv_out
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["dj", "--function", "i"],
            ["bv", "--string", "11"],
            ["verify", "--suite", "coin-unitarity"],
            ["report"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_an_empty_path_is_a_missing_file(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--output", "")
        assert code == 1
        assert out == ""
        assert err == "error: [Errno 2] No such file or directory: ''\n"


class TestRepeatedOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "coin-unitarity", "--suite", "bv-exactness"],
            ["dj", "--function", "i", "--scheme", "with-aux", "--scheme", "no-aux"],
            ["dj", "--function", "i", "--function", "ii"],
        ],
        ids=["suite", "scheme", "function"],
    )
    def test_a_second_value_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: argument {argv[-2]}: given more than once\n"

    def test_a_repeated_flag_is_accepted(self, capsys):
        once = run(capsys, "dj", "--function", "i", "--dump-state")
        assert run(capsys, "dj", "--function", "i", "--dump-state", "--dump-state") == once

    def test_one_parser_takes_each_option_once_per_parse(self):
        parser = cli.build_parser()
        for suite in ("coin-unitarity", "bv-exactness"):
            assert parser.parse_args(["verify", "--suite", suite]).suite == suite


# --- checks that python -O keeps


def test_the_package_has_no_assert_statement():
    """``python -O`` strips ``assert``, so no check in the package may be one."""
    package = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "argv,code,out",
    [
        (
            ("--suite", "photonic-fidelity", "--perturb", "hwp=0.01"),
            3,
            "photonic-fidelity: FAIL -- photonic/walk mismatch for i/with-aux\n",
        ),
        ((), 0, "".join(f"{name}: pass\n" for name, _ in cli.ALL_SUITES)),
    ],
    ids=["perturbed", "full"],
)
def test_verify_keeps_its_checks_under_python_dash_o(argv, code, out):
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-W", "error", "-m", "photonwalk.cli", "verify", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
