"""Command-line interface: outputs, formats, and the exit-code contract."""

import ast
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucascalc.cli
from lucascalc import FnKind, LucasError, fn_value_info, make_params
from lucascalc.cli import _MAX_TABLE_ROWS, main
from lucascalc.identities import CATALOG, Failure, IdentityOutcome, SuiteReport

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report.schema.json").read_text())
# values --eps and --xmax reject: they must be finite and positive
BAD_POSITIVE = ["nan", "inf", "-1", "0"]
# a p/q whose value overflows the float range
HUGE_RATIONAL = pytest.param(f"{10**400}/1", id="10**400/1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_fibonacci_plain(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--s", "1", "--t", "1", "--n", "6")
        assert code == 0
        values = [float(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert values == [0, 1, 1, 2, 3, 5, 8]

    def test_mersenne_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--s", "3", "--t", "-2", "--n", "6", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["value"] for row in rows] == [0, 1, 3, 7, 15, 31, 63]

    def test_exact_rational_inputs(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--s", "1/2", "--t", "1", "--n", "4", "--exact", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [F(row["value"]) for row in rows] == [F(0), F(1), F(1, 2), F(5, 4), F(9, 8)]

    def test_companion(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--s", "1", "--t", "1", "--n", "5", "--companion", "--format", "json"
        )
        assert [row["value"] for row in json.loads(out)] == [2, 1, 3, 4, 7, 11]

    def test_exact_companion_prints_lucas_numbers(self, capsys):
        # L_90 is past 2^53: a float on the way would not print it exactly
        code, out, _ = run_cli(
            capsys, "seq", "--exact", "--s", "1", "--t", "1", "--n", "90", "--companion", "--format", "json"
        )
        assert code == 0
        lucas = [2, 1]
        while len(lucas) <= 90:
            lucas.append(lucas[-1] + lucas[-2])
        assert [F(row["value"]) for row in json.loads(out)] == lucas

    def test_zero_parameter_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--s", "0", "--t", "1", "--n", "3")
        assert code == 3
        assert "nonzero" in err

    def test_parse_failure_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "seq", "--s", "abc", "--t", "1", "--n", "3")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize(
        "argv, term",
        [
            (["--s=1e200", "--t=1e200"], 3),  # {3} = s^2 + t = inf
            (["--s=1e300", "--t=-1e300"], 3),  # then inf - inf = nan
            (["--s=1e300", "--t=-1e300", "--companion"], 2),  # <2> = s^2 + 2t
        ],
        ids=["inf", "nan", "companion"],
    )
    def test_overflowing_term_exits_3(self, capsys, argv, term, fmt):
        # inf and nan are no answer, and json has no literal for them
        code, out, err = run_cli(capsys, "seq", *argv, "--n", "4", "--format", fmt)
        assert code == 3
        assert out == ""
        assert f"term {term} overflows the float range" in err
        code, out, _ = run_cli(capsys, "seq", *argv, "--n", "4", "--exact", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 5

    @pytest.mark.parametrize("option", ["--s", "--t"])
    @pytest.mark.parametrize("bad", ["1/0", "abc", "inf"])
    def test_exact_parse_failure_names_the_option(self, capsys, option, bad):
        values = {"--s": "1", "--t": "1", option: bad}
        argv = [f"{name}={text}" for name, text in values.items()]
        code, out, err = run_cli(capsys, "seq", "--exact", *argv, "--n", "3")
        assert code == 2
        assert out == ""
        assert f"error: {option} expects a finite number or p/q, got {bad!r}" in err

    def test_negative_n_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "seq", "--s", "1", "--t", "1", "--n", "-1")
        assert code == 2
        assert out == ""
        assert "--n" in err


class TestEval:
    def test_cos_at_origin(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "cos", "--s", "1", "--t", "1", "--u", "1", "--x", "0",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["value"] == 1.0
        assert record["termsUsed"] >= 1

    def test_exp_against_exact_oracle(self, capsys):
        from lucascalc import lucastorial, make_params

        total = sum(F(1) / lucastorial(n, make_params(F(1), F(1))) for n in range(51))
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "exp", "--s", "1", "--t", "1", "--u", "1", "--x", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(float(total), rel=1e-12)

    def test_pole_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "cot", "--s", "1", "--t", "1", "--u", "1", "--x", "0"
        )
        assert code == 3

    def test_divergence_exits_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "eval", "--fn", "exp", "--s", "1", "--t", "1", "--u", "4", "--x", "2"
        )
        assert code == 3

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_overflowing_value_exits_3(self, capsys, fmt):
        # the second term is 1e400: an answer of inf is no answer
        code, out, err = run_cli(
            capsys, "eval", "--fn", "exp", "--s", "1", "--t", "1", "--u", "0.5", "--x", "1e200",
            "--format", fmt,
        )
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("fn, x", [("csc", "5e-324"), ("cot", "1e-310")])
    def test_infinite_quotient_exits_3(self, capsys, fn, x, fmt):
        # sin x is finite and nonzero, but the quotient over it overflows to inf
        code, out, err = run_cli(
            capsys, "eval", "--fn", fn, "--s", "1", "--t", "1", "--u", "1", "--x", x,
            "--format", fmt,
        )
        assert code == 3
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("fn", ["tan", "sin"])
    def test_float_power_overflow_exits_3(self, capsys, fn, fmt):
        # u ** 3 = 1e600 overflows a float power while the second term is drawn
        code, out, err = run_cli(
            capsys, "eval", "--fn", fn, "--s", "1", "--t", "1", "--u", "1e200", "--x", "1e-200",
            "--format", fmt,
        )
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("fn, expect", [("exp", 1.0), ("cos", 1.0), ("sin", 0.0)])
    def test_origin_with_huge_u(self, capsys, fn, expect, fmt):
        # only the first term is drawn at 0, so no power of u is formed
        code, out, err = run_cli(
            capsys, "eval", "--fn", fn, "--s", "1", "--t", "1", "--u", "1e100", "--x", "0",
            "--format", fmt,
        )
        assert code == 0, err
        if fmt == "json":
            record = json.loads(out)
        elif fmt == "csv":
            (record,) = csv.DictReader(io.StringIO(out))
        else:
            record = dict(field.split("=", 1) for field in out.strip().split("\t"))
        assert float(record["value"]) == expect
        assert int(record["termsUsed"]) == 1

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("slot", ["--x", "--u", "--s"])
    def test_non_finite_argument_exits_2(self, capsys, bad, slot):
        argv = {"--fn": "sin", "--s": "1", "--t": "1", "--u": "1", "--x": "0.5"}
        argv[slot] = bad
        code, out, err = run_cli(capsys, "eval", *[f"{key}={value}" for key, value in argv.items()])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    def test_bad_eps_exits_2(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "eval", "--fn", "sin", "--s", "1", "--t", "1", "--u", "1", "--x", "0.5",
            f"--eps={bad}",
        )
        assert code == 2
        assert out == ""
        assert "--eps" in err


class TestTable:
    def test_grid_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--fn", "sin", "--s", "1", "--t", "1", "--u", "1",
            "--from", "0", "--to", "1", "--step", "0.1", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 11
        assert rows[0]["x"] == 0.0 and rows[0]["value"] == 0.0

    def test_divergent_rows_are_flagged_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--fn", "exp", "--s", "1", "--t", "1", "--u", "4",
            "--from", "0", "--to", "2", "--step", "1", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["value"] == 1.0 and rows[0]["diverged"] is False
        assert rows[-1]["value"] is None and rows[-1]["diverged"] is True

    def test_overflowing_rows_are_flagged_diverged(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--fn", "exp", "--s", "1", "--t", "1", "--u", "0.5",
            "--from", "0", "--to", "1e200", "--step", "1e200", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["value"] == 1.0 and rows[0]["diverged"] is False
        assert rows[1] == {"x": 1e200, "value": None, "diverged": True}

    def test_origin_row_with_huge_u_is_finite(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--fn", "cos", "--s", "1", "--t", "1", "--u", "1e100",
            "--from", "0", "--to", "0.5", "--step", "0.5", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0] == {"x": 0.0, "value": 1.0, "diverged": False}
        assert rows[1]["diverged"] is True

    def test_divisor_that_underflows_marks_rows_diverged(self, capsys):
        # {2}{3} = 1e-200 * 1e-200 underflows to 0: a point call exits 3, and a table marks the row
        argv = ["--fn", "sin", "--s", "1e-200", "--t", "1e-200", "--u", "0.5", "--format", "json"]
        code, out, err = run_cli(capsys, "eval", *argv, "--x", "1")
        assert (code, out) == (3, "")
        assert "non-finite" in err
        code, out, _ = run_cli(capsys, "table", *argv, "--from", "0", "--to", "1", "--step", "1")
        assert code == 0
        assert json.loads(out) == [
            {"x": 0.0, "value": 0.0, "diverged": False},
            {"x": 1.0, "value": None, "diverged": True},
        ]

    def test_float_power_overflow_row_is_diverged(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--fn", "sin", "--s", "1", "--t", "1", "--u", "1e200",
            "--from", "1e-200", "--to", "1e-200", "--step", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"x": 1e-200, "value": None, "diverged": True}

    @pytest.mark.parametrize("fn", ["csc", "cot"])
    def test_infinite_quotient_rows_are_flagged_diverged(self, capsys, fn):
        code, out, _ = run_cli(
            capsys, "table", "--fn", fn, "--s", "1", "--t", "1", "--u", "1",
            "--from", "5e-324", "--to", "1e-310", "--step", "1e-310", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert all(row["value"] is None and row["diverged"] is True for row in rows)

    @pytest.mark.parametrize("fn", ["sin", "cos", "exp", "tan"])
    @pytest.mark.parametrize("u", ["0.7", "3"])
    def test_rows_are_the_point_values(self, capsys, fn, u):
        # the rows share the parameters' ratio tables; each value is still
        # fn_value_info's at that x, and a row diverges where a point call raises
        code, out, _ = run_cli(
            capsys, "table", "--fn", fn, "--s", "1", "--t", "1", "--u", u,
            "--from", "-6", "--to", "6", "--step", "0.25", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 49
        params = make_params(1.0, 1.0)
        for row in rows:
            try:
                value = fn_value_info(FnKind(fn), row["x"], float(u), params).value
                assert row == {"x": row["x"], "value": value, "diverged": False}
            except LucasError:
                assert row == {"x": row["x"], "value": None, "diverged": True}
        assert any(row["diverged"] for row in rows) == (u == "3")

    def test_csv_and_json_carry_identical_data(self, capsys):
        args = ("table", "--fn", "cos", "--s", "1", "--t", "1", "--u", "1/2",
                "--from", "0", "--to", "0.5", "--step", "0.25")
        code, json_out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        json_rows = json.loads(json_out)
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(json_rows) == len(csv_rows) == 3
        for jrow, crow in zip(json_rows, csv_rows):
            assert float(crow["x"]) == jrow["x"]
            assert float(crow["value"]) == pytest.approx(jrow["value"], rel=1e-15)

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "table", "--fn", "sin", "--s", "1", "--t", "1", "--u", "1",
            "--from", "1", "--to", "0", "--step", "0.1",
        )
        assert code == 2

    def test_non_finite_span_exits_2(self, capsys):
        # --to minus --from overflows to inf; it used to raise OverflowError in int(round(inf))
        code, out, err = run_cli(
            capsys, "table", "--fn", "sin", "--s", "1", "--t", "1", "--u", "0.5",
            "--from=-1.7e308", "--to=1.7e308", "--step=1e308",
        )
        assert code == 2
        assert out == ""
        assert "not a finite number" in err

    @pytest.mark.parametrize("to, step", [("1", "1e-12"), (str(_MAX_TABLE_ROWS), "1")])
    def test_grid_over_the_row_cap_exits_2(self, capsys, to, step):
        # 10^12 + 1 rows used to be evaluated into one list until the process died
        code, out, err = run_cli(
            capsys, "table", "--fn", "sin", "--s", "1", "--t", "1", "--u", "0.5",
            "--from", "0", "--to", to, "--step", step,
        )
        assert code == 2
        assert out == ""
        assert f"more than the {_MAX_TABLE_ROWS} allowed" in err

    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    def test_bad_eps_exits_2(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "table", "--fn", "sin", "--s", "1", "--t", "1", "--u", "1",
            "--from", "0", "--to", "1", "--step", "0.5", f"--eps={bad}",
        )
        assert code == 2
        assert out == ""
        assert "--eps" in err


class TestVerify:
    def test_single_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "pascal-1", "--trials", "2")
        assert code == 0
        assert "PASS pascal-1" in out

    def test_zero_trials_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "pascal", "--trials", "0")
        assert code == 2
        assert out == ""
        assert "trials" in err

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nosuch")
        assert code == 2
        assert "nosuch" in err

    @pytest.mark.parametrize("suite, order", [("exp-dk", "3"), ("trig-d2", "1"), ("all", "0"), ("pascal", "0")])
    def test_order_below_record_minimum_exits_2(self, capsys, suite, order):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", "1", "--order", order)
        assert code == 2
        assert out == ""
        assert "order" in err

    def test_order_at_record_minimum_passes(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "exp-dk,trig-d2", "--order", "4")
        assert code == 0

    def test_json_report_matches_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "euler,pascal", "--trials", "2", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["status"] == "pass"
        assert {r["id"] for r in report["results"]} == {"euler-i", "euler-neg", "pascal-1", "pascal-2"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "pascal", "--trials", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["status"] for row in rows] == ["pass", "pass"]

    def test_csv_header_and_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "pascal-1", "--trials", "2", "--seed", "3", "--format", "csv"
        )
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert header == ["id", "group", "status", "trials", "seed", "failures", "wall_time_s"]
        assert row[:6] == ["pascal-1", "pascal", "pass", "2", "3", "0"]
        assert re.fullmatch(r"\d+\.\d{4}", row[6])


    def test_plain_report_prints_counterexamples(self, capsys, monkeypatch):
        failure = Failure({"s": "1", "t": "1"}, "2", "3", None)
        outcomes = [
            IdentityOutcome("probe", "probe", "anchor", "fail", 4, 7, [failure] * 4, 0.0),
            IdentityOutcome("pascal-1", "pascal", "anchor", "pass", 4, 7, [], 0.0),
        ]
        monkeypatch.setattr(lucascalc.cli, "run_suite", lambda *a, **k: SuiteReport(7, 4, 16, outcomes, 0.0))
        code, out, _ = run_cli(capsys, "verify", "--suite", "pascal-1")
        assert code == 3
        # at most three counterexamples per record
        assert out.splitlines() == [
            "FAIL probe (trials=4, 0.000s)",
            *["     counterexample {'s': '1', 't': '1'} lhs=2 rhs=3"] * 3,
            "PASS pascal-1 (trials=4, 0.000s)",
            "suite: FAIL (1/2 identities, 0.0s, seed=7)",
        ]


def test_unknown_option_exits_2(capsys):
    code, out, err = run_cli(capsys, "--bogus")
    assert code == 2
    assert out == "" and err.startswith("usage: lucascalc")


class TestPiU:
    def test_fibonacci_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "piu", "--s", "1", "--t", "1", "--u", "1", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert 1.5 < record["piU"] < 1.6
        assert record["residual"] < 1e-10

    def test_no_root_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "piu", "--s", "1", "--t", "1", "--u", "3")
        assert code == 4

    def test_divisor_that_underflows_exits_4(self, capsys):
        # the sine's first divisor {2}{3} = 1e-200 * 1e-200 underflows to 0
        code, out, err = run_cli(capsys, "piu", "--s", "1e-200", "--t", "1e-200", "--u", "1e-101")
        assert (code, out) == (4, "")
        assert "series diverges" in err

    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    def test_bad_xmax_exits_2(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "piu", "--s", "2", "--t", "-1", "--u", "1", f"--xmax={bad}"
        )
        assert code == 2
        assert out == ""
        assert "--xmax" in err

    def test_residual_always_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "piu", "--s", "2", "--t", "1", "--u", "1", "--format", "json"
        )
        assert code == 0
        assert "residual" in json.loads(out)


class TestIntegrate:
    def test_cubic(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--poly", "0,0,0,1", "--s", "1", "--t", "1",
            "--a", "0", "--b", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1 / 3, rel=1e-10)

    def test_empty_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--poly", "1,2", "--s", "1", "--t", "1",
            "--a", "0.5", "--b", "0.5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_non_contracting_exits_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "integrate", "--poly", "0,1", "--s", "1", "--t", "-1", "--a", "0", "--b", "1"
        )
        assert code == 3

    def test_equal_modulus_roots_exit_3_at_once(self, capsys):
        # roots 0.5 ± 1.5i: the node series used to run its 10^6-term budget first
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "integrate", "--poly", "0,1", "--s", "1", "--t", "-2.5", "--a", "0", "--b", "1"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "neither root ratio contracts" in err

    def test_bad_poly_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "integrate", "--poly", "1,,x", "--s", "1", "--t", "1", "--a", "0", "--b", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("bad", BAD_POSITIVE)
    def test_bad_eps_exits_2(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "integrate", "--poly", "0,1", "--s", "1", "--t", "1", "--a", "0", "--b", "1",
            f"--eps={bad}",
        )
        assert code == 2
        assert out == ""
        assert "--eps" in err


class TestOneErrorPath:
    """Commands raise; ``main`` alone reports a failure and picks exit 2 or 4."""

    TREE = ast.parse(Path(lucascalc.cli.__file__).read_text())
    FUNCTIONS = [node for node in TREE.body if isinstance(node, ast.FunctionDef)]

    @staticmethod
    def _names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def test_only_main_writes_to_stderr(self):
        writers = [
            fn.name for fn in self.FUNCTIONS
            if any(isinstance(n, ast.Attribute) and n.attr == "stderr" for n in ast.walk(fn))
        ]
        assert writers == ["main"]

    def test_only_main_returns_usage_or_no_root(self):
        returning = {
            fn.name
            for fn in self.FUNCTIONS
            for n in ast.walk(fn)
            if isinstance(n, ast.Return) and n.value is not None
            and self._names(n.value) & {"EXIT_USAGE", "EXIT_NO_ROOT", "EXIT_DOMAIN"}
        }
        # verify's failing suite is the one exit 3 a command returns
        assert returning == {"main", "_cmd_verify"}

    def test_numbers_are_parsed_in_one_place(self):
        parsers = {
            fn.name
            for fn in self.FUNCTIONS
            for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id in {"float", "Fraction", "int"}
        }
        # _number for every float-valued argument, Fraction for seq --exact
        assert parsers == {"_number", "_cmd_seq"}


class TestParsedLikeEveryScalar:
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("poly", ["1e400", "0,1e400", "1,,x", "1/0", HUGE_RATIONAL])
    def test_bad_poly_coefficient_exits_2(self, capsys, poly, fmt):
        # a coefficient past the float range used to escape as an OverflowError
        code, out, err = run_cli(
            capsys, "integrate", f"--poly={poly}", "--s", "1", "--t", "1", "--a", "0", "--b", "1",
            "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert "--poly" in err

    @pytest.mark.parametrize("bad", ["1/0", "-1/0", HUGE_RATIONAL])
    def test_zero_denominator_or_huge_rational_names_the_option(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "eval", "--fn", "sin", "--s", "1", "--t", "1", "--u", "1", f"--x={bad}"
        )
        assert code == 2
        assert out == ""
        assert "--x" in err and "finite" in err

    def test_eps_accepts_a_rational(self, capsys):
        argv = ["eval", "--fn", "sin", "--s", "1", "--t", "1", "--u", "1", "--x", "0.5", "--format", "json"]
        _, decimal, _ = run_cli(capsys, *argv, "--eps=0.001")
        code, rational, _ = run_cli(capsys, *argv, "--eps=1/1000")
        assert code == 0
        assert json.loads(rational) == json.loads(decimal)

    def test_xmax_accepts_a_rational(self, capsys):
        argv = ["piu", "--s", "1", "--t", "1", "--u", "1", "--format", "json"]
        _, decimal, _ = run_cli(capsys, *argv, "--xmax=3.5")
        code, rational, _ = run_cli(capsys, *argv, "--xmax=7/2")
        assert code == 0
        assert json.loads(rational) == json.loads(decimal)

    @pytest.mark.parametrize("bad", ["-1/2", "0/3", "1/0"])
    def test_rational_eps_must_be_positive(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "integrate", "--poly", "0,1", "--s", "1", "--t", "1", "--a", "0", "--b", "1",
            f"--eps={bad}",
        )
        assert code == 2
        assert out == ""
        assert "--eps" in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter prints integers of any length",
)
class TestExactValueTooLongToPrint:
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_exits_3_and_prints_nothing(self, capsys, fmt):
        # {31} at t = 10^300 has about 4,500 digits, past the 4,300-digit default
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "seq", "--exact", "--s=1", "--t=1e300", "--n=31", "--format", fmt
        )
        assert code == 3
        assert out == ""
        assert "too long to print" in err and "digits" in err
        assert sys.get_int_max_str_digits() == limit


class TestTableGridEnd:
    def test_tiny_step_prints_no_row_past_to(self, capsys):
        # 1.6 steps used to round to 2, and 2e-300 passed an absolute 1e-12 guard
        code, out, _ = run_cli(
            capsys, "table", "--fn", "sin", "--s", "1", "--t", "1", "--u", "1",
            "--from", "0", "--to", "1.6e-300", "--step", "1e-300", "--format", "json",
        )
        assert code == 0
        assert [row["x"] for row in json.loads(out)] == [0.0, 1e-300]

    @pytest.mark.parametrize(
        "start, stop, step, steps",
        [("0.13", "1.13", "0.1", 10), ("0.16", "2.26", "0.3", 7), ("0.13", "1.13", "0.01", 100)],
    )
    def test_grid_ending_on_to_keeps_its_last_row(self, capsys, start, stop, step, steps):
        # in floats (--to - --from) / --step is just below the whole number of steps
        assert (float(stop) - float(start)) / float(step) < steps
        code, out, _ = run_cli(
            capsys, "table", "--fn", "sin", "--s", "1", "--t", "1", "--u", "0.5",
            "--from", start, "--to", stop, "--step", step, "--format", "json",
        )
        assert code == 0
        xs = [row["x"] for row in json.loads(out)]
        assert xs == [float(start) + i * float(step) for i in range(steps + 1)]
        assert xs[-1] == pytest.approx(float(stop), rel=1e-12)


class TestIntegralOverflow:
    def test_overflowing_partial_sum_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "integrate", "--poly", "1e308", "--s", "1", "--t", "1", "--a", "0", "--b", "1e10"
        )
        assert code == 3
        assert out == ""
        assert "not finite" in err


class TestBoundedWork:
    """Valid inputs that used to run for seconds, hang or grow memory with --n."""

    ENV = {**os.environ, "PYTHONPATH": str(Path(lucascalc.cli.__file__).resolve().parent.parent)}

    @pytest.mark.parametrize(
        "argv, code",
        [
            # root ratio modulus 0.99999999293: no term of a 10^6-term sum can meet eps
            ("integrate --poly=1e-8,8 --s=1e-8 --t=2 --a=0 --b=3/7", 3),
            # 2e7 scan points; past about 4.5e14 the scan step no longer moves x
            ("piu --s 1 --t 1 --u 0 --xmax 1e6", 2),
            ("piu --s 1 --t 1 --u 1e-300 --xmax 1e300", 2),
            # term 807 overflows; the rows past it used to be built first
            ("seq --s 2 --t 1 --n 1000000", 3),
            # {47} is past the print limit; the scaled {47}!, about 349,000 digits, used to be built first
            ("seq --exact --s 1e-160 --t 1.7976931348623157e308 --n 47", 3),
        ],
    )
    def test_exits_at_once(self, argv, code):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "lucascalc.cli", *argv.split()],
            capture_output=True, text=True, timeout=5, env=self.ENV,
        )
        assert time.perf_counter() - start < 1.0
        assert done.returncode == code, done.stderr
        assert done.stdout == ""

    def test_root_past_512_is_found(self):
        # past x = 512 adjacent floats lie more than 1e-13 apart, so a bracket
        # narrowed to two of them is final; bisecting it further never returned
        argv = "piu --s 1 --t 1 --u 0.015 --xmax 5000 --format json".split()
        done = subprocess.run(
            [sys.executable, "-m", "lucascalc.cli", *argv],
            capture_output=True, text=True, timeout=10, env=self.ENV,
        )
        assert done.returncode == 0, done.stderr
        root = json.loads(done.stdout)
        assert 769.8 < root["piU"] < 769.81 and root["residual"] < 1e-10


# ---------------------------------------------------------------------------
# the exit-code contract over drawn inputs
# ---------------------------------------------------------------------------

# zeros, subnormals, a float whose square underflows, huge and largest floats, p/q,
# a zero denominator, and a few plain values
VALUES = st.sampled_from([
    "0", "-0", "5e-324", "-2.5e-320", "1e-310", "1e-200", "1e300", "-1e300", "1.7976931348623157e308",
    "-1.7976931348623157e308", "3/7", "-5/2", "1/0", "1", "-1", "0.5",
])
DEFAULTED = st.one_of(st.none(), VALUES)  # None leaves the option at its default
FNS = st.sampled_from([kind.value for kind in FnKind])
SUITES = st.lists(
    st.sampled_from(["all", "", "no-such-id", *sorted({r.group for r in CATALOG.values()}), *CATALOG]),
    min_size=1, max_size=2,
).map(",".join)
COMMAND_OPTIONS = {
    "seq": {"s": VALUES, "t": VALUES, "n": st.integers(-1, 40)},
    "eval": {"fn": FNS, "s": VALUES, "t": VALUES, "u": VALUES, "x": VALUES, "eps": DEFAULTED},
    "table": {
        "fn": FNS, "s": VALUES, "t": VALUES, "u": VALUES,
        "from": VALUES, "to": VALUES, "step": VALUES, "eps": DEFAULTED,
    },
    "verify": {
        "suite": SUITES, "trials": st.integers(0, 2), "order": st.integers(0, 6),
        "seed": st.integers(0, 10**6),
    },
    "piu": {"s": VALUES, "t": VALUES, "u": VALUES, "xmax": DEFAULTED},
    "integrate": {
        "poly": st.lists(VALUES, min_size=1, max_size=3).map(",".join),
        "s": VALUES, "t": VALUES, "a": VALUES, "b": VALUES, "eps": DEFAULTED,
    },
}
COMMAND_FLAGS = {"seq": ("--companion", "--exact")}
# any spelling of a non-finite float: Python's inf and nan, JSON's Infinity and NaN
NON_FINITE = re.compile(r"\b(?:inf|infinity|nan)\b", re.IGNORECASE)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
@settings(derandomize=True, max_examples=40, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_every_input_exits_by_the_contract(command, data):
    fmt = data.draw(st.sampled_from(["json", "csv", "plain"]), label="format")
    argv = [command, f"--format={fmt}"]
    for name, values in COMMAND_OPTIONS[command].items():
        value = data.draw(values, label=name)
        if value is not None:
            argv.append(f"--{name}={value}")
    argv += [flag for flag in COMMAND_FLAGS.get(command, ()) if data.draw(st.booleans(), label=flag)]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)  # any exception but the documented ones escapes and fails here
    out = out.getvalue()
    assert code in {0, 2, 3, 4}
    if fmt == "json" and (code == 0 or out):
        document = json.loads(out, parse_constant=_reject_constant)
        if command == "verify":
            jsonschema.validate(document, SCHEMA)
    else:
        assert NON_FINITE.search(out) is None
