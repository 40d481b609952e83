import argparse
import builtins
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import operator
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stlrisk
from stlrisk import cli, trace
from stlrisk.cli import main
from stlrisk.predicates import Halfspace
from stlrisk.risk import MEASURES, RiskParams
from stlrisk.scenario import CaseStudyConfig
from stlrisk.trace import Trace, save_trace_csv

# int()'s digit limit, or 0 where there is none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int() has no digit limit")

PREDICATES = {
    "p": {"kind": "halfspace", "a": [1.0], "b": 0.0},
    "q": {"kind": "halfspace", "a": [1.0], "b": -5.0},
}


def strict_json(text: str):
    """Decode JSON that must not hold the non-standard NaN or Infinity."""

    def refuse(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "preds.json").write_text(json.dumps(PREDICATES))
    save_trace_csv(Trace(np.array([[3.0], [1.0], [2.0]])), tmp_path / "trace.csv")
    ens = tmp_path / "ensemble"
    ens.mkdir()
    rng = np.random.default_rng(50)
    for i in range(100):
        save_trace_csv(Trace(rng.normal(size=(3, 1))), ens / f"tr{i:03d}.csv")
    return tmp_path


class TestCheck:
    def test_reports_canonical_form_and_horizon(self, capsys):
        assert main(["check", "--formula", "G[0,3] p"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "G[0,3] p"
        assert out[1] == "horizon: future=3 past=0"
        assert out[2] == "predicates: p"

    def test_interval_error_exits_2(self, capsys):
        assert main(["check", "--formula", "p U[3,1] q"]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "offset" in err

    def test_case_study_formula_accepted(self, capsys):
        text = "G[0,3](!inC & !inD) & F[1,2](inA & F[0,1] inB)"
        assert main(["check", "--formula", text]) == 0
        assert capsys.readouterr().out.splitlines()[0] == text

    def test_syntax_error_exits_2(self, capsys):
        assert main(["check", "--formula", "p &"]) == 2

    @pytest.mark.parametrize("text", ["(" * 300 + "p" + ")" * 300, "!" * 1000 + "p"])
    def test_deep_nesting_exits_2_with_span(self, text, capsys):
        assert main(["check", "--formula", text]) == 2
        err = capsys.readouterr().err
        assert err == "error: formula nests deeper than 100 levels (at offset 100-101)\n"

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_long_chain_printed(self, op, capsys):
        text = f" {op} ".join(f"p{i % 7}" for i in range(2000))
        assert main(["check", "--formula", text]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == text
        assert out[2] == "predicates: " + " ".join(f"p{i}" for i in range(7))

    @needs_digit_limit
    def test_bound_past_the_digit_limit_exits_2(self, capsys):
        text = "G[0," + "9" * (DIGIT_LIMIT + 1) + "] p"
        assert main(["check", "--formula", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: interval bound hi is out of range") and err.count("\n") == 1
        assert err.endswith(f" (at offset 1-{len(text) - 2})\n")

    @needs_digit_limit
    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_horizon_past_the_digit_limit_exits_2(self, command, workdir, capsys):
        # Each bound can be printed, but their sum, the horizon, could not.
        bound = "9" * DIGIT_LIMIT
        argv = [command, "--formula", f"G[0,{bound}] G[0,{bound}] p"]
        if command == "monitor":
            argv += ["--predicates", str(workdir / "preds.json"), "--trace", str(workdir / "trace.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: interval bound hi is out of range")

    def test_internal_error_is_one_line_exit_1(self, monkeypatch, capsys):
        def broken(text):
            raise RuntimeError("parser exploded")

        monkeypatch.setattr("stlrisk.cli.parse", broken)
        assert main(["check", "--formula", "p"]) == 1
        err = capsys.readouterr().err
        assert err == "error: RuntimeError: parser exploded\n"
        assert "Traceback" not in err


class TestMonitor:
    def test_robust_value(self, workdir, capsys):
        code = main(
            [
                "monitor",
                "--formula", "G[0,2] p",
                "--predicates", str(workdir / "preds.json"),
                "--trace", str(workdir / "trace.csv"),
                "--time", "0",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_boolean_mode(self, workdir, capsys):
        code = main(
            [
                "monitor",
                "--formula", "G[0,2] p",
                "--predicates", str(workdir / "preds.json"),
                "--trace", str(workdir / "trace.csv"),
                "--mode", "boolean",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_horizon_violation_exits_3(self, workdir, capsys):
        code = main(
            [
                "monitor",
                "--formula", "G[0,2] p",
                "--predicates", str(workdir / "preds.json"),
                "--trace", str(workdir / "trace.csv"),
                "--time", "2",
            ]
        )
        assert code == 3

    def test_infinite_value_rendered(self, workdir, capsys):
        code = main(
            [
                "monitor",
                "--formula", "true",
                "--predicates", str(workdir / "preds.json"),
                "--trace", str(workdir / "trace.csv"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "inf"

    @pytest.mark.parametrize(
        "csv, table, start",
        [
            ("t,x1\n0,1\n" + "1" * 5000 + ",5\n", PREDICATES, "error: t.csv: expected t=1, got t=1111"),
            ("t,x1\n0,1\n", {"p": {"kind": "halfspace", "a": [1], "b": int("9" * 4000)}}, "error: predicate 'p': b:"),
        ],
        ids=["5000-digit-time-cell", "4000-digit-b"],
    )
    def test_long_input_is_shortened_in_its_one_error_line(self, tmp_path, monkeypatch, capsys, csv, table, start):
        # Quoted whole, these lines ran to 5075 and 4055 characters.
        monkeypatch.chdir(tmp_path)
        Path("t.csv").write_text(csv)
        Path("p.json").write_text(json.dumps(table))
        assert main(["monitor", "--formula", "p", "--predicates", "p.json", "--trace", "t.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1 and len(err) <= 160

    def test_zero_robustness_prints_unsigned(self, workdir, capsys):
        # !p at x1 = 0 negates a zero margin; a zero is printed as 0, not -0.
        save_trace_csv(Trace(np.array([[0.0]])), workdir / "zero.csv")
        args = ["monitor", "--formula", "!p", "--predicates", str(workdir / "preds.json"), "--trace", str(workdir / "zero.csv")]
        assert main(args) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize(
        "table",
        [
            '{"p": {"kind": "halfspace", "a": [1], "b": NaN}}',
            '{"p": {"kind": "halfspace", "a": [1], "b": Infinity}}',
            '{"p": {"kind": "ball", "pos": [0], "center": [Infinity], "radius": 1}}',
            '{"p": {"kind": "halfspace", "a": [1e400], "b": 0}}',
            '{"p": {"kind": "halfspace", "a": [1e-310], "b": 1}}',
            '{"p": {"kind": "halfspace", "a": [1e-10], "b": 1e300}}',
            '{"p": {"kind": "halfspace", "a": [1e308, 1e308, 1e308, 1e308], "b": 0}}',
            '{"p": {"kind": "ball", "pos": [0], "center": [0], "radius": 1e400}}',
        ],
    )
    def test_non_finite_predicate_number_exits_1(self, workdir, table, capsys):
        (workdir / "bad.json").write_text(table)
        args = ["--formula", "p", "--predicates", str(workdir / "bad.json")]
        for extra in (["monitor", "--trace", str(workdir / "trace.csv")], ["risk", "--ensemble", str(workdir / "ensemble")]):
            assert main(extra[:1] + args + extra[1:]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: predicate 'p': ") and "finite" in err

    @pytest.mark.parametrize(
        "definition, state",
        [
            ({"kind": "halfspace", "a": [1e308, 1e308], "b": 0}, "1,1"),
            ({"kind": "halfspace", "a": [0.5, 0.5], "b": 0}, "1.7e308,1.7e308"),
            ({"kind": "ball", "pos": [0], "center": [-1e308], "radius": 1}, "1e308,0"),
            # math.hypot overflows with no numpy floating-point error.
            ({"kind": "ball", "pos": [0, 1], "center": [0, 0], "radius": 1}, "1.5e308,1.5e308"),
            ({"kind": "ball", "pos": [0, 1], "center": [0, 0], "radius": 1, "norm": "linf"}, "1.5e308,1.5e308"),
            ({"kind": "ball", "pos": [0, 1], "center": [0, 0], "radius": 1, "complement": True}, "1.5e308,1.5e308"),
        ],
        ids=["dot-product", "division-by-norm", "ball-difference", "l2-norm", "linf-norm", "complement-norm"],
    )
    def test_margin_that_overflows_exits_4_naming_the_predicate(self, tmp_path, monkeypatch, definition, state):
        # Finite definitions and states whose margin overflows: refused in
        # one line in both modes, not printed as inf after a RuntimeWarning.
        monkeypatch.chdir(tmp_path)
        Path("p.json").write_text(json.dumps({"p": definition}))
        Path("ens").mkdir()
        Path("ens/m0.csv").write_text(f"t,x1,x2\n0,{state}\n")
        refusal = (4, "", "error: predicate 'p': margin overflows the float range\n")
        for mode in ("robust", "boolean"):
            assert run_main(["monitor", "--formula", "p", "--predicates", "p.json", "--trace", "ens/m0.csv", "--mode", mode]) == refusal
        assert run_main(["risk", "--formula", "p", "--predicates", "p.json", "--ensemble", "ens"]) == refusal

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_ball_norm_just_inside_the_float_range_is_printed(self, tmp_path, monkeypatch, norm):
        monkeypatch.chdir(tmp_path)
        Path("p.json").write_text(json.dumps({"p": {"kind": "ball", "pos": [0, 1], "center": [0, 0], "radius": 1, "norm": norm}}))
        Path("m0.csv").write_text("t,x1,x2\n0,1.2e308,1.2e308\n")
        code, out, err = run_main(["monitor", "--formula", "p", "--predicates", "p.json", "--trace", "m0.csv"])
        assert (code, err) == (0, "") and float(out) == pytest.approx(-math.hypot(1.2e308, 1.2e308), rel=1e-11)

    @pytest.mark.parametrize(
        "spec, words",
        [
            ('{"kind": "ball", "pos": [0.9], "center": [0], "radius": 1}', "pos must be non-negative integer"),
            ('{"kind": "ball", "pos": [true], "center": [0], "radius": 1}', "pos must be non-negative integer"),
            ('{"kind": "ball", "pos": ["1"], "center": [0], "radius": 1}', "pos must be non-negative integer"),
            ('{"kind": "ball", "pos": [0], "center": {"slice": [1.7]}, "radius": 1}', "state slice must be non-negative integer"),
            ('{"kind": "ball", "pos": [0], "center": {"slice": [1], "size": 1}, "radius": 1}', "unknown center keys: 'size'"),
            ('{"kind": "ball", "pos": [0], "center": [0], "radius": "2"}', "radius: expected real numbers"),
            ('{"kind": "ball", "pos": [0], "center": [false], "radius": 2}', "center: expected real numbers"),
            ('{"kind": "halfspace", "a": [true, 0], "b": 0}', "a: expected real numbers"),
            ('{"kind": "halfspace", "a": [1, 0], "b": false}', "b: expected real numbers"),
            ('{"kind": "halfspace", "a": [1, 0], "b": 1' + "0" * 400 + "}", "b: values must be finite"),
            ('{"kind": "ball", "pos": [0], "center": [0], "radius": 1, "complement": "no"}', "complement must be true or false"),
            ('{"kind": "ball", "pos": [0], "center": [0], "radius": 1, "complment": true}', "unknown ball keys: 'complment'"),
            ('{"kind": "halfspace", "a": [1, 0], "b": 0, "radius": 1, "center": [0]}', "unknown halfspace keys: 'center', 'radius'"),
            ('{"kind": "ball", "pos": [0], "radius": 1}', "missing ball keys: 'center'"),
            ('{"a": [1], "b": 0}', "missing predicate keys: 'kind'"),
            ("[1, 2]", "definition must be a JSON object, got [1, 2]"),
            ('{"kind": ["ball"], "pos": [0], "center": [0], "radius": 1}', "unknown predicate kind ['ball']"),
            ('{"kind": "halfspace", "a": 1, "b": 0}', "a: expected a list of numbers, got 1"),
            ('{"kind": "ball", "pos": "12", "center": [0, 0], "radius": 1}', "pos: expected a list of state indices, got '12'"),
            ('{"kind": "ball", "pos": [0], "center": {"slice": 0}, "radius": 1}', "state slice: expected a list of state indices, got 0"),
        ],
        ids=[
            "float-pos", "bool-pos", "string-pos", "float-slice", "slice-key", "string-radius", "bool-center",
            "bool-a", "bool-b", "huge-b", "string-complement", "misspelt-key", "ball-keys-on-halfspace",
            "missing-center", "missing-kind", "not-an-object", "list-kind", "scalar-a", "pos-as-string", "scalar-slice",
        ],
    )
    def test_predicate_values_are_refused_not_coerced(self, workdir, spec, words, capsys):
        (workdir / "two.csv").write_text("t,x1,x2\n0,1.5,0.2\n1,-0.5,0.3\n")
        (workdir / "bad.json").write_text('{"p": ' + spec + "}")
        args = ["monitor", "--formula", "p", "--predicates", str(workdir / "bad.json"), "--trace", str(workdir / "two.csv")]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: predicate 'p': ") and err.count("\n") == 1 and words in err

    def test_a_bug_in_a_predicate_class_is_an_internal_error(self, workdir, monkeypatch, capsys):
        # Only a ValueError refuses a definition; any other error is a bug,
        # and is named as one.
        def broken(self):
            raise TypeError("bug")

        monkeypatch.setattr(Halfspace, "__post_init__", broken)
        args = ["monitor", "--formula", "p", "--predicates", str(workdir / "preds.json"), "--trace", str(workdir / "trace.csv")]
        assert main(args) == 1
        assert capsys.readouterr() == ("", "error: TypeError: bug\n")

    def test_unread_left_operand_needs_no_steps(self, workdir, capsys):
        args = ["--predicates", str(workdir / "preds.json"), "--trace", str(workdir / "trace.csv")]
        assert main(["monitor", "--formula", "(G[0,5] p) U[0,1] q", *args]) == 0
        assert capsys.readouterr().out == "-2\n"
        assert main(["monitor", "--formula", "(G[0,5] p) U[0,1] q", *args, "--time", "2"]) == 3
        assert main(["check", "--formula", "(G[0,5] p) U[0,1] q"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "horizon: future=1 past=0"


class TestRisk:
    def test_defaults_are_risk_params_defaults(self):
        args = cli._build_parser().parse_args(["risk", "--formula", "p", "--predicates", "t.json", "--ensemble", "e"])
        defaults = RiskParams()
        assert (args.beta, args.delta, args.lam) == (defaults.beta, defaults.delta, defaults.lam)

    def test_var_json_ordering(self, workdir, capsys):
        code = main(
            [
                "risk",
                "--formula", "p",
                "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble"),
                "--measure", "var",
                "--beta", "0.8",
                "--delta", "0.05",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["measure"] == "var" and payload["n"] == 100
        assert payload["lower"] <= payload["value"] <= payload["upper"]

    def test_var_json_inf_token_when_band_overflows(self, workdir, capsys):
        code = main(
            [
                "risk",
                "--formula", "p",
                "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble"),
                "--measure", "var",
                "--beta", "0.95",
                "--delta", "0.05",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upper"] == "inf"

    def test_expected_with_bounds(self, workdir, capsys):
        code = main(
            [
                "risk",
                "--formula", "p",
                "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble"),
                "--measure", "expected",
                "--delta", "0.1",
                "--bounds=-50,50",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] < payload["value"] < payload["upper"]

    def test_tiny_delta_gives_strict_json(self, workdir, capsys):
        out = workdir / "out"
        code = main(
            [
                "risk",
                "--formula", "p",
                "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble"),
                "--delta", "1e-320",
                "--out", str(out),
            ]
        )
        assert code == 0
        for text in (capsys.readouterr().out, (out / "result.json").read_text(encoding="utf-8")):
            payload = strict_json(text)
            assert 0 < payload["epsilon"] < float("inf")

    def test_zero_cost_prints_unsigned(self, workdir, capsys):
        ens = workdir / "boundary"
        ens.mkdir()
        for i, v in enumerate((0.0, 1.0)):
            save_trace_csv(Trace(np.array([[v]])), ens / f"m{i}.csv")
        args = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"), "--ensemble", str(ens), "--beta", "0.9"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert '"value": 0.0,' in out and "-0.0" not in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--measure", "meanvar", "--lambda", "inf"],
            ["--lambda", "inf"],
            ["--measure", "meanvar", "--lambda", "nan"],
            ["--measure", "expected", "--bounds=-inf,inf"],
            ["--bounds=0,inf"],
            ["--bounds=nan,1"],
        ],
    )
    def test_non_finite_lambda_or_bounds_exit_4(self, workdir, extra, capsys):
        ens = workdir / "equal"
        ens.mkdir()
        for i in range(3):
            save_trace_csv(Trace(np.array([[1.0]])), ens / f"m{i}.csv")
        out = workdir / "out"
        args = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"), "--ensemble", str(ens), "--out", str(out)]
        assert main(args + extra) == 4
        stdout, err = capsys.readouterr()
        assert stdout == "" and "finite" in err and not out.exists()

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ("", "--bounds expects comma-separated numbers, got ''"),
            ("a,b", "--bounds expects comma-separated numbers, got 'a,b'"),
            ("1", "bounds must be two finite numbers a < b, got [1.0]"),
            ("1,2,3", "bounds must be two finite numbers a < b, got [1.0, 2.0, 3.0]"),
        ],
        ids=["empty", "not-numbers", "one-number", "three-numbers"],
    )
    def test_bounds_that_are_not_two_numbers_exit_4(self, workdir, bounds, message, capsys):
        out = workdir / "out"
        args = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"), "--ensemble", str(workdir / "ensemble"),
                "--measure", "expected", f"--bounds={bounds}", "--out", str(out)]
        assert main(args) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_lambda_and_bounds_give_strict_json(self, workdir, capsys):
        out = workdir / "out"
        for measure in ("meanvar", "expected"):
            args = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"), "--ensemble", str(workdir / "ensemble"),
                    "--measure", measure, "--lambda", "1e300", "--bounds=-1e300,1e300", "--out", str(out)]
            assert main(args) == 0
            for text in (capsys.readouterr().out, (out / "result.json").read_text(), (out / "manifest.json").read_text()):
                strict_json(text)

    def test_bad_beta_exits_4(self, workdir, capsys):
        code = main(
            [
                "risk",
                "--formula", "p",
                "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble"),
                "--beta", "1.5",
            ]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"t,x1,x2\n0,abc,1\n", "row 0: non-numeric x1 cell 'abc'"),
            (b"t,x1,x2\n0,1,\xff\n", "not UTF-8: byte 0xff at offset 12"),
        ],
    )
    def test_bad_member_named_in_the_error(self, workdir, data, message, capsys):
        ens = workdir / "bad"
        ens.mkdir()
        (ens / "a.csv").write_text("t,x1,x2\n0,1,2\n")
        (ens / "b.csv").write_bytes(data)
        args = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"), "--ensemble", str(ens)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {ens / 'b.csv'}: {message}\n"
        (workdir / "bad.csv").write_bytes(data)
        args = ["monitor", "--formula", "p", "--predicates", str(workdir / "preds.json"), "--trace", str(workdir / "bad.csv")]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {workdir / 'bad.csv'}: {message}\n"

    def test_out_that_cannot_be_written_prints_nothing(self, workdir, capsys):
        # The result is printed only once result.json and manifest.json are
        # written.
        (workdir / "taken").write_text("a file\n")
        args = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble"), "--out", str(workdir / "taken")]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: [Errno 17] File exists")

    @pytest.mark.parametrize(
        "x1, measure",
        [
            ((1.5e308, -1.5e308), ["--measure", "cvar"]),
            ((1e300, -1e300), ["--measure", "meanvar", "--lambda", "0"]),
            ((1e300, -1e300), ["--measure", "meanvar", "--lambda", "1"]),
            ((-1.5e308, -1.5e308), ["--measure", "expected"]),
        ],
        ids=["cvar", "meanvar-lambda-0", "meanvar-lambda-1", "expected"],
    )
    def test_estimate_that_overflows_exits_4(self, tmp_path, x1, measure, capsys):
        (tmp_path / "p.json").write_text(json.dumps(PREDICATES))
        ens = tmp_path / "ens"
        ens.mkdir()
        for i, x in enumerate(x1):
            (ens / f"m{i}.csv").write_text(f"t,x1\n0,{x!r}\n")
        args = ["risk", "--formula", "p", "--predicates", str(tmp_path / "p.json"), "--ensemble", str(ens)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args + measure + ["--out", str(tmp_path / "out")]) == 4
            out, err = capsys.readouterr()
            assert out == "" and not (tmp_path / "out").exists()
            assert err.count("\n") == 1 and f"the {measure[1]} estimate" in err
            # VaR's order statistics of the same costs are finite.
            assert main(args + ["--out", str(tmp_path / "var")]) == 0
        result = strict_json(capsys.readouterr().out)
        assert result == strict_json((tmp_path / "var" / "result.json").read_text())
        assert result["value"] in x1 or -result["value"] in x1

    def test_true_formula_exits_4(self, workdir, capsys):
        code = main(
            [
                "risk",
                "--formula", "true",
                "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble"),
            ]
        )
        assert code == 4

    def test_samples_outside_the_bounds_exit_4(self, workdir, capsys):
        # A refused --bounds is a risk parameter like any other, not an
        # internal error.
        out = workdir / "out"
        args = ["risk", "--formula", "F[0,1] p", "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble"), "--measure", "expected", "--bounds=0,0.1", "--out", str(out)]
        assert main(args) == 4
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err == "error: samples fall outside the declared support [0.0, 0.1]\n"


class TestRiskManifest:
    def risk_out(self, workdir, ensemble, out):
        args = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(ensemble), "--out", str(out)]
        assert main(args) == 0
        return json.loads((out / "manifest.json").read_text())

    def test_numeric_flags_keep_their_json_types(self, workdir, capsys):
        out = workdir / "out"
        assert main(["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"),
                     "--ensemble", str(workdir / "ensemble"), "--time", "0", "--measure", "expected", "--beta", "0.9",
                     "--delta", "5e-2", "--lambda", "1", "--bounds=-50,50", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        parameters = {key: manifest["parameters"][key] for key in ("time", "beta", "delta", "lambda", "bounds")}
        assert parameters == {"time": 0, "beta": 0.9, "delta": 0.05, "lambda": 1.0, "bounds": [-50.0, 50.0]}
        types = [type(v) for v in (*parameters.values(), *parameters["bounds"])]
        assert types == [int, float, float, float, list, float, float]

    def test_directory_members_digested(self, workdir, capsys):
        manifest = self.risk_out(workdir, workdir / "ensemble", workdir / "out")
        members = sorted((workdir / "ensemble").iterdir())
        assert manifest["inputs"] == {
            str(workdir / "preds.json"): sha256((workdir / "preds.json").read_bytes()),
            **{str(p): sha256(p.read_bytes()) for p in members},
        }

    def test_manifest_ensemble_digests_its_members(self, workdir, capsys):
        listing = workdir / "ens.json"
        listing.write_text(json.dumps({"traces": ["ensemble/tr001.csv", "ensemble/tr000.csv"]}))
        first = self.risk_out(workdir, listing, workdir / "a")
        members = [workdir / "ensemble" / "tr001.csv", workdir / "ensemble" / "tr000.csv"]
        assert first["inputs"] == {
            str(workdir / "preds.json"): sha256((workdir / "preds.json").read_bytes()),
            str(listing): sha256(listing.read_bytes()),
            **{str(p): sha256(p.read_bytes()) for p in members},
        }
        # An edited member shows in the manifest even though the listing is unchanged.
        save_trace_csv(Trace(np.array([[1.0], [2.0], [3.0]])), members[0])
        second = self.risk_out(workdir, listing, workdir / "b")
        assert second["inputs"][str(listing)] == first["inputs"][str(listing)]
        assert second["inputs"][str(members[0])] != first["inputs"][str(members[0])]
        assert second["inputs"][str(members[0])] == sha256(members[0].read_bytes())

    def test_digests_the_bytes_that_were_evaluated(self, workdir, monkeypatch, capsys):
        # Each member is rewritten as soon as it has been read; the manifest
        # must describe what was evaluated, so each member is read once.
        members = sorted((workdir / "ensemble").iterdir())
        original = {str(p): p.read_bytes() for p in members}
        reads = edit_after_read(monkeypatch, original, b"t,x1\n0,-9\n1,-9\n2,-9\n")
        out = workdir / "out"
        manifest = self.risk_out(workdir, workdir / "ensemble", out)
        monkeypatch.undo()
        assert sorted(reads) == sorted(original)
        for name, data in original.items():
            assert manifest["inputs"][name] == sha256(data) != sha256(Path(name).read_bytes())
        assert json.loads((out / "result.json").read_text())["n"] == 100

    def test_predicate_table_read_once_and_digested_as_evaluated(self, workdir, monkeypatch, capsys):
        # The table is rewritten as soon as it has been read, to one under
        # which every member satisfies p by a wide margin.
        preds = workdir / "preds.json"
        original = preds.read_bytes()
        edited = json.dumps({"p": {"kind": "halfspace", "a": [1.0], "b": 100.0}}).encode()
        reads = edit_after_read(monkeypatch, [preds], edited)
        out = workdir / "out"
        manifest = self.risk_out(workdir, workdir / "ensemble", out)
        monkeypatch.undo()
        assert reads == [str(preds)]
        assert manifest["inputs"][str(preds)] == sha256(original) != sha256(preds.read_bytes())
        preds.write_bytes(original)
        expected = self.risk_out(workdir, workdir / "ensemble", workdir / "again")
        assert (out / "result.json").read_text() == (workdir / "again" / "result.json").read_text()
        assert expected["inputs"] == manifest["inputs"]

    def test_output_digests_are_the_files_on_disk(self, workdir, capsys):
        out = workdir / "out"
        manifest = self.risk_out(workdir, workdir / "ensemble", out)
        assert manifest["outputs"] == {"result.json": sha256((out / "result.json").read_bytes())}

    def test_import_leaves_hashlib_unloaded(self):
        # hashlib costs several milliseconds to import; only the CLI needs it.
        code = (
            "import sys, numpy; print('hashlib' in sys.modules)\n"
            "import stlrisk; print('hashlib' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(stlrisk.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        by_numpy, by_stlrisk = done.stdout.split()
        if by_numpy == "True":
            pytest.skip("this numpy imports hashlib itself")
        assert by_stlrisk == "False"


class TestRepeatedMain:
    """``main`` builds its parser once per process; calls in one process
    must not see each other's arguments."""

    @staticmethod
    def outcome(argv, out, capsys):
        argv = [str(out) if a == "OUT" else a for a in argv]
        code = main(argv)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return (code, *capsys.readouterr(), files)

    def test_each_call_matches_a_fresh_parser(self, workdir, monkeypatch, capsys):
        risk = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(workdir / "ensemble")]
        steps = [
            (risk + ["--measure", "expected", "--bounds=-5,5", "--out", "OUT"], 0),
            (risk + ["--out", "OUT"], 0),
            (["check", "--formula", "G[0,3] p"], 0),
            (["check", "--formula", "p &"], 2),
            (["--version"], 0),
            (risk + ["--out", "OUT"], 0),
        ]
        assert cli._build_parser() is cli._build_parser()
        for i, (argv, code) in enumerate(steps):
            got = self.outcome(argv, workdir / f"cached{i}", capsys)
            with monkeypatch.context() as m:
                m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
                assert self.outcome(argv, workdir / f"fresh{i}", capsys) == got
            assert got[0] == code
        manifest = json.loads(self.outcome(steps[1][0], workdir / "again", capsys)[3]["manifest.json"])
        assert manifest["parameters"]["bounds"] is None and manifest["parameters"]["measure"] == "var"

    def test_check_leaves_no_cyclic_garbage(self, capsys):
        argv = ["check", "--formula", "G[0,3] p"]
        assert main(argv) == 0  # builds the parser
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


@pytest.mark.parametrize("pad", [0, 9000])
@pytest.mark.parametrize("kind, code", [("predicates", 1), ("manifest", 1), ("config", 5)])
def test_json_not_utf8_named_with_its_offset(workdir, kind, code, pad, capsys):
    # The pad puts the byte past 8192: a file decoded in 8 KB chunks, as text
    # files are read line by line, would give its offset within the chunk.
    bad = workdir / "bad.json"
    data = b'{"traces": ["' + b"a" * pad + b'\xff.csv"]}'
    bad.write_bytes(data)
    offset = data.index(b"\xff")
    preds, ensemble = str(workdir / "preds.json"), str(workdir / "ensemble")
    args = {
        "predicates": ["risk", "--formula", "p", "--predicates", str(bad), "--ensemble", ensemble],
        "manifest": ["risk", "--formula", "p", "--predicates", preds, "--ensemble", str(bad)],
        "config": ["casestudy", "--config", str(bad), "--out", str(workdir / "out")],
    }[kind]
    assert main(args) == code
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8: byte 0xff at offset {offset}\n"


@pytest.mark.parametrize(
    "content",
    [
        pytest.param("[" * 10**5 + "]" * 10**5, id="nested-past-the-recursion-limit"),
        pytest.param('{"traces": ' + "9" * (DIGIT_LIMIT + 1) + "}", id="integer-past-the-digit-limit", marks=needs_digit_limit),
    ],
)
@pytest.mark.parametrize("kind, code", [("predicates", 1), ("manifest", 1), ("config", 5)])
def test_json_that_cannot_be_decoded_is_named(workdir, kind, code, content, capsys):
    bad = workdir / "bad.json"
    bad.write_text(content)
    preds, ensemble = str(workdir / "preds.json"), str(workdir / "ensemble")
    args = {
        "predicates": ["risk", "--formula", "p", "--predicates", str(bad), "--ensemble", ensemble],
        "manifest": ["risk", "--formula", "p", "--predicates", preds, "--ensemble", str(bad)],
        "config": ["casestudy", "--config", str(bad), "--out", str(workdir / "out")],
    }[kind]
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert len(err.replace(str(bad), "")) <= 160, err


@pytest.mark.parametrize(
    "kind, code, message",
    [("predicates", 1, "predicate table must be a JSON object"), ("config", 5, "config must be a JSON object")],
)
def test_json_array_is_refused(workdir, kind, code, message, capsys):
    bad = workdir / "bad.json"
    bad.write_text("[1, 2]")
    args = {
        "predicates": ["monitor", "--formula", "p", "--predicates", str(bad), "--trace", str(workdir / "trace.csv")],
        "config": ["casestudy", "--config", str(bad), "--out", str(workdir / "out")],
    }[kind]
    assert main(args) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


LONG = 3000
MONITOR = ["monitor", "--predicates", "preds.json", "--trace", "trace.csv"]
MONITOR_TABLE = ["monitor", "--formula", "p", "--predicates", "in.json", "--trace", "trace.csv"]
RISK = ["risk", "--formula", "p", "--predicates", "preds.json", "--ensemble", "ensemble", "--measure", "expected"]
CASESTUDY_CONFIG = ["casestudy", "--config", "in.json", "--out", "o"]
RISK_MANIFEST = ["risk", "--formula", "p", "--predicates", "preds.json", "--ensemble", "in.json"]


@pytest.mark.parametrize(
    "argv, content, code",
    [
        pytest.param(["check", "--formula", "p " + "q" * LONG], None, 2, id="trailing-input"),
        pytest.param(["check", "--formula", "(p " + "q" * LONG], None, 2, id="expected-token"),
        pytest.param(["check", "--formula", "p & " + "1" * LONG], None, 2, id="expected-formula"),
        pytest.param(MONITOR + ["--formula", "q" * LONG], None, 1, id="undefined-predicate"),
        pytest.param(MONITOR_TABLE, {"n" * LONG: {"kind": "halfspace"}}, 1, id="predicate-name"),
        pytest.param(MONITOR_TABLE, {"p": {"kind": "k" * LONG}}, 1, id="predicate-kind"),
        pytest.param(MONITOR_TABLE, {"p": {"kind": "halfspace", "a": [1], "b": 0, "k" * LONG: 1}}, 1, id="predicate-key"),
        pytest.param(MONITOR_TABLE, {"p": {"kind": "ball", "pos": [0], "center": [0], "radius": 1, "norm": "n" * LONG}}, 1, id="norm"),
        pytest.param(MONITOR_TABLE, {"p": {"kind": "halfspace", "a": [1], "b": 0, "complement": "c" * LONG}}, 1, id="complement"),
        pytest.param(MONITOR_TABLE, {"p": {"kind": "ball", "pos": [int("9" * 4000)], "center": [0], "radius": 1}}, 1, id="state-index"),
        pytest.param(RISK_MANIFEST, {"traces": ["m" * LONG]}, 1, id="manifest-path"),
        pytest.param(["casestudy", "--config", "c" * LONG, "--out", "o"], None, 5, id="config-path"),
        pytest.param(MONITOR + ["--formula", "p", "--time", "9" * LONG], None, 3, id="monitor-time"),
        pytest.param(RISK + ["--time", "9" * LONG], None, 3, id="risk-time"),
        pytest.param(RISK + ["--bounds=" + "x" * LONG], None, 4, id="bounds-text"),
        pytest.param(RISK + ["--bounds=" + ",".join(["1"] * (LONG // 2))], None, 4, id="bounds-count"),
        pytest.param(["casestudy", "--betas", "x" * LONG, "--out", "o"], None, 5, id="betas-flag"),
        pytest.param(CASESTUDY_CONFIG, {"betas": "x" * LONG}, 5, id="betas-text"),
        pytest.param(CASESTUDY_CONFIG, {"betas": [2.0] * LONG}, 5, id="betas-range"),
        pytest.param(CASESTUDY_CONFIG, {"trajectories": "t" * LONG}, 5, id="trajectories"),
        pytest.param(CASESTUDY_CONFIG, {"k" * LONG: 1}, 5, id="config-key"),
    ],
)
def test_long_quoted_input_is_cut_in_its_one_error_line(workdir, monkeypatch, argv, content, code, capsys):
    # Each message quotes the input; quoted whole, these lines ran past 3000 characters.
    monkeypatch.chdir(workdir)
    if content is not None:
        Path("in.json").write_text(json.dumps(content))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 160, err


# Each numeric flag: its command's argv without it, how its text is read and
# the command's exit code for malformed text.  The files do not exist, so a
# value that was accepted would end in an error that does not name the flag.
MONITOR_ABSENT = ["monitor", "--formula", "p", "--predicates", "absent.json", "--trace", "absent.csv"]
RISK_ABSENT = ["risk", "--formula", "p", "--predicates", "absent.json", "--ensemble", "absent"]
CASESTUDY_ABSENT = ["casestudy", "--config", "absent.json", "--out", "absent"]
NUMERIC_FLAGS = [
    pytest.param(argv, flag, kind, code, id=argv[0] + flag)
    for argv, flag, kind, code in [
        (MONITOR_ABSENT, "--time", int, 3),
        (RISK_ABSENT, "--time", int, 3),
        (RISK_ABSENT, "--beta", float, 4),
        (RISK_ABSENT, "--delta", float, 4),
        (RISK_ABSENT, "--lambda", float, 4),
        (RISK_ABSENT, "--bounds", tuple, 4),
        (CASESTUDY_ABSENT, "--seed", int, 5),
        (CASESTUDY_ABSENT, "--n", int, 5),
        (CASESTUDY_ABSENT, "--delta", float, 5),
        (CASESTUDY_ABSENT, "--betas", tuple, 5),
    ]
]


def refused(kind, text: str) -> bool:
    """Whether the conversion a numeric flag of ``kind`` applies refuses ``text``."""
    try:
        tuple(map(float, text.split(","))) if kind is tuple else kind(text)
    except ValueError:
        return True
    return False


def run_main(argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, with a RuntimeWarning
    raised as an error; ``main`` returns argparse's exit codes too, so a
    SystemExit fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def dashes_dropped() -> bool:
    """Whether argparse drops the "--" of --flag=-- (before Python 3.13),
    giving the flag no value, which ``main`` refuses as a usage error."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--flag")
    return parser.parse_args(["--flag=--"]).flag == []


DASHES_DROPPED = dashes_dropped()
DASHES_REFUSAL = "stlrisk: error: an option given as --flag=-- has no value"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--formula=--"],
        [*MONITOR_ABSENT, "--time=--"],
        [*MONITOR_ABSENT, "--mode=--"],
        ["risk", "--formula", "p", "--predicates=--", "--ensemble", "absent"],
        [*RISK_ABSENT, "--measure=--"],
        [*RISK_ABSENT, "--lambda=--"],
        [*CASESTUDY_ABSENT, "--n=--"],
    ],
    ids=lambda argv: next(arg for arg in argv if arg.endswith("=--")),
)
def test_flag_given_dashes_is_refused_not_used(argv, tmp_path, monkeypatch):
    # Before Python 3.13 argparse gave such a flag the value [], which reached
    # the commands: --mode=-- ran in robust mode, --measure=-- was an internal
    # TypeError.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(argv)
    assert code != 0 and out == "" and not re.search(r"error: \w+Error: ", err), err
    if DASHES_DROPPED:
        assert code == 2 and err.startswith("usage: stlrisk ") and err.endswith(f"\n{DASHES_REFUSAL}\n"), err


@pytest.mark.parametrize("argv, code", [(["--bogus"], 2), (["check"], 2), (["--version"], 0), (["--help"], 0), (["risk", "--help"], 0)])
def test_main_returns_argparse_exit_code(argv, code):
    # argparse exits by raising SystemExit; main returns its code instead,
    # with the same output: usage and one error line, or help or the version.
    got, out, err = run_main(argv)
    assert got == code
    if code == 2:
        assert out == "" and err.startswith("usage: stlrisk ") and err.count(": error: ") == 1, err
    else:
        assert err == "" and out.startswith("usage: stlrisk " if "--help" in argv else f"stlrisk {stlrisk.__version__}\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--bogus=3"], "unrecognized arguments: --bogus=3"),
        (["--bogus", "check", "--formula", "p"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
)
def test_top_parser_error_names_the_unknown_flag(argv, line):
    # A subcommand required by argparse was reported missing first, in a
    # line that did not name the flag.
    code, out, err = run_main(argv)
    assert (code, out) == (2, "") and err.startswith("usage: stlrisk ") and err.endswith(f"\nstlrisk: error: {line}\n"), err


def plain_argparse(monkeypatch, argv) -> tuple:
    """``run_main(argv)`` with argparse's own ``error``, which quotes the
    command line whole."""
    with monkeypatch.context() as m:
        m.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
        return run_main(argv)


@pytest.mark.parametrize(
    "argv, start",
    [
        (["x" * 300], "stlrisk: error: argument command: invalid choice: 'xxxx"),
        (["check", "--formula", "p", *["x"] * 150], "stlrisk: error: unrecognized arguments: x x x x"),
        ([*RISK_ABSENT, "--b=" + "x" * 300], "stlrisk risk: error: ambiguous option: --b=xxxx"),
        (["check", "--help=" + "x" * 300], "stlrisk check: error: argument -h/--help: ignored explicit argument 'xxxx"),
    ],
    ids=["subcommand", "positionals", "ambiguous-flag", "flag-value"],
)
def test_long_usage_error_quotes_the_command_line_cut_short(argv, start, monkeypatch):
    # Quoted whole, as argparse prints them, these lines ran to 339-406 characters.
    code, out, err = run_main(argv)
    plain_code, plain_out, plain_err = plain_argparse(monkeypatch, argv)
    assert code == plain_code == 2 and out == plain_out == ""
    *usage, line, _ = err.split("\n")
    *plain_usage, plain_line, _ = plain_err.split("\n")
    assert usage == plain_usage and len(plain_line) > 300
    assert line.startswith(start) and line.endswith(" chars)") and len(line) <= 160, line


@pytest.mark.parametrize("argv", [["y" * 50], ["check", "--formula", "p", *["x"] * 40], [*RISK_ABSENT, "--b=" + "x" * 40]])
def test_usage_error_that_fits_is_argparse_own(argv, monkeypatch):
    code, _, err = run_main(argv)
    assert code == 2 and err == plain_argparse(monkeypatch, argv)[2]
    assert max(map(len, err.split("\n"))) <= 160


# The valid argv of each subcommand; its files are never read, as argparse
# refuses the argument vector first.
VALID_ARGV = {"check": ["check", "--formula", "p"], "monitor": MONITOR_ABSENT, "risk": RISK_ABSENT, "casestudy": CASESTUDY_ABSENT}
# Any text of up to 300 characters.
ARGV_TEXTS = st.text(max_size=12) | st.builds(operator.mul, st.text(min_size=1, max_size=3), st.integers(1, 100))


def option_strings(command: str) -> list:
    """The option strings of the top parser and of ``command``'s."""
    top = cli._build_parser()
    sub = next(action for action in top._actions if isinstance(action, argparse._SubParsersAction)).choices[command]
    return [*top._option_string_actions, *sub._option_string_actions]


@st.composite
def stray_argv(draw, command: str) -> list:
    """``command``'s valid argv under an unknown subcommand, or with an
    unknown flag or stray positionals appended."""
    argv = VALID_ARGV[command]
    kind = draw(st.sampled_from(["subcommand", "flag", "positionals"]))
    if kind == "subcommand":
        text = draw(ARGV_TEXTS)
        assume(text not in VALID_ARGV and not text.startswith("-"))
        return [text, *argv[1:]]
    if kind == "flag":
        flag = draw(st.sampled_from(["-", "--"])) + draw(ARGV_TEXTS)
        name = flag.split("=", 1)[0]
        assume(not any(option.startswith(name) for option in option_strings(command)))  # no option's name or prefix
        return [*argv, flag]
    return [*argv, *draw(st.lists(ARGV_TEXTS.filter(lambda text: not text.startswith("-")), min_size=1, max_size=3))]


@pytest.mark.parametrize("command", VALID_ARGV)
def test_every_stray_argument_is_one_usage_error_line(command, tmp_path, monkeypatch):
    # The last reader of hostile input, the argument vector: exit 2, returned
    # by main, with usage and one error line of at most 160 characters; a
    # line that fits is argparse's own, byte for byte.
    monkeypatch.chdir(tmp_path)
    fits = []

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(stray_argv(command))
    def check(argv):
        code, out, err = run_main(argv)
        assert code == 2 and out == "" and err.endswith("\n"), err
        lines = err[:-1].split("\n")
        errors = [line for line in lines if ": error: " in line]
        assert lines[0].startswith("usage: stlrisk ") and errors == lines[-1:] and len(errors[0]) <= 160, err
        assert not re.search(r"error: \w+Error: ", err), err  # _fail's form of an internal error
        plain = plain_argparse(monkeypatch, argv)[2]
        plain_lines = plain[:-1].split("\n")
        fits.append(len(plain_lines) == len(lines) and all(len(line) <= 160 and line.splitlines() == [line] for line in plain_lines))
        if fits[-1]:
            assert err == plain

    check()
    assert not any(tmp_path.iterdir())
    assert 0 < sum(fits) < len(fits)  # lines cut short, and lines left as argparse's


def flag_refusal(argv, flag, text):
    """(exit code, stdout, stderr) of ``main`` given ``flag`` as ``text``."""
    return run_main([*argv, f"{flag}={text}"])


def assert_one_line_naming(flag, expected_code, refusal):
    code, out, err = refusal
    assert (code, out) == (expected_code, ""), err
    assert err.startswith(f"error: {flag} expects ") and err.count("\n") == 1 and len(err) <= 160, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, kind, code", NUMERIC_FLAGS)
@pytest.mark.parametrize(
    "text",
    ["", "x", "1.5.", "0x10", "1,", "\u00b2", "infinty", "9" * 5000 + "x"],
    ids=["empty", "letter", "two-points", "hex", "trailing-comma", "superscript", "misspelled-inf", "long"],
)
def test_malformed_numeric_flag_exits_with_its_command_code(argv, flag, kind, code, text, tmp_path, monkeypatch):
    # Refused before any file is read, in one line that names the flag and
    # quotes the text cut short.
    monkeypatch.chdir(tmp_path)
    refusal = flag_refusal(argv, flag, text)
    assert_one_line_naming(flag, code, refusal)
    assert refusal[2].endswith(f", got {trace.shortened(repr(text))}\n")


@needs_digit_limit
@pytest.mark.parametrize("argv, flag, kind, code", [f for f in NUMERIC_FLAGS if f.values[2] is int])
def test_integer_flag_past_the_digit_limit_exits_with_its_command_code(argv, flag, kind, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert_one_line_naming(flag, code, flag_refusal(argv, flag, "9" * (DIGIT_LIMIT + 1)))


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--time", "1.5", "error: --time expects an integer, got '1.5'\n"),
        ("--beta", "x", "error: --beta expects a number, got 'x'\n"),
        ("--bounds", "1,x", "error: --bounds expects comma-separated numbers, got '1,x'\n"),
    ],
)
def test_malformed_numeric_flag_messages(flag, text, message):
    assert flag_refusal(RISK_ABSENT, flag, text)[2] == message


# Valid numbers, which the strategy below damages.
NUMBER_TEXTS = ["0", "7", "-3", "42", "0.9", "-1e-3", "1E+2", "5_000", "0.8,0.9", "-5,5", "inf", "nan", "Infinity"]


@st.composite
def malformed_texts(draw, kind):
    """Text that a numeric flag of ``kind`` refuses: a valid number with a
    character changed, inserted or cut off, a 5000-digit number, a number
    in digits that are not decimal, or a misspelled ``nan`` or ``inf``."""
    base = draw(st.sampled_from(NUMBER_TEXTS))
    damage = draw(st.sampled_from(["flip", "insert", "truncate", "long", "non-decimal", "misspelled"]))
    i = draw(st.integers(0, len(base)))
    char = draw(st.characters(codec="utf-8") | st.sampled_from(",.+-_eE \n"))
    if damage == "flip":
        text = base[:i] + char + base[i + 1 :]
    elif damage == "insert":
        text = base[:i] + char + base[i:]
    elif damage == "truncate":
        text = base[:i]
    elif damage == "long":
        text = draw(st.sampled_from(["", "-", "0.", "1e"])) + "9" * 5000 + draw(st.sampled_from(["", char, ",", "e9", "."]))
    elif damage == "non-decimal":
        text = base[:i] + draw(st.characters(categories=["No", "Nl"])) + base[i:]
    else:
        word = draw(st.sampled_from(["nan", "inf", "infinity"]))
        j = draw(st.integers(0, len(word) - 1))
        text = draw(st.sampled_from([word[:j] + word[j + 1 :], word[:j] + char + word[j:], word[:j] + word[j] * 2 + word[j + 1 :]]))
    assume(refused(kind, text))
    return text


@pytest.mark.parametrize("argv, flag, kind, code", NUMERIC_FLAGS)
def test_every_malformed_numeric_flag_is_one_line_with_its_code(argv, flag, kind, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(malformed_texts(kind))
    def check(text):
        assert_one_line_naming(flag, code, flag_refusal(argv, flag, text))

    check()
    assert not any(tmp_path.iterdir())


# risk's non-numeric arguments: --measure text (each measure, near misses,
# any text, a 3000-character value), then --bounds text, if any, that is a
# valid pair, a pair of any floats, or text that float() may refuse.  The
# ensemble's samples are -1.5 and 1.5.
MEASURE_TEXTS = st.sampled_from([*MEASURES, "VaR", " var", "var ", "cvar,var", "", "-", "--", "x" * 3000])
MEASURE_TEXTS |= st.text(max_size=12) | st.builds(operator.mul, st.sampled_from(list(MEASURES)), st.integers(2, 600))
BOUNDS_TEXTS = st.sampled_from(["-5,5", "-1.5,1.5", "-1,1", "1,-1", "0,0", "-inf,5", "nan,1", "-5,5,6", "5", "", ",", "-1e400,1", "9" * 5000 + ",1"])
BOUNDS_TEXTS |= st.text(alphabet="-0123456789.,einfa _", max_size=16) | st.builds("{},{}".format, st.floats(), st.floats())


def expected_risk_argument_exit(measure: str, bounds) -> int:
    """The documented exit code of `risk` given these texts, in argv order:
    2 (usage) for a measure that is not one or a flag that argparse gives no
    value, then 4 for bounds that are not two finite numbers A < B or, with
    expected, do not hold the samples."""
    if measure not in MEASURES or DASHES_DROPPED and bounds == "--":
        return 2
    if bounds is None:
        return 0
    try:
        a, b = map(float, bounds.split(","))
    except ValueError:  # not numbers, or not two of them
        return 4
    if not -math.inf < a < b < math.inf:
        return 4
    return 4 if measure == "expected" and not a <= -1.5 <= 1.5 <= b else 0


def test_every_risk_argument_text_runs_or_is_refused_in_one_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("p.json").write_text(json.dumps(PREDICATES))
    Path("ens").mkdir()
    Path("ens/m0.csv").write_text("t,x1\n0,-1.5\n")
    Path("ens/m1.csv").write_text("t,x1\n0,1.5\n")
    argv = ["risk", "--formula", "p", "--predicates", "p.json", "--ensemble", "ens"]

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(MEASURE_TEXTS, st.none() | BOUNDS_TEXTS)
    def check(measure, bounds):
        given_bounds = [] if bounds is None else [f"--bounds={bounds}"]
        code, out, err = run_main([*argv, f"--measure={measure}", *given_bounds])
        assert code == expected_risk_argument_exit(measure, bounds), err
        if code == 0:
            assert err == "" and strict_json(out)["measure"] == measure
            return
        assert out == "" and err.endswith("\n")
        lines = err[:-1].split("\n")
        errors = [line for line in lines if "error: " in line]
        assert len(errors) == 1 and len(errors[0]) <= 160, err
        assert not re.search(r"error: \w+Error: ", err), err  # _fail's form of an internal error
        if code == 2:  # argparse's usage, then its one line
            assert lines[0].startswith("usage: stlrisk ") and errors == lines[-1:], err
            assert errors[0].startswith("stlrisk risk: error: argument --measure: invalid choice: ") or errors[0] == DASHES_REFUSAL, err
        else:
            assert lines == errors and err.startswith("error: "), err

    check()


# A valid case-study config naming every key, which the strategy below damages.
CONFIG_BYTES = json.dumps(
    {"seed": 7, "n": 3, "betas": [0.9, 0.95], "delta": 0.01, "trajectories": [[[0, 0], [1.5, 1], [2, 2], [3, 3.25]]]}
).encode()
CONFIG_TOKENS = [b"1e400", b"-1e400", b"NaN", b"Infinity", b"null", b"{}", b",", b'"default"']
CONFIG_TOKENS += [b"9" * 5000, b"0." + b"9" * 5000, b'"' + b"k" * 5000 + b'"', b"\xff", b"\xc3", b"\xed\xa0\x80"]
CONFIG_TOKENS += [b"[" * 5000, b"[" * 5000 + b"]" * 5000]


@st.composite
def damaged_configs(draw):
    """The valid config with one byte changed, cut short, or with a token
    (an out-of-range or non-finite number, a 5000-digit number, bytes that
    are not UTF-8, deep brackets) inserted or put in place of a span."""
    i = draw(st.integers(0, len(CONFIG_BYTES)))
    damage = draw(st.sampled_from(["flip", "truncate", "insert", "replace"]))
    if damage == "flip":
        return CONFIG_BYTES[:i] + bytes([draw(st.integers(0, 255))]) + CONFIG_BYTES[i + 1 :]
    if damage == "truncate":
        return CONFIG_BYTES[:i]
    token = draw(st.sampled_from(CONFIG_TOKENS))
    j = i if damage == "insert" else draw(st.integers(i, len(CONFIG_BYTES)))
    return CONFIG_BYTES[:i] + token + CONFIG_BYTES[j:]


def test_every_damaged_config_runs_or_is_one_line_with_exit_5(tmp_path, monkeypatch):
    # --n 1 overrides the file's n, so no example samples more than one
    # realization per trajectory.
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(damaged_configs())
    def check(data):
        Path("in.json").write_bytes(data)
        code, out, err = run_main(["casestudy", "--config", "in.json", "--n", "1", "--out", "o"])
        if code == 0:
            assert err == "" and out.startswith("trajectory,beta,")
        else:
            assert code == 5 and out == "", err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert len(err.replace("in.json", "")) <= 160, err

    check()


# A valid predicate table and ensemble manifest, which the strategy below
# damages: the table's predicates read a 3-component state, the manifest
# lists two members of the one-component trace that the sweep writes.
SWEPT_TABLE = {
    "h": {"kind": "halfspace", "a": [1.0, -0.5, 0], "b": 0.25},
    "s": {"kind": "ball", "pos": [0, 1], "center": {"slice": [1, 2]}, "radius": 0.5, "norm": "linf", "complement": True},
    "c": {"kind": "ball", "pos": [2], "center": [0.5], "radius": 2},
}
SWEPT_MANIFEST = {"traces": ["m0.csv", "m1.csv"], "seed": 7}
# Each JSON type, a 4000-digit integer, a NUL in a string and a 3000-character string.
JSON_TOKENS = [None, True, False, 0, -1, 2.5, 1e300, int("9" * 4000), "", "l2", "a\0.csv", "k" * LONG]
JSON_TOKENS += [[], [0], [0.5, "x"], ["ball"], {}, {"slice": [0]}, {"kind": "ball"}]


def value_paths(value, path=()):
    """The path of ``value`` and of every value nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from value_paths(item, path + (key,))


def replaced(value, path, new):
    """A copy of ``value`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = type(value)(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def damaged_json(draw, valid):
    """``valid``, encoded, with one value (or the whole) replaced by a token,
    a key renamed to one, one byte changed, cut short, or a token's text
    inserted or put in place of a span."""
    damage = draw(st.sampled_from(["value", "key", "flip", "truncate", "insert", "replace"]))
    token = draw(st.sampled_from(JSON_TOKENS))
    paths = list(value_paths(valid))
    if damage == "value":
        return json.dumps(replaced(valid, draw(st.sampled_from(paths)), token)).encode()
    if damage == "key":
        *parent, key = draw(st.sampled_from([p for p in paths if p and isinstance(p[-1], str)]))
        name = token if isinstance(token, str) else json.dumps(token)
        renamed = {(name if k == key else k): v for k, v in functools.reduce(operator.getitem, parent, valid).items()}
        return json.dumps(replaced(valid, tuple(parent), renamed)).encode()
    data = json.dumps(valid).encode()
    i = draw(st.integers(0, len(data)))
    if damage == "flip":
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    if damage == "truncate":
        return data[:i]
    j = i if damage == "insert" else draw(st.integers(i, len(data)))
    return data[:i] + json.dumps(token).encode() + data[j:]


@pytest.mark.parametrize(
    "valid, argv",
    [
        (SWEPT_TABLE, ["monitor", "--formula", "h & s & c", "--predicates", "in.json", "--trace", "three.csv"]),
        (SWEPT_MANIFEST, ["risk", "--formula", "p", "--predicates", "preds.json", "--ensemble", "in.json"]),
    ],
    ids=["predicate-table", "ensemble-manifest"],
)
def test_every_damaged_input_runs_or_is_one_line_with_exit_1(valid, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("three.csv").write_text("t,x1,x2,x3\n0,1.5,0.2,-1\n1,-0.5,0.3,2\n")
    Path("preds.json").write_text(json.dumps(PREDICATES))
    Path("m0.csv").write_text("t,x1\n0,1.5\n1,-0.5\n")
    Path("m1.csv").write_text("t,x1\n0,-2\n1,3\n")

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(damaged_json(valid))
    def check(data):
        Path("in.json").write_bytes(data)
        code, out, err = run_main(argv)
        if code == 0:
            assert err == "" and out != ""
        else:
            assert code == 1 and out == "", err
            assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 160, err
            assert not re.match(r"error: \w+Error: ", err), err  # _fail's form of an internal error

    check()


# Valid formula texts, which the strategy below damages: every operator
# letter, a past and an unbounded window, and nesting.  The sweep evaluates
# them at t = 3 on a 9-step trace, where each of them fits.
SWEPT_FORMULAS = [
    "G[0,2] F[0,1] p & (q U[0,2] r) & H[0,1] O[0,1] p",
    "!(p | !q) S[1,3] (r & true)",
    "F[1,4] (p U[0,1] q) | H[0,3] r",
]
# Bounds past sys.maxsize and past int()'s digit limit, digits of other
# scripts, and nesting far past the parser's depth cap.
FORMULA_TOKENS = ["1" + "0" * 30, "9" * 5000, "-1", "inf", "\u0663", "\uff11\uff10", "\U0001d7d7", "\u00b2"]
FORMULA_TOKENS += ["(" * 5000, "!" * 5000, "(" * 5000 + "p" + ")" * 5000, "!" * 5000 + "p", "[", "]", ","]


@st.composite
def damaged_formulas(draw):
    """A valid formula text with one byte changed (as a command line passes
    bytes that are not UTF-8: escaped to surrogates), cut short, one bound
    replaced by a token, or a token inserted or put in place of a span."""
    text = draw(st.sampled_from(SWEPT_FORMULAS))
    damage = draw(st.sampled_from(["flip", "truncate", "bound", "insert", "replace"]))
    if damage == "flip":
        data = text.encode()
        i = draw(st.integers(0, len(data) - 1))
        return (data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]).decode("utf-8", "surrogateescape")
    if damage == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    token = draw(st.sampled_from(FORMULA_TOKENS))
    if damage == "bound":
        bound = draw(st.sampled_from(list(re.finditer(r"\d+|inf", text))))
        return text[: bound.start()] + token + text[bound.end() :]
    i = draw(st.integers(0, len(text)))
    j = i if damage == "insert" else draw(st.integers(i, len(text)))
    return text[:i] + token + text[j:]


def test_every_damaged_formula_runs_or_is_one_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("preds.json").write_text(json.dumps({
        "p": {"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0},
        "q": {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.5},
        "r": {"kind": "halfspace", "a": [1.0, 1.0], "b": -1.0},
    }))
    save_trace_csv(Trace(np.random.default_rng(27).normal(size=(9, 2))), Path("walk.csv"))
    for text in SWEPT_FORMULAS:
        assert main(["monitor", "--formula", text, "--predicates", "preds.json", "--trace", "walk.csv", "--time", "3"]) == 0

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(damaged_formulas())
    def check(text):
        argv = ["monitor", "--formula", text, "--predicates", "preds.json", "--trace", "walk.csv", "--time", "3"]
        code, out, err = run_main(argv)
        if code == 0:
            assert err == "" and out != ""
        else:
            assert code in (1, 2, 3) and out == "", err
            assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 160, err
            assert not re.match(r"error: \w+Error: ", err), err  # _fail's form of an internal error

    check()


# A valid trace, which the strategy below damages.  The sweep monitors
# "O[0,1] p & F[0,2] q & G[0,2] r" at t = 1 over it, so it needs rows 0 to
# 3 of its 6.  p and q are x1 and x2 themselves: unit normals with b = 0 add
# and divide nothing, so each margin is a cell's value.  r's normal is
# neither a unit one nor small: an x2 past about 1e8 overflows its margin.
TRACE_BYTES = b"t,x1,x2\n0,1.5,0.25\n1,-0.5,3\n2,2.0,-1e3\n3,0.125,4\n4,-3,0.5\n5,7,-2\n"
# Non-finite and out-of-range numbers, 5000-digit numbers, digits of other
# scripts, line breaks (a lone CR among them), quotes, separators, and bytes
# that are not UTF-8.
TRACE_TOKENS = [b"nan", b"NaN", b"inf", b"-Infinity", b"1e400", b"-1e400", b"1e308", b"-1.7976931348623157e308", b"4.9e-324"]
TRACE_TOKENS += [b"9" * 5000, b"0." + b"9" * 5000, b"-" + b"1" * 5000, b"1_000", b"0x10", b" 2 ", b"+1", b"-0"]
TRACE_TOKENS += [s.encode() for s in ("\u0663", "\uff11\uff10", "\U0001d7d7", "\u00b2", "\u0661.\u0665", "\u2212" + "1")]
TRACE_TOKENS += [b"\r", b"\r\n", b"\n", b"\n\n", b'"', b'"1"', b",", b",,", b"", b"\xff", b"\xc3", b"\x00", b"\xef\xbb\xbf"]


@st.composite
def damaged_traces(draw):
    """The valid trace with one byte changed, cut short (to nothing at
    all, too), or with a token inserted or put in place of a span."""
    i = draw(st.integers(0, len(TRACE_BYTES)))
    damage = draw(st.sampled_from(["flip", "truncate", "insert", "replace"]))
    if damage == "flip":
        return TRACE_BYTES[:i] + bytes([draw(st.integers(0, 255))]) + TRACE_BYTES[i + 1 :]
    if damage == "truncate":
        return TRACE_BYTES[:i]
    token = draw(st.sampled_from(TRACE_TOKENS))
    j = i if damage == "insert" else draw(st.integers(i, len(TRACE_BYTES)))
    return TRACE_BYTES[:i] + token + TRACE_BYTES[j:]


def test_every_damaged_trace_runs_or_is_one_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("preds.json").write_text(json.dumps({
        "p": {"kind": "halfspace", "a": [1, 0], "b": 0},
        "q": {"kind": "halfspace", "a": [0, 1], "b": 0},
        "r": {"kind": "halfspace", "a": [-3, 1e300], "b": 100},
    }))
    formula = "O[0,1] p & F[0,2] q & G[0,2] r"
    argv = ["monitor", "--formula", formula, "--predicates", "preds.json", "--trace", "in.csv", "--time", "1"]
    Path("in.csv").write_bytes(TRACE_BYTES)
    assert main(argv) == 0

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(damaged_traces())
    def check(data):
        Path("in.csv").write_bytes(data)
        code, out, err = run_main(argv)
        if code == 0:
            assert err == "" and math.isfinite(float(out)), out
            assert np.isfinite(trace.load_trace_csv(Path("in.csv")).states).all()
        else:
            # Too few rows left for t = 1 or for the formula is a horizon
            # refusal, and a margin that overflows a non-finite one; any
            # other refusal of the file exits 1.
            horizon = "outside the trace index range" in err or "formula looks" in err
            assert code == (3 if horizon else 4 if "margin overflows" in err else 1) and out == "", err
            assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 160, err
            assert not re.match(r"error: \w+Error: ", err), err  # _fail's form of an internal error

    check()


# Entries of the ensemble-directory sweep, by kind.  "good" members are
# 2-step, 1-D traces; "shape" members obey the trace grammar at another
# (T, d); "damaged" ones break it, each in one way; "dir" is a subdirectory.
DIRECTORY_ENTRIES = [("good", b"t,x1\n0,1.5\n1,-0.5\n", None), ("good", b"t,x1\r\n0,-2\r\n1,3", None)]
DIRECTORY_ENTRIES += [("good", b"t,x1\n0,.25\n1,1e-3\n", None), ("dir", None, None)]
DIRECTORY_ENTRIES += [("shape", b"t,x1\n0,1\n", (1, 1)), ("shape", b"t,x1\n0,1\n1,2\n2,3\n", (3, 1))]
DIRECTORY_ENTRIES += [("shape", b"t,x1,x2\n0,1,2\n1,3,4\n", (2, 2))]
DIRECTORY_ENTRIES += [("damaged", data, None) for data in [
    b"", b"\n", b"t,x1\n", b"t,x2\n0,1\n1,2\n", b"t, x1\n0,1\n1,2\n", b"t,x1\n0,1_000\n1,2\n", b"t,x1\n0, 1\n1,2\n",
    b"t,x1\n0,1\n01,2\n", b"t,x1\n0,1\n+1,2\n", b't,x1\n0,"1"\n1,2\n', b"t,x1\n0,1\r1,2\n", b"t,x1\n0,1\n1,2\r",
    b"t,x1\n0,nan\n1,2\n", b"t,x1\n0,1e400\n1,2\n", b"t,x1\n0,\xff\n1,2\n", b"t,x1\n1,1\n2,2\n", b"t,x1\n0,1\n1,2\n\n",
    b"t,x1\n0,1,2\n1,2\n", b"t,x1\n0,\xc2\xa01\n1,2\n", b"\xef\xbb\xbft,x1\n0,1\n1,2\n", b"t,x1\n0,1\n\xd9\xa1,2\n",
]]
# Names of members, one of 200 characters, and of entries that are not
# (".csv", "b.CSV", "c.csv.").
DIRECTORY_NAMES = ["a.csv", "x.csv", "..csv", "-.csv", "m 1.csv", "\u00e9.csv", "z" * 40 + ".csv", "m" * 196 + ".csv"]
DIRECTORY_NAMES += [".csv", "b.CSV", "c.csv."]


def expected_directory_exit(entries) -> int:
    """The exit code of `risk --formula "F[0,1] p"` over a directory of
    ``entries`` (name, kind, bytes, shape), from the documented rules."""
    members = [(kind, shape) for name, kind, _, shape in entries if Path(name).suffix == ".csv"]
    if not members or any(kind in ("damaged", "dir") for kind, _ in members):
        return 1  # no members, a member refused by the grammar, or one that cannot be read
    shapes = {(2, 1) if kind == "good" else shape for kind, shape in members}
    if len(shapes) > 1:
        return 1  # members of unequal shapes
    ((length, dim),) = shapes
    return 1 if dim != 1 else 3 if length < 2 else 0  # p reads x1; F[0,1] needs 2 steps


def test_every_damaged_directory_runs_or_is_one_line(tmp_path, monkeypatch):
    # Files unreadable to the user cannot be made when tests run as root,
    # so a subdirectory named like a member stands for an unreadable one.
    monkeypatch.chdir(tmp_path)
    Path("p.json").write_text(json.dumps(PREDICATES))
    made = iter(range(10**6))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.tuples(st.sampled_from(DIRECTORY_NAMES), st.sampled_from(DIRECTORY_ENTRIES)), max_size=5, unique_by=lambda e: e[0]))
    def check(drawn):
        d = Path(f"d{next(made)}")
        d.mkdir()
        for name, (kind, data, _) in drawn:
            (d / name).mkdir() if kind == "dir" else (d / name).write_bytes(data)
        code, out, err = run_main(["risk", "--formula", "F[0,1] p", "--predicates", "p.json", "--ensemble", str(d)])
        assert code == expected_directory_exit([(name, *entry) for name, entry in drawn]), (drawn, err)
        if code == 0:
            assert err == "" and out != ""
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 160, err
            assert not re.match(r"error: \w+Error: ", err), err  # _fail's form of an internal error

    check()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def edit_after_read(monkeypatch, paths, replacement: bytes) -> list:
    """Hook ``stlrisk.trace._read``, the reader of every input file: each
    read of one of ``paths`` is recorded, and the file is rewritten with
    ``replacement`` right after it.  Opening one of them for reading through
    ``open`` fails the test.  Returns the list of paths read, in order."""
    paths = set(map(str, paths))
    reads = []
    real_read, real_open = trace._read, io.open

    def read_then_edit(path):
        data = real_read(path)
        if str(path) in paths:
            reads.append(str(path))
            with real_open(path, "wb") as out:
                out.write(replacement)
        return data

    def refuse_reads(file, mode="r", *args, **kwargs):
        if str(file) in paths and ("r" in mode or "+" in mode):
            raise AssertionError(f"{file} opened for reading outside stlrisk.trace._read")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(trace, "_read", read_then_edit)
    monkeypatch.setattr(builtins, "open", refuse_reads)
    monkeypatch.setattr(io, "open", refuse_reads)
    return reads


class TestCaseStudy:
    def test_small_run_writes_table_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["casestudy", "--seed", "5", "--n", "40", "--delta", "1e-2", "--betas", "0.8,0.9", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("trajectory,beta,")
        assert (out / "table.csv").read_text() == stdout
        table = json.loads((out / "table.json").read_text())
        assert len(table["rows"]) == 12
        manifest = json.loads((out / "manifest.json").read_text())
        # Each flag's value keeps its JSON type: an integer or a float.
        parameters = {key: manifest["parameters"][key] for key in ("seed", "n", "delta", "betas")}
        assert parameters == {"seed": 5, "n": 40, "delta": 0.01, "betas": [0.8, 0.9]}
        assert [type(v) for v in (*parameters.values(), *parameters["betas"])] == [int, int, float, list, float, float]
        assert manifest["outputs"] == {name: sha256((out / name).read_bytes()) for name in ("table.csv", "table.json")}

    def test_single_sample_prints_inf(self, tmp_path, capsys):
        code = main(["casestudy", "--seed", "1", "--n", "1", "--out", str(tmp_path / "o")])
        assert code == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert all(row.endswith(",inf") for row in rows)

    def test_identical_seeds_identical_digests(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert (
                main(["casestudy", "--seed", "9", "--n", "25", "--out", str(tmp_path / name)]) == 0
            )
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"]

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2, "n": 10, "betas": [0.9]}))
        assert main(["casestudy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_flags_override_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 50, "seed": 3}))
        out = tmp_path / "o"
        assert main(["casestudy", "--config", str(cfg), "--n", "7", "--betas", "0.5", "--out", str(out)]) == 0
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert (parameters["seed"], parameters["n"], parameters["betas"]) == (3, 7, [0.5])
        assert len((out / "table.csv").read_text().splitlines()) == 7
        assert capsys.readouterr().out == (out / "table.csv").read_text()

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ('{"n": 0}', ["--n", "7"], "error: n must be a positive integer, got 0\n"),
            ('{"betas": ["0.9"]}', ["--betas", "0.5"], "error: betas: expected real numbers, got ['0.9']\n"),
            ('{"n": 7}', ["--betas", ""], "error: --betas expects comma-separated numbers, got ''\n"),
            ('{"n": 7}', ["--delta", "nan"], "error: delta: values must be finite, got [nan]\n"),
        ],
        ids=["overridden-n", "overridden-betas", "empty-betas", "nan-delta"],
    )
    def test_file_and_flags_pass_one_validation(self, tmp_path, capsys, text, flags, message):
        # A file value a flag overrides is still checked, and a flag is
        # checked as the same key in the file would be.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["casestudy", "--config", str(cfg), *flags, "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o").exists()

    def test_config_sets_every_field(self, tmp_path, capsys):
        # Each CaseStudyConfig field is a config key: given a value other than
        # its default, the manifest's parameters give it back.
        data = {
            "seed": 3,
            "n": 5,
            "betas": [0.5, 0.6],
            "delta": 0.05,
            "trajectories": [[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]],
        }
        default = CaseStudyConfig()
        assert set(data) == set(CaseStudyConfig._fields)
        assert all(json.loads(json.dumps(getattr(default, key))) != value for key, value in data.items())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["casestudy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["parameters"] == data

    def test_default_is_not_a_trajectories_value(self, tmp_path, capsys):
        # Omitting the key gives the bundled trajectories; "default" is text.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trajectories": "default"}')
        assert main(["casestudy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err == "error: trajectories: expected a non-empty list, got 'default'\n"
        assert not (tmp_path / "o").exists()

    def test_bad_config_exits_5(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2, "n": 0}))
        assert main(["casestudy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"n": true, "betas": [0.9]}', "n"),
            ('{"n": 3, "trajectories": [[[1e400, 0], [1, 1], [2, 2], [3, 3]]]}', "trajectories"),
            ('{"betas": 0.9}', "betas"),
            ('{"betas": ["x"]}', "betas"),
            ('{"betas": ["0.9"]}', "betas"),
            ('{"delta": "0.01"}', "delta"),
            ('{"n": 3, "trajectories": [[["1", 0], [1, 1], [2, 2], [3, 3]]]}', "trajectories[0][0]"),
            ('{"n": 3, "trajectories": [[[0, 0, 0], [1, 1], [2, 2], [3, 3]]]}', "trajectories[0][0]"),
        ],
    )
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["casestudy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {key}")

    def test_integer_beyond_the_float_range_exits_5(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"delta": 1' + "0" * 400 + "}")
        assert main(["casestudy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: delta: values must be finite")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_5(self, tmp_path, seed, capsys):
        # Philox keys are 64-bit: 2**64 + 42 would run as seed 42, and -1 as
        # 2**64 - 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed, "n": 2}))
        for args in (["--seed", str(seed), "--n", "2"], ["--config", str(cfg)]):
            assert main(["casestudy", *args, "--out", str(tmp_path / "o")]) == 5
            err = capsys.readouterr().err
            assert err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n", [int("9" * 4000), 10**11, 10**7 + 1], ids=["4000-nines", "1e11", "cap-plus-1"])
    def test_n_above_its_cap_exits_5(self, tmp_path, n, capsys):
        # Uncapped, numpy refused the first shape (exit 1) or tried to
        # allocate terabytes.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n}))
        for args in (["--n", str(n)], ["--config", str(cfg)]):
            assert main(["casestudy", *args, "--out", str(tmp_path / "o")]) == 5
            assert capsys.readouterr().err == "error: n must be at most 10000000 realizations per trajectory\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_ends_of_its_range(self, tmp_path, seed, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed, "n": 2, "betas": [0.9]}))
        tables = []
        for name, args in (("a", ["--seed", str(seed), "--n", "2", "--betas", "0.9"]), ("b", ["--config", str(cfg)])):
            assert main(["casestudy", *args, "--out", str(tmp_path / name)]) == 0
            assert json.loads((tmp_path / name / "manifest.json").read_text())["parameters"]["seed"] == seed
            tables.append((tmp_path / name / "table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_config_read_once_and_digested_as_parsed(self, tmp_path, monkeypatch, capsys):
        # The config is rewritten as soon as it has been read, to one with
        # another seed.
        cfg = tmp_path / "cfg.json"
        original = json.dumps({"seed": 2, "n": 10, "betas": [0.9]}).encode()
        cfg.write_bytes(original)
        reads = edit_after_read(monkeypatch, [cfg], json.dumps({"seed": 3, "n": 10, "betas": [0.9]}).encode())
        out = tmp_path / "out"
        assert main(["casestudy", "--config", str(cfg), "--out", str(out)]) == 0
        monkeypatch.undo()
        manifest = json.loads((out / "manifest.json").read_text())
        assert reads == [str(cfg)]
        assert manifest["parameters"]["seed"] == 2
        assert manifest["inputs"] == {str(cfg): sha256(original)} != {str(cfg): sha256(cfg.read_bytes())}

    def test_missing_config_exits_5(self, tmp_path, capsys):
        assert main(["casestudy", "--config", str(tmp_path / "nope.json")]) == 5

    def test_default_run_matches_golden_digests(self, tmp_path, capsys):
        # Seed-42 defaults (N=6500, six trajectories).  A change to these
        # digests is a numerics change and needs a deliberate re-baseline.
        assert main(["casestudy", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == {
            "table.csv": "23ed0ed66bd8d96cbb5a3f001fcd1077348b710df08ff935252a7485952f7d0e",
            "table.json": "90689002809dc54438abacc5b4d571156e4984164af1798319fabc3e8e1b32f8",
        }


MODULES_WITH_ALL = ["formula", "parser", "predicates", "risk", "scenario", "semantics", "trace"]


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(stlrisk.__path__)])
def test_every_exported_name_resolves(name):
    """Each name in a module's ``__all__`` exists, so a star import cannot
    raise on a name left behind by a removal."""
    module = importlib.import_module(f"stlrisk.{name}")
    exported = getattr(module, "__all__", None)
    assert (exported is not None) == (name in MODULES_WITH_ALL)
    for attr in exported or ():
        assert hasattr(module, attr), f"stlrisk.{name}.__all__ names missing {attr!r}"
    exec(f"from stlrisk.{name} import *", {})


def test_package_exports_exactly_each_module_all():
    """``stlrisk`` holds ``__version__``, its submodules, every name of a
    module's ``__all__`` (the same object) and the 14 exception classes."""
    submodules = {m.name for m in pkgutil.iter_modules(stlrisk.__path__)}
    names = {n for n in dir(stlrisk) if n == "__version__" or not n.startswith("__")}
    exported = {"__version__"}
    for name in MODULES_WITH_ALL:
        module = importlib.import_module(f"stlrisk.{name}")
        exported.update(module.__all__)
        assert all(getattr(stlrisk, attr) is getattr(module, attr) for attr in module.__all__)
    errors = {n for n, v in vars(stlrisk.errors).items() if isinstance(v, type) and issubclass(v, Exception)}
    assert len(errors) == 14
    assert names - submodules == exported | errors
