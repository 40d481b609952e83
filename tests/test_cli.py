import builtins
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stlrisk
from stlrisk import cli, trace
from stlrisk.cli import main
from stlrisk.trace import Trace, save_trace_csv

PREDICATES = {
    "p": {"kind": "halfspace", "a": [1.0], "b": 0.0},
    "q": {"kind": "halfspace", "a": [1.0], "b": -5.0},
}


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


class TestRisk:
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
        def refuse(token):
            raise AssertionError(f"non-standard JSON constant {token}")

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
            payload = json.loads(text, parse_constant=refuse)
            assert 0 < payload["epsilon"] < float("inf")

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


class TestRiskManifest:
    def risk_out(self, workdir, ensemble, out):
        args = ["risk", "--formula", "p", "--predicates", str(workdir / "preds.json"),
                "--ensemble", str(ensemble), "--out", str(out)]
        assert main(args) == 0
        return json.loads((out / "manifest.json").read_text())

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
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
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
            (["--version"], "SystemExit(0)"),
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
            ["casestudy", "--seed", "5", "--n", "40", "--betas", "0.8,0.9", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("trajectory,beta,")
        assert (out / "table.csv").read_text() == stdout
        table = json.loads((out / "table.json").read_text())
        assert len(table["rows"]) == 12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 5
        assert set(manifest["outputs"]) == {"table.csv", "table.json"}

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
        ],
    )
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["casestudy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {key}")

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
