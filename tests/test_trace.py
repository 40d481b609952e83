import csv
import io
import json
import math
import os
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from stlrisk import trace
from stlrisk.errors import EmptyError, FormatError, GapError, MismatchError
from stlrisk.risk import RobustnessSamples
from stlrisk.trace import Ensemble, Trace, load_ensemble, load_trace_csv, read_ensemble, save_trace_csv

from .helpers import load_ensemble_oracle, load_trace_csv_oracle


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTraceCsv:
    def test_basic(self, tmp_path):
        tr = load_trace_csv(write(tmp_path, "a.csv", "t,x1\n0,3\n1,1\n2,2\n"))
        assert tr.states.shape == (3, 1)
        assert np.array_equal(tr.states, [[3.0], [1.0], [2.0]])

    def test_gap_detected(self, tmp_path):
        with pytest.raises(GapError):
            load_trace_csv(write(tmp_path, "a.csv", "t,x1\n0,1\n2,5\n"))

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="int() has no digit limit")
    def test_time_cell_past_the_digit_limit_is_a_gap(self, tmp_path):
        t_cell = "1" * (sys.get_int_max_str_digits() + 1)
        path = write(tmp_path, "a.csv", f"t,x1\n0,1\n{t_cell},5\n")
        with pytest.raises(GapError, match=f"^{re.escape(str(path))}: expected t=1, got t={re.escape(trace.shortened(t_cell))} "):
            load_trace_csv(path)

    def test_zero_padded_time_cells_past_the_digit_limit_are_a_gap(self, tmp_path):
        # Of the right value, but not written str(i): quoted as written.
        zeros = "0" * 5000
        path = write(tmp_path, "a.csv", f"t,x1\n-{zeros},3\n+{zeros}1,1\n")
        quoted = re.escape(trace.shortened(repr(f"-{zeros}")))
        with pytest.raises(GapError, match=f"^{re.escape(str(path))}: expected t=0, got t={quoted} "):
            load_trace_csv(path)

    def test_time_cells_padded_with_zeros_of_another_script_are_a_gap(self, tmp_path):
        zeros = "\u0660" * 5000
        path = write(tmp_path, "a.csv", f"t,x1\n0,3\n{zeros}\u0661,1\n")
        quoted = re.escape(trace.shortened(repr(f"{zeros}\u0661")))
        with pytest.raises(GapError, match=f"^{re.escape(str(path))}: expected t=1, got t={quoted} "):
            load_trace_csv(path)

    @pytest.mark.parametrize("t_cell", ["-1", "-01", "10", "+2", "0" * 5000 + "2"])
    def test_time_cell_with_another_value_is_a_gap(self, tmp_path, t_cell):
        path = write(tmp_path, "a.csv", f"t,x1\n0,1\n{t_cell},5\n")
        with pytest.raises(GapError, match=f"^{re.escape(str(path))}: expected t=1, got t={re.escape(trace.shortened(t_cell))} "):
            load_trace_csv(path)

    def test_many_zeros_before_a_non_digit_fail_fast(self, tmp_path):
        # A pattern that splits the zeros between two quantifiers backtracks quadratically here.
        path = write(tmp_path, "a.csv", "t,x1\n" + "0" * 10**5 + "x,1\n")
        with pytest.raises(FormatError, match="is not an integer"):
            load_trace_csv(path)

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_trace_csv(write(tmp_path, "a.csv", "t,x1,x2\n0,1,NaN\n"))

    def test_inf_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_trace_csv(write(tmp_path, "a.csv", "t,x1\n0,inf\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(FormatError):
            load_trace_csv(write(tmp_path, "a.csv", "time,x1\n0,1\n"))
        with pytest.raises(FormatError):
            load_trace_csv(write(tmp_path, "a.csv", "t,x1,x3\n0,1,2\n"))

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(FormatError):
            load_trace_csv(write(tmp_path, "a.csv", "t,x1\n0,abc\n"))

    def test_errors_name_the_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "t,x1\n0,1\n1,inf\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: row 1: non-finite x1 value 'inf'$"):
            load_trace_csv(path)

    def test_undecodable_byte_named_with_its_offset(self, tmp_path):
        data = b"t,x1\n" + b"".join(b"%d,0.5\n" % i for i in range(3000)) + b"3000,\xff\n"
        path = tmp_path / "a.csv"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        assert offset > 8192  # past the first chunk a text file decodes
        with pytest.raises(FormatError) as info:
            load_trace_csv(path)
        assert str(info.value) == f"{path}: not UTF-8: byte 0xff at offset {offset}"

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyError):
            load_trace_csv(write(tmp_path, "a.csv", ""))
        with pytest.raises(EmptyError):
            load_trace_csv(write(tmp_path, "b.csv", "t,x1\n"))

    def test_crlf_accepted(self, tmp_path):
        tr = load_trace_csv(write(tmp_path, "a.csv", "t,x1\r\n0,1.5\r\n1,2.5\r\n"))
        assert len(tr.states) == 2

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_missing_final_line_break_accepted(self, tmp_path, line_end):
        tr = load_trace_csv(write(tmp_path, "a.csv", f"t,x1{line_end}0,1.5{line_end}1,2.5"))
        assert tr.states.tolist() == [[1.5], [2.5]]

    def test_underscore_in_a_value_is_refused(self, tmp_path):
        path = write(tmp_path, "a.csv", "t,x1\n0,1_000\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: row 0: x1 cell '1_000' holds whitespace, '_' or non-ASCII$"):
            load_trace_csv(path)

    def test_must_start_at_zero(self, tmp_path):
        with pytest.raises(GapError):
            load_trace_csv(write(tmp_path, "a.csv", "t,x1\n1,1\n2,2\n"))


class TestRoundTrip:
    def test_lossless_on_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-12, 12, size=(5, 3))
        values[0, 0] = 0.1
        values[1, 1] = -0.0
        values[2, 2] = 1e-300
        tr = Trace(values)
        path = tmp_path / "rt.csv"
        save_trace_csv(tr, path)
        again = load_trace_csv(path)
        assert again.states.shape == tr.states.shape and again.states.tobytes() == tr.states.tobytes()
        save_trace_csv(again, tmp_path / "rt2.csv")
        assert (tmp_path / "rt2.csv").read_bytes() == path.read_bytes()

    def test_bytes_are_a_csv_writers(self, tmp_path):
        # The bytes csv.writer wrote for the same rows (no cell of this
        # layout needs quoting), on edge values and on a random trace.
        rng = np.random.default_rng(12)
        edges = [[-0.0, 5e-324, -1e-310, 1.7976931348623157e308]]
        for values in (edges, rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-300, 300, size=(7, 3))):
            tr = Trace(values)
            path = tmp_path / "w.csv"
            save_trace_csv(tr, path)
            written = io.StringIO()
            writer = csv.writer(written, lineterminator="\n")
            writer.writerow(["t"] + [f"x{i + 1}" for i in range(tr.states.shape[1])])
            for t, state in enumerate(tr.states):
                writer.writerow([str(t)] + [f"{v:.17g}" for v in state])
            assert path.read_bytes() == written.getvalue().encode("utf-8")
            assert load_trace_csv(path).states.tobytes() == tr.states.tobytes()

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(8)
        for i in range(25):
            tr = Trace(rng.normal(scale=10.0 ** rng.integers(-6, 7), size=(4, 2)))
            path = tmp_path / f"r{i}.csv"
            save_trace_csv(tr, path)
            assert load_trace_csv(path).states.tobytes() == tr.states.tobytes()


class TestTraceInvariants:
    def test_rejects_nan_states(self):
        with pytest.raises(ValueError):
            Trace(np.array([[1.0, float("nan")]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trace(np.empty((0, 2)))

    def test_states_read_only(self):
        tr = Trace(np.ones((2, 2)))
        with pytest.raises(ValueError):
            tr.states[0, 0] = 5.0


# Each container's array and the attribute that holds it, with one valid
# source per container: all three go through trace.frozen_array.
CONTAINERS = {
    "trace": (Trace, "states", np.arange(6.0).reshape(3, 2)),
    "ensemble": (Ensemble.from_states, "states", np.arange(12.0).reshape(3, 2, 2)),
    "samples": (RobustnessSamples, "values", np.arange(4.0)),
}


class TestOneArrayValidator:
    @pytest.mark.parametrize("name", CONTAINERS)
    def test_refuses_empty_axis_wrong_rank_and_non_finite(self, name):
        build, _, source = CONTAINERS[name]
        bad = [source[..., :0], source[None], source[0]]
        for value in (math.nan, math.inf, -math.inf):
            entry = source.copy()
            entry.flat[-1] = value
            bad.append(entry)
        for values in bad:
            with pytest.raises(ValueError):
                build(values)

    @pytest.mark.parametrize("name", CONTAINERS)
    def test_holds_a_read_only_copy(self, name):
        build, attr, source = CONTAINERS[name]
        source = source.copy()
        held = getattr(build(source), attr)
        source.flat[0] = 99.0
        assert held.flat[0] == 0.0 and not held.flags.writeable and held.dtype == np.float64
        with pytest.raises(ValueError):
            held.flat[0] = 5.0

    def test_member_traces_are_the_rows_bit_for_bit(self):
        states = np.array([[[0.1, -0.0], [1e-310, 2.5]], [[-7.0, 1e300], [3.0, 0.3]]])
        e = Ensemble.from_states(states)
        for i, tr in enumerate(e.traces):
            assert tr.states.tobytes() == states[i].tobytes()
            assert not tr.states.flags.writeable and not np.shares_memory(tr.states, e.states)


class TestLoadEnsemble:
    def make_dir(self, tmp_path, lengths):
        for i, n_rows in enumerate(lengths):
            rows = "\n".join(f"{t},{t + i}" for t in range(n_rows))
            write(tmp_path, f"tr{i}.csv", f"t,x1\n{rows}\n")
        return tmp_path

    def test_directory(self, tmp_path):
        e = load_ensemble(self.make_dir(tmp_path, [3, 3, 3]))
        assert e.states.shape == (3, 3, 1)

    def test_directory_ordered_by_name(self, tmp_path):
        write(tmp_path, "b.csv", "t,x1\n0,2\n")
        write(tmp_path, "a.csv", "t,x1\n0,1\n")
        e = load_ensemble(tmp_path)
        assert e.states[:, 0, 0].tolist() == [1.0, 2.0]

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(MismatchError):
            load_ensemble(self.make_dir(tmp_path, [5, 6]))

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyError):
            load_ensemble(tmp_path)

    def test_manifest(self, tmp_path):
        self.make_dir(tmp_path, [4, 4])
        manifest = write(
            tmp_path, "ens.json", json.dumps({"traces": ["tr1.csv", "tr0.csv"], "seed": 99})
        )
        e = load_ensemble(manifest)
        assert len(e.states) == 2
        # manifest order wins over name order
        assert e.traces[0].states[0, 0] == 1.0

    def test_manifest_requires_traces_key(self, tmp_path):
        with pytest.raises(FormatError):
            load_ensemble(write(tmp_path, "ens.json", json.dumps({"seed": 1})))

    def test_ensemble_needs_a_trace(self):
        with pytest.raises(EmptyError):
            Ensemble(())


class TestEnsembleLayout:
    def test_states_stack_the_traces(self):
        traces = (Trace(np.array([[1.0, 2.0], [3.0, 4.0]])), Trace(np.array([[5.0, 6.0], [7.0, 8.0]])))
        e = Ensemble(traces)
        assert e.states.shape == (2, 2, 2)
        assert np.array_equal(e.states, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        assert [tr.states.tobytes() for tr in e.traces] == [tr.states.tobytes() for tr in traces]
        with pytest.raises(ValueError):
            e.states[0, 0, 0] = 9.0

    def test_from_states_copies_and_validates(self):
        source = np.arange(12.0).reshape(3, 2, 2)
        e = Ensemble.from_states(source)
        source[0, 0, 0] = 99.0
        assert e.states[0, 0, 0] == 0.0 and not e.states.flags.writeable
        assert [tr.states.tolist() for tr in e.traces] == np.arange(12.0).reshape(3, 2, 2).tolist()
        with pytest.raises(ValueError):
            Ensemble.from_states(np.ones((2, 2)))
        with pytest.raises(ValueError):
            Ensemble.from_states(np.ones((2, 0, 1)))
        with pytest.raises(ValueError):
            Ensemble.from_states(np.array([[[1.0]], [[np.nan]]]))
        with pytest.raises(EmptyError):
            Ensemble.from_states(np.ones((0, 2, 1)))

    def test_mismatch_reported_before_stacking(self):
        with pytest.raises(MismatchError, match="trace 1 has dim=2, length=1; expected dim=1, length=1"):
            Ensemble((Trace(np.ones((1, 1))), Trace(np.ones((1, 2)))))


# A plain member: the layout save_trace_csv writes.
PLAIN = "t,x1,x2\n0,0.5,-1\n1,2.25,1e-3\n2,-0,7\n"

INGEST_CASES = {
    "plain": [PLAIN, PLAIN.replace("0.5", "0.25")],
    "crlf": [PLAIN.replace("\n", "\r\n")] * 2,
    "crlf_and_lf": [PLAIN, PLAIN.replace("\n", "\r\n")],
    "lone_cr": [PLAIN, PLAIN.replace("\n", "\r")],
    "cr_before_crlf": [PLAIN, "t,x1,x2\n" + PLAIN[8:].replace("\n", "\r\r\n")],
    "final_lone_cr": [PLAIN, PLAIN.rstrip("\n") + "\r"],
    "quoted_cells": [PLAIN, 't,x1,x2\n0,"0.5",-1\n"1",2.25,"1e-3"\n2,-0,7\n'],
    "quoted_comma": [PLAIN, 't,x1,x2\n0,"0,5",-1\n1,2.25,1e-3\n2,-0,7\n'],
    "no_final_line_break": [PLAIN.rstrip("\n")] * 2,
    "blank_line_inside": [PLAIN, "t,x1,x2\n0,1,2\n\n1,2,3\n2,3,4\n"],
    "trailing_blank_line": [PLAIN, PLAIN + "\n"],
    "padded_cells": [PLAIN, "t, x1 ,x2\n 0 , 0.5 ,\t-1\n1,2.25 ,1e-3\n2,-0,7\n"],
    "unicode_space": [PLAIN, PLAIN.replace("2.25", " 2.25\x0c")],
    "signed_and_zero_padded_times": [PLAIN, "t,x1,x2\n+0,1,2\n01,2,3\n2,3,4\n"],
    "unicode_digit_time": [PLAIN, PLAIN.replace("\n1,", "\n١,")],
    "underscore_value": [PLAIN, "t,x1,x2\n0,1_0,2\n1,2,3\n2,3,4\n"],
    "underscore_time": [PLAIN, "t,x1,x2\n0,1,2\n1_0,2,3\n2,3,4\n"],
    "float_spellings": [PLAIN, "t,x1,x2\n0,.5,5.\n1,-.5e-3,1E5\n2,-0.0,+7\n"],
    "nan": [PLAIN, PLAIN.replace("2.25", "NaN")],
    "inf": [PLAIN, PLAIN.replace("2.25", "-inf")],
    "huge": [PLAIN, PLAIN.replace("2.25", "1e999")],
    "non_numeric": [PLAIN, PLAIN.replace("2.25", "abc")],
    "hex": [PLAIN, PLAIN.replace("2.25", "0x1p3")],
    "empty_cell": [PLAIN, PLAIN.replace("2.25", "")],
    "nul": [PLAIN, PLAIN.replace("2.25", "2.25\x00")],
    "gap": [PLAIN, "t,x1,x2\n0,1,2\n2,2,3\n3,3,4\n"],
    "start_at_one": [PLAIN, "t,x1,x2\n1,1,2\n2,2,3\n3,3,4\n"],
    "wrong_header": [PLAIN, PLAIN.replace("t,x1,x2", "t,x1,x3")],
    "time_header": [PLAIN.replace("t,x1,x2", "time,x1,x2")] * 2,
    "no_columns": ["t\n0\n1\n"] * 2,
    "bom": [PLAIN, "﻿" + PLAIN],
    "bad_utf8": [PLAIN, b"t,x1,x2\n0,1,\xff\n1,2,3\n2,3,4\n"],
    # A cut multi-byte character past the first 8192 bytes, which a text
    # file decodes in a later chunk.
    "bad_utf8_late": [PLAIN, b"t,x1,x2\n" + b"".join(b"%d,1,2\n" % i for i in range(2000)) + b"2000,\xe2\x82,0\n"],
    "short_row": [PLAIN, "t,x1,x2\n0,1\n1,2,3\n2,3,4\n"],
    "long_row": [PLAIN, "t,x1,x2\n0,1,2,3\n1,2,3\n2,3,4\n"],
    "rows_that_balance": [PLAIN, "t,x1,x2\n0,1,2,1\n3,4\n2,3,4\n"],
    "other_dim": [PLAIN, "t,x1\n0,1\n1,2\n2,3\n"],
    "length_mismatch": [PLAIN, PLAIN + "3,1,1\n"],
    "length_mismatch_then_bad_member": [PLAIN, PLAIN + "3,1,1\n", PLAIN.replace("2.25", "abc")],
    "empty_file": [PLAIN, ""],
    "header_only": [PLAIN, "t,x1,x2\n"],
    "single_member": [PLAIN],
    # Members drawn around one path: the same cell texts in many files.
    "repeated_cells": [
        "t,x1,x2,x3\n" + "".join(f"{t},{0.1 * t!r},{(i % 3) / 7!r},-2.5\n" for t in range(4)) for i in range(40)
    ],
    # Distinct texts of equal values: each keeps the bits of its own text.
    "equal_values_spelled_apart": ["t,x1,x2,x3\n0,0.001,1e-3,0\n1,-0,0.0,-0.0\n2,1E-3,0.0010,+0\n"] * 30,
    "repeated_nan": [PLAIN.replace("2.25", "nan")] * 30,
    # One member has a row too many and the next one too few.
    "rows_that_balance_across_members": [PLAIN, PLAIN + "t,x1,x2\n", PLAIN[8:]],
    "utf8_cut_across_members": [PLAIN.encode() + b"\xe2\x82", b"\xac" + PLAIN.encode()],
    # Joined, these would read as two plain members.
    "member_split_inside_a_line": ["t,x1,x2\n0,1,2\nt,", "x1,x2\n0,3,4\n"],
    "crlf_no_final_line_break": [PLAIN.replace("\n", "\r\n").rstrip("\r\n")] * 2,
    "some_final_line_breaks_missing": [PLAIN, PLAIN.rstrip("\n"), PLAIN],
    # A fault of spelling alone, then one of content or of shape.
    "spelling_then_content": [PLAIN.replace("0.5", "0.5 "), PLAIN.replace("2.25", "abc")],
    "spelling_then_mismatch": [PLAIN.replace("\n1,", "\n01,"), PLAIN + "3,1,1\n"],
}


def write_members(directory, members):
    directory.mkdir()
    for i, text in enumerate(members):
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (directory / f"m{i:02d}.csv").write_bytes(data)
    return directory


def outcome(load, path):
    """What loading gives: the states' shape and bits, or the exception's
    type and message."""
    try:
        states = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return states.shape, states.tobytes()


def loaded(path):
    return load_ensemble(path).states


class TestIngestMatchesOracle:
    @pytest.mark.parametrize("name", sorted(INGEST_CASES))
    def test_directory(self, tmp_path, name):
        d = write_members(tmp_path / "ens", INGEST_CASES[name])
        assert outcome(loaded, d) == outcome(load_ensemble_oracle, d)

    @pytest.mark.parametrize("name", sorted(INGEST_CASES))
    def test_manifest(self, tmp_path, name):
        d = write_members(tmp_path / "ens", INGEST_CASES[name])
        listing = write(tmp_path, "ens.json", json.dumps({"traces": [f"ens/{p.name}" for p in sorted(d.iterdir())][::-1]}))
        assert outcome(loaded, listing) == outcome(load_ensemble_oracle, listing)

    @pytest.mark.parametrize("name", sorted(INGEST_CASES))
    def test_single_trace(self, tmp_path, name):
        d = write_members(tmp_path / "ens", INGEST_CASES[name])
        for p in sorted(d.iterdir()):
            assert outcome(lambda path: load_trace_csv(path).states, p) == outcome(load_trace_csv_oracle, p)

    def test_expected_outcomes(self, tmp_path):
        d = write_members(tmp_path / "ens", INGEST_CASES["length_mismatch_then_bad_member"])
        with pytest.raises(FormatError, match="non-numeric x1 cell 'abc'"):
            load_ensemble(d)
        # No cell is unquoted: a quote is part of the cell that float() reads.
        d = write_members(tmp_path / "quoted", INGEST_CASES["quoted_cells"])
        with pytest.raises(FormatError, match=f"^{re.escape(str(d / 'm01.csv'))}: row 0: non-numeric x1 cell '\"0.5\"'$"):
            load_ensemble(d)
        # A content fault in a later member is reported before a spelling
        # fault in an earlier one, and so is a shape mismatch.
        d = write_members(tmp_path / "later", INGEST_CASES["spelling_then_content"])
        with pytest.raises(FormatError, match=f"^{re.escape(str(d / 'm01.csv'))}: row 1: non-numeric x1 cell 'abc'$"):
            load_ensemble(d)
        with pytest.raises(MismatchError):
            load_ensemble(write_members(tmp_path / "mismatch", INGEST_CASES["spelling_then_mismatch"]))

    @pytest.mark.parametrize(
        "manifest",
        [
            '{"traces": ["bad.csv", "missing.csv"]}',
            '{"traces": ["missing.csv", "bad.csv"]}',
            '{"traces": ["good.csv", "good.csv"], "seed": 3}',
            '{"traces": ["good.csv"],\r\n "seed": }',
            b'{"traces": ["\xff"]}',
            '["good.csv"]',
            '{"traces": "good.csv"}',
            '{"traces": []}',
            '{"traces": ["good.csv", 1]}',
            '{"traces": [null]}',
            '{"traces": [["good.csv"]]}',
            '{"traces": ["good.csv\\u0000"]}',
        ],
    )
    def test_manifest_errors(self, tmp_path, manifest):
        write(tmp_path, "good.csv", PLAIN)
        write(tmp_path, "bad.csv", PLAIN.replace("2.25", "abc"))
        listing = tmp_path / "ens.json"
        listing.write_bytes(manifest if isinstance(manifest, bytes) else manifest.encode("utf-8"))
        got = outcome(loaded, listing)
        assert got == outcome(load_ensemble_oracle, listing)
        assert got[0] not in (TypeError, ValueError)  # a bad entry is a format error, not a crash

    def test_random_edits(self, tmp_path):
        # Members of the plain layout with a few characters inserted,
        # deleted or replaced: accepted with the same bits, or refused with
        # the same error.
        rng = np.random.default_rng(9)
        alphabet = list(',"\r\n \t0123456789.eE+-_naif') + ["\r\n", "١", "\xa0"]
        accepted = 0
        for case in range(300):
            members = []
            for _ in range(3):
                text = "t,x1,x2\n" + "".join(
                    f"{t},{rng.normal():.17g},{rng.integers(-9, 9)}\n" for t in range(3)
                )
                for _ in range(int(rng.integers(0, 3))):
                    at = int(rng.integers(0, len(text) + 1))
                    cut = at + int(rng.integers(0, 2))
                    text = text[:at] + (alphabet[rng.integers(len(alphabet))] if rng.random() < 0.7 else "") + text[cut:]
                members.append(text)
            d = write_members(tmp_path / f"e{case}", members)
            got = outcome(loaded, d)
            assert got == outcome(load_ensemble_oracle, d), (case, members)
            accepted += not isinstance(got[0], type)
        assert 30 < accepted < 270  # both outcomes are exercised

    @pytest.mark.parametrize("subdirectory", [False, True])
    def test_listing(self, tmp_path, subdirectory):
        # Members are the entries whose Path.suffix is ".csv", as the oracle
        # lists them: "..csv" is one, a subdirectory "c.csv" is one too.
        d = write_members(tmp_path / "ens", [PLAIN, PLAIN.replace("0.5", "0.75")])
        for name in (".csv", "a.csv.", "b.CSV"):
            write(d, name, "not a trace")
        write(d, "..csv", PLAIN.replace("0.5", "0.125"))
        if subdirectory:
            (d / "c.csv").mkdir()
        assert outcome(loaded, d) == outcome(load_ensemble_oracle, d)
        if not subdirectory:
            assert load_ensemble(d).states[:, 0, 0].tolist() == [0.125, 0.5, 0.75]

    def test_repeated_cell_texts_are_converted_once(self, tmp_path, monkeypatch):
        # Fifty members with repeated cells: each distinct text is
        # converted once.
        members = [f"t,x1,x2\n0,{i % 5},0.5\n1,{i % 7}.25,-1\n" for i in range(50)]
        converted = []
        monkeypatch.setattr("stlrisk.trace.float", lambda text: converted.append(text) or float(text), raising=False)
        e = load_ensemble(write_members(tmp_path / "fifty", members))
        assert e.states.shape == (50, 2, 2)
        assert e.states[:, 1, 0].tolist() == [i % 7 + 0.25 for i in range(50)]
        assert sorted(converted) == sorted({c for m in members for row in m.split()[1:] for c in row.split(",")[1:]})


class TestReadEnsemble:
    def test_directory_sources_are_the_member_bytes(self, tmp_path):
        d = write_members(tmp_path / "ens", INGEST_CASES["plain"])
        e, sources = read_ensemble(d)
        assert sources == {str(p): p.read_bytes() for p in sorted(d.iterdir())}
        assert len(e.states) == 2

    def test_member_paths_are_path_slash_name(self, tmp_path, monkeypatch):
        d = write_members(tmp_path / "ens", INGEST_CASES["plain"])
        monkeypatch.chdir(d)
        for path in (".", "./", d, f"{d}//", tmp_path / "ens" / ".." / "ens"):
            sources = read_ensemble(path)[1]
            assert list(sources) == [str(Path(path) / f"m0{i}.csv") for i in range(2)]

    def test_manifest_sources_include_the_listing(self, tmp_path):
        d = write_members(tmp_path / "ens", INGEST_CASES["some_final_line_breaks_missing"])
        listing = write(tmp_path, "ens.json", json.dumps({"traces": ["ens/m01.csv", "ens/m00.csv"]}))
        e, sources = read_ensemble(listing)
        assert sources == {
            str(listing): listing.read_bytes(),
            str(d / "m01.csv"): (d / "m01.csv").read_bytes(),
            str(d / "m00.csv"): (d / "m00.csv").read_bytes(),
        }
        assert len(e.states) == 2


class TestRead:
    """``trace._read``, the reader of every input file: open, fstat, one read
    and close, with the errors of ``open``."""

    DATA = bytes(range(256)) * 400

    @pytest.mark.parametrize("reported", [0, 10, 70_000, 200_000])
    def test_size_changed_since_fstat(self, tmp_path, monkeypatch, reported):
        # fstat reporting another size stands for a file that grew or
        # shrank between fstat and read: the bytes at read time are returned.
        f = tmp_path / "f.csv"
        f.write_bytes(self.DATA)
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(real_fstat(fd)[:6] + (reported,) + real_fstat(fd)[7:]))
        assert trace._read(f) == self.DATA

    def test_short_reads_are_continued(self, tmp_path, monkeypatch):
        # A read may return fewer bytes than asked for and than the file
        # holds (one read stops below 2 GiB on Linux).
        f = tmp_path / "f.csv"
        f.write_bytes(self.DATA)
        real_read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: real_read(fd, min(n, 4096)))
        assert trace._read(f) == self.DATA

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_read_to_its_end(self, tmp_path):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        data = b"t,x1\n" + b"".join(b"%d,1\n" % i for i in range(30_000))
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            assert trace._read(fifo) == data
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_errors_as_open_gives_them(self, tmp_path):
        for path in (tmp_path, tmp_path / "missing.csv"):
            for form in (path, str(path)):
                with pytest.raises(OSError) as got:
                    trace._read(form)
                with pytest.raises(OSError) as expected:
                    open(form, "rb")
                assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
    @pytest.mark.parametrize("member", [None, "directory", "missing", "not_utf8"])
    def test_no_descriptor_left_open(self, tmp_path, member):
        d = write_members(tmp_path / "ens", INGEST_CASES["plain"])
        listed = sorted(p.name for p in d.iterdir())
        if member == "directory":
            (d / "m99.csv").mkdir()
        elif member == "not_utf8":
            (d / "m99.csv").write_bytes(b"t,x1,x2\n0,1,\xff\n")
        path = d
        if member == "missing":
            path = write(tmp_path, "ens.json", json.dumps({"traces": [f"ens/{n}" for n in listed] + ["ens/m99.csv"]}))
        before = len(os.listdir("/proc/self/fd"))
        if member is None:
            assert len(read_ensemble(path)[0].states) == 2
        else:
            with pytest.raises((OSError, FormatError), match="m99.csv"):
                read_ensemble(path)
        assert len(os.listdir("/proc/self/fd")) == before
