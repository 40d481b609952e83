"""Finite discrete-time traces and i.i.d. ensembles, with CSV/JSON ingestion.

Trace CSV wire format: header ``t,x1,...,xn``, one row per step with
consecutive integer times starting at 0, UTF-8, LF or CRLF line endings.
An ensemble is either a directory of such CSVs (members ordered by file
name) or a JSON manifest ``{"traces": [paths...], "seed": ...}`` with paths
resolved relative to the manifest.  In memory it is one read-only (N, T, d)
array, and a single trace is loaded as a one-member ensemble.  Loading
converts the members of the plain layout ``save_trace_csv`` writes in one
batch; any other member sends the whole ensemble through the strict per-file
reader (``csv.reader``, cell by cell), which decides acceptance and errors.

Every input file of the package, CSV or JSON, is read once by ``_read`` and
decoded by ``_decode``, which names a byte that is not UTF-8 by file and
offset; ``read_json`` also returns the bytes, for digests of what was parsed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyError, FormatError, GapError, MismatchError

__all__ = [
    "Trace",
    "Ensemble",
    "load_trace_csv",
    "save_trace_csv",
    "load_ensemble",
    "read_ensemble",
    "read_json",
]


@dataclass(frozen=True, eq=False)
class Trace:
    """A finite state sequence: row t of ``states`` is the state at time t."""

    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"states must be a 2-D array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"trace needs at least one step and one component, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("trace states must be finite (no NaN or inf)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "states", arr)

    @property
    def length(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.states.shape == other.states.shape and bool(
            np.array_equal(self.states, other.states)
        )

    def __len__(self) -> int:
        return self.length

    @classmethod
    def _view(cls, states: np.ndarray) -> "Trace":
        """A trace over a read-only array that is already checked, uncopied."""
        trace = cls.__new__(cls)
        object.__setattr__(trace, "states", states)
        return trace


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """N traces of equal dimension and length, in a significant order.

    ``states`` is one read-only (N, T, d) array: ``states[i]`` is member i's
    trace.  Build an ensemble from a sequence of ``Trace`` objects, or from an
    array with ``Ensemble.from_states``.  The order only matters for
    reproducibility of derived logs; every risk estimator downstream is
    permutation invariant.
    """

    states: np.ndarray
    metadata: Optional[Mapping] = None

    def __init__(self, traces: Sequence[Trace], metadata: Optional[Mapping] = None):
        traces = tuple(traces)
        if not traces:
            raise EmptyError("an ensemble needs at least one trace")
        dim, length = traces[0].dim, traces[0].length
        for i, tr in enumerate(traces):
            if tr.dim != dim or tr.length != length:
                raise MismatchError(
                    f"trace {i} has dim={tr.dim}, length={tr.length}; "
                    f"expected dim={dim}, length={length}"
                )
        self._freeze(np.stack([tr.states for tr in traces]), metadata)

    @classmethod
    def from_states(cls, states, metadata: Optional[Mapping] = None) -> "Ensemble":
        """An ensemble over a copy of an (N, T, d) array of finite states."""
        arr = np.array(states, dtype=float)
        if arr.ndim != 3 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError(f"states must be an (N, T, d) array with T, d >= 1, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise EmptyError("an ensemble needs at least one trace")
        if not np.isfinite(arr).all():
            raise ValueError("ensemble states must be finite (no NaN or inf)")
        ensemble = cls.__new__(cls)
        ensemble._freeze(arr, metadata)
        return ensemble

    def _freeze(self, states: np.ndarray, metadata: Optional[Mapping]) -> None:
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "metadata", metadata)

    @cached_property
    def traces(self) -> tuple:
        """The members as ``Trace`` objects over rows of ``states``, built on
        first use."""
        return tuple(Trace._view(s) for s in self.states)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def length(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.traces)


_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_cell(path: Path, row_no: int, name: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise FormatError(f"{path}: row {row_no}: non-numeric {name} cell {cell!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"{path}: row {row_no}: non-finite {name} value {cell!r}")
    return value


def _parse_trace(path: Path, data: bytes) -> Trace:
    """One trace from the bytes of a CSV file, validating the schema strictly."""
    # Split into lines as a file opened with newline="" is.
    rows = list(csv.reader(io.StringIO(_decode(path, data, FormatError), newline="")))
    if not rows:
        raise EmptyError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2 or header[0].strip() != "t":
        raise FormatError(f"{path}: header must be t,x1,...,xn, got {header!r}")
    dim = len(header) - 1
    for i, name in enumerate(header[1:], start=1):
        if name.strip() != f"x{i}":
            raise FormatError(f"{path}: header must be t,x1,...,xn, got {header!r}")
    data = rows[1:]
    if not data:
        raise EmptyError(f"{path}: no data rows")
    states = np.empty((len(data), dim), dtype=float)
    for idx, row in enumerate(data):
        if len(row) != dim + 1:
            raise FormatError(f"{path}: row {idx}: expected {dim + 1} cells, got {len(row)}")
        t_cell = row[0].strip()
        if not _INT_RE.match(t_cell):
            raise FormatError(f"{path}: row {idx}: time cell {t_cell!r} is not an integer")
        if int(t_cell) != idx:
            raise GapError(f"{path}: expected t={idx}, got t={t_cell} (times must be consecutive from 0)")
        for j, cell in enumerate(row[1:]):
            states[idx, j] = _parse_cell(path, idx, f"x{j + 1}", cell.strip())
    return Trace(states)


def _batch_states(contents: list) -> Optional[np.ndarray]:
    """The (N, T, d) states of N member CSVs in the plain layout, or None.

    Plain: UTF-8 without quotes or lone CRs, a header exactly ``t,x1,...,xd``
    and the same number of rows in every file, and rows ``i,v1,...,vd`` with
    the time i written as ``str(i)`` and finite float cells.  The value cells
    of all members go through one ``float`` map into one array.  Anything
    else, valid or not, gives None, and the caller reads each file with the
    strict per-file parser, which accepts the same files with the same bits
    and raises the same errors.
    """
    header = None
    cells = []
    for data in contents:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
        # Without quotes and lone CRs, csv.reader splits at exactly the
        # commas and line breaks.
        if '"' in text:
            return None
        if "\r" in text:
            text = text.replace("\r\n", "\n")
            if "\r" in text:
                return None
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()  # the line break that ends the last row
        if header is None:
            if len(lines) < 2:
                return None
            header = lines[0]
            dim = header.count(",")
            if dim < 1 or header != ",".join(["t"] + [f"x{j}" for j in range(1, dim + 1)]):
                return None
            starts = [f"{i}," for i in range(len(lines) - 1)]
        if len(lines) != len(starts) + 1 or lines[0] != header:
            return None
        for start, row in zip(starts, lines[1:]):
            if not row.startswith(start) or row.count(",") != dim:
                return None
            cells.append(row[len(start) :])
    try:
        flat = np.fromiter(map(float, chain.from_iterable(row.split(",") for row in cells)), dtype=float)
    except ValueError:
        return None
    states = flat.reshape(len(contents), len(starts), dim)
    return states if np.isfinite(states).all() else None


def _read(path) -> bytes:
    with open(path, "rb", buffering=0) as fh:  # unbuffered: one read of the whole file
        return fh.read()


def _decode(path, data: bytes, error: type) -> str:
    """The UTF-8 text of a file's bytes; ``error`` names the first byte that
    is not UTF-8 with its offset in the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}") from None


def read_json(path, error: type, what: str) -> tuple:
    """The value in a JSON file and the bytes it was parsed from, read once.

    Newlines are translated as text-mode ``open`` would, so syntax errors
    keep their positions; they raise ``error("<path>: <what>: ...")``.
    """
    data = _read(path)
    text = _decode(path, data, error).replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text), data
    except json.JSONDecodeError as exc:
        raise error(f"{path}: {what}: {exc}") from None


def _load_members(files: list, metadata: Optional[dict]) -> tuple:
    """The ensemble of the member CSVs ``files``, each read once, and the
    bytes read, by path text."""
    contents = []
    for p in files:
        try:
            contents.append(_read(p))
        except OSError:
            break  # raised again below, after the members before it are checked
    states = _batch_states(contents) if len(contents) == len(files) else None
    if states is not None:
        ensemble = Ensemble.from_states(states, metadata)
    else:
        # Member by member, as files are read: the first bad member raises
        # its own error, before a later member or the mismatch check does.
        traces = []
        for i, p in enumerate(files):
            if i == len(contents):
                contents.append(_read(p))
            traces.append(_parse_trace(p, contents[i]))
        ensemble = Ensemble(traces, metadata)
    return ensemble, dict(zip(map(str, files), contents))


def load_trace_csv(path) -> Trace:
    """Read one trace from CSV, as the one member of an ensemble is read."""
    return _load_members([Path(path)], None)[0].traces[0]


def save_trace_csv(trace: Trace, path) -> None:
    """Write a trace back to CSV; values survive a reload bit-exactly."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(trace.dim)])
        for t in range(trace.length):
            writer.writerow([str(t)] + [f"{v:.17g}" for v in trace.states[t]])


def read_ensemble(path) -> tuple:
    """The ensemble at ``path`` (a directory of CSVs or a JSON manifest) and
    the bytes of every file it was built from, keyed by the file's path as
    text: the manifest, if any, and each member, each read once."""
    path = Path(path)
    metadata: dict = {"source": str(path)}
    sources = {}
    if path.is_dir():
        files = sorted((p for p in path.iterdir() if p.suffix == ".csv"), key=lambda p: p.name)
        if not files:
            raise EmptyError(f"{path}: no trace CSVs in directory")
    else:
        manifest, sources[str(path)] = read_json(path, FormatError, "not a valid JSON manifest")
        if not isinstance(manifest, dict) or "traces" not in manifest:
            raise FormatError(f'{path}: manifest must be an object with a "traces" list')
        listed = manifest["traces"]
        if not isinstance(listed, list):
            raise FormatError(f'{path}: manifest "traces" must be a list of paths')
        if not listed:
            raise EmptyError(f"{path}: manifest lists no traces")
        files = [path.parent / p for p in listed]
        if "seed" in manifest:
            metadata["seed"] = manifest["seed"]
    ensemble, members = _load_members(files, metadata)
    sources.update(members)
    return ensemble, sources


def load_ensemble(path) -> Ensemble:
    """Load an ensemble from a directory of CSVs or a JSON manifest."""
    return read_ensemble(path)[0]
