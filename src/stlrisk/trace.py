"""Finite discrete-time traces and i.i.d. ensembles, with CSV/JSON ingestion.

Trace CSV wire format: header ``t,x1,...,xn``, one row per step with
consecutive integer times starting at 0, UTF-8, LF or CRLF line endings.
An ensemble is either a directory of such CSVs (members ordered by file
name) or a JSON manifest ``{"traces": [paths...], "seed": ...}`` with paths
resolved relative to the manifest.  In memory it is one read-only (N, T, d)
array, and a single trace is loaded as a one-member ensemble.  Members of
the plain layout ``save_trace_csv`` writes are checked and converted as one
batch: one decode of their joined bytes, whole-list layout checks over all
members, and, when cell texts repeat, one ``float`` call per distinct text.
Any other member sends the whole ensemble through the strict per-file reader
(``csv.reader``, cell by cell), which decides acceptance and errors.

Every input file of the package, CSV or JSON, is read once by ``_read`` and
decoded by ``_decode``, which names a byte that is not UTF-8 by file and
offset; ``read_json`` also returns the bytes, for digests of what was parsed.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import re
import stat
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import cycle, repeat
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
_BLOCK = 1024  # cells that _values splits at a time


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

    Plain: UTF-8 without quotes or lone CRs, every file ending with a line
    break, a header exactly ``t,x1,...,xd`` and the same number of rows in
    every file, and rows ``i,v1,...,vd`` with the time i written as
    ``str(i)`` and finite float cells.  All members are checked together,
    by whole-list operations over the lines of their joined text, and a cell
    text that repeats goes through ``float`` once.  Anything else, valid or
    not, gives None, and the caller reads each file with the strict per-file
    parser, which accepts the same files with the same bits and raises the
    same errors.
    """
    n = len(contents)
    # With every member ending in a line break, no character, CRLF or line
    # of the joined text spans two members, and member k is lines
    # k * (T + 1) to (k + 1) * (T + 1) - 1.
    if not all(map(bytes.endswith, contents, repeat(b"\n"))):
        return None
    breaks = set(map(bytes.count, contents, repeat(b"\n")))
    if len(breaks) != 1:
        return None
    length = breaks.pop() - 1
    if length < 1:
        return None
    try:
        text = b"".join(contents).decode("utf-8")
    except UnicodeDecodeError:
        return None
    # Without quotes and lone CRs, csv.reader splits at exactly the commas
    # and line breaks.
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    rows = text.split("\n")
    rows.pop()  # after the line break that ends the last row
    header = rows[0]
    dim = header.count(",")
    if dim < 1 or header != ",".join(["t"] + [f"x{j}" for j in range(1, dim + 1)]):
        return None
    if rows[:: length + 1] != [header] * n:
        return None
    del rows[:: length + 1]
    if set(map(str.count, rows, repeat(","))) != {dim}:
        return None
    if not all(map(str.startswith, rows, cycle([f"{i}," for i in range(length)]))):
        return None
    try:
        flat = _values(rows, dim)
    except ValueError:
        return None
    return flat.reshape(n, length, dim) if np.isfinite(flat).all() else None


def _values(rows: list, dim: int) -> np.ndarray:
    """The value cells of rows ``t,v1,...,vd``, through ``float``, in one
    flat array.  Rows are split a block at a time, so that only one block's
    cell strings are alive at a time.  When the first block's texts repeat
    (as those of members drawn around one path do), ``float`` runs once per
    distinct text."""
    flat = np.empty(len(rows) * dim)
    step = max(1, _BLOCK // (dim + 1))
    convert = None
    for start in range(0, len(rows), step):
        cells = ",".join(rows[start : start + step]).split(",")
        del cells[:: dim + 1]  # the time cells
        if convert is None:
            convert = float if 2 * len(set(cells)) > len(cells) else lru_cache(maxsize=None)(float)
        flat[start * dim : start * dim + len(cells)] = np.fromiter(map(convert, cells), np.float64, len(cells))
    return flat


def _read(path) -> bytes:
    """A file's bytes, in four system calls, with the errors ``open`` gives."""
    path = os.fspath(path)
    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    try:
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        chunks = [os.read(fd, st.st_size + 1)]
        if len(chunks[0]) != st.st_size:  # it changed size, has none (a FIFO) or the read stopped short
            while chunks[-1]:
                chunks.append(os.read(fd, 1 << 16))
        return b"".join(chunks)
    finally:
        os.close(fd)


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
        ensemble = Ensemble.__new__(Ensemble)
        ensemble._freeze(states, metadata)  # new and checked finite: no copy
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
        # The entries whose Path.suffix is ".csv", by name, each as the text
        # of ``path / name``.
        prefix = str(path / "_")[:-1]
        with os.scandir(path) as entries:
            names = sorted(e.name for e in entries if len(e.name) > 4 and e.name.endswith(".csv"))
        files = [prefix + name for name in names]
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
