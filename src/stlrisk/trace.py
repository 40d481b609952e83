"""Finite discrete-time traces and i.i.d. ensembles, with CSV/JSON ingestion.

Trace CSV grammar: UTF-8, LF or CRLF line ends (the last may be missing),
the header exactly ``t,x1,...,xd``, and row i ``str(i)`` then d cells, each
ASCII with no whitespace or ``_``, that ``float`` reads as finite numbers;
``_batch_states`` alone decides it, for all members as one batch.  An
ensemble is a directory of such CSVs (ordered by file name) or a JSON
manifest ``{"traces": [paths...]}`` with paths relative to it (its other
keys, such as ``"seed"``, are not read).  In memory it is one read-only
(N, T, d) array, and a single trace is loaded as a one-member ensemble.
Every array a trace, an ensemble or a sample vector holds is a copy that
one validator, ``frozen_array``, made and checked: none is an uncopied view.

Every input file of the package, CSV or JSON, is read once by ``_read`` and
decoded by ``_decode``, which names a byte that is not UTF-8 by file and
offset; ``read_json`` also returns the bytes, for digests of what was parsed.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import stat
from functools import cached_property, lru_cache
from itertools import cycle, repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._record import Record
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


def frozen_array(values, ndim: int, what: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, the one check of every array a
    ``Trace``, ``Ensemble`` or ``RobustnessSamples`` holds: a ValueError naming
    ``what`` refuses a rank other than ``ndim``, an empty axis, a NaN or inf."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"{what} must be a {ndim}-D array with no empty axis, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite (no NaN or inf)")
    arr.flags.writeable = False
    return arr


def shortened(text: str) -> str:
    """``text`` as an error message quotes input: whole up to 60 characters,
    else its first 60 and its length, so that the message stays one short line."""
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} chars)"


class Trace(Record, eq=False):
    """A finite state sequence: row t of ``states``, a read-only (T, d)
    ``frozen_array`` copy of what it was built from, is the state at time t."""

    states: np.ndarray

    def __post_init__(self):
        vars(self)["states"] = frozen_array(self.states, 2, "trace states")


class Ensemble(Record, eq=False):
    """N traces of equal dimension and length, in a significant order.

    ``states`` is one read-only (N, T, d) array: ``states[i]`` is member i's
    trace.  Build an ensemble from a sequence of ``Trace`` objects, or from an
    array with ``Ensemble.from_states``; either way ``states`` is a
    ``frozen_array`` copy, never a view of the caller's data.  The order only
    matters for reproducibility of derived logs; every risk estimator
    downstream is permutation invariant.
    """

    states: np.ndarray

    def __init__(self, traces: Sequence[Trace]):
        traces = tuple(traces)
        if not traces:
            raise EmptyError("an ensemble needs at least one trace")
        _check_shapes([tr.states.shape for tr in traces])
        vars(self)["states"] = frozen_array([tr.states for tr in traces], 3, "ensemble states")

    @classmethod
    def from_states(cls, states) -> "Ensemble":
        """An ensemble over a ``frozen_array`` copy of an (N, T, d) array;
        an EmptyError if N = 0."""
        if np.ndim(states) == 3 and len(states) == 0:
            raise EmptyError("an ensemble needs at least one trace")
        ensemble = cls.__new__(cls)
        vars(ensemble)["states"] = frozen_array(states, 3, "ensemble states")
        return ensemble

    @cached_property
    def traces(self) -> tuple:
        """The members as ``Trace`` objects, copies of rows of ``states``,
        built on first use."""
        return tuple(map(Trace, self.states))


def _check_shapes(shapes: list) -> None:
    """A MismatchError naming the first (T, d) member shape unlike the first's."""
    length, dim = shapes[0]
    for i, (t, d) in enumerate(shapes):
        if (t, d) != (length, dim):
            raise MismatchError(f"trace {i} has dim={d}, length={t}; expected dim={dim}, length={length}")


_INT_RE = re.compile(r"^[+-]?\d+$")
_BLOCK = 1024  # cells that _values splits at a time
# What float() reads but the grammar refuses: "_" and the ASCII whitespace it skips.
_REFUSED = ("_", " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _batch_states(contents: list) -> Optional[np.ndarray]:
    """The (N, T, d) states of N member CSVs, or None if any breaks the
    grammar or their shapes differ: whole-list checks over the lines of
    their joined text, and one ``float`` call per distinct repeated text."""
    n = len(contents)
    # With every member ending in a line break, no character, CRLF or line
    # of the joined text spans two members, and member k is lines
    # k * (T + 1) to (k + 1) * (T + 1) - 1.
    if not all(map(bytes.endswith, contents, repeat(b"\n"))):
        if any(map(bytes.endswith, contents, repeat(b"\r"))):
            return None  # a final lone CR, which a line break after it would make a CRLF
        contents = [data if data.endswith(b"\n") else data + b"\n" for data in contents]
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
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if not text.isascii() or any(map(text.__contains__, _REFUSED)):
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


def _diagnose(path, data: bytes) -> tuple:
    """(shape, fault) of a member CSV: its (T, d) and, if ``_batch_states``
    refuses it, its first fault of spelling alone (whitespace, ``_`` or
    non-ASCII in an entry, a time of the right value not written ``str(i)``).
    Its first fault of content is raised instead, so that spelling is
    reported only after every member's content and shape."""
    states = _batch_states([data])
    if states is not None:
        return states.shape[1:], None
    text = _decode(path, data, FormatError)
    if not text:
        raise EmptyError(f"{path}: empty file")
    lines = text.replace("\r\n", "\n").removesuffix("\n").split("\n")
    rows = [line.split(",") if line else [] for line in lines]  # a blank line has no cells
    header, fault = rows[0], None
    names = ["t"] + [f"x{j}" for j in range(1, len(header))]
    if len(header) < 2 or header != names:
        fault = FormatError(f"{path}: header must be t,x1,...,xn, got {shortened(repr(header))}")
        if len(header) < 2 or [name.strip() for name in header] != names:
            raise fault
    dim = len(header) - 1
    if len(rows) == 1:
        raise EmptyError(f"{path}: no data rows")
    for i, cells in enumerate(rows[1:]):
        if len(cells) != dim + 1:
            raise FormatError(f"{path}: row {i}: expected {dim + 1} cells, got {len(cells)}")
        if cells[0] != str(i):
            time = cells[0].strip()
            if not _INT_RE.match(time):
                raise FormatError(f"{path}: row {i}: time cell {shortened(repr(time))} is not an integer")
            # float() reads digits of any script with no digit limit, where int() would
            # refuse a long cell even if mostly zeros; it is exact for every row index.
            if float(time) != i:
                raise GapError(f"{path}: expected t={i}, got t={shortened(time)} (times must be consecutive from 0)")
            fault = fault or GapError(f"{path}: expected t={i}, got t={shortened(repr(cells[0]))} (times are written 0, 1, ...)")
        for j, cell in enumerate(cells[1:], start=1):
            number = cell.strip()
            try:
                value = float(number)
            except ValueError:
                raise FormatError(f"{path}: row {i}: non-numeric x{j} cell {shortened(repr(number))}") from None
            if not math.isfinite(value):
                raise FormatError(f"{path}: row {i}: non-finite x{j} value {shortened(repr(number))}")
            if number != cell or "_" in number or not number.isascii():
                fault = fault or FormatError(f"{path}: row {i}: x{j} cell {shortened(repr(cell))} holds whitespace, '_' or non-ASCII")
    return (len(rows) - 1, dim), fault


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
    keep their positions.  Every decode failure raises ``error("<path>:
    <what>: ...")``: a syntax error, an integer literal past ``int()``'s
    digit limit (a ValueError) or nesting past the recursion limit.  It ends
    before a ``;``, which no syntax error has: the digit-limit error's advice
    after one ran the line past 160 characters.
    """
    data = _read(path)
    text = _decode(path, data, error).replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text), data
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {what}: {str(exc).partition(';')[0]}") from None


def _member(path) -> str:
    """A member's path as trace errors name it, its file name cut short."""
    head, name = os.path.split(path)
    return os.path.join(head, shortened(name))


def _load_members(files: list) -> tuple:
    """The ensemble of the member CSVs ``files``, each read once, and the
    bytes read, by path text."""
    contents = []
    for p in files:
        try:
            contents.append(_read(p))
        except OSError:
            break  # raised again below, after the members before it are checked
    states = _batch_states(contents) if len(contents) == len(files) else None
    if states is None:
        # Member by member, as files are read: the first bad member raises
        # its own error, before a later member or the mismatch check does.
        diagnosed = []
        for i, p in enumerate(files):
            if i == len(contents):
                contents.append(_read(p))
            diagnosed.append(_diagnose(_member(p), contents[i]))
        shapes, faults = zip(*diagnosed)
        _check_shapes(shapes)
        raise next(filter(None, faults), FormatError(f"{_member(files[0])}: ensemble refused by the trace grammar"))
    return Ensemble.from_states(states), dict(zip(map(str, files), contents))


def load_trace_csv(path) -> Trace:
    """Read one trace from CSV, as the one member of an ensemble is read."""
    return _load_members([Path(path)])[0].traces[0]


def save_trace_csv(trace: Trace, path) -> None:
    """Write a trace back to CSV; values survive a reload bit-exactly."""
    lines = [",".join(["t"] + [f"x{j}" for j in range(1, trace.states.shape[1] + 1)])]
    lines += [",".join([str(t)] + [f"{v:.17g}" for v in state]) for t, state in enumerate(trace.states.tolist())]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_ensemble(path) -> tuple:
    """The ensemble at ``path`` (a directory of CSVs or a JSON manifest) and
    the bytes of every file it was built from, keyed by the file's path as
    text: the manifest, if any, and each member, each read once."""
    path = Path(path)
    sources = {}
    if path.is_dir():
        # The entries whose Path.suffix is ".csv", by name, each as the text
        # of ``path / name``.
        prefix = str(path / "_")[:-1]
        files = [prefix + name for name in sorted(os.listdir(path)) if len(name) > 4 and name.endswith(".csv")]
        if not files:
            raise EmptyError(f"{path}: no trace CSVs in directory")
    else:
        manifest, sources[str(path)] = read_json(path, FormatError, "not a valid JSON manifest")
        if not isinstance(manifest, dict) or "traces" not in manifest:
            raise FormatError(f'{path}: manifest must be an object with a "traces" list')
        listed = manifest["traces"]
        if not isinstance(listed, list) or not all(isinstance(p, str) and "\0" not in p for p in listed):
            raise FormatError(f'{path}: manifest "traces" must be a list of paths')
        if not listed:
            raise EmptyError(f"{path}: manifest lists no traces")
        files = [path.parent / p for p in listed]
    ensemble, members = _load_members(files)
    sources.update(members)
    return ensemble, sources


def load_ensemble(path) -> Ensemble:
    """Load an ensemble from a directory of CSVs or a JSON manifest."""
    return read_ensemble(path)[0]
