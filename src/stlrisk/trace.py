"""Finite discrete-time traces and i.i.d. ensembles, with CSV/JSON ingestion.

Trace CSV wire format: header ``t,x1,...,xn``, one row per step with
consecutive integer times starting at 0, UTF-8, LF or CRLF line endings.
An ensemble is either a directory of such CSVs (members ordered by file
name) or a JSON manifest ``{"traces": [paths...], "seed": ...}`` with paths
resolved relative to the manifest.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyError, FormatError, GapError, MismatchError

__all__ = ["Trace", "Ensemble", "load_trace_csv", "save_trace_csv", "member_files", "load_ensemble"]


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

    def state(self, t: int) -> np.ndarray:
        return self.states[t]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.states.shape == other.states.shape and bool(
            np.array_equal(self.states, other.states)
        )

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True, eq=False)
class Ensemble:
    """N traces of equal dimension and length, in a significant order.

    The order only matters for reproducibility of derived logs; every risk
    estimator downstream is permutation invariant.
    """

    traces: tuple
    metadata: Optional[Mapping] = field(default=None)

    def __post_init__(self):
        traces = tuple(self.traces)
        object.__setattr__(self, "traces", traces)
        if not traces:
            raise EmptyError("an ensemble needs at least one trace")
        dim, length = traces[0].dim, traces[0].length
        for i, tr in enumerate(traces):
            if tr.dim != dim or tr.length != length:
                raise MismatchError(
                    f"trace {i} has dim={tr.dim}, length={tr.length}; "
                    f"expected dim={dim}, length={length}"
                )

    @property
    def n(self) -> int:
        return len(self.traces)

    @property
    def dim(self) -> int:
        return self.traces[0].dim

    @property
    def length(self) -> int:
        return self.traces[0].length

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.traces)


_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_cell(row_no: int, name: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise FormatError(f"row {row_no}: non-numeric {name} cell {cell!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"row {row_no}: non-finite {name} value {cell!r}")
    return value


def load_trace_csv(path) -> Trace:
    """Read one trace from CSV, validating the schema strictly."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
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
            states[idx, j] = _parse_cell(idx, f"x{j + 1}", cell.strip())
    return Trace(states)


def save_trace_csv(trace: Trace, path) -> None:
    """Write a trace back to CSV; values survive a reload bit-exactly."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(trace.dim)])
        for t in range(trace.length):
            writer.writerow([str(t)] + [f"{v:.17g}" for v in trace.states[t]])


def member_files(directory: Path) -> list:
    """The trace CSVs of an ensemble directory, in member order (by file name)."""
    return sorted((p for p in directory.iterdir() if p.suffix == ".csv"), key=lambda p: p.name)


def load_ensemble(path) -> Ensemble:
    """Load an ensemble from a directory of CSVs or a JSON manifest."""
    path = Path(path)
    metadata: dict = {"source": str(path)}
    if path.is_dir():
        files = member_files(path)
        if not files:
            raise EmptyError(f"{path}: no trace CSVs in directory")
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not a valid JSON manifest: {exc}") from None
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
    traces = tuple(load_trace_csv(p) for p in files)
    return Ensemble(traces, metadata)
