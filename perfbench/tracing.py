"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent, operation id, counts).  Spans stay in
memory during a run and are written out once it ends.  A layer's self time
is its span duration minus the part covered by its child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self.op = None

    @contextmanager
    def span(self, name: str, **counts):
        """Time the block as one span.  ``counts`` are work done inside it;
        the block may add more to the dict it receives."""
        if not self.enabled:
            yield {}
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": self.op, "counts": counts}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield counts
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, **counts) -> None:
        """Record a span measured elsewhere, such as in a child process."""
        if self.enabled:
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": None, "op": self.op, "counts": counts})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list) -> dict:
    """{(op, name): [self time per span]} over finished spans."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict = {}
    for s, child in zip(spans, covered):
        out.setdefault((s["op"], s["name"]), []).append(s["end"] - s["start"] - child)
    return out


def per_op_medians(spans: list) -> dict:
    """Median over operations of each layer's per-operation self time (key
    ``<name>.s``) and of each per-operation count (key ``<layer>.<count>``,
    the layer being the first part of the span name)."""
    per_op: dict = {}
    for (op, name), times in self_times(spans).items():
        per_op.setdefault(f"{name}.s", {})[op] = sum(times)
    for s in spans:
        for key, value in s["counts"].items():
            bucket = per_op.setdefault(f"{s['name'].split('.')[0]}.{key}", {})
            bucket[s["op"]] = bucket.get(s["op"], 0) + value
    return {key: statistics.median(by_op.values()) for key, by_op in per_op.items()}
