"""stlrisk benchmark: one client, one operation at a time, closed loop.

    python3 perfbench/run.py --workload risk_dir --seed 1 --seconds 50 --trace 0

Run from the repository root.  The workload inputs are generated from
``--seed`` before any timing starts; every output is checked against a
reference computed here with numpy.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from spans
around each call into the library) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 31
IMPORT_REPEATS = 5
IMPORT_CODE = "import time\nt = time.perf_counter()\nimport stlrisk\nprint(time.perf_counter() - t)\n"

END_TO_END_UNITS = {"op_s": "s", "op_s_p90": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
PER_LAYER_UNITS = {
    "import.s": "s",
    "parser.parse.s": "s",
    "predicates.load.s": "s",
    "predicates.signed_distance.s": "s",
    "predicates.evals": "count",
    "trace.load_ensemble.s": "s",
    "trace.files": "count",
    "trace.bytes_read": "bytes",
    "trace.load_trace_csv.s": "s",
    "trace.ensemble_build.s": "s",
    "scenario.sample_ensemble.s": "s",
    "scenario.members": "count",
    "semantics.eval_robust_ensemble.s": "s",
    "semantics.member_evals": "count",
    "semantics.eval_robust.s": "s",
    "semantics.eval_boolean.s": "s",
    "risk.var_bounds.s": "s",
    "risk.samples": "count",
    "cli.main.s": "s",
    "cli.digest.s": "s",
    "cli.digest_bytes": "bytes",
    "tracing.off_s": "s",
    "tracing.overhead_s": "s",
}


def closed_loop(seconds: float, step) -> None:
    """Call ``step(k)`` for k = 0, 1, ... while the next call, estimated by
    the last one, still ends within ``seconds``; at least one call."""
    start = time.perf_counter()
    durations = []
    while not durations or time.perf_counter() - start + durations[-1] <= seconds:
        began = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - began)


def relative_costs(times: dict) -> list:
    """Each distinct operation's cost relative to the others: the median,
    over complete rounds (one timed call of every distinct operation in
    ``times``), of its time divided by the median time of its round.
    ``times`` maps (round, distinct operation) to seconds.  A slowdown that
    spans a round divides out."""
    rounds = defaultdict(dict)
    for (r, i), seconds in times.items():
        rounds[r][i] = seconds
    distinct = len({i for _, i in times})
    ratios = defaultdict(list)
    for row in rounds.values():
        if len(row) == distinct:
            mid = statistics.median(row.values())
            for i, seconds in row.items():
                ratios[i].append(seconds / mid)
    return [statistics.median(v) for v in ratios.values()]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"check failed on operation {self.attempted}: " + "; ".join(problems[:3]), file=sys.stderr)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }


def timed_run(workload, seconds: float) -> dict:
    from workloads import run_child

    # Fill the bytecode cache so no timed start compiles the package.
    run_child(["-c", "import stlrisk.cli"], workload.work, SRC)
    tally, times, setups = Tally(), {}, []
    start = time.perf_counter()

    def set_up():
        child = run_child(workload.setup_argv(), workload.work, SRC)
        if child.returncode != 0:
            raise RuntimeError(f"set-up exited {child.returncode}: {child.stderr.strip()[-300:]}")
        setups.append(child.seconds)

    def step(k):
        # Fresh starts are spread evenly over the run, between operations.
        if len(setups) < SETUP_REPEATS and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            set_up()
        try:
            op_seconds, problems = workload.op(k)
        except Exception as exc:  # an operation that raises counts as failed
            op_seconds, problems = None, [f"{type(exc).__name__}: {exc}"]
        tally.record(problems)
        # Only operations whose output passed the check are timed, so that
        # a fast failure never reads as a speed-up.
        if not problems:
            times[divmod(k, workload.distinct_ops)] = op_seconds

    closed_loop(seconds, step)
    while len(setups) < SETUP_REPEATS:
        set_up()
    per_op = defaultdict(list)
    for (_, i), t in times.items():
        per_op[i].append(t)
    relative = relative_costs(times)
    if not relative:
        raise RuntimeError("no round of operations passed every check")
    op_s = statistics.median(min(v) for v in per_op.values())
    metrics = {
        "op_s": op_s,
        # op_s scaled by the 90th percentile of the relative costs: the tail
        # over distinct operations, read where the machine's speed cancels.
        "op_s_p90": op_s * (statistics.quantiles(relative, n=10, method="inclusive")[-1]
                            if len(relative) > 1 else relative[0]),
        # The fastest fresh start, for the reason op_s takes each operation's
        # fastest repetition: interference from other tenants only adds time.
        "setup_s": min(setups),
        "peak_rss_mb": workload.peak_rss_mb(),
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }
    return tally.result(metrics, END_TO_END_UNITS)


def traced_run(workload, seconds: float, spans_path: Path) -> dict:
    from tracing import Tracer, per_op_medians
    from workloads import run_child

    tracer, untraced = Tracer(True), Tracer(False)
    for i in range(IMPORT_REPEATS):
        child = run_child(["-c", IMPORT_CODE], workload.work, SRC)
        if child.returncode != 0:
            raise RuntimeError(f"import exited {child.returncode}: {child.stderr.strip()[-300:]}")
        tracer.op = f"import-{i}"
        tracer.add("import", 0.0, float(child.stdout))
    tally = Tally()
    on, off = [], []
    # One untimed pass first, so lazy imports and the file cache do not land
    # on whichever side of the first pair runs first.
    tally.record(workload.pipeline(untraced, 0))

    def step(k):
        # Alternate which side runs first; each step runs the pipeline once
        # with spans and once without.
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            tracer.op = k
            began = time.perf_counter()
            if traced:
                with tracer.span("op"):
                    problems = workload.pipeline(tracer, k)
            else:
                problems = workload.pipeline(untraced, k)
            (on if traced else off).append(time.perf_counter() - began)
            tally.record(problems)

    closed_loop(seconds, step)
    tracer.write(spans_path)
    metrics = per_op_medians(tracer.spans)
    metrics["tracing.off_s"] = statistics.median(off)
    metrics["tracing.overhead_s"] = statistics.median(on) - statistics.median(off)
    missing = sorted(set(PER_LAYER_UNITS) - set(metrics))
    if missing:
        raise RuntimeError(f"traced run recorded no value for {', '.join(missing)}")
    return tally.result(metrics, PER_LAYER_UNITS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("casestudy", "risk_dir", "long_horizon"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stlrisk" / "__init__.py").is_file():
        print(f"error: no stlrisk package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed, SRC)
        if args.trace:
            result = traced_run(workload, args.seconds, scratch / f"spans-{args.workload}.json")
        else:
            result = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
