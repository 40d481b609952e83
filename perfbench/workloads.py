"""The benchmark workloads: inputs from a seed, one timed operation,
its output check, and the traced in-process pipeline.

``op`` is what the end-to-end metrics time.  ``pipeline`` is the same work
split into public calls, each inside a span named after its layer.  Layers
that a workload's operation does not reach are still called once per
traced operation on that workload's own small inputs (marked "probe"), so
that every traced run reports every per-layer metric; README.md lists
which layers move which end-to-end metric on which workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as R
from stlrisk import (
    CaseStudyConfig,
    Ensemble,
    RobustnessSamples,
    Trace,
    eval_boolean,
    eval_robust,
    eval_robust_ensemble,
    load_ensemble,
    load_predicates,
    load_trace_csv,
    nominal_trace,
    parse,
    sample_ensemble,
    save_trace_csv,
    signed_distance,
    var_bounds,
)
from stlrisk.cli import main as cli_main
from stlrisk.scenario import DEFAULT_TRAJECTORIES

CASE_N = 6500
GOLDEN_SEED = 42
GOLDEN_TABLE_CSV = "23ed0ed66bd8d96cbb5a3f001fcd1077348b710df08ff935252a7485952f7d0e"
RISK_TRAJECTORY = 1  # trajectory 2, 0-based
RISK_DIRS, RISK_N = 10, 325  # 3250 members in all
RISK_BETA, RISK_DELTA = 0.9, 0.05  # the `risk` command's defaults
LONG_T = 10_000
LONG_ANCHORS = 16


@dataclass
class Child:
    seconds: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: list, cwd: Path, src: Path) -> Child:
    """Run a fresh interpreter with ``src`` on PYTHONPATH; wall time and peak
    RSS from its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, usage.ru_maxrss / 1024, proc.returncode,
                 out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def run_cli_in_process(argv: list) -> tuple:
    """``stlrisk.cli.main`` in this process: (exit code, captured stdout)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli_main(argv)
    return code, captured.getvalue()


def signed_distance_pass(preds: dict, members: list, reach) -> int:
    """One public ``signed_distance`` call per (member, step, predicate)
    triple that the formula reaches; returns the number of calls."""
    pairs = [(preds[name], step) for name, steps in reach for step in steps]
    for rows in members:
        for p, step in pairs:
            signed_distance(p, rows[step])
    return len(members) * len(pairs)


def verify_manifest(outdir: Path, base: Path) -> tuple:
    """Re-hash every file a manifest lists: (problems, bytes hashed)."""
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    problems, total = [], 0
    for section, root in (("inputs", base), ("outputs", outdir)):
        for name, digest in manifest[section].items():
            data = (root / name).read_bytes()
            total += len(data)
            if hashlib.sha256(data).hexdigest() != digest:
                problems.append(f"manifest digest of {name} does not match the file")
    return problems, total


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


class Workload:
    name = ""
    setup_code = ""  # run by a fresh interpreter in the work directory
    distinct_ops = 1  # operation k repeats operation k % distinct_ops

    def __init__(self, work: Path, seed: int, src: Path):
        self.work, self.seed, self.src = work, seed, src

    def setup_argv(self) -> list:
        return ["-c", "import stlrisk\n" + self.setup_code, str(self.seed)]

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that runs the operations: this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CaseStudy(Workload):
    """`stlrisk casestudy --seed S` at the defaults, one CLI process per op."""

    name = "casestudy"
    setup_code = (
        "import sys\n"
        "from stlrisk.scenario import CaseStudyConfig, build_case_study_formula\n"
        "CaseStudyConfig(seed=int(sys.argv[1]))\n"
        "build_case_study_formula()\n"
    )

    def __init__(self, work, seed, src):
        super().__init__(work, seed, src)
        self.child_rss: list = []
        self.states = [R.case_states(seed, j, CASE_N, w) for j, w in enumerate(DEFAULT_TRAJECTORIES)]
        self.costs = [-R.delivery_margins(s) for s in self.states]
        self.rows = [(j + 1, b) + R.var_triple(c, b, R.CASE_DELTA)
                     for j, c in enumerate(self.costs) for b in R.CASE_BETAS]
        # Probe inputs: the predicate table and the six nominal trajectories.
        write_json(work / "preds.json", R.CASE_PREDICATES)
        (work / "nominal").mkdir()
        self.nominal = [nominal_trace(w) for w in DEFAULT_TRAJECTORIES]
        for j, trace in enumerate(self.nominal):
            save_trace_csv(trace, work / "nominal" / f"traj{j + 1}.csv")
        self.nominal_margins = R.delivery_margins(np.stack([t.states for t in self.nominal]))

    def check_table(self, csv_text: str) -> list:
        problems = R.check_case_table(csv_text, self.rows)
        if self.seed == GOLDEN_SEED and hashlib.sha256(csv_text.encode()).hexdigest() != GOLDEN_TABLE_CSV:
            problems.append("table.csv digest differs from the pinned seed-42 digest")
        return problems

    def op(self, k: int) -> tuple:
        child = run_child(["-m", "stlrisk.cli", "casestudy", "--seed", str(self.seed), "--out", "out"],
                          self.work, self.src)
        self.child_rss.append(child.peak_rss_mb)
        if child.returncode != 0:
            return child.seconds, [f"casestudy exited {child.returncode}: {child.stderr.strip()[-300:]}"]
        return child.seconds, self.check_table((self.work / "out" / "table.csv").read_text(encoding="utf-8"))

    def peak_rss_mb(self) -> float:
        """Median over operations of the CLI processes' peak RSS."""
        return statistics.median(self.child_rss)

    def pipeline(self, tracer, k: int) -> list:
        problems = []
        with tracer.span("parser.parse"):
            f = parse(R.CASE_FORMULA)
        with tracer.span("predicates.load"):
            preds = load_predicates(self.work / "preds.json")
        # Probes: CSV ingest and single-trace semantics on the nominal trajectories.
        files = sorted((self.work / "nominal").iterdir())
        with tracer.span("trace.load_ensemble", files=len(files), bytes_read=sum(p.stat().st_size for p in files)):
            nominal = load_ensemble(self.work / "nominal")
        with tracer.span("trace.load_trace_csv"):
            load_trace_csv(files[0])
        with tracer.span("semantics.eval_robust"):
            margins = [eval_robust(f, tr, 0, preds) for tr in nominal]
        with tracer.span("semantics.eval_boolean"):
            sat = [eval_boolean(f, tr, 0, preds) for tr in nominal]
        problems += R.check_costs(margins, self.nominal_margins)
        if sat != [m >= 0 for m in self.nominal_margins]:
            problems.append(f"nominal Boolean results {sat} disagree with the reference margins")
        config = CaseStudyConfig(seed=self.seed)
        for j, states in enumerate(self.states):
            with tracer.span("scenario.sample_ensemble", members=CASE_N):
                ensemble = sample_ensemble(config, j)
            with tracer.span("trace.ensemble_build"):
                Ensemble(tuple(Trace(s) for s in states))
            members = states.tolist()
            with tracer.span("predicates.signed_distance") as counts:
                counts["evals"] = signed_distance_pass(preds, members, R.CASE_REACH)
            with tracer.span("semantics.eval_robust_ensemble", member_evals=CASE_N):
                costs = eval_robust_ensemble(f, ensemble, 0, preds)
            problems += R.check_costs(costs, self.costs[j])
            z = RobustnessSamples(costs)
            for beta in R.CASE_BETAS:
                with tracer.span("risk.var_bounds", samples=CASE_N):
                    triple = var_bounds(z, beta, R.CASE_DELTA)
                want = self.rows[j * len(R.CASE_BETAS) + R.CASE_BETAS.index(beta)][2:]
                problems += R.check_triple((triple.lower, triple.point, triple.upper), want)
        out = self.work / "pipeline-out"
        with tracer.span("cli.main"):
            code, stdout = run_cli_in_process(["casestudy", "--seed", str(self.seed), "--out", str(out)])
        problems += [f"casestudy exited {code}"] if code else self.check_table(stdout)
        with tracer.span("cli.digest") as counts:
            found, counts["digest_bytes"] = verify_manifest(out, self.work)
        return problems + found


class RiskDir(Workload):
    """`stlrisk risk --measure var --out` through ``stlrisk.cli.main`` in
    this process, over one directory of trace CSVs per operation."""

    name = "risk_dir"
    distinct_ops = RISK_DIRS
    setup_code = (
        f"stlrisk.parse({R.CASE_FORMULA!r})\n"
        "stlrisk.load_predicates('preds.json')\n"
    )

    def __init__(self, work, seed, src):
        super().__init__(work, seed, src)
        # A trajectory-2 ensemble of RISK_DIRS * RISK_N members, split by
        # member index into RISK_DIRS directories of RISK_N CSVs each.
        self.states = R.case_states(seed, RISK_TRAJECTORY, RISK_DIRS * RISK_N, DEFAULT_TRAJECTORIES[RISK_TRAJECTORY])
        self.costs = -R.delivery_margins(self.states).reshape(RISK_DIRS, RISK_N)
        self.expected = [R.var_triple(c, RISK_BETA, RISK_DELTA) for c in self.costs]
        write_json(work / "preds.json", R.CASE_PREDICATES)
        self.preds_digest = R.sha256_file(work / "preds.json")
        self.dirs, self.member_digests, self.moves = [], [], 0
        for d in range(RISK_DIRS):
            ens = work / "ens" / f"d{d:02d}"
            ens.mkdir(parents=True)
            for i in range(d * RISK_N, (d + 1) * RISK_N):
                save_trace_csv(Trace(self.states[i]), ens / f"m{i:05d}.csv")
            self.dirs.append(ens)
            self.member_digests.append({p.name: R.sha256_file(p) for p in ens.iterdir()})
        self.ens_bytes = [sum(p.stat().st_size for p in self.ens(d).iterdir()) for d in range(RISK_DIRS)]

    def ens(self, d: int) -> Path:
        return self.dirs[d]

    def move(self, d: int) -> None:
        """Rename directory ``d`` before a call, so that each call sees a path
        it has not seen before, as each `stlrisk risk` process does: a cache
        keyed by path that outlives one call never hits."""
        self.moves += 1
        self.dirs[d] = self.dirs[d].rename(self.work / "ens" / f"d{d:02d}-{self.moves}")

    def args(self, d: int, out: Path) -> list:
        return ["risk", "--formula", R.CASE_FORMULA, "--predicates", str(self.work / "preds.json"),
                "--ensemble", str(self.ens(d)), "--measure", "var", "--out", str(out)]

    def op(self, k: int) -> tuple:
        d = k % RISK_DIRS
        self.move(d)
        out = self.work / "out"
        start = time.perf_counter()
        code, _ = run_cli_in_process(self.args(d, out))
        seconds = time.perf_counter() - start
        return seconds, [f"risk exited {code}"] if code else self.check_out(out, d)

    def check_out(self, out: Path, d: int) -> list:
        """Problems in the result.json and manifest.json a `risk --out` over
        directory ``d`` wrote."""
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        inputs = {os.path.normpath(self.ens(d) / name): digest for name, digest in self.member_digests[d].items()}
        inputs[os.path.normpath(self.work / "preds.json")] = self.preds_digest
        return R.check_risk_result(result, self.expected[d], RISK_N) + R.check_manifest_digests(
            manifest, self.work, inputs, {"result.json": R.sha256_file(out / "result.json")})

    def pipeline(self, tracer, k: int) -> list:
        d = k % RISK_DIRS
        self.move(d)
        states = self.states[d * RISK_N:(d + 1) * RISK_N]
        problems = []
        with tracer.span("parser.parse"):
            f = parse(R.CASE_FORMULA)
        with tracer.span("predicates.load"):
            preds = load_predicates(self.work / "preds.json")
        with tracer.span("trace.load_ensemble", files=RISK_N, bytes_read=self.ens_bytes[d]):
            ensemble = load_ensemble(self.ens(d))
        # Probes: one member file, an in-memory build of the same members, a
        # draw of as many members, and single-trace semantics on the first.
        with tracer.span("trace.load_trace_csv"):
            load_trace_csv(self.ens(d) / f"m{d * RISK_N:05d}.csv")
        with tracer.span("trace.ensemble_build"):
            Ensemble(tuple(Trace(s) for s in states))
        with tracer.span("scenario.sample_ensemble", members=RISK_N):
            sample_ensemble(CaseStudyConfig(seed=self.seed, n=RISK_N), RISK_TRAJECTORY)
        members = states.tolist()
        with tracer.span("predicates.signed_distance") as counts:
            counts["evals"] = signed_distance_pass(preds, members, R.CASE_REACH)
        with tracer.span("semantics.eval_robust_ensemble", member_evals=RISK_N):
            costs = eval_robust_ensemble(f, ensemble, 0, preds)
        problems += R.check_costs(costs, self.costs[d])
        with tracer.span("semantics.eval_robust"):
            margin = eval_robust(f, ensemble.traces[0], 0, preds)
        with tracer.span("semantics.eval_boolean"):
            sat = eval_boolean(f, ensemble.traces[0], 0, preds)
        problems += R.check_long(margin, sat, -self.costs[d][0], -self.costs[d][0] >= 0)
        with tracer.span("risk.var_bounds", samples=RISK_N):
            triple = var_bounds(RobustnessSamples(costs), RISK_BETA, RISK_DELTA)
        problems += R.check_triple((triple.lower, triple.point, triple.upper), self.expected[d])
        out = self.work / "pipeline-out"
        with tracer.span("cli.main"):
            code, _ = run_cli_in_process(self.args(d, out))
        problems += [f"risk exited {code}"] if code else self.check_out(out, d)
        with tracer.span("cli.digest") as counts:
            found, counts["digest_bytes"] = verify_manifest(out, self.work)
        return problems + found


class LongHorizon(Workload):
    """One T=10^4, d=2 random walk; each op evaluates one anchor in-process
    with both semantics."""

    name = "long_horizon"
    distinct_ops = LONG_ANCHORS
    setup_code = (
        f"stlrisk.parse({R.LONG_FORMULA!r})\n"
        "stlrisk.load_predicates('preds.json')\n"
        "stlrisk.load_trace_csv('walk.csv')\n"
    )

    def __init__(self, work, seed, src):
        super().__init__(work, seed, src)
        x = np.cumsum(np.random.default_rng(seed).normal(size=(LONG_T, 2)), axis=0)
        # Axis-aligned unit normals keep program and reference margins
        # bit-equal; thresholds at walk quantiles make the formula hold at
        # some anchors and fail at others.
        self.table = {
            "p": {"kind": "halfspace", "a": [1.0, 0.0], "b": -float(np.quantile(x[:, 0], 0.05))},
            "q": {"kind": "halfspace", "a": [0.0, 1.0], "b": -float(np.quantile(x[:, 1], 0.1))},
            "r": {"kind": "halfspace", "a": [0.0, 1.0], "b": -float(np.quantile(x[:, 1], 0.5))},
        }
        write_json(work / "preds.json", self.table)
        save_trace_csv(Trace(x), work / "walk.csv")
        write_json(work / "walk.json", {"traces": ["walk.csv"]})
        self.x = x
        self.anchors = [int(a) for a in np.linspace(R.LONG_PAST, LONG_T - 1 - R.LONG_FUTURE, LONG_ANCHORS).round()]
        p, q, r = R.long_predicate_margins(x, self.table)
        self.robust = R.long_values(p, q, r, self.anchors, math.inf)
        self.boolean = R.long_values(p >= 0, q >= 0, r >= 0, self.anchors, True)
        self.preds = load_predicates(work / "preds.json")
        self.trace = load_trace_csv(work / "walk.csv")

    def op(self, k: int) -> tuple:
        i = k % LONG_ANCHORS
        t = self.anchors[i]
        # New formula and trace objects each call, as each `stlrisk monitor`
        # process has, so that a cache keyed by object never hits.
        formula, trace = parse(R.LONG_FORMULA), Trace(self.trace.states)
        start = time.perf_counter()
        robust = eval_robust(formula, trace, t, self.preds)
        boolean = eval_boolean(formula, trace, t, self.preds)
        seconds = time.perf_counter() - start
        return seconds, R.check_long(robust, boolean, self.robust[i], self.boolean[i])

    def pipeline(self, tracer, k: int) -> list:
        i = k % LONG_ANCHORS
        t = self.anchors[i]
        problems = []
        with tracer.span("parser.parse"):
            f = parse(R.LONG_FORMULA)
        with tracer.span("predicates.load"):
            preds = load_predicates(self.work / "preds.json")
        with tracer.span("trace.load_trace_csv"):
            trace = load_trace_csv(self.work / "walk.csv")
        # Probes: the trace as a one-member ensemble, from a JSON manifest and
        # built in memory, a one-member draw, and the ensemble entry point.
        size = (self.work / "walk.csv").stat().st_size
        with tracer.span("trace.load_ensemble", files=1, bytes_read=size):
            load_ensemble(self.work / "walk.json")
        with tracer.span("trace.ensemble_build"):
            ensemble = Ensemble((Trace(self.x),))
        with tracer.span("scenario.sample_ensemble", members=1):
            sample_ensemble(CaseStudyConfig(seed=self.seed, n=1), 0)
        reach = (("p", range(t - R.LONG_PAST, t + R.LONG_FUTURE + 1)), ("q", range(t + 1, t + 200)),
                 ("r", range(t, t + 201)))
        rows = self.x.tolist()
        with tracer.span("predicates.signed_distance") as counts:
            counts["evals"] = signed_distance_pass(preds, [rows], reach)
        with tracer.span("semantics.eval_robust_ensemble", member_evals=1):
            costs = eval_robust_ensemble(f, ensemble, t, preds)
        with tracer.span("semantics.eval_robust"):
            robust = eval_robust(f, trace, t, preds)
        with tracer.span("semantics.eval_boolean"):
            boolean = eval_boolean(f, trace, t, preds)
        problems += R.check_long(robust, boolean, self.robust[i], self.boolean[i])
        problems += R.check_costs(costs, np.array([-self.robust[i]]))
        with tracer.span("risk.var_bounds", samples=1):
            var_bounds(RobustnessSamples(costs), RISK_BETA, RISK_DELTA)
        with tracer.span("cli.main"):
            code, stdout = run_cli_in_process(["monitor", "--formula", R.LONG_FORMULA,
                                               "--predicates", str(self.work / "preds.json"),
                                               "--trace", str(self.work / "walk.csv"), "--time", str(t)])
        problems += [f"monitor exited {code}"] if code else R.check_costs([float(stdout)], self.robust[i:i + 1])
        # The files a `risk --out` manifest over this trace would list.
        with tracer.span("cli.digest") as counts:
            counts["digest_bytes"] = 0
            for name in ("walk.csv", "preds.json"):
                data = (self.work / name).read_bytes()
                hashlib.sha256(data).hexdigest()
                counts["digest_bytes"] += len(data)
        return problems


WORKLOADS = {w.name: w for w in (CaseStudy, RiskDir, LongHorizon)}
