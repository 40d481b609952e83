"""The benchmark's own tests: every workload's output check passes on the
program's real output and fails on a deliberately perturbed copy, so that
``success_rate`` can drop below 1.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def _bump_lower(line: str, by: float) -> str:
    cells = line.split(",")
    cells[2] = repr(float(cells[2]) + by)
    return ",".join(cells)


def test_casestudy_check_passes_real_table_and_fails_perturbed(tmp_path):
    workload = W.CaseStudy(tmp_path, W.GOLDEN_SEED, SRC)
    seconds, problems = workload.op(0)
    assert seconds > 0 and problems == []
    text = (tmp_path / "out" / "table.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    perturbed = "\n".join([lines[0], _bump_lower(lines[1], 1e-6)] + lines[2:]) + "\n"
    assert workload.check_table(perturbed)
    assert workload.check_table("\n".join(lines[:-1]) + "\n")
    # Equal values in another spelling keep the rows but break the pinned digest.
    respelled = text.replace("0.9,", "0.90,", 1)
    assert R.check_case_table(respelled, workload.rows) == []
    assert workload.check_table(respelled) == ["table.csv digest differs from the pinned seed-42 digest"]


def test_risk_dir_check_passes_real_result_and_fails_perturbed(tmp_path):
    workload = W.RiskDir(tmp_path, 3, SRC)
    seconds, problems = workload.op(0)
    assert seconds > 0 and problems == []
    # A repeat of the operation reads its directory under a new path.
    path = workload.ens(0)
    assert workload.op(W.RISK_DIRS)[1] == [] and workload.ens(0) != path and not path.exists()
    out = tmp_path / "out"
    result_path, manifest_path = out / "result.json", out / "manifest.json"
    result_bytes = result_path.read_bytes()
    result, manifest = json.loads(result_bytes), json.loads(manifest_path.read_text())

    for key in ("lower", "value", "upper"):
        bad = dict(result, **{key: result[key] + 1e-6})
        result_path.write_text(json.dumps(bad))
        assert workload.check_out(out, 0), key
    # A result.json that no longer matches its manifest digest fails too.
    result_path.write_text(json.dumps(result))
    assert workload.check_out(out, 0)
    result_path.write_bytes(result_bytes)
    assert workload.check_out(out, 0) == []

    name = sorted(manifest["inputs"])[1]
    bad = json.loads(json.dumps(manifest))
    bad["inputs"][name] = "0" * 64
    manifest_path.write_text(json.dumps(bad))
    assert workload.check_out(out, 0)
    del bad["inputs"][name]
    manifest_path.write_text(json.dumps(bad))
    assert workload.check_out(out, 0)


def test_long_horizon_check_passes_every_anchor_and_fails_perturbed(tmp_path):
    workload = W.LongHorizon(tmp_path, 5, SRC)
    assert 0 < sum(workload.boolean) < W.LONG_ANCHORS, "anchors should mix true and false"
    for k in range(W.LONG_ANCHORS):
        seconds, problems = workload.op(k)
        assert seconds > 0 and problems == []
    robust, boolean = workload.robust[0], bool(workload.boolean[0])
    assert R.check_long(robust + 1e-6, boolean, workload.robust[0], workload.boolean[0])
    assert R.check_long(robust, not boolean, workload.robust[0], workload.boolean[0])


def test_reference_costs_check_fails_perturbed():
    states = R.case_states(9, 0, 50, W.DEFAULT_TRAJECTORIES[0])
    costs = -R.delivery_margins(states)
    assert R.check_costs(costs.copy(), costs) == []
    costs_bad = costs.copy()
    costs_bad[7] += 1e-6
    assert R.check_costs(costs_bad, costs)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = W.LongHorizon(tmp_path, 2, SRC)
    result = run.traced_run(workload, 0.2, tmp_path / "spans.json")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {s["name"] for s in spans} >= {"op", "import", "semantics.eval_robust", "cli.main"}


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "long_horizon", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_relative_costs_divide_out_a_slow_round_and_skip_incomplete_ones():
    # Round 1 runs twice as slow as round 0; round 2 is cut short.
    times = {(0, 0): 1.0, (0, 1): 2.0, (0, 2): 3.0, (1, 0): 2.0, (1, 1): 4.0, (1, 2): 6.0, (2, 0): 9.0}
    assert run.relative_costs(times) == [0.5, 1.0, 1.5]
