"""Run the benchmark once per seed on each workload and report, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 --summary runs.json

Run from the repository root.  Seeds are 1, 2, ..., --runs; workloads,
run length and bounds default to those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--summary", help="write the per-metric summary as JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} {values}",
                  flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        summary[workload] = {"attempted": [r["attempted"] for r in runs],
                             "failed": sum(r["failed"] for r in runs), "metrics": metrics}
        for name, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:34s} median {s['median']:.6g}  spread {spread}  bound {bounds.get(name)}")
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
