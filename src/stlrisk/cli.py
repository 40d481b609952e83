"""Command-line front end.

Subcommands: ``check`` (parse and report a formula), ``monitor`` (evaluate
one formula on one trace), ``risk`` (estimate a risk measure over an
ensemble), ``casestudy`` (run the bundled delivery scenario and write its
table).  Machine-readable output goes to stdout, diagnostics to stderr.

Exit codes, from one table (``_EXIT_CODES``) that ``main`` applies to any
error: 0 success, 2 formula syntax or interval error, 3 insufficient trace
horizon, 4 bad risk parameter or non-finite robustness, 5 bad case-study
config, 1 anything else, including internal errors.  Each failure is one
line on stderr; an input file (JSON or CSV) that is not UTF-8 is named with
the offset of its first bad byte.  The ``manifest.json`` of ``risk --out``
and ``casestudy`` digests the input bytes that were parsed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    FormulaSyntaxError,
    InfiniteRobustnessError,
    InsufficientHorizonError,
    IntervalError,
    ParamError,
    StlRiskError,
)
from .formula import horizon, predicate_names
from .parser import format_formula, parse
from .predicates import load_predicates, read_predicates
from .risk import MEASURES, RiskParams, format_number, risk_of_formula
from .scenario import CaseStudyConfig, run_case_study
from .semantics import eval_boolean, eval_robust
from .trace import load_trace_csv, read_ensemble, read_json

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARSE = 2
EXIT_HORIZON = 3
EXIT_RISK_PARAM = 4
EXIT_CONFIG = 5


# The exit code of each error that reaches ``main``: the first row that
# matches wins.
_EXIT_CODES = (
    ((FormulaSyntaxError, IntervalError), EXIT_PARSE),
    (InsufficientHorizonError, EXIT_HORIZON),
    ((ParamError, InfiniteRobustnessError), EXIT_RISK_PARAM),
    (ConfigError, EXIT_CONFIG),
    (Exception, EXIT_OTHER),
)


def _fail(exc: Exception) -> int:
    """Print ``exc`` as one line on stderr and return its exit code."""
    message = str(exc)
    if not isinstance(exc, (StlRiskError, OSError)):  # an internal error: named, still one line
        message = f"{type(exc).__name__}: {' '.join(message.splitlines())}"
    span = getattr(exc, "span", None)
    where = f" (at offset {span.start}-{span.end})" if span is not None else ""
    print(f"error: {message}{where}", file=sys.stderr)
    return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def cmd_check(args) -> int:
    f = parse(args.formula)
    h = horizon(f)
    print(format_formula(f))
    print(f"horizon: future={h.future_depth} past={h.past_depth}")
    print("predicates: " + " ".join(sorted(predicate_names(f))))
    return EXIT_OK


def cmd_monitor(args) -> int:
    f = parse(args.formula)
    predicates = load_predicates(args.predicates)
    trace = load_trace_csv(args.trace)
    if args.mode == "boolean":
        print("true" if eval_boolean(f, trace, args.time, predicates) else "false")
    else:
        print(format_number(eval_robust(f, trace, args.time, predicates)))
    return EXIT_OK


def _parse_bounds(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParamError(f"--bounds expects A,B with two numbers, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParamError(f"--bounds expects numeric A,B, got {text!r}") from None


def _parse_betas(text: str) -> tuple:
    try:
        return tuple(float(b) for b in text.split(","))
    except ValueError:
        raise ConfigError(f"--betas expects comma-separated numbers, got {text!r}") from None


def cmd_risk(args) -> int:
    f = parse(args.formula)
    predicates, table = read_predicates(args.predicates)
    ensemble, sources = read_ensemble(args.ensemble)
    bounds = _parse_bounds(args.bounds) if args.bounds else None
    params = RiskParams(beta=args.beta, delta=args.delta, lam=args.lam, bounds=bounds)
    result = risk_of_formula(ensemble, f, predicates, args.time, params, args.measure)
    payload = result.to_json_dict()
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "result.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        _write_manifest(
            outdir,
            command="risk",
            parameters={
                "formula": args.formula,
                "time": args.time,
                "measure": args.measure,
                "beta": args.beta,
                "delta": args.delta,
                "lambda": args.lam,
                "bounds": list(bounds) if bounds else None,
                "ensemble": str(args.ensemble),
            },
            inputs={**sources, str(args.predicates): table},
            outputs=("result.json",),
        )
    print(json.dumps(payload))  # after the files are written, as casestudy does
    return EXIT_OK


def cmd_casestudy(args) -> int:
    inputs = {}
    if args.config:
        try:
            data, inputs[str(args.config)] = read_json(args.config, ConfigError, "invalid JSON")
        except OSError as exc:
            raise ConfigError(str(exc)) from None
        config = CaseStudyConfig.from_json_dict(data)
    else:
        kwargs = {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.n is not None:
            kwargs["n"] = args.n
        if args.delta is not None:
            kwargs["delta"] = args.delta
        if args.betas is not None:
            kwargs["betas"] = _parse_betas(args.betas)
        config = CaseStudyConfig(**kwargs)
    result = run_case_study(config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_text = result.to_csv()
    (outdir / "table.csv").write_text(csv_text, encoding="utf-8")
    (outdir / "table.json").write_text(
        json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
    _write_manifest(
        outdir,
        command="casestudy",
        parameters={
            "seed": config.seed,
            "n": config.n,
            "delta": config.delta,
            "betas": list(config.betas),
            "trajectories": [[list(p) for p in traj] for traj in config.trajectories],
        },
        inputs=inputs,
        outputs=("table.csv", "table.json"),
    )
    sys.stdout.write(csv_text)
    return EXIT_OK


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_manifest(outdir: Path, command: str, parameters: dict, inputs: dict, outputs: tuple) -> None:
    """Write ``manifest.json`` with the digests of the input bytes, by file
    name, and of the named output files in ``outdir``."""
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "inputs": {name: _digest(data) for name, data in inputs.items()},
        "outputs": {name: _digest((outdir / name).read_bytes()) for name in outputs},
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@cache  # one tree per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="stlrisk", description=__doc__)
    top.add_argument("--version", action="version", version=f"stlrisk {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a formula and report its canonical form")
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("monitor", help="evaluate a formula on a single trace")
    p.add_argument("--formula", required=True)
    p.add_argument("--predicates", required=True, help="predicate table JSON")
    p.add_argument("--trace", required=True, help="trace CSV")
    p.add_argument("--time", type=int, default=0)
    p.add_argument("--mode", choices=("boolean", "robust"), default="robust")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("risk", help="estimate a risk measure over an ensemble")
    p.add_argument("--formula", required=True)
    p.add_argument("--predicates", required=True)
    p.add_argument("--ensemble", required=True, help="directory of CSVs or JSON manifest")
    p.add_argument("--time", type=int, default=0)
    p.add_argument("--measure", choices=MEASURES, default="var")
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--bounds", help="A,B support interval for the mean confidence interval; --bounds=-5,5 if A < 0")
    p.add_argument("--out", help="directory for result.json and manifest.json")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("casestudy", help="run the bundled delivery scenario")
    p.add_argument("--config", help="config JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--betas", help="comma-separated risk levels")
    p.add_argument("--out", default="casestudy-out", help="output directory")
    p.set_defaults(func=cmd_casestudy)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
