"""Command-line front end.

Subcommands: ``check`` (parse and report a formula), ``monitor`` (evaluate
one formula on one trace), ``risk`` (estimate a risk measure over an
ensemble), ``casestudy`` (run the bundled delivery scenario and write its
table).  Machine-readable output goes to stdout, diagnostics to stderr.

Exit codes: 0 success, 2 formula syntax or interval error, 3 insufficient
trace horizon, 4 bad risk parameter or non-finite robustness, 5 bad
case-study config, 1 anything else, including internal errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
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
from .risk import RiskParams, format_number, risk_of_formula
from .scenario import CaseStudyConfig, run_case_study
from .semantics import eval_boolean, eval_robust
from .trace import load_trace_csv, read_ensemble

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARSE = 2
EXIT_HORIZON = 3
EXIT_RISK_PARAM = 4
EXIT_CONFIG = 5


def _fail(message: str, code: int, span=None) -> int:
    where = f" (at offset {span.start}-{span.end})" if span is not None else ""
    print(f"error: {message}{where}", file=sys.stderr)
    return code


def cmd_check(args) -> int:
    try:
        f = parse(args.formula)
    except (FormulaSyntaxError, IntervalError) as exc:
        return _fail(str(exc), EXIT_PARSE, exc.span)
    h = horizon(f)
    print(format_formula(f))
    print(f"horizon: future={h.future_depth} past={h.past_depth}")
    print("predicates: " + " ".join(sorted(predicate_names(f))))
    return EXIT_OK


def cmd_monitor(args) -> int:
    try:
        f = parse(args.formula)
    except (FormulaSyntaxError, IntervalError) as exc:
        return _fail(str(exc), EXIT_PARSE, exc.span)
    try:
        predicates = load_predicates(args.predicates)
        trace = load_trace_csv(args.trace)
        if args.mode == "boolean":
            print("true" if eval_boolean(f, trace, args.time, predicates) else "false")
        else:
            print(format_number(eval_robust(f, trace, args.time, predicates)))
    except InsufficientHorizonError as exc:
        return _fail(str(exc), EXIT_HORIZON)
    except StlRiskError as exc:
        return _fail(str(exc), EXIT_OTHER)
    return EXIT_OK


def _parse_bounds(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParamError(f"--bounds expects A,B with two numbers, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ParamError(f"--bounds expects numeric A,B, got {text!r}") from None


def cmd_risk(args) -> int:
    try:
        f = parse(args.formula)
    except (FormulaSyntaxError, IntervalError) as exc:
        return _fail(str(exc), EXIT_PARSE, exc.span)
    try:
        predicates, table = read_predicates(args.predicates)
        ensemble, sources = read_ensemble(args.ensemble)
        bounds = _parse_bounds(args.bounds) if args.bounds else None
        params = RiskParams(beta=args.beta, delta=args.delta, lam=args.lam, bounds=bounds)
        result = risk_of_formula(ensemble, f, predicates, args.time, params, args.measure)
    except (ParamError, InfiniteRobustnessError) as exc:
        return _fail(str(exc), EXIT_RISK_PARAM)
    except InsufficientHorizonError as exc:
        return _fail(str(exc), EXIT_HORIZON)
    except StlRiskError as exc:
        return _fail(str(exc), EXIT_OTHER)
    payload = result.to_json_dict()
    print(json.dumps(payload))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        result_path = outdir / "result.json"
        result_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        # The inputs are hashed from the bytes that were evaluated.
        inputs = {name: _digest(data) for name, data in sources.items()}
        inputs[str(args.predicates)] = _digest(table)
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
            inputs=inputs,
            outputs={"result.json": _digest_file(result_path)},
        )
    return EXIT_OK


def cmd_casestudy(args) -> int:
    try:
        if args.config:
            config = CaseStudyConfig.from_json_file(args.config)
        else:
            kwargs = {}
            if args.seed is not None:
                kwargs["seed"] = args.seed
            if args.n is not None:
                kwargs["n"] = args.n
            if args.delta is not None:
                kwargs["delta"] = args.delta
            if args.betas is not None:
                try:
                    kwargs["betas"] = tuple(float(b) for b in args.betas.split(","))
                except ValueError:
                    raise ConfigError(f"--betas expects comma-separated numbers, got {args.betas!r}") from None
            config = CaseStudyConfig(**kwargs)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    try:
        result = run_case_study(config)
    except StlRiskError as exc:
        return _fail(str(exc), EXIT_OTHER)
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
        inputs={str(args.config): _digest_file(args.config)} if args.config else {},
        outputs={
            "table.csv": _digest_file(outdir / "table.csv"),
            "table.json": _digest_file(outdir / "table.json"),
        },
    )
    sys.stdout.write(csv_text)
    return EXIT_OK


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_file(path) -> str:
    return _digest(Path(path).read_bytes())


def _write_manifest(outdir: Path, command: str, parameters: dict, inputs: dict, outputs: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "inputs": inputs,
        "outputs": outputs,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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
    p.add_argument("--measure", choices=("var", "cvar", "expected", "meanvar", "worst"), default="var")
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--bounds", help="A,B support interval for the mean confidence interval")
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
    except (StlRiskError, OSError) as exc:
        return _fail(str(exc), EXIT_OTHER)
    except Exception as exc:  # an internal error still ends in one line, not a traceback
        return _fail(f"{type(exc).__name__}: {' '.join(str(exc).splitlines())}", EXIT_OTHER)


if __name__ == "__main__":
    sys.exit(main())
