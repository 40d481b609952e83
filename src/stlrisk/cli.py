"""Command-line front end.

Subcommands: ``check`` (parse and report a formula), ``monitor`` (evaluate
one formula on one trace), ``risk`` (estimate a risk measure over an
ensemble), ``casestudy`` (run the bundled delivery scenario and write its
table).  Machine-readable output goes to stdout, diagnostics to stderr.

Exit codes, from one table (``_EXIT_CODES``) that ``main`` applies to any
error: 0 success, 2 formula syntax or interval error, 3 insufficient trace
horizon, 4 bad risk parameter (including costs outside ``--bounds``),
non-finite robustness or non-finite estimate, 5 bad case-study config, 1
anything else, including internal errors.  A malformed numeric flag exits
with its command's code (``--time`` 3, other ``risk`` numbers 4, ``casestudy``
numbers 5); only argparse's usage errors (unknown or missing flags) exit 2
with usage and one line of at most 160 characters.  Any other failure is one line on stderr; an input file (JSON or
CSV) that is not UTF-8 is named with the offset of its first bad byte.  The
``manifest.json`` of ``risk --out`` and ``casestudy`` digests the input
bytes that were parsed and the output bytes that were written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .errors import (
    BoundsError,
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
from .trace import load_trace_csv, read_ensemble, read_json, shortened

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
    ((ParamError, BoundsError, InfiniteRobustnessError), EXIT_RISK_PARAM),
    (ConfigError, EXIT_CONFIG),
    (Exception, EXIT_OTHER),
)


def _message(exc: Exception) -> str:
    """``exc`` as one line: an OSError's file name cut short, an internal error named."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: {shortened(repr(exc.filename))}"
    if isinstance(exc, (StlRiskError, OSError)):
        return str(exc)
    return f"{type(exc).__name__}: {' '.join(str(exc).splitlines())}"


def _fail(exc: Exception) -> int:
    """Print ``exc`` as one line on stderr and return its exit code."""
    span = getattr(exc, "span", None)
    where = f" (at offset {span.start}-{span.end})" if span is not None else ""
    print(f"error: {_message(exc)}{where}", file=sys.stderr)
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


def cmd_risk(args) -> int:
    f = parse(args.formula)
    predicates, table = read_predicates(args.predicates)
    ensemble, sources = read_ensemble(args.ensemble)
    params = RiskParams(beta=args.beta, delta=args.delta, lam=args.lam, bounds=args.bounds)
    result = risk_of_formula(ensemble, f, predicates, args.time, params, args.measure)
    payload = result.to_json_dict()
    if args.out:
        _write_outputs(
            Path(args.out),
            {"result.json": json.dumps(payload, indent=2) + "\n"},
            command="risk",
            parameters={
                "formula": args.formula,
                "time": args.time,
                "measure": args.measure,
                "beta": args.beta,
                "delta": args.delta,
                "lambda": args.lam,
                "bounds": list(args.bounds) if args.bounds else None,
                "ensemble": str(args.ensemble),
            },
            inputs={**sources, str(args.predicates): table},
        )
    print(json.dumps(payload))  # after the files are written, as casestudy does
    return EXIT_OK


def cmd_casestudy(args) -> int:
    data, inputs = {}, {}
    if args.config:
        try:
            data, inputs[str(args.config)] = read_json(args.config, ConfigError, "invalid JSON")
        except OSError as exc:
            raise ConfigError(_message(exc)) from None
    # The file's config, validated whole; each flag given then overrides its
    # key, and the merged config is validated again.
    flags = {key: getattr(args, key) for key in ("seed", "n", "delta", "betas") if getattr(args, key) is not None}
    CaseStudyConfig.from_json_dict(data)
    config = CaseStudyConfig.from_json_dict({**data, **flags})
    result = run_case_study(config)
    csv_text = result.to_csv()
    _write_outputs(
        Path(args.out),
        {"table.csv": csv_text, "table.json": json.dumps(result.to_json_dict(), indent=2) + "\n"},
        command="casestudy",
        parameters=dict(zip(config._fields, config._values())),  # tuples encode as arrays
        inputs=inputs,
    )
    sys.stdout.write(csv_text)
    return EXIT_OK


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_outputs(outdir: Path, texts: dict, command: str, parameters: dict, inputs: dict) -> None:
    """Write each text, by file name, to ``outdir`` as UTF-8, then
    ``manifest.json`` with the digests of the input bytes and of the output
    bytes just written."""
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name, text in texts.items():
        data = text.encode("utf-8")
        (outdir / name).write_bytes(data)
        outputs[name] = _digest(data)
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "inputs": {name: _digest(data) for name, data in inputs.items()},
        "outputs": outputs,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _add_number(p, flag: str, kind: type, error: type, **options) -> None:
    """Add numeric ``flag`` to ``p``, read by ``kind`` (``tuple``: of
    comma-separated floats); other text is an ``error`` that quotes it."""
    expects = {int: "an integer", float: "a number", tuple: "comma-separated numbers"}[kind]

    def read(text: str):
        try:
            return tuple(map(float, text.split(","))) if kind is tuple else kind(text)
        except ValueError:
            raise error(f"{flag} expects {expects}, got {shortened(repr(text))}") from None

    p.add_argument(flag, type=read, **options)


def _add_choice(p, flag: str, choices, **options) -> None:
    """Add ``flag`` to ``p``, one of ``choices``; other text is a usage error that quotes it cut short."""

    def read(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(f"invalid choice: {shortened(repr(text))}")
        return text

    p.add_argument(flag, type=read, choices=choices, **options)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage error is one line of at most 160
    characters: any other is put on one line, and the command line it quotes
    after argparse's head (such as ``unrecognized arguments:``) is cut short."""

    def error(self, message):
        lines = message.splitlines()
        if lines != [message] or len(f"{self.prog}: error: {message}") > 160:
            heads = r"(.*?(?:invalid choice: |unrecognized arguments: |ambiguous option: |explicit argument )|)(.*)"
            head, quoted = re.match(heads, " ".join(lines)).groups()
            message = head + shortened(quoted)
        super().error(message)


@cache  # one tree per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="stlrisk", description=__doc__)
    top.add_argument("--version", action="version", version=f"stlrisk {__version__}")
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("check", help="parse a formula and report its canonical form")
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("monitor", help="evaluate a formula on a single trace")
    p.add_argument("--formula", required=True)
    p.add_argument("--predicates", required=True, help="predicate table JSON")
    p.add_argument("--trace", required=True, help="trace CSV")
    _add_number(p, "--time", int, InsufficientHorizonError, default=0)
    _add_choice(p, "--mode", ("boolean", "robust"), default="robust")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("risk", help="estimate a risk measure over an ensemble")
    p.add_argument("--formula", required=True)
    p.add_argument("--predicates", required=True)
    p.add_argument("--ensemble", required=True, help="directory of CSVs or JSON manifest")
    _add_number(p, "--time", int, InsufficientHorizonError, default=0)
    _add_choice(p, "--measure", MEASURES, default="var")
    _add_number(p, "--beta", float, ParamError, default=RiskParams.beta)
    _add_number(p, "--delta", float, ParamError, default=RiskParams.delta)
    _add_number(p, "--lambda", float, ParamError, dest="lam", default=RiskParams.lam)
    _add_number(p, "--bounds", tuple, ParamError, help="A,B support interval for the mean confidence interval; --bounds=-5,5 if A < 0")
    p.add_argument("--out", help="directory for result.json and manifest.json")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("casestudy", help="run the bundled delivery scenario")
    p.add_argument("--config", help="config JSON file")
    _add_number(p, "--seed", int, ConfigError)
    _add_number(p, "--n", int, ConfigError)
    _add_number(p, "--delta", float, ConfigError)
    _add_number(p, "--betas", tuple, ConfigError, help="comma-separated risk levels")
    p.add_argument("--out", default="casestudy-out", help="output directory")
    p.set_defaults(func=cmd_casestudy)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if [] in vars(args).values():  # argparse before Python 3.13 drops the "--" of --flag=--
            _build_parser().error("an option given as --flag=-- has no value")
        if args.command is None:  # checked here, after argparse has named any unknown flag
            _build_parser().error("the following arguments are required: command")
        return args.func(args)
    except SystemExit as exc:  # argparse's: 2 for a usage error, 0 after --help or --version
        return exc.code
    except Exception as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
