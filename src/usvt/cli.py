"""Command-line interface.

Subcommands:

- ``usvt estimate INPUT --out OUT.csv``: estimate the mean matrix of a
  CSV file with NA-marked missing entries.
- ``usvt experiment --config SPEC.json --out PREFIX`` (or inline flags):
  run a grid sweep and write PREFIX.json / PREFIX.csv reports.
- ``usvt check --suite all``: run the property batteries.

Exit codes: 0 success, 1 validation error (bad flags, malformed or
out-of-range input), 2 property failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import CHECK_NAMES, check_suite
from .errors import ValidationError
from .estimator import SymmetryMode
from .harness import (
    ExperimentSpec,
    ModelSpec,
    estimate_file,
    run_experiment,
    write_report_csv,
    write_report_json,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usvt",
        description="Universal singular value thresholding for partially observed matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the mean matrix of a CSV file")
    est.add_argument("input", help="CSV matrix; missing entries marked NA")
    est.add_argument("--out", required=True, help="output CSV path for the estimate")
    est.add_argument("--report", default=None, help="JSON diagnostics path")
    est.add_argument("--eta", type=float, default=0.01, help="threshold slack (default 0.01)")
    est.add_argument("--sigma-sq", type=float, default=None, help="known variance bound in (0, 1]")
    est.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"), default=None,
                     help="known value range (default -1 1)")
    est.add_argument("--mode", choices=[m.value for m in SymmetryMode], default="asym")
    est.add_argument("--header", action="store_true", help="input has a header row")
    est.set_defaults(func=_cmd_estimate)

    exp = sub.add_parser("experiment", help="run a grid-sweep experiment")
    exp.add_argument("--config", default=None, help="JSON ExperimentSpec file")
    exp.add_argument("--model", default=None, help="model kind (inline alternative to --config)")
    exp.add_argument("--model-param", action="append", default=[], metavar="KEY=VALUE",
                     help="model parameter, repeatable; values parsed as JSON when possible")
    exp.add_argument("--n-grid", type=int, nargs="+", default=[100], help="matrix sizes")
    exp.add_argument("--p-grid", type=float, nargs="+", default=[1.0],
                     help="observation probabilities")
    exp.add_argument("--eta", type=float, default=0.01)
    exp.add_argument("--sigma-sq", type=float, default=None)
    exp.add_argument("--trials", type=int, default=1)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--baseline-trivial", action="store_true",
                     help="also score the observed matrix itself")
    exp.add_argument("--out", required=True, help="report path prefix (writes .json and .csv)")
    exp.set_defaults(func=_cmd_experiment)

    chk = sub.add_parser("check", help="run property batteries")
    chk.add_argument("--suite", action="append", default=None,
                     choices=("all",) + CHECK_NAMES,
                     help="battery to run, repeatable (default: all)")
    chk.add_argument("--seed", type=int, default=727)
    chk.set_defaults(func=_cmd_check)
    return parser


def _cmd_estimate(args) -> int:
    interval = tuple(args.interval) if args.interval is not None else None
    report, diagnostics = estimate_file(
        args.input,
        args.out,
        args.report,
        eta=args.eta,
        sigma_sq=args.sigma_sq,
        interval=interval,
        mode=SymmetryMode.parse(args.mode),
        header=args.header,
    )
    print(json.dumps(diagnostics, sort_keys=True))
    return 0


def _parse_model_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValidationError(f"--model-param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _cmd_experiment(args) -> int:
    if (args.config is None) == (args.model is None):
        raise ValidationError("provide exactly one of --config or --model")
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = ExperimentSpec.from_dict(json.load(fh))
    else:
        spec = ExperimentSpec(
            model=ModelSpec(kind=args.model, params=_parse_model_params(args.model_param)),
            n_grid=tuple(args.n_grid),
            p_grid=tuple(args.p_grid),
            eta=args.eta,
            sigma_sq=args.sigma_sq,
            trials=args.trials,
            seed=args.seed,
            baseline_trivial=args.baseline_trivial,
        )
    report = run_experiment(spec)
    write_report_json(report, args.out + ".json")
    write_report_csv(report, args.out + ".csv")
    failures = [c for c in report.cells if c.failure is not None]
    for cell in report.cells:
        if cell.failure is None:
            print(f"n={cell.n} p={cell.p} mean_mse={cell.mean_mse:.6g} "
                  f"rank={cell.mean_retained_rank:.2f}")
        else:
            print(f"n={cell.n} p={cell.p} FAILED: {cell.failure}")
    print(f"wrote {args.out}.json and {args.out}.csv "
          f"({len(report.cells) - len(failures)}/{len(report.cells)} cells completed)")
    return 0


def _cmd_check(args) -> int:
    selectors = tuple(args.suite) if args.suite else ("all",)
    report = check_suite(selectors, seed=args.seed)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the validation code,
        # keep 0 for --help.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
