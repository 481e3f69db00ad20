"""Command-line interface.

Subcommands:

- ``usvt estimate INPUT --out OUT.csv``: estimate the mean matrix of a
  CSV file with NA-marked missing entries.
- ``usvt experiment --config SPEC.json --out PREFIX``: run the grid sweep
  a JSON spec file describes and write PREFIX.json / PREFIX.csv reports.
- ``usvt check --suite all``: run the property batteries.

A flag that is not given is not passed, so the defaults live in the library.

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
    DEFAULT_ETA,
    ExperimentSpec,
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

    def add_command(name, func, help, description=None):
        # A flag left out is absent from the namespace: the library's default applies.
        command = sub.add_parser(name, help=help, description=description,
                                 argument_default=argparse.SUPPRESS)
        command.set_defaults(func=func)
        return command

    est = add_command("estimate", _cmd_estimate, "estimate the mean matrix of a CSV file")
    est.add_argument("input", help="CSV matrix; missing entries marked NA")
    est.add_argument("--out", required=True, help="output CSV path for the estimate")
    est.add_argument("--report", dest="report_path", metavar="REPORT",
                     help="JSON diagnostics path")
    est.add_argument("--eta", type=float, help=f"threshold slack (default {DEFAULT_ETA})")
    est.add_argument("--sigma-sq", type=float, help="known variance bound in (0, 1]")
    est.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"),
                     help="known value range (default -1 1)")
    est.add_argument("--mode", type=SymmetryMode,
                     metavar="{" + ",".join(m.value for m in SymmetryMode) + "}")
    est.add_argument("--header", action="store_true", help="input has a header row")

    exp = add_command(
        "experiment", _cmd_experiment, "run a grid-sweep experiment",
        "Run a grid sweep and write PREFIX.json and PREFIX.csv. The same spec and seed "
        "give byte-identical reports on the same numpy build at the same BLAS thread "
        "count; at another thread count the last digits of the errors may differ.")
    exp.add_argument("--config", required=True, help="JSON ExperimentSpec file")
    exp.add_argument("--out", required=True, help="report path prefix (writes .json and .csv)")

    chk = add_command("check", _cmd_check, "run property batteries")
    chk.add_argument("--suite", dest="selectors", action="append",
                     choices=("all",) + CHECK_NAMES,
                     help="battery to run, repeatable (default: all)")
    chk.add_argument("--seed", type=int)
    return parser


def _cmd_estimate(input, out, **given) -> int:
    _, diagnostics = estimate_file(input, out, **given)
    print(json.dumps(diagnostics, sort_keys=True))
    return 0


def _cmd_experiment(config, out) -> int:
    with open(config, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{config} is not valid JSON: {exc}") from None
    spec = ExperimentSpec.from_dict(d)
    report = run_experiment(spec)
    write_report_json(report, out + ".json")
    write_report_csv(report, out + ".csv")
    failures = [c for c in report.cells if c.failure is not None]
    for cell in report.cells:
        if cell.failure is None:
            print(f"n={cell.n} p={cell.p} mean_mse={cell.mean_mse:.6g} "
                  f"rank={cell.mean_retained_rank:.2f}")
        else:
            print(f"n={cell.n} p={cell.p} FAILED: {cell.failure}")
    print(f"wrote {out}.json and {out}.csv "
          f"({len(report.cells) - len(failures)}/{len(report.cells)} cells completed)")
    return 0


def _cmd_check(**given) -> int:
    report = check_suite(**given)
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
    given = vars(args)
    del given["command"]
    func = given.pop("func")
    try:
        return func(**given)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
