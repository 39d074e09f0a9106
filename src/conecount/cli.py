"""Command-line entry point.

    conecount --suite all --format csv --out report.csv

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage error
(including a malformed ``--grid`` item), 3 I/O failure while writing the
report.  Environment variables are never consulted; the seed and grid
fully determine the run (runtime_ms columns aside).  No flag sets the
calibration constants: the suites read the ``Calibration`` defaults.
"""

from __future__ import annotations

import argparse
import sys

from .report import SUITE_NAMES, RunConfig, emit, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conecount",
        description="Exact point counts on the inner product cone and "
        "numerical verification of their closed forms and asymptotics.",
    )
    p.add_argument("--suite", default="all", choices=SUITE_NAMES, help="verification suite to run")
    p.add_argument("--format", default="csv", choices=("csv", "json"), help="report format")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--seed", type=int, default=1, help="seed for all sampled checks")
    p.add_argument(
        "--grid",
        default=None,
        help="comma-separated grid override: XxY items for box-count suites, B values otherwise",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    grid = tuple(s.strip() for s in args.grid.split(",") if s.strip()) if args.grid else None
    config = RunConfig(seed=args.seed, grid=grid)
    try:
        report = run_suite(args.suite, config)
    except ValueError as exc:  # a --grid the suite cannot read, found before any check runs
        print(f"conecount: {exc}", file=sys.stderr)
        return EXIT_USAGE

    counts = report.counts_by_status
    for record in report.records:
        if record.status != "pass":
            print(f"[{record.status}] {record.suite}/{record.check_id}  "
                  f"input={record.input}  expected={record.expected}  actual={record.actual}")
    print(
        f"suite={report.suite}: {counts['pass']} pass, {counts['fail']} fail "
        f"({len(report.records)} checks)"
    )

    if args.out:
        try:
            emit(report, args.format, args.out)
        except OSError as exc:
            print(f"conecount: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"report written to {args.out} ({args.format})")
    return EXIT_PASS if report.all_passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
