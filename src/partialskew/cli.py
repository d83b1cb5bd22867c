"""Command line interface: verify scenario files and run the bundled corpus.

Exit codes: 0 all selected checks passed and every expectation matched,
1 a check failed (a builder's refusal inside a suite is the failed check
``<suite>.refused``), 2 the input could not be parsed or validated.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ParseError, ValidationError
from .fields import parse_field
from .report import emit_report
from .scenarios import SUITES, bundled_fixtures, fixture_path, run_scenario


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="partialskew",
        description="construct partial group/Hopf actions on exact algebras "
                    "and machine-verify their matrix dualities")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the suites of one scenario file")
    verify.add_argument("scenario", help="path to a scenario JSON file")
    verify.add_argument("--suite", action="append", choices=SUITES, default=None,
                        help="run only this suite (repeatable; overrides the file)")
    verify.add_argument("--field", default=None, metavar="q|fp:<p>",
                        help="override the scenario's base field")
    verify.add_argument("--format", default="text", choices=("text", "structured"),
                        help="report format (default: text)")
    verify.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")

    sub.add_parser("list-suites", help="list the selectable verification suites")

    selftest = sub.add_parser("selftest", help="run every bundled scenario")
    selftest.add_argument("--field", default=None, metavar="q|fp:<p>",
                          help="override the base field of every scenario")
    return parser


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "list-suites":
        for name in SUITES:
            print(f"{name:13s} {SUITES[name][0]}")
        return 0

    if args.command == "verify":
        try:
            report = run_scenario(args.scenario, suites=args.suite,
                                  field_override=args.field)
        except (ParseError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            _write(emit_report(report, args.format), args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        return 0 if report.passed() else 1

    if args.command == "selftest":
        if args.field is not None:
            try:
                parse_field(args.field)
            except ParseError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        failures = 0
        for name in bundled_fixtures():
            try:
                report = run_scenario(fixture_path(name),
                                      field_override=args.field)
            except (ParseError, ValidationError) as exc:
                print(f"{name:24s} ERROR  {exc}")
                failures += 1
                continue
            n_pass = sum(1 for c in report.checks if c.status == "pass")
            verdict = "PASS" if report.passed() else "FAIL"
            print(f"{name:24s} {verdict}  ({n_pass}/{len(report.checks)} checks)")
            if not report.passed():
                failures += 1
                for c in report.sorted_checks():
                    if c.status == "fail":
                        print(f"    failed: {c.name} {c.witnesses[:1]}")
        print("selftest:", "PASS" if failures == 0 else f"FAIL ({failures} scenario(s))")
        return 0 if failures == 0 else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
