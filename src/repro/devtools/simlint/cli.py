"""simlint command line: ``python -m repro.devtools.simlint src/``.

Exit codes: 0 clean, 1 findings reported, 2 operational errors (bad
arguments, unreadable or unparseable files).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import typing

from repro.devtools.simlint.analyzer import Report, lint_project
from repro.devtools.simlint.rules import RULES
from repro.devtools.simlint.sarif import render_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description=(
            "Determinism & architecture static analysis for the "
            "RootHammer reproduction (rules SL001-SL016)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH", help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules",
        metavar="SL00X[,SL00Y]",
        help="only report these rules (default: all)",
    )
    parser.add_argument(
        "--profile",
        choices=("auto", "strict", "relaxed"),
        default="auto",
        help=(
            "rule profile: auto derives it per path (tests/ and "
            "benchmarks/ relax), strict/relaxed force one everywhere"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the suppression-debt report after linting",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe the rules and exit"
    )
    return parser


def _print_stats(report: Report, elapsed: float, out: typing.TextIO) -> None:
    stats = report.stats
    print("-- simlint stats " + "-" * 43, file=out)
    print(
        f"files analyzed        {stats['files']}"
        f"  ({elapsed:.2f}s)",
        file=out,
    )
    print(f"findings              {stats['findings']}", file=out)
    print(
        f"suppressed findings   {stats['suppressed']}"
        + (
            "  ("
            + ", ".join(
                f"{rule}: {n}"
                for rule, n in stats["suppressed_by_rule"].items()
            )
            + ")"
            if stats["suppressed_by_rule"]
            else ""
        ),
        file=out,
    )
    print(
        f"suppression comments  {stats['directives']}"
        f"  ({stats['stale_directives']} stale)",
        file=out,
    )
    exempt = stats["exempt_imports"]
    print(
        "layering exemptions   "
        f"{exempt['typing']} TYPE_CHECKING import(s), "
        f"{exempt['lazy']} lazy import(s)",
        file=out,
    )
    if stats["by_file"]:
        print("suppression debt by file:", file=out)
        for path, row in stats["by_file"].items():
            print(
                f"  {path}: {row['directives']} comment(s), "
                f"{row['suppressed']} finding(s) suppressed",
                file=out,
            )


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0
    if not args.paths:
        parser.error("the following arguments are required: PATH")

    selected = None
    if args.rules:
        selected = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
        unknown = selected - RULES.keys()
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(sorted(unknown))}")

    profile = None if args.profile == "auto" else args.profile
    started = time.perf_counter()
    report = lint_project(args.paths, profile=profile)
    elapsed = time.perf_counter() - started

    findings = report.findings
    if selected is not None:
        findings = [f for f in findings if f.rule in selected]
    errors = report.errors

    out = sys.stdout
    if args.output:
        out = open(args.output, "w", encoding="utf-8")
    try:
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "findings": [f.as_dict() for f in findings],
                        "errors": [
                            {"path": e.path, "message": e.message}
                            for e in errors
                        ],
                        "suppressed": report.suppressed,
                        "stats": report.stats,
                    },
                    indent=2,
                ),
                file=out,
            )
        elif args.format == "sarif":
            print(render_sarif(findings, errors), file=out)
        else:
            for finding in findings:
                print(finding.render(), file=out)
            for error in errors:
                print(f"{error.path}: error: {error.message}", file=sys.stderr)
            summary = f"{len(findings)} finding(s)"
            if report.suppressed:
                summary += (
                    f", {report.suppressed} suppression comment(s) in effect"
                )
            if errors:
                summary += f", {len(errors)} file error(s)"
            print(summary, file=out)
    finally:
        if args.output:
            out.close()

    if args.stats:
        # Keep machine-readable stdout clean: stats go to stderr unless the
        # report itself went to a file.
        stats_out = sys.stdout if args.output else sys.stderr
        if args.format == "text" and not args.output:
            stats_out = sys.stdout
        _print_stats(report, elapsed, stats_out)

    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
