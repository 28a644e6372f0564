"""``repro lint`` — the determinism analyzer's command line.

Usage::

    repro lint src benchmarks --baseline .repro-lint-baseline.json
    repro lint src/repro --format json
    repro lint --list-rules
    repro lint src --baseline b.json --update-baseline

Exit status: 0 when no **new** findings (relative to the baseline, or
to an empty baseline when none is given); 1 when new findings exist;
2 on usage errors.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..errors import ReproError
from .baseline import Baseline
from .linter import lint_paths
from .reporters import render_json, render_rules, render_text


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_rules())
        return 0
    if not args.paths:
        raise ReproError("no paths given (or use --list-rules)")
    if args.update_baseline and args.baseline is None:
        raise ReproError("--update-baseline requires --baseline FILE")
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        raise ReproError("no such path: " + ", ".join(str(p) for p in missing))

    findings = lint_paths(args.paths)

    if args.update_baseline:
        Baseline.from_findings(findings).save(args.baseline)
        print(f"repro lint: wrote {len(findings)} entries to {args.baseline}")
        return 0

    diff = Baseline.load_or_empty(args.baseline).split(findings)
    if args.format == "json":
        print(render_json(diff))
    else:
        print(render_text(diff, show_known=args.show_known))
    return 0 if diff.ok else 1


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (directories are walked "
        "for *.py)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="committed baseline JSON; only findings absent from it "
        "fail the run",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to exactly the current findings and "
        "exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--show-known",
        action="store_true",
        help="also list baselined findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.set_defaults(func=cmd_lint)
