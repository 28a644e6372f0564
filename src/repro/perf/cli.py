"""``repro perf``: run / diff / list.

``run`` times the standard workload ladder, unprofiled, in two windows
per rung (start-up and program) and writes ``BENCH_perf.json``;
``--sample`` or ``--chrome`` adds one profiled pass per rung.  ``diff``
compares two results files and exits nonzero when a window's median
wall time rose past its spread-derived limit, a window's
seed-determined event count changed, or a rung's workload differs —
the CI perf gate.

Examples::

    repro perf run --quick -o BENCH_perf.json
    repro perf run --case crossbar-64 --sample --flamegraph perf/
    repro perf diff BENCH_perf.json /tmp/BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ReproError
from .diff import compare_results, load_results, render_comparison
from .ladder import LADDER, ladder_cases, run_ladder, write_results


def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.out)
    try:
        cases = ladder_cases(args.case or None)
    except KeyError as exc:
        raise ReproError(exc.args[0]) from None
    rows = run_ladder(
        cases,
        quick=args.quick,
        sample=args.sample,
        flamegraph_dir=Path(args.flamegraph) if args.flamegraph else None,
        chrome_dir=Path(args.chrome) if args.chrome else None,
        progress=None if args.quiet else (
            lambda line: print(line, file=sys.stderr)
        ),
    )
    write_results(rows, out)
    print(
        f"{'case':>22} {'startup_ev':>10} {'program_ev':>10} "
        f"{'startup_s':>10} {'program_s':>10} {'program_iqr':>11}"
    )
    for row in rows:
        startup, program = row["startup"], row["program"]
        print(
            f"{row['case']:>22} {startup['events']:>10} "
            f"{program['events']:>10} {startup['wall_s']:>10.4f} "
            f"{program['wall_s']:>10.4f} {program['wall_iqr_s']:>11.4f}"
        )
    print(f"wrote {out}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    comparison = compare_results(
        load_results(args.baseline), load_results(args.current)
    )
    if args.json:
        print(json.dumps(comparison, sort_keys=True))
    else:
        print(render_comparison(comparison))
    return 0 if comparison["passed"] else 1


def cmd_list(args: argparse.Namespace) -> int:
    for case in LADDER:
        print(
            f"{case.name:>22}  {case.app:<9} {case.network:<5} "
            f"{case.nodes:>4} nodes  {case.topology.describe()}"
        )
    return 0


def configure(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="action", required=True)

    run = sub.add_parser(
        "run", help="time the workload ladder (median of unprofiled runs)"
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="reduced repetitions/sizes (the CI configuration)",
    )
    run.add_argument(
        "-o",
        "--out",
        default="BENCH_perf.json",
        help="unified results file (default: BENCH_perf.json)",
    )
    run.add_argument(
        "--case",
        action="append",
        metavar="NAME",
        help="run only this ladder case (repeatable; see `repro perf list`)",
    )
    run.add_argument(
        "--sample",
        action="store_true",
        help="add a profiled pass per case that captures periodic "
        "Python stacks",
    )
    run.add_argument(
        "--flamegraph",
        metavar="DIR",
        help="with --sample, write <case>.collapsed folded-stack files "
        "here (flamegraph.pl / speedscope input)",
    )
    run.add_argument(
        "--chrome",
        metavar="DIR",
        help="add a profiled pass per case and write its "
        "<case>.kernel.trace.json Chrome-trace kernel attribution here",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress"
    )
    run.set_defaults(func=cmd_run)

    diff = sub.add_parser(
        "diff",
        help="compare two results files; exit 1 on a wall-time "
        "regression, a changed event count or a workload mismatch",
    )
    diff.add_argument("baseline", help="baseline BENCH_perf.json")
    diff.add_argument("current", help="current BENCH_perf.json")
    diff.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )
    diff.set_defaults(func=cmd_diff)

    lst = sub.add_parser("list", help="list the ladder cases")
    lst.set_defaults(func=cmd_list)
