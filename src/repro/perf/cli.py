"""``repro perf``: run / diff / list.

``run`` executes the standard workload ladder under the kernel
profiler and writes ``BENCH_perf.json`` (plus the historical
``BENCH_topology.json`` / ``BENCH_chaos.json`` next to it, from the
same runs).  ``diff`` compares two results files and exits nonzero on
an events/sec regression past the threshold or on any change in a
case's seed-determined event count — the CI perf gate.

Examples::

    repro perf run --quick -o BENCH_perf.json
    repro perf run --case crossbar-64 --sample --flamegraph perf/
    repro perf diff BENCH_perf.json /tmp/BENCH_perf.json --threshold 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ReproError
from .diff import DEFAULT_THRESHOLD, compare_results, load_results, render_comparison
from .ladder import LADDER, ladder_cases, run_ladder, write_results


def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.out)
    names = args.case if args.case else None
    try:
        ladder_cases(names)  # validate before simulating anything
    except KeyError as exc:
        raise ReproError(exc.args[0]) from None
    rows = run_ladder(
        names=names,
        quick=args.quick,
        profile=not args.no_profile,
        sample=args.sample,
        flamegraph_dir=Path(args.flamegraph) if args.flamegraph else None,
        chrome_dir=Path(args.chrome) if args.chrome else None,
        progress=None if args.quiet else (
            lambda line: print(line, file=sys.stderr)
        ),
    )
    legacy_root = None if args.no_legacy else out.parent
    write_results(rows, out, legacy_root=legacy_root)
    print(f"{'case':>22} {'events':>10} {'wall_s':>8} {'events/sec':>12}")
    for row in rows:
        print(
            f"{row['case']:>22} {row['events']:>10} "
            f"{row['wall_s']:>8.3f} {row['events_per_sec']:>12}"
        )
    print(f"wrote {out}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    comparison = compare_results(
        load_results(args.baseline), load_results(args.current),
        threshold=args.threshold,
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

    run = sub.add_parser("run", help="run the workload ladder")
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
        "--no-profile",
        action="store_true",
        help="skip per-event attribution (plain wall-clock timing only)",
    )
    run.add_argument(
        "--sample",
        action="store_true",
        help="capture periodic Python stacks while each case runs",
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
        help="write <case>.kernel.trace.json Chrome-trace kernel "
        "attribution here",
    )
    run.add_argument(
        "--no-legacy",
        action="store_true",
        help="skip re-emitting BENCH_topology.json / BENCH_chaos.json "
        "next to the output file",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress"
    )
    run.set_defaults(func=cmd_run)

    diff = sub.add_parser(
        "diff",
        help="compare two results files; exit 1 on an events/sec "
        "regression or a changed event count",
    )
    diff.add_argument("baseline", help="baseline BENCH_perf.json")
    diff.add_argument("current", help="current BENCH_perf.json")
    diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional events/sec drop "
        f"(default {DEFAULT_THRESHOLD}; generous to absorb runner noise)",
    )
    diff.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )
    diff.set_defaults(func=cmd_diff)

    lst = sub.add_parser("list", help="list the ladder cases")
    lst.set_defaults(func=cmd_list)
