"""``repro`` — the one command-line entry point.

Usage::

    repro report   [--quick] [--only fig3,fig7] ...   regenerate the paper
    repro campaign run|chaos|status|clean ...         cached, parallel campaigns
    repro trace    record|dump|summarize|diff ...     Chrome trace export
    repro explain  run|diff ...                       critical-path blame
    repro serve    [--root DIR] [--port N] ...        HTTP/JSON daemon
    repro perf     run|diff|list ...                  simulator self-profiling
    repro lint     PATH... [--baseline FILE]          determinism analyzer

``python -m repro ...`` is the same command.  Each subcommand's module
exposes ``configure(parser)``, which adds its options and sets ``func``
to a function of the parsed namespace returning the exit status.  The
dispatcher imports only the chosen subcommand's module, so ``repro
serve`` never loads the analyzer or the perf ladder.

Every subcommand shares one error surface: a :class:`ReproError`,
``OSError`` or ``ValueError`` escaping the command prints one ``repro
<cmd>: <message>`` line on stderr and exits 2, the same status argparse
gives a usage error.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Any, Optional, Sequence, Tuple

from .errors import ReproError

#: Subcommand -> (module exposing ``configure(parser)``, one-line help).
COMMANDS = {
    "report": (
        "repro.core.report",
        "regenerate every table and figure of the paper, in simulation",
    ),
    "campaign": (
        "repro.campaign.cli",
        "parallel, cached, resumable experiment campaigns",
    ),
    "trace": (
        "repro.telemetry.cli",
        "record and inspect Chrome trace exports of simulated runs",
    ),
    "explain": (
        "repro.telemetry.explain",
        "explain a run's critical path, or diff two explanations",
    ),
    "serve": (
        "repro.serve.cli",
        "serve campaign results and schedule new runs over HTTP/JSON",
    ),
    "perf": (
        "repro.perf.cli",
        "run the perf ladder and gate events/sec regressions",
    ),
    "lint": (
        "repro.analysis.cli",
        "determinism analyzer: per-file rules plus whole-program dataflow",
    ),
}


def parse_pair(text: str) -> Tuple[str, Any]:
    """One ``NAME=VALUE`` option, the value coerced to a JSON scalar.

    ``true``/``false`` (any case) become booleans, then int and float
    are tried, else the raw string is kept.  A missing ``=`` or an empty
    name is a usage error.
    """
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    if raw.lower() in ("true", "false"):
        return name, raw.lower() == "true"
    for cast in (int, float):
        try:
            return name, cast(raw)
        except ValueError:
            continue
    return name, raw


def add_pair_option(parser: argparse.ArgumentParser, flag: str, help: str) -> None:
    """A repeatable ``NAME=VALUE`` option; ``dict(args.<flag>)`` reads it."""
    parser.add_argument(
        flag, action="append", type=parse_pair, default=[],
        metavar="NAME=VALUE", help=help,
    )


def add_run_spec_options(parser: argparse.ArgumentParser) -> None:
    """The one-run options shared by ``trace record`` and ``explain run``."""
    group = parser.add_argument_group("run spec")
    group.add_argument("--app", default="pingpong", help="campaign app id")
    group.add_argument("--network", default="ib", choices=("ib", "elan"))
    group.add_argument("--nodes", type=int, default=2)
    group.add_argument("--ppn", type=int, default=1)
    group.add_argument("--seed", type=int, default=0)
    add_pair_option(
        group, "--arg", "app argument (repeatable), e.g. --arg size=4194304"
    )
    group.add_argument(
        "--label", default="", help="label (default: app, network, nodes, ppn, seed)"
    )


def run_spec(args: argparse.Namespace, telemetry) -> Tuple[Any, Any, str]:
    """Run the spec of :func:`add_run_spec_options` on a fresh machine.

    Returns ``(machine, result, label)``.
    """
    from .campaign.programs import build_program
    from .mpi import Machine

    machine = Machine(
        args.network, args.nodes, ppn=args.ppn, seed=args.seed,
        telemetry=telemetry,
    )
    result = machine.run(build_program(args.app, dict(args.arg)))
    label = args.label or (
        f"{args.app} {args.network} {args.nodes}n x{args.ppn}ppn "
        f"seed={args.seed}"
    )
    return machine, result, label


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: ``repro <command> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulation-based reproduction of 'A Comparison of 4X "
        "InfiniBand and Quadrics Elan-4 Technologies' (CLUSTER 2004).",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (module, summary) in COMMANDS.items():
        command = sub.add_parser(name, help=summary, description=summary)
        if argv[:1] == [name]:
            importlib.import_module(module).configure(command)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
