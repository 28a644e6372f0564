#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one time budget.

Run from the repository root::

    python3 perfbench/run.py --workload fabric-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload app-skeletons --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload serve-mixed --seed 3 --seconds 20 --trace 0

``--trace 0`` times plain runs and reports the end-to-end metrics;
``--trace 1`` adds traced passes and reports the per-layer metrics.
Every simulated output is checked; a mismatch is a failed operation.
The last line of standard output is the result as one JSON object;
the full document (env block, sample counts, failures) is written to
``.perfbench/result-<workload>-seed<seed>-trace<0|1>.json`` and, for
traced runs, the spans of the last traced pass to
``.perfbench/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fabric-sweep", "app-skeletons", "serve-mixed")


def _terminate(signum: int, frame: object) -> None:
    # Unwind through every ``finally`` so started processes are stopped.
    raise SystemExit(128 + signum)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    signal.signal(signal.SIGTERM, _terminate)
    # A SIGINT ignored here (as in a background job) would stay ignored in
    # the serve daemon, which shuts its worker pool down on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from perfbench.common import (
        END_TO_END, OUT_DIR, PER_LAYER, Metric, env_block, print_table, write_json,
    )
    from perfbench.pins import load_pins

    pins = load_pins()
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        from perfbench.serveload import run_serve

        outcome = run_serve(args.seed, args.seconds, trace, pins)
    else:
        from perfbench.simwork import SIM_WORKLOADS, run_workload

        workload = SIM_WORKLOADS[args.workload]()
        outcome = run_workload(workload, args.seed, args.seconds, trace, pins)

    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    if trace:
        layers = dict(outcome.layers)
        layers["error_rate"] = Metric(error_rate, "ratio", outcome.attempted)
        # A layer the workload does not exercise reports 0 from 0 samples.
        reported = {
            name: Metric(layers[name].value, unit, layers[name].samples)
            if name in layers else Metric(0, unit, 0)
            for name, unit in PER_LAYER.items()
        }
    else:
        reported = {name: outcome.e2e[name] for name in END_TO_END}

    env = env_block(args.seed, outcome.sizes)
    tag = f"{args.workload}-seed{args.seed}"
    doc = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": error_rate,
        "failures": dict(sorted(outcome.failures.items())[:50]),
        "metrics": {name: m.as_dict() for name, m in reported.items()},
        "client": {name: m.as_dict() for name, m in outcome.extra.items()},
    }
    if outcome.spans is not None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"  # latest traced run
        doc["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                        "count": outcome.spans.save_spans(spans_path)}
    write_json(OUT_DIR / f"result-{tag}-trace{args.trace}.json", doc)

    print("env: " + json.dumps(env, sort_keys=True))
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", reported)
    if outcome.extra and not trace:
        print_table("client", outcome.extra)
    print(f"checks: {outcome.attempted} attempted, {outcome.failed} failed"
          f" (error_rate {error_rate:.6g})")
    for op, why in sorted(outcome.failures.items())[:10]:
        print(f"  FAILED {op}: {why}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit} for name, m in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
