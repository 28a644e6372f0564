"""Pinned simulated outputs, and the command that regenerates them.

``perfbench/pinned.json`` holds every simulated output the benchmark
checks, as exact float reprs:

* ``fabric-sweep`` and ``app-skeletons``: one table per pinned seed
  (the default seed and the held-out seed), op name -> output;
* ``serve-mixed``: op ``"<network> <size>"`` -> the ping-pong record
  value, for every spec the reads and writes can ask for.

A run compares each output it produces with its pin; a mismatch is a
failed operation.  Changing a pin is a change to the benchmark, made
on purpose with::

    python3 perfbench/pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

PIN_FILE = Path(__file__).resolve().parent / "pinned.json"


def load_pins(path: Path = PIN_FILE) -> Dict[str, Any]:
    return json.loads(path.read_text()) if path.exists() else {}


def regenerate() -> Dict[str, Any]:
    from repro.campaign.runner import execute_run
    from repro.campaign.spec import RunSpec

    from perfbench.common import PINNED_SEEDS
    from perfbench.serveload import NETWORKS, WRITE_SIZES, op_name, spec_dict
    from perfbench.simwork import SIM_WORKLOADS, canon, run_pass

    pins: Dict[str, Any] = {}
    for name, make in SIM_WORKLOADS.items():
        workload = make()
        tables = {}
        for seed in PINNED_SEEDS:
            p = run_pass(workload, seed)
            if p.errors:
                raise SystemExit(f"{name} seed {seed} failed: {p.errors}")
            tables[str(seed)] = dict(sorted(p.outputs.items()))
            print(f"pinned {name} seed {seed}: {len(p.outputs)} outputs", file=sys.stderr)
        if workload.seed_free and len({json.dumps(t) for t in tables.values()}) != 1:
            raise SystemExit(f"{name} outputs depend on the seed; it cannot be seed-free")
        pins[name] = tables
    serve = {}
    for network in NETWORKS:
        for size in WRITE_SIZES:
            record = execute_run(RunSpec.from_dict(spec_dict(network, size)))
            if record["status"] != "ok":
                raise SystemExit(f"serve spec {network} {size}: {record.get('error')}")
            serve[op_name(network, size)] = canon(record["value"])
    pins["serve-mixed"] = serve
    print(f"pinned serve-mixed: {len(serve)} outputs", file=sys.stderr)
    return pins


def main() -> int:
    root = PIN_FILE.parent.parent
    sys.path[:0] = [str(root), str(root / "src")]
    pins = regenerate()
    PIN_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_FILE.relative_to(root)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
