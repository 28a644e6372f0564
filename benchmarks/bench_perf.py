"""Simulator throughput (events/sec) across fabric topologies.

Not a paper figure — a performance acceptance pass for the topology
and failover subsystems.  Since the perf-ladder refactor both tests
are thin wrappers over :mod:`repro.perf.ladder`: the same rungs the
``repro perf`` CLI runs, reduced to the historical
``BENCH_topology.json`` / ``BENCH_chaos.json`` projections.  One code
path feeds the CLI's unified ``BENCH_perf.json`` and these trend
files; CI uploads them as artifacts for trajectory tracking.
"""

import json
from pathlib import Path

from repro.perf import chaos_rows, ladder_cases, run_case, topology_rows
from repro.perf.ladder import CHAOS_CASES, FLOOR_EVENTS_PER_SEC, TOPOLOGY_CASES

_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = _ROOT / "BENCH_topology.json"
CHAOS_RESULT_PATH = _ROOT / "BENCH_chaos.json"


def _run(names, quick: bool):
    return [
        run_case(case, quick=quick, profile=True)
        for case in ladder_cases(names)
    ]


def test_topology_events_per_sec(benchmark, quick):
    rows = benchmark.pedantic(
        lambda: _run(TOPOLOGY_CASES, quick), rounds=1, iterations=1
    )

    print()
    print(f"{'case':>12} {'latency':>12} {'events':>10} {'events/sec':>12}")
    for row in rows:
        print(
            f"{row['case']:>12} {row['latency_us']:>9.2f} us "
            f"{row['events']:>10} {row['events_per_sec']:>12}"
        )

    by_case = {row["case"]: row for row in rows}
    # The deeper tree pays real per-hop latency: the distant-pair route
    # crosses four ISLs, so it must be measurably slower than one chassis.
    assert (
        by_case["fattree-256"]["latency_us"]
        > by_case["crossbar-64"]["latency_us"]
    )
    # Throughput floor: catch an order-of-magnitude kernel regression
    # without flaking on machine noise.
    assert all(
        row["events_per_sec"] > FLOOR_EVENTS_PER_SEC for row in rows
    )

    RESULT_PATH.write_text(json.dumps(topology_rows(rows), indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


def test_degraded_fabric_events_per_sec(benchmark, quick):
    rows = benchmark.pedantic(
        lambda: _run(CHAOS_CASES, quick), rounds=1, iterations=1
    )
    row = rows[0]

    print()
    print(
        f"{row['case']}: bw ratio {row['bw_ratio']:.3f}, "
        f"{row['failovers']} failover(s), "
        f"{row['events']} events, {row['events_per_sec']} events/sec"
    )
    # Degraded mode must still be a simulation, not a crawl: same
    # order-of-magnitude throughput floor as the healthy fabrics.
    assert row["events_per_sec"] > FLOOR_EVENTS_PER_SEC
    assert 0.0 < row["bw_ratio"] < 1.0
    assert row["failovers"] >= 1

    CHAOS_RESULT_PATH.write_text(json.dumps(chaos_rows(rows), indent=2) + "\n")
    print(f"wrote {CHAOS_RESULT_PATH}")
