"""The perf ladder: a fixed workload set, timed in two windows.

Each rung is one simulation the repo already cares about — the
far-rank ping-pong on three fabrics, b_eff rings, a Sweep3D wavefront,
and the degraded-fabric failover case.  Like the paper's benchmarks
(and :meth:`~repro.mpi.Machine.run`), a rung is split where the last
rank enters the program, after MPI_Init and the start-up barrier:

* ``startup`` — MPI_Init plus the barrier;
* ``program`` — the measured program itself.

Each window reports its event count (seed-determined, so exact) and the
median and interquartile range of its wall time over ``TIMED_RUNS``
unprofiled runs.  ``repro perf run`` writes the rows as
``BENCH_perf.json``, the baseline ``repro perf diff`` gates against.
The kernel profiler runs only on request, as one extra pass after the
timed runs, and reports its own overhead.

Case labels are stable identifiers: the diff gate matches baseline to
current rows by ``case``, so renaming a rung resets its trajectory.
"""

from __future__ import annotations

import gc
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..apps import Sweep3dConfig, sweep3d_program
from ..faults import FaultPlan
from ..microbench.beff import (
    LOOP_COUNT,
    _ring_patterns,
    beff_program,
    beff_sizes,
)
from ..mpi import Machine, MpiRank, RunResult
from ..topology import TopologySpec
from ..units import MiB, geometric_mean
from .diff import SCHEMA
from .profiler import KernelProfiler, _clock, kernel_chrome_trace
from .sampling import StackSampler

#: Ping-pong payload of the far-pair rungs.
PINGPONG_SIZE = 8192

#: Unprofiled runs per rung; each window reports their median wall time.
TIMED_RUNS = 5


def far_pingpong(size: int, repetitions: int):
    """Ping-pong between rank 0 and the last rank (the longest route)."""

    def program(mpi: MpiRank):
        last = mpi.size - 1
        if mpi.rank not in (0, last):
            return None
        peer = last if mpi.rank == 0 else 0
        sbuf, rbuf = ("fp-send", mpi.rank), ("fp-recv", mpi.rank)
        t0 = mpi.now
        for _ in range(repetitions):
            if mpi.rank == 0:
                yield from mpi.send(dest=peer, size=size, buf=sbuf)
                yield from mpi.recv(source=peer, size=size, buf=rbuf)
            else:
                yield from mpi.recv(source=peer, size=size, buf=rbuf)
                yield from mpi.send(dest=peer, size=size, buf=sbuf)
        if mpi.rank == 0:
            return (mpi.now - t0) / (2.0 * repetitions)
        return None

    return program


@dataclass(frozen=True)
class LadderCase:
    """One rung: a named workload with quick and full parameters."""

    #: Stable identifier (the diff gate's join key).
    name: str
    #: Workload family: ``pingpong`` | ``beff`` | ``sweep3d`` | ``degraded``.
    app: str
    network: str
    nodes: int
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Family-specific knobs, keyed ``quick`` / ``full``.
    params: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def param(self, key: str, quick: bool) -> Any:
        return self.params["quick" if quick else "full"][key]


#: The standard ladder.  The labels are the diff gate's join key and
#: must not change.
LADDER: List[LadderCase] = [
    LadderCase(
        name="crossbar-64",
        app="pingpong",
        network="elan",
        nodes=64,
        params={"quick": {"reps": 50}, "full": {"reps": 400}},
    ),
    LadderCase(
        name="fattree-256",
        app="pingpong",
        network="elan",
        nodes=256,
        topology=TopologySpec(kind="fattree", radix=16),
        params={"quick": {"reps": 50}, "full": {"reps": 400}},
    ),
    LadderCase(
        name="torus-64",
        app="pingpong",
        network="elan",
        nodes=64,
        topology=TopologySpec(kind="torus", dims="4x4x4"),
        params={"quick": {"reps": 50}, "full": {"reps": 400}},
    ),
    LadderCase(
        name="beff-16",
        app="beff",
        network="elan",
        nodes=16,
        params={
            "quick": {"max_size": 16 * 1024},
            "full": {"max_size": 1 * MiB},
        },
    ),
    LadderCase(
        name="sweep3d-64",
        app="sweep3d",
        network="elan",
        nodes=64,
        params={"quick": {"n": 32}, "full": {"n": 64}},
    ),
    LadderCase(
        name="degraded-fattree-64",
        app="degraded",
        network="ib",
        nodes=64,
        topology=TopologySpec(kind="fattree", radix=8),
        params={"quick": {"reps": 30}, "full": {"reps": 150}},
    ),
]


def ladder_cases(names: Optional[Sequence[str]] = None) -> List[LadderCase]:
    """The ladder, optionally restricted to ``names`` (order preserved)."""
    if names is None:
        return list(LADDER)
    by_name = {case.name: case for case in LADDER}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        known = ", ".join(sorted(by_name))
        raise KeyError(f"unknown ladder case(s) {unknown}; known: {known}")
    return [by_name[n] for n in names]


# -- one rung ----------------------------------------------------------------


class _Rung(NamedTuple):
    """How to run one rung, whatever its workload family."""

    #: Builds the program for a fresh machine (b_eff draws its rings
    #: from the machine's own RNG stream).
    program: Callable[[Machine], Callable]
    #: The row's simulated fields, from a finished run and its machine.
    reduce: Callable[[RunResult, Machine], Dict[str, Any]]
    plan: Optional[FaultPlan] = None


def _machine(
    case: LadderCase,
    plan: Optional[FaultPlan] = None,
    profiler: Optional[KernelProfiler] = None,
) -> Machine:
    return Machine(
        case.network,
        case.nodes,
        seed=0,
        topology=case.topology,
        faults=plan,
        profiler=profiler,
    )


def _pingpong(case: LadderCase, quick: bool) -> _Rung:
    reps = case.param("reps", quick)
    program = far_pingpong(PINGPONG_SIZE, reps)

    def reduce(result: RunResult, machine: Machine) -> Dict[str, Any]:
        return {
            "repetitions": reps,
            "latency_us": result.values[0],
            "elapsed_us": result.elapsed_us,
            "window_start_us": max(s for s, _ in result.rank_spans),
            "failovers": 0,
        }

    return _Rung(lambda machine: program, reduce)


def _beff(case: LadderCase, quick: bool) -> _Rung:
    sizes = beff_sizes(case.param("max_size", quick))

    def program(machine: Machine):
        patterns = _ring_patterns(
            case.nodes, machine.sim.rng.stream("beff.patterns")
        )
        return beff_program(patterns, sizes)

    def reduce(result: RunResult, machine: Machine) -> Dict[str, Any]:
        # Same reduction as run_beff: per-size aggregate bandwidth
        # averaged over patterns, logarithmically averaged over sizes.
        # Rank 0's cells are pattern-major, one per (pattern, size).
        cells = result.values[0]
        n_patterns = len(cells) // len(sizes)
        per_size = []
        for size_idx, size in enumerate(sizes):
            bws = []
            for pat_idx in range(n_patterns):
                elapsed = cells[pat_idx * len(sizes) + size_idx]
                bws.append(case.nodes * 2 * size * LOOP_COUNT / elapsed)
            per_size.append(sum(bws) / len(bws))
        return {
            "sizes": len(sizes),
            "max_size": sizes[-1],
            "beff_mbps": round(geometric_mean(per_size), 3),
            "elapsed_us": result.elapsed_us,
        }

    return _Rung(program, reduce)


def _sweep3d(case: LadderCase, quick: bool) -> _Rung:
    config = Sweep3dConfig(n=case.param("n", quick))
    program = sweep3d_program(config)

    def reduce(result: RunResult, machine: Machine) -> Dict[str, Any]:
        return {
            "n": config.n,
            "elapsed_us": result.elapsed_us,
            "timestep_us": round(max(result.values), 3),
        }

    return _Rung(lambda machine: program, reduce)


def _degraded(case: LadderCase, quick: bool) -> _Rung:
    """Degraded IB runs on a fat tree with one ISL killed mid-window.

    One untimed pristine run on the same fabric places the kill; the
    timed runs are the degraded ones, which exercise the full
    hard-failure path (liveness checks, timeout, retransmit, APM
    migration).
    """
    from ..campaign import default_kill_link

    reps = case.param("reps", quick)
    topo = case.topology
    dead = default_kill_link(
        case.nodes, {"kind": topo.kind, "radix": topo.radix}
    )
    program = far_pingpong(PINGPONG_SIZE, reps)
    pristine = _machine(case).run(program, check_invariants=True)
    start = max(s for s, _ in pristine.rank_spans)
    kill = round(start + 0.5 * pristine.elapsed_us, 3)

    def reduce(result: RunResult, machine: Machine) -> Dict[str, Any]:
        failovers = int(machine.sim.faults.stats().get("failovers", 0))
        if failovers < 1:
            raise RuntimeError(
                f"{case.name}: kill at {kill} us missed the measured window"
            )
        return {
            "repetitions": reps,
            "dead_link": dead,
            "kill_at_us": kill,
            "pristine_latency_us": pristine.values[0],
            "degraded_latency_us": result.values[0],
            "bw_ratio": round(pristine.elapsed_us / result.elapsed_us, 6),
            "failovers": failovers,
        }

    return _Rung(
        lambda machine: program,
        reduce,
        FaultPlan(link_down=dead, link_down_at_us=kill),
    )


_RUNGS: Dict[str, Callable[[LadderCase, bool], _Rung]] = {
    "pingpong": _pingpong,
    "beff": _beff,
    "sweep3d": _sweep3d,
    "degraded": _degraded,
}

#: One window of one run: ``(events, wall_s)``.
_Window = Tuple[int, float]


def _run_once(
    case: LadderCase, rung: _Rung, profiler: Optional[KernelProfiler] = None
) -> Tuple[Dict[str, Any], _Window, _Window]:
    """Run ``rung`` on a fresh machine; returns its fields and windows.

    The program is wrapped once: each rank records ``(events, clock)``
    as it enters, and the record with the most events — the last rank
    in — is the start-up/program boundary.  The invariant check and the
    reduction to the row's simulated fields run after the clock stops.
    """
    gc.collect()  # no collector debt from the previous run
    machine = _machine(case, rung.plan, profiler)
    sim = machine.sim
    program = rung.program(machine)
    marks: List[_Window] = []

    def entered(mpi: MpiRank):
        marks.append((sim.events_processed, _clock()))
        return (yield from program(mpi))

    t0 = _clock()
    result = machine.run(entered)
    end = _clock()
    machine.verify_invariants()
    events, boundary = max(marks)
    return (
        rung.reduce(result, machine),
        (events, boundary - t0),
        (sim.events_processed - events, end - boundary),
    )


def _window(runs: List[_Window]) -> Dict[str, Any]:
    """Events and median/IQR wall time of one window across runs."""
    counts = sorted({events for events, _ in runs})
    if len(counts) != 1:
        raise RuntimeError(f"identical runs fired different events: {counts}")
    walls = [wall for _, wall in runs]
    iqr = 0.0
    if len(walls) > 1:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        iqr = q3 - q1
    return {
        "events": counts[0],
        "wall_s": round(statistics.median(walls), 6),
        "wall_iqr_s": round(iqr, 6),
    }


def _profiled_pass(
    case: LadderCase,
    rung: _Rung,
    timed_wall: float,
    sample: bool,
    sample_interval_ms: float,
    flamegraph_dir: Optional[Path],
    chrome_dir: Optional[Path],
) -> Dict[str, Any]:
    """One run under the kernel profiler; returns the row's extra keys."""
    sampler = (
        StackSampler(interval_ms=sample_interval_ms) if sample else None
    )
    profiler = KernelProfiler(sampler=sampler)
    _, startup, program = _run_once(case, rung, profiler)
    perf = profiler.summary()
    perf["overhead"] = round((startup[1] + program[1]) / timed_wall, 3)
    extra: Dict[str, Any] = {"perf": perf}
    if sampler is not None:
        extra["samples"] = sampler.total_samples
        if flamegraph_dir is not None:
            flamegraph_dir = Path(flamegraph_dir)
            flamegraph_dir.mkdir(parents=True, exist_ok=True)
            sampler.write_collapsed(flamegraph_dir / f"{case.name}.collapsed")
    if chrome_dir is not None:
        chrome_dir = Path(chrome_dir)
        chrome_dir.mkdir(parents=True, exist_ok=True)
        doc = kernel_chrome_trace(
            profiler,
            label=f"kernel:{case.name}",
            samples=sampler.samples if sampler is not None else None,
        )
        path = chrome_dir / f"{case.name}.kernel.trace.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return extra


def run_ladder(
    cases: Optional[Sequence[LadderCase]] = None,
    quick: bool = False,
    sample: bool = False,
    sample_interval_ms: float = 5.0,
    flamegraph_dir: Optional[Path] = None,
    chrome_dir: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Time ``cases`` (default: the whole ladder); one row per case.

    Each JSON-ready row carries a ``startup`` and a ``program`` window
    (events, median ``wall_s``, ``wall_iqr_s`` over ``TIMED_RUNS``
    runs) and the rung's simulated fields.  The timed runs go
    round-robin, one run of every rung per round, so a rung's samples
    spread over the whole pass: when the host's speed drifts, the drift
    widens each rung's IQR, and with it the gate's limit, instead of
    shifting one rung's median.

    ``sample=True`` or a ``chrome_dir`` adds one profiled pass per rung
    after the timed runs: a ``perf`` block whose ``overhead`` is its
    wall time over the timed median, plus ``<case>.collapsed`` (with
    ``flamegraph_dir``) and ``<case>.kernel.trace.json`` exports.
    """
    cases = list(LADDER if cases is None else cases)
    rungs = [_RUNGS[case.app](case, quick) for case in cases]
    runs: List[List[Tuple[Dict[str, Any], _Window, _Window]]] = [
        [] for _ in cases
    ]
    for n in range(TIMED_RUNS):
        if progress is not None:
            progress(f"timed round {n + 1}/{TIMED_RUNS} ...")
        for case, rung, case_runs in zip(cases, rungs, runs):
            case_runs.append(_run_once(case, rung))
    rows = []
    for case, rung, case_runs in zip(cases, rungs, runs):
        row: Dict[str, Any] = {
            "case": case.name,
            "app": case.app,
            "network": case.network,
            "nodes": case.nodes,
            "topology": case.topology.describe(),
            "quick": quick,
            "startup": _window([startup for _, startup, _ in case_runs]),
            "program": _window([program for _, _, program in case_runs]),
        }
        row.update(case_runs[0][0])
        if sample or chrome_dir is not None:
            timed_wall = statistics.median(
                s[1] + p[1] for _, s, p in case_runs
            )
            row.update(
                _profiled_pass(
                    case,
                    rung,
                    timed_wall,
                    sample,
                    sample_interval_ms,
                    flamegraph_dir,
                    chrome_dir,
                )
            )
        if progress is not None:
            startup, program = row["startup"], row["program"]
            progress(
                f"{case.name}: {startup['events']} + {program['events']} "
                f"events, program window {program['wall_s']:.4f} s"
            )
        rows.append(row)
    return rows


def run_case(
    case: LadderCase, quick: bool = False, **options: Any
) -> Dict[str, Any]:
    """One rung's row; ``options`` are :func:`run_ladder`'s."""
    (row,) = run_ladder([case], quick, **options)
    return row


def write_results(rows: List[Dict[str, Any]], out: Path) -> Dict[str, Any]:
    """Write the ``BENCH_perf.json`` document for ``rows`` to ``out``."""
    doc = {
        "schema": SCHEMA,
        "quick": bool(rows) and all(r["quick"] for r in rows),
        "timed_runs": TIMED_RUNS,
        "cases": rows,
    }
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return doc
