"""The two simulation workloads: ``fabric-sweep`` and ``app-skeletons``.

Both build their machines through the public API (``repro.mpi.Machine``
with a ``repro.topology.TopologySpec``) and run one machine per MPI
stack per job.  A *pass* runs every job of a workload once on fresh
machines; a run repeats passes for its time budget.

``fabric-sweep``
    Ranks 0 and 15 of a 16-node, 3-level fat tree (radix 4), so every
    message crosses the longest route (10 pipeline stages).  One
    program per stack runs a ping-pong sweep and then a windowed
    streaming sweep, with the Pallas repetition and message-count
    schedules of ``repro.microbench``.  Start-up is a few thousand
    events, so the pipelines, topology and NIC models do most of the
    work.  The programs draw no randomness: outputs are the same under
    every seed.

``app-skeletons``
    Sweep3D wavefront, NAS CG (class A matrix) and LAMMPS LJS at 16
    ranks on a crossbar: many small and medium messages from every rank,
    deep matching queues, collectives and modelled compute.  Compute
    jitter is drawn from the machine seed, so outputs depend on it.
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import (
    CG_CLASS_A,
    LJS,
    Sweep3dConfig,
    cg_program,
    lammps_program,
    sweep3d_program,
)
from repro.microbench.pingpong import WARMUP_EXCHANGES, default_repetitions
from repro.microbench.streaming import default_message_count
from repro.mpi import Machine, MpiRank
from repro.perf import KernelProfiler
from repro.topology import TopologySpec
from repro.units import MiB

from .common import (
    DEFAULT_SEED,
    PER_LAYER,
    Metric,
    RunOutcome,
    clock,
    median,
    peak_rss_mb,
)
from .tracer import IsendCounter, LayerTracer

STACKS = ("ib", "elan")
RANKS = 16

#: 16 nodes, three levels of radix-4 switches: the far pair crosses
#: up-up-down-down links and five switches.
FAT_TREE = TopologySpec(kind="fattree", radix=4, levels=3)
CROSSBAR = TopologySpec()

#: 0 B to 4 MiB in steps of 16x, plus the 4 MiB end point: eager,
#: medium and rendezvous sizes on both stacks.
SWEEP_SIZES = (0, 1, 16, 256, 4096, 65536, 1 * MiB, 4 * MiB)
STREAM_WINDOW = 32

SWEEP3D = Sweep3dConfig(n=20, iterations=1)
CG = dataclasses.replace(CG_CLASS_A, niter=1, cgitmax=4)
LJS_SHORT = dataclasses.replace(LJS, steps=3)
APPS = (
    ("sweep3d", sweep3d_program, SWEEP3D),
    ("cg", cg_program, CG),
    ("ljs", lammps_program, LJS_SHORT),
)


def canon(value: Any) -> Any:
    """A simulated output as exact float reprs (the pinned form)."""
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return repr(float(value))


def far_pair_sweep(sizes: Tuple[int, ...]) -> Callable[[MpiRank], Any]:
    """Ping-pong then windowed streaming between rank 0 and the last rank.

    Rank 0 returns ``{(program, size): microseconds}``: half the mean
    round trip for ping-pong, first injection to final receipt for
    streaming.
    """

    def program(mpi: MpiRank):
        last = mpi.size - 1
        if mpi.rank not in (0, last):
            return None
        first = mpi.rank == 0
        peer = last if first else 0
        sbuf, rbuf = ("fs-send", mpi.rank), ("fs-recv", mpi.rank)
        out: Dict[Tuple[str, int], float] = {}
        for size in sizes:
            reps = default_repetitions(size)
            t0 = mpi.now
            for i in range(WARMUP_EXCHANGES + reps):
                if i == WARMUP_EXCHANGES:
                    t0 = mpi.now
                if first:
                    yield from mpi.send(dest=peer, size=size, buf=sbuf)
                    yield from mpi.recv(source=peer, size=size, buf=rbuf)
                else:
                    yield from mpi.recv(source=peer, size=size, buf=rbuf)
                    yield from mpi.send(dest=peer, size=size, buf=sbuf)
            out[("pingpong", size)] = (mpi.now - t0) / (2.0 * reps)
        for k, size in enumerate(sizes):
            count = default_message_count(size)
            tag = 100 + 2 * k
            if not first:
                reqs = []
                for _ in range(count):
                    reqs.append((yield from mpi.irecv(source=peer, tag=tag, size=size)))
                yield from mpi.waitall(reqs)
                yield from mpi.send(dest=peer, size=0, tag=tag + 1)
                continue
            # Give the receiver a head start to pre-post, then stream.
            yield from mpi.compute(50.0)
            t0 = mpi.now
            outstanding = []
            for _ in range(count):
                outstanding.append((yield from mpi.isend(dest=peer, size=size, tag=tag)))
                if len(outstanding) >= STREAM_WINDOW:
                    yield from mpi.waitall(outstanding)
                    outstanding = []
            yield from mpi.waitall(outstanding)
            yield from mpi.recv(source=peer, tag=tag + 1, size=0)
            out[("streaming", size)] = mpi.now - t0
        return out if first else None

    return program


@dataclass(frozen=True)
class Job:
    """One machine: a stack, a topology, a program and the ops it yields."""

    stack: str
    topology: Optional[TopologySpec]
    program: Callable[[], Callable[[MpiRank], Any]]
    ops: Tuple[str, ...]
    extract: Callable[[Any], Dict[str, Any]]
    nodes: int = RANKS
    #: Machine seed; ``None`` takes the run's seed.
    seed: Optional[int] = None

    def machine(self, seed: int, profiler: Any = None) -> Machine:
        return Machine(
            self.stack, self.nodes, seed=seed if self.seed is None else self.seed,
            topology=self.topology, profiler=profiler,
        )


@dataclass(frozen=True)
class SimWorkload:
    name: str
    jobs: Tuple[Job, ...]
    #: Outputs do not depend on the seed (no randomness is drawn).
    seed_free: bool
    sizes: Dict[str, Any] = field(default_factory=dict)


def _sweep_job(stack: str, sizes: Tuple[int, ...]) -> Job:
    ops = tuple(
        f"{stack} {prog} {size}" for prog in ("pingpong", "streaming") for size in sizes
    )

    def extract(result: Any) -> Dict[str, Any]:
        return {
            f"{stack} {prog} {size}": canon(us)
            for (prog, size), us in result.values[0].items()
        }

    return Job(stack, FAT_TREE, lambda: far_pair_sweep(sizes), ops, extract)


def _app_job(stack: str, name: str, factory: Callable, config: Any) -> Job:
    op = f"{stack} {name}"
    return Job(
        stack, CROSSBAR, lambda: factory(config), (op,),
        lambda result: {op: canon(result.values)},
    )


def fabric_sweep(sizes: Tuple[int, ...] = SWEEP_SIZES) -> SimWorkload:
    return SimWorkload(
        "fabric-sweep",
        tuple(_sweep_job(stack, sizes) for stack in STACKS),
        seed_free=True,
        sizes={
            "nodes": RANKS, "topology": FAT_TREE.describe(), "pair": [0, RANKS - 1],
            "sizes": list(sizes), "stream_window": STREAM_WINDOW,
        },
    )


def app_skeletons(apps=APPS) -> SimWorkload:
    return SimWorkload(
        "app-skeletons",
        tuple(
            _app_job(stack, name, factory, config)
            for stack in STACKS
            for name, factory, config in apps
        ),
        seed_free=False,
        sizes={
            "ranks": RANKS, "topology": CROSSBAR.describe(),
            "apps": {name: dataclasses.asdict(config) for name, _, config in apps},
        },
    )


SIM_WORKLOADS = {"fabric-sweep": fabric_sweep, "app-skeletons": app_skeletons}


# -- one pass ------------------------------------------------------------------


@dataclass
class PassResult:
    run_s: float = 0.0
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: op -> error text, for jobs that raised.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Traced passes only: (stack, machine, profiler, result) per job.
    machines: List[Tuple[str, Any, Any, Any]] = field(default_factory=list)


def run_pass(workload: SimWorkload, seed: int, traced: bool = False) -> PassResult:
    """Run every job once on fresh machines, timing ``run``.

    A traced pass attaches a ``KernelProfiler`` to each machine and asks
    ``run`` for implementation statistics.
    """
    out = PassResult()
    for job in workload.jobs:
        profiler = KernelProfiler(allocations=False) if traced else None
        try:
            machine = job.machine(seed, profiler)
            t0 = clock()
            result = machine.run(job.program(), collect_stats=traced)
            t1 = clock()
            out.outputs.update(job.extract(result))
        except Exception as exc:  # noqa: BLE001 - a failed job fails its ops
            for op in job.ops:
                out.errors[op] = f"{type(exc).__name__}: {exc}"
            continue
        out.run_s += t1 - t0
        if traced:
            out.machines.append((job.stack, machine, profiler, result))
    return out


def setup_round(workload: SimWorkload, seed: int) -> float:
    """Seconds to construct every machine of one pass (none is run)."""
    total = 0.0
    for job in workload.jobs:
        t0 = clock()
        job.machine(seed)
        total += clock() - t0
    return total


def check_outputs(
    workload: SimWorkload, p: PassResult, expected: Dict[str, Any]
) -> Dict[str, str]:
    """Failed ops of one pass: raised, missing, or not equal to ``expected``."""
    failures = dict(p.errors)
    for job in workload.jobs:
        for op in job.ops:
            if op in failures:
                continue
            got, want = p.outputs.get(op), expected.get(op)
            if want is None:
                failures[op] = "no pinned or reference value"
            elif got != want:
                failures[op] = f"got {got}, expected {want}"
    return failures


def n_ops(workload: SimWorkload) -> int:
    return sum(len(job.ops) for job in workload.jobs)


# -- per-layer numbers of one traced pass -------------------------------------


def layer_metrics(tracer: LayerTracer, p: PassResult) -> Dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    total, own = tracer.ns_by_name()
    c = tracer.counts

    def self_s(*names: str) -> float:
        return sum(own.get(n, 0) for n in names) / 1e9

    events = resumes = heap_pushes = 0
    loop_s = 0.0
    eager = rndv = stalls = hits = lookups = depth = 0
    for stack, machine, profiler, result in p.machines:
        events += machine.sim.events_processed
        resumes += profiler.resumptions
        heap_pushes += profiler.heap_pushes
        loop_s += profiler.loop_wall_s
        if stack == "ib":
            for st in result.impl_stats:
                eager += st["eager_sends"]
                rndv += st["rndv_sends"]
                stalls += st["credit_stalls"]
                hits += st["reg_hits"]
                lookups += st["reg_hits"] + st["reg_misses"]
                depth = max(depth, st["unexpected_max_depth"])
    proc_s = sum(v for n, v in total.items() if n.startswith("proc:")) / 1e9
    mpi_spans = [n for n in own if n.startswith("mpi.")]
    isends = c["mpi.isends"]
    transfers = c["pipelines.transfers"]
    return {
        "sim.events": events,
        "sim.spawns": c["spawns"],
        "sim.resumes": resumes,
        "sim.heap_pushes": heap_pushes,
        "sim.events_per_msg": events / isends if isends else 0.0,
        "sim.self_s": loop_s - proc_s,
        "pipelines.transfers": transfers,
        "pipelines.stages_per_transfer": c["pipelines.stages"] / transfers if transfers else 0.0,
        "pipelines.spawns": c["pipelines.spawns"],
        "pipelines.self_s": self_s("pipelines.transfer", "proc:pipelines"),
        "topology.routes": c["topology.routes"],
        "topology.self_s": self_s("topology.wire_stages", "proc:topology"),
        "topology.build_s": total.get("topology.build", 0) / 1e9,
        "nic.pushes": c["nic.pushes"],
        "nic.bytes": c["nic.bytes"],
        "nic.self_s": self_s("nic.push", "proc:nic"),
        "ib.reg_hit_ratio": hits / lookups if lookups else 0.0,
        "mpi.isends": isends,
        "mpi.eager_sends": eager,
        "mpi.rndv_sends": rndv,
        "mpi.credit_stalls": stalls,
        "mpi.unexpected_max_depth": depth,
        "mpi.collectives": c["mpi.collectives"],
        "mpi.self_s": self_s("proc:mpi", *mpi_spans),
        "apps.compute_calls": c["apps.compute_calls"],
        "apps.self_s": self_s("apps.compute", "proc:apps"),
    }


#: Per-layer names that are host times; every other per-layer number of
#: a traced pass is a deterministic count or ratio.
TIME_KEYS = frozenset(
    ("sim.self_s", "pipelines.self_s", "topology.self_s", "topology.build_s",
     "nic.self_s", "mpi.self_s", "apps.self_s")
)


def traced_pass(
    workload: SimWorkload, seed: int, tracer: LayerTracer
) -> Tuple[PassResult, Dict[str, float]]:
    tracer.reset()
    with tracer:
        p = run_pass(workload, seed, traced=True)
    return p, layer_metrics(tracer, p)


def reference_outputs(
    workload: SimWorkload, seed: int, pins: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Pinned outputs that apply to ``seed``, or ``None`` if there are none."""
    pinned = pins.get(workload.name, {})
    if workload.seed_free:
        return next(iter(pinned.values()), None)
    return pinned.get(str(seed))


# -- one run -------------------------------------------------------------------

#: Set-up rounds before each timed pass; ``setup_s`` is the median of
#: all of them.  Host speed drifts over seconds, so rounds are spread
#: over the run rather than taken in one burst.
SETUP_ROUNDS = 5


def run_workload(
    workload: SimWorkload, seed: int, seconds: float, trace: bool, pins: Dict[str, Any]
) -> RunOutcome:
    """Measure ``workload`` for ``seconds`` and check every simulated output.

    Plain passes are timed with no tracing.  A plain run then repeats one
    pass under an ``IsendCounter`` for the message count; a traced run
    alternates plain and traced passes and reports per-layer numbers.
    Every pass is checked op by op against the pinned outputs for
    ``seed``; where none are pinned, against the run's first pass, plus
    one untimed pass at the default seed checked against its pins.
    """
    outcome = RunOutcome(sizes=dict(workload.sizes))
    expected = reference_outputs(workload, seed, pins)

    def check(p: PassResult, against: Optional[Dict[str, Any]]) -> None:
        nonlocal expected
        if against is None:  # the first pass becomes the reference
            expected = against = dict(p.outputs)
        outcome.record(check_outputs(workload, p, against), n_ops(workload))

    setup_round(workload, seed)  # warm-up: first construction pays lazy imports
    setups: List[float] = []
    plain: List[PassResult] = []
    layers: List[Dict[str, float]] = []
    traced_run_s: List[float] = []
    tracer = LayerTracer() if trace else None
    deadline = clock() + seconds
    while True:
        if tracer is None:
            setups.extend(setup_round(workload, seed) for _ in range(SETUP_ROUNDS))
        gc.collect()
        p = run_pass(workload, seed)
        check(p, expected)
        plain.append(p)
        if tracer is not None:
            gc.collect()
            q, lm = traced_pass(workload, seed, tracer)
            check(q, expected)
            traced_run_s.append(q.run_s)
            layers.append(lm)
        if clock() >= deadline:
            break
    rss = peak_rss_mb()
    run_s = median([p.run_s for p in plain])
    if str(seed) not in pins.get(workload.name, {}) and not workload.seed_free:
        ref = reference_outputs(workload, DEFAULT_SEED, pins)
        check(run_pass(workload, DEFAULT_SEED), ref or {})

    n = len(plain)
    if tracer is None:
        with IsendCounter() as counter:
            check(run_pass(workload, seed), expected)
        outcome.e2e = {
            "setup_s": Metric(median(setups), "s", len(setups)),
            "run_s": Metric(run_s, "s", n),
            "msgs_per_s": Metric(counter.isends / run_s, "1/s", n),
            "peak_rss_mb": Metric(rss, "MB", 1),
        }
        return outcome

    for lm in layers[1:]:
        for key, value in lm.items():
            if key not in TIME_KEYS and value != layers[0][key]:
                outcome.fail("per-layer counts", f"{key} differs between traced passes")
    outcome.layers = {
        key: Metric(median([lm[key] for lm in layers]), PER_LAYER[key], len(layers))
        for key in layers[0]
    }
    outcome.layers["trace.overhead"] = Metric(
        median(traced_run_s) / run_s, "ratio", len(layers)
    )
    outcome.spans = tracer
    return outcome
