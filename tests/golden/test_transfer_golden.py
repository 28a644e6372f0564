"""Golden slice of the pipelined-transfer primitive: exact float reprs.

Every value below is the ``repr`` of a simulated time, so any change to
the timing recurrence or to same-instant ordering on a contended
resource fails here rather than drifting silently.  The slice covers
keyed same-instant contention on one :class:`~repro.sim.FifoResource`,
size 0 / one chunk / many chunks, resource-less stages, a last stage
with ``latency_out=0``, the ``f_{i-1} + head/B_i`` pipelining term, and
ping-pong on both stacks over crossbar, fat-tree and torus fabrics,
with and without a soft-fault plan, and the resource statistics of a
telemetry snapshot (busy time, utilization, occupancy, grants, waiting,
high-water marks) of a contended far-pair run.

Regenerating the pins is a model change, recorded with its reason::

    PYTHONPATH=src python tests/golden/test_transfer_golden.py
"""

from __future__ import annotations

import json
from typing import Dict, List

import pytest

from repro import FaultPlan, Machine
from repro.microbench.pingpong import pingpong_program
from repro.perf.ladder import far_pingpong
from repro.sim import FifoResource, Simulator, Stage, transfer, transfer_time_estimate
from repro.telemetry.collect import snapshot
from repro.topology import TopologySpec


def _run(sim: Simulator, jobs) -> List[str]:
    """Run ``(start_delay, stages, size, chunk, key)`` jobs; end-time reprs."""
    ends: Dict[int, float] = {}

    def job(idx, delay, stages, size, chunk, key):
        if delay:
            yield sim.timeout(delay)
        ends[idx] = yield from transfer(sim, stages, size, chunk=chunk, key=key)

    for idx, (delay, stages, size, chunk, key) in enumerate(jobs):
        sim.spawn(job(idx, delay, stages, size, chunk, key), name=f"job{idx}")
    sim.run_all()
    return [repr(ends[i]) for i in range(len(jobs))]


def _route(sim: Simulator, tag: str, shared: FifoResource) -> List[Stage]:
    """A 5-stage host -> bus -> wire -> bus -> host route over ``shared``."""
    return [
        Stage(FifoResource(sim, name=f"{tag}.tx"), 1066.0, 0.3, 0.02, "tx"),
        Stage(shared, 950.0, 0.1, 0.13, "bus"),
        Stage(None, None, 0.2, 0.1, "switch"),
        Stage(FifoResource(sim, name=f"{tag}.wire"), 1000.0, 0.0, 0.05, "wire"),
        Stage(FifoResource(sim, name=f"{tag}.rx"), 1066.0, 0.3, 0.7, "rx"),
    ]


def contention() -> Dict[str, List[str]]:
    """Keyed transfers contending for one resource at the same instant."""
    out = {}
    for size in (0, 1500, 65536):
        sim = Simulator()
        bus = FifoResource(sim, name="bus")
        jobs = [(0.0, _route(sim, f"r{k}", bus), size, 2048, ("msg", k)) for k in range(4)]
        # Latecomers arrive while the first wave still holds the bus.
        jobs += [(0.4, _route(sim, f"l{k}", bus), size, 2048, ("late", k)) for k in range(2)]
        ends = _run(sim, jobs)
        out[f"size{size}"] = ends + [repr(bus.total_wait_time), repr(bus.busy_time)]
    return out


def shared_across_stages() -> List[str]:
    """One resource used at different stage indices by different messages."""
    sim = Simulator()
    a = FifoResource(sim, name="a")
    b = FifoResource(sim, name="b")
    fwd = [Stage(a, 500.0, 0.5, 0.25), Stage(b, 250.0, 0.0, 0.5)]
    rev = [Stage(b, 250.0, 0.25, 0.1), Stage(a, 500.0, 0.0, 0.0)]
    jobs = [(0.0, fwd, 4096, 1024, ("f", i)) for i in range(3)]
    jobs += [(0.0, rev, 4096, 1024, ("r", i)) for i in range(3)]
    jobs += [(1.0, fwd, 100, 1024, ("f", 9)), (1.0, rev, 0, 1024, ("r", 9))]
    return _run(sim, jobs)


def sizes() -> Dict[str, str]:
    """Size 0, below one chunk, exactly one chunk, and many chunks."""
    out = {}
    for size in (0, 1, 2047, 2048, 2049, 1 << 20):
        sim = Simulator()
        (end,) = _run(sim, [(0.0, _route(sim, "s", FifoResource(sim)), size, 2048, 7)])
        out[str(size)] = end
    return out


def resourceless() -> Dict[str, str]:
    """Pure-delay stages: no resource anywhere on the route."""
    stages = [
        Stage(None, 1066.0, 0.3, 0.02),
        Stage(None, None, 0.15, 0.0),
        Stage(None, 950.0, 0.1, 0.4),
        Stage(None, 1066.0, 0.3, 0.02),
    ]
    out = {}
    for size in (0, 512, 1 << 16):
        (end,) = _run(Simulator(), [(0.0, stages, size, 2048, None)])
        out[str(size)] = end
    return out


def last_stage_without_latency() -> Dict[str, str]:
    """A final stage with ``latency_out=0``: delivery at its finish."""
    out = {}
    for size in (0, 4096):
        sim = Simulator()
        stages = [
            Stage(FifoResource(sim, name="h"), 800.0, 0.4, 0.3),
            Stage(FifoResource(sim, name="t"), 900.0, 0.2, 0.0),
        ]
        (end,) = _run(sim, [(0.0, stages, size, 1024, None)])
        out[str(size)] = end
    return out


def head_term() -> Dict[str, str]:
    """A fast stage after a slow one finishes ``head/B_i`` after it.

    Stage 0 (10 B/us, ``latency_out`` 5 us) finishes at 1000 us; stage 1
    (1000 B/us) then finishes at ``1000 + 1000/1000 = 1001`` us.  The
    predecessor's ``latency_out`` delays only stage 1's *start*, not this
    finish bound, so the end is 1001, not 1006.
    """
    stages = [Stage(None, 10.0, 0.0, 5.0), Stage(None, 1000.0, 0.0, 0.0)]
    (end,) = _run(Simulator(), [(0.0, stages, 10000, 1000, None)])
    return {"end": end, "estimate": repr(transfer_time_estimate(stages, 10000, 1000))}


TOPOLOGIES = {
    "crossbar": None,
    "fattree": TopologySpec(kind="fattree", radix=4, levels=2),
    "torus": TopologySpec(kind="torus", dims="2x2x2"),
}


def pingpong() -> Dict[str, List[str]]:
    """Far-pair ping-pong on both stacks over each fabric kind."""
    out = {}
    for network in ("ib", "elan"):
        for kind, topo in TOPOLOGIES.items():
            row = []
            for size in (0, 4096, 1 << 17):
                machine = Machine(network, 8, seed=1, topology=topo)
                result = machine.run(far_pingpong(size, 4))
                row += [repr(result.values[0]), repr(result.elapsed_us)]
            out[f"{network}-{kind}"] = row
    return out


def soft_faults() -> Dict[str, List[str]]:
    """Ping-pong under bit errors and NIC stalls (a seeded soft-fault plan)."""
    plan = FaultPlan(ber=1e-6, nic_stall_rate=0.02, nic_stall_us=10.0)
    out = {}
    for network in ("ib", "elan"):
        machine = Machine(network, n_nodes=2, seed=0, faults=plan)
        result = machine.run(pingpong_program(4096, 10))
        out[network] = [repr(result.values[0]), repr(result.elapsed_us)]
    return out


#: The per-resource statistics a snapshot reports, in pin order.
RESOURCE_STATS = (
    "busy_us", "utilization", "occupancy", "grants", "wait_us", "queue_hwm", "in_use_hwm",
)


def far_exchange(size: int, window: int):
    """Rank 0 and the last rank swap ``window`` non-blocking messages."""

    def program(mpi):
        last = mpi.size - 1
        if mpi.rank not in (0, last):
            return None
        peer = last if mpi.rank == 0 else 0
        reqs = []
        for tag in range(window):
            reqs.append((yield from mpi.irecv(source=peer, tag=tag, size=size)))
        for tag in range(window):
            reqs.append((yield from mpi.isend(dest=peer, size=size, tag=tag)))
        yield from mpi.waitall(reqs)

    return program


def contended_snapshot() -> Dict[str, Dict[str, List[str]]]:
    """Snapshot statistics of every resource that queued in a far-pair run.

    Two ranks per node share each PCI-X slot and CPU pair, and both far
    ranks stream at once, so grants queue on buses, engines and links.
    A resource is pinned when its ``queue_hwm`` is non-zero, so one that
    stops (or starts) queueing changes the key set.
    """
    out = {}
    for network in ("ib", "elan"):
        topo = TopologySpec(kind="fattree", radix=4, levels=2)
        machine = Machine(network, 4, ppn=2, seed=3, topology=topo)
        machine.run(far_exchange(16384, 6))
        snap = snapshot(machine.sim)
        row = {}
        for res in machine.sim.resources:
            prefix = f"resource.{res.name}"
            if res.name and snap[f"{prefix}.queue_hwm"]:
                row[res.name] = [repr(snap[f"{prefix}.{stat}"]) for stat in RESOURCE_STATS]
        row["sim"] = [repr(snap["sim.time_us"])]
        out[network] = row
    return out


CASES = {
    "contention": contention,
    "shared_across_stages": shared_across_stages,
    "sizes": sizes,
    "resourceless": resourceless,
    "last_stage_without_latency": last_stage_without_latency,
    "head_term": head_term,
    "pingpong": pingpong,
    "soft_faults": soft_faults,
    "contended_snapshot": contended_snapshot,
}

GOLDEN = {
    "contention": {
        "size0": [
            "1.9",
            "2.0",
            "2.1",
            "2.2",
            "2.3",
            "2.4",
            "0.7000000000000001",
            "0.5999999999999999",
        ],
        "size1500": [
            "7.79320628024094",
            "9.472153648661992",
            "11.151101017083047",
            "12.8300483855041",
            "14.508995753925152",
            "16.187943122346205",
            "24.384210526315794",
            "10.073684210526316",
        ],
        "size65536": [
            "75.99566465883282",
            "145.08092781672752",
            "214.16619097462225",
            "283.251454132517",
            "352.3367172904117",
            "421.4219804483064",
            "1035.478947368421",
            "414.5115789473683",
        ],
    },
    "shared_across_stages": [
        "67.036",
        "83.42",
        "99.804",
        "34.968",
        "43.160000000000004",
        "51.95",
        "100.20400000000001",
        "51.95",
    ],
    "sizes": {
        "0": "1.9",
        "1": "1.9039288041868272",
        "2047": "9.94226217043547",
        "2048": "9.946190974622295",
        "2049": "9.947129060926235",
        "1048576": "1110.7746120272539",
    },
    "resourceless": {
        "0": "1.29",
        "512": "2.7895477436555742",
        "65536": "73.4176646588328",
    },
    "last_stage_without_latency": {
        "0": "0.8999999999999999",
        "4096": "6.731111111111112",
    },
    "head_term": {
        "end": "1001.0",
        "estimate": "1001.0",
    },
    "pingpong": {
        "ib-crossbar": [
            "5.664278438030578",
            "45.31422750424463",
            "34.04049518958725",
            "272.323961516698",
            "182.39627617430654",
            "1459.1702093944523",
        ],
        "ib-fattree": [
            "6.467504244482143",
            "51.74003395585714",
            "41.02651669496312",
            "328.21213355970497",
            "189.38229767968193",
            "1515.0583814374554",
        ],
        "ib-torus": [
            "6.065891341256361",
            "48.527130730050885",
            "37.53350594227521",
            "300.2680475382017",
            "185.88928692699434",
            "1487.1142954159548",
        ],
        "elan-crossbar": [
            "2.286599190283482",
            "18.292793522267857",
            "11.821821862348258",
            "94.57457489878607",
            "148.2556680161942",
            "1186.0453441295535",
        ],
        "elan-fattree": [
            "2.8358299595142853",
            "22.686639676114282",
            "15.4725910931175",
            "123.78072874494",
            "152.9802834008095",
            "1223.842267206476",
        ],
        "elan-torus": [
            "2.5612145748988837",
            "20.48971659919107",
            "13.64720647773288",
            "109.17765182186304",
            "150.61797570850183",
            "1204.9438056680146",
        ],
    },
    "soft_faults": {
        "ib": [
            "36.68271477079828",
            "995.3484719864236",
        ],
        "elan": [
            "11.821821862348239",
            "283.72372469635775",
        ],
    },
    "contended_snapshot": {
        "ib": {
            "up0": [
                "107.71612903225775", "0.09604269640764287", "0.09604269640764287",
                "23", "1.807074136956544", "1", "1",
            ],
            "up3": [
                "107.71612903225787", "0.09604269640764297", "0.09604269640764297",
                "23", "6.594216185625328", "1", "1",
            ],
            "down3": [
                "107.71612903225787", "0.09604269640764297", "0.09604269640764297",
                "23", "2.2737367544323206e-13", "1", "1",
            ],
            "pcix0": [
                "220.59789473683998", "0.19669121813717114", "0.19669121813717114",
                "48", "615.4107809847112", "5", "1",
            ],
            "pcix1": [
                "3.0063157894733195", "0.002680514768474662", "0.002680514768474662",
                "12", "0.2505263157894433", "1", "1",
            ],
            "pcix2": [
                "3.0063157894733195", "0.002680514768474662", "0.002680514768474662",
                "12", "0.2505263157894433", "1", "1",
            ],
            "pcix3": [
                "220.59789473683986", "0.19669121813717103", "0.19669121813717103",
                "48", "736.3949575551734", "6", "1",
            ],
            "nic0.tx": [
                "128.46923033389942", "0.11454673870602262", "0.11454673870602262",
                "24", "39.72711375212225", "4", "1",
            ],
            "nic1.tx": [
                "13.200000000000273", "0.011769487113682435", "0.011769487113682435",
                "6", "1.9494736842106022", "1", "1",
            ],
            "nic2.tx": [
                "13.200000000000273", "0.011769487113682435", "0.011769487113682435",
                "6", "1.9494736842106022", "1", "1",
            ],
            "nic3.tx": [
                "127.33421052631604", "0.11353472347881606", "0.11353472347881606",
                "24", "40.961578947368025", "4", "1",
            ],
            "link.isl:l0>s0": [
                "107.81935483870916", "0.09613473540755418", "0.09613473540755418",
                "25", "0.05161290322575951", "1", "1",
            ],
            "link.isl:s0>l1": [
                "107.81935483870927", "0.09613473540755428", "0.09613473540755428",
                "25", "2.2737367544323206e-13", "1", "1",
            ],
            "link.isl:l1>s0": [
                "107.81935483870939", "0.09613473540755438", "0.09613473540755438",
                "25", "0.05161290322575951", "1", "1",
            ],
            "link.isl:s0>l0": [
                "107.81935483870939", "0.09613473540755438", "0.09613473540755438",
                "25", "0.0", "1", "1",
            ],
            "sim": [
                "1121.5441992076967",
            ],
        },
        "elan": {
            "cpu0.0": [
                "253.96000000000038", "0.5390587389686442", "0.5390587389686442",
                "19", "15.180000000001826", "11", "1",
            ],
            "cpu0.1": [
                "251.32000000000002", "0.5334550412568888", "0.5334550412568888",
                "7", "0.6599999999999966", "1", "1",
            ],
            "pcix0": [
                "212.56421052631595", "0.4511915076239609", "0.4511915076239609",
                "24", "834.1789473684216", "6", "1",
            ],
            "cpu1.0": [
                "251.32000000000005", "0.5334550412568888", "0.5334550412568888",
                "7", "0.660000000000025", "1", "1",
            ],
            "cpu1.1": [
                "251.32", "0.5334550412568887", "0.5334550412568887",
                "7", "0.6599999999999966", "1", "1",
            ],
            "pcix1": [
                "2.8042105263157566", "0.005952253071815906", "0.005952253071815906",
                "12", "0.36659919028338095", "1", "1",
            ],
            "cpu2.0": [
                "251.32000000000005", "0.5334550412568888", "0.5334550412568888",
                "7", "0.660000000000025", "1", "1",
            ],
            "cpu2.1": [
                "251.32000000000002", "0.5334550412568888", "0.5334550412568888",
                "7", "0.6599999999999966", "1", "1",
            ],
            "pcix2": [
                "2.804210526315728", "0.005952253071815846", "0.005952253071815846",
                "12", "0.34291497975706875", "1", "1",
            ],
            "cpu3.0": [
                "251.32000000000005", "0.5334550412568888", "0.5334550412568888",
                "7", "0.660000000000025", "1", "1",
            ],
            "cpu3.1": [
                "253.96000000000032", "0.5390587389686441", "0.5390587389686441",
                "19", "15.180000000001797", "11", "1",
            ],
            "pcix3": [
                "212.56421052631597", "0.45119150762396093", "0.45119150762396093",
                "24", "822.2026315789476", "6", "1",
            ],
            "nic0.tx": [
                "92.54526315789508", "0.1964377573453149", "0.1964377573453149",
                "12", "0.06631578947369121", "1", "1",
            ],
            "elan0.thr": [
                "6.0", "0.012735676617624272", "0.012735676617624272",
                "24", "0.19999999999998863", "1", "1",
            ],
            "nic1.tx": [
                "1.8000000000000682", "0.0038207029852874268", "0.0038207029852874268",
                "6", "0.13263157894738242", "1", "1",
            ],
            "elan1.thr": [
                "3.0000000000000284", "0.006367838308812197", "0.006367838308812197",
                "12", "0.4300000000000068", "1", "1",
            ],
            "nic2.tx": [
                "1.8000000000000682", "0.0038207029852874268", "0.0038207029852874268",
                "6", "0.06631578947369121", "1", "1",
            ],
            "elan2.thr": [
                "3.0", "0.006367838308812136", "0.006367838308812136",
                "12", "0.19999999999998863", "1", "1",
            ],
            "nic3.tx": [
                "92.54526315789508", "0.1964377573453149", "0.1964377573453149",
                "12", "0.13263157894738242", "1", "1",
            ],
            "elan3.thr": [
                "6.000000000000028", "0.012735676617624333", "0.012735676617624333",
                "24", "0.9330769230768396", "2", "1",
            ],
            "sim": [
                "471.117489878543",
            ],
        },
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    assert CASES[case]() == GOLDEN[case]


class _FiredTypes:
    """A sanitizer stand-in that records the type of every popped event."""

    def __init__(self):
        self.fired: List[str] = []

    def observe(self, t, seq, event):
        self.fired.append(type(event).__name__)

    def observe_inline(self, t, seq, event):
        pass


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_uncontended_transfer_work_count(n):
    """No processes and no grant events; at most one event per stage plus two."""

    def events_and_spawns(with_transfer):
        recorder = _FiredTypes()
        sim = Simulator(sanitizer=recorder)
        stages = [
            Stage(FifoResource(sim, name=f"s{i}"), 1000.0, 0.1, 0.05)
            for i in range(n)
        ]

        def driver():
            if with_transfer:
                yield from transfer(sim, stages, 65536, key="m")
            else:
                yield sim.event().succeed()

        sim.spawn(driver())
        spawned = []
        real_spawn = sim.spawn
        sim.spawn = lambda *a, **k: spawned.append(a) or real_spawn(*a, **k)
        sim.run_all()
        assert all(res.in_use == 0 for res in sim.resources)
        return sim.events_processed, len(spawned), recorder.fired

    events, spawns, fired = events_and_spawns(True)
    idle_events, _, _ = events_and_spawns(False)
    assert spawns == 0
    assert "ResourceRequest" not in fired
    assert events - idle_events + 1 <= n + 2


if __name__ == "__main__":
    print(json.dumps({name: fn() for name, fn in CASES.items()}, indent=1))
