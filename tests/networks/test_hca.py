"""Unit tests for the InfiniBand HCA model: QPs, RDMA, delivery."""

import pytest

from repro.errors import NetworkError, QueuePairError
from repro.topology import CrossbarTopology
from repro.hardware import Node
from repro.networks.base import NetRecord
from repro.networks.ib import Hca
from repro.networks.params import IBParams
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    params = IBParams()
    fabric = CrossbarTopology(sim, 2, params.fabric)
    nodes = [Node(sim, i) for i in range(2)]
    hcas = [Hca(sim, nodes[i], fabric, params) for i in range(2)]
    inboxes = [hcas[0].attach_rank(0), hcas[1].attach_rank(1)]
    return sim, nodes, hcas, inboxes


def test_attach_rank_twice_rejected():
    sim, nodes, hcas, _ = make_pair()
    with pytest.raises(NetworkError):
        hcas[0].attach_rank(0)


def test_rdma_without_connection_rejected():
    sim, nodes, hcas, _ = make_pair()
    rec = NetRecord(kind="eager", src_rank=0, dst_rank=1, size=100)

    def proc():
        yield from hcas[0].rdma_write(nodes[0].cpus[0], 0, hcas[1], rec)

    sim.spawn(proc())
    with pytest.raises(Exception) as ei:
        sim.run()
    assert isinstance(ei.value.__cause__, QueuePairError)


def test_deprecated_connection_error_alias_removed():
    import repro.errors

    assert not hasattr(repro.errors, "ConnectionError_")


def test_connect_pays_setup_once():
    sim, nodes, hcas, _ = make_pair()
    cpu = nodes[0].cpus[0]

    def proc():
        yield from hcas[0].connect(cpu, 0, 1)
        yield from hcas[0].connect(cpu, 0, 1)  # idempotent

    sim.spawn(proc())
    sim.run()
    assert sim.now == pytest.approx(IBParams().qp_setup)
    assert hcas[0].qp_count == 1
    assert hcas[0].is_connected(0, 1)
    assert not hcas[0].is_connected(1, 0)


def test_rdma_write_delivers_record_to_inbox():
    sim, nodes, hcas, inboxes = make_pair()
    cpu = nodes[0].cpus[0]
    rec = NetRecord(kind="eager", src_rank=0, dst_rank=1, size=512, tag=9)

    def proc():
        yield from hcas[0].connect(cpu, 0, 1)
        done = yield from hcas[0].rdma_write(cpu, 0, hcas[1], rec)
        yield done

    sim.spawn(proc())
    sim.run()
    assert len(inboxes[1]) == 1
    got = inboxes[1].try_get()
    assert got is rec


def test_delivery_to_unattached_rank_fails():
    sim, nodes, hcas, _ = make_pair()
    cpu = nodes[0].cpus[0]
    rec = NetRecord(kind="eager", src_rank=0, dst_rank=7, size=0)

    def proc():
        yield from hcas[0].connect(cpu, 0, 7)
        done = yield from hcas[0].rdma_write(cpu, 0, hcas[1], rec)
        yield done

    sim.spawn(proc())
    with pytest.raises(Exception):
        sim.run()


def test_rdma_larger_takes_longer():
    times = {}
    for size in (64, 65536):
        sim, nodes, hcas, _ = make_pair()
        cpu = nodes[0].cpus[0]
        rec = NetRecord(kind="eager", src_rank=0, dst_rank=1, size=size)

        def proc():
            yield from hcas[0].connect(cpu, 0, 1)
            done = yield from hcas[0].rdma_write(cpu, 0, hcas[1], rec)
            yield done

        sim.spawn(proc())
        sim.run()
        times[size] = sim.now
    assert times[65536] > times[64] + 50.0


def test_memory_footprint_scales_linearly():
    params = IBParams()
    f32 = params.memory_footprint(32)
    f64 = params.memory_footprint(64)
    assert f64 > f32
    # Linear in peers: footprint(n) = (n-1) * per_peer
    per_peer = params.ring_bytes_per_peer() + params.qp_footprint_bytes
    assert f32 == 31 * per_peer
    assert f64 == 63 * per_peer


def test_describe_mentions_eager_threshold():
    sim, nodes, hcas, _ = make_pair()
    assert "1024" in hcas[0].describe()
