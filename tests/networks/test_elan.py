"""Unit tests for the Elan-4 NIC: Tports matching, buffering, handshakes."""

import pytest

from repro.errors import NetworkError
from repro.topology import CrossbarTopology
from repro.hardware import Node
from repro.mpi.matching import ANY_SOURCE, ANY_TAG
from repro.networks.elan import ElanNic
from repro.networks.params import ElanParams
from repro.sim import Simulator
from repro.units import KiB, MiB


def make_pair(params=None):
    sim = Simulator()
    p = params or ElanParams()
    fabric = CrossbarTopology(sim, 2, p.fabric)
    nodes = [Node(sim, i) for i in range(2)]
    nics = [ElanNic(sim, nodes[i], fabric, p) for i in range(2)]
    nics[0].attach_rank(0)
    nics[1].attach_rank(1)
    return sim, nodes, nics


def test_attach_rank_twice_rejected():
    sim, nodes, nics = make_pair()
    with pytest.raises(NetworkError):
        nics[0].attach_rank(0)


def test_preposted_receive_matches_and_completes():
    sim, nodes, nics = make_pair()
    rx = nics[1].post_rx(nodes[1].cpus[0], 1, source=0, tag=5, max_size=1024)
    tx = nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=5, size=512)
    sim.run()
    assert rx.done.triggered and tx.done.triggered
    assert rx.matched_size == 512
    assert rx.matched_source == 0
    assert rx.matched_tag == 5


def test_unexpected_message_buffers_then_matches():
    sim, nodes, nics = make_pair()
    tx = nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=3, size=2048)
    sim.run()
    assert tx.done.triggered  # eager: sender completes even unexpected
    assert nics[1].buffered_bytes == 2048
    rx = nics[1].post_rx(nodes[1].cpus[0], 1, source=0, tag=3, max_size=4096)
    sim.run()
    assert rx.done.triggered
    assert nics[1].buffered_bytes == 0
    assert rx.matched_size == 2048


def test_wildcard_receive_matches_any():
    sim, nodes, nics = make_pair()
    rx = nics[1].post_rx(
        nodes[1].cpus[0], 1, source=ANY_SOURCE, tag=ANY_TAG, max_size=64
    )
    nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=42, size=16)
    sim.run()
    assert rx.done.triggered
    assert rx.matched_tag == 42


def test_tag_mismatch_does_not_match():
    sim, nodes, nics = make_pair()
    rx = nics[1].post_rx(nodes[1].cpus[0], 1, source=0, tag=1, max_size=64)
    nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=2, size=16)
    sim.run()
    assert not rx.done.triggered
    posted, unexpected = nics[1].queue_depths(1)
    assert (posted, unexpected) == (1, 1)


def test_large_message_waits_for_receiver():
    """Above the sync threshold the payload moves only after a match."""
    p = ElanParams()
    sim, nodes, nics = make_pair(p)
    size = p.sync_threshold + 1
    tx = nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=7, size=size)
    sim.run()
    assert not tx.done.triggered  # no receive posted: probe is parked
    assert nics[1].buffered_bytes == 0  # payload never sent
    rx = nics[1].post_rx(nodes[1].cpus[0], 1, source=0, tag=7, max_size=size)
    sim.run()
    assert tx.done.triggered and rx.done.triggered
    assert rx.matched_size == size


def test_large_message_preposted_flows_immediately():
    p = ElanParams()
    sim, nodes, nics = make_pair(p)
    size = 256 * KiB
    rx = nics[1].post_rx(nodes[1].cpus[0], 1, source=0, tag=7, max_size=size)
    tx = nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=7, size=size)
    sim.run()
    assert tx.done.triggered and rx.done.triggered


def test_truncation_fails_receive():
    sim, nodes, nics = make_pair()
    rx = nics[1].post_rx(nodes[1].cpus[0], 1, source=0, tag=0, max_size=10)
    nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=0, size=100)
    with pytest.raises(Exception):
        sim.run()
        # Failure surfaces when someone waits on rx.done; force it:
        if rx.done.triggered:
            _ = rx.done.value


def test_system_buffer_overflow_detected():
    p = ElanParams()
    sim, nodes, nics = make_pair(p)
    # Messages above sync_threshold only send probes, so overflow needs
    # many eager-path messages: 280 x 32 KiB > the 8 MiB system buffer.
    for i in range(280):
        nics[0].tx(
            nodes[0].cpus[0], 0, nics[1], 1, tag=i, size=p.sync_threshold
        )
    with pytest.raises(Exception):
        sim.run()


def test_ordering_two_same_envelope_messages():
    """Non-overtaking: first send matches first receive."""
    sim, nodes, nics = make_pair()
    nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=0, size=100)
    nics[0].tx(nodes[0].cpus[0], 0, nics[1], 1, tag=0, size=200)
    sim.run()
    rx1 = nics[1].post_rx(nodes[1].cpus[0], 1, source=0, tag=0, max_size=1024)
    sim.run()
    rx2 = nics[1].post_rx(nodes[1].cpus[0], 1, source=0, tag=0, max_size=1024)
    sim.run()
    assert rx1.matched_size == 100
    assert rx2.matched_size == 200


def test_footprint_is_constant_in_nprocs():
    p = ElanParams()
    assert p.memory_footprint(2) == p.memory_footprint(4096)
