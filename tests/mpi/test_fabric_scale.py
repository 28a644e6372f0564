"""Machines on multi-stage fabrics (the scale what-if path)."""

import pytest

from repro.errors import ConfigurationError
from repro.mpi import Machine
from repro.topology import CrossbarTopology, FatTreeTopology, TopologySpec

#: Leaf/spine tree of 4-port switches: 2 nodes per leaf.
TWO_LEVEL = TopologySpec(kind="fattree", radix=4, levels=2)


def exchange(mpi):
    peer = (mpi.rank + mpi.size // 2) % mpi.size
    status = yield from mpi.sendrecv(
        dest=peer, send_size=4096, source=peer, recv_size=4096
    )
    return status.size


def pingpong_between(a, b):
    """20 zero-byte round trips between ranks ``a`` and ``b``."""

    def prog(mpi):
        if mpi.rank not in (a, b):
            return None
        peer = b if mpi.rank == a else a
        t0 = mpi.now
        for _ in range(20):
            if mpi.rank == a:
                yield from mpi.send(dest=peer, size=0)
                yield from mpi.recv(source=peer, size=0)
            else:
                yield from mpi.recv(source=peer, size=0)
                yield from mpi.send(dest=peer, size=0)
        return mpi.now - t0 if mpi.rank == a else None

    return prog


@pytest.mark.parametrize("net", ["ib", "elan"])
def test_two_level_machine_runs(net):
    m = Machine(net, 8, ppn=1, topology=TWO_LEVEL)
    assert isinstance(m.fabric, FatTreeTopology) and m.fabric.levels == 2
    result = m.run(exchange)
    assert all(v == 4096 for v in result.values)


def test_cross_leaf_slower_than_same_leaf():
    """Extra hops cost latency: cross-leaf pairs pay more."""
    # radix 4 -> 2 nodes per leaf: (0,1) same leaf, (0,2) cross leaf.
    m_same = Machine("elan", 8, topology=TWO_LEVEL, seed=1)
    t_same = m_same.run(pingpong_between(0, 1)).values[0]
    m_cross = Machine("elan", 8, topology=TWO_LEVEL, seed=1)
    t_cross = m_cross.run(pingpong_between(0, 2)).values[0]
    assert t_cross > t_same


#: Exact ping-pong times (us) on the two-level radix-4 tree, seed 1.
#: Measured on the pre-1.10 leaf/spine fabric class, so they pin that
#: removed path's results to the surviving TopologySpec path.
TWO_LEVEL_PINS = {
    ("ib", (0, 1)): 226.57113752122575,
    ("ib", (0, 2)): 258.7001697792856,
    ("elan", (0, 1)): 91.46396761133929,
    ("elan", (0, 2)): 113.43319838057141,
}


@pytest.mark.parametrize("net,pair", sorted(TWO_LEVEL_PINS))
def test_two_level_pingpong_pinned(net, pair):
    m = Machine(net, 8, topology=TWO_LEVEL, seed=1)
    assert m.run(pingpong_between(*pair)).values[0] == TWO_LEVEL_PINS[net, pair]


def test_bad_radix_rejected():
    with pytest.raises(ConfigurationError):
        Machine("ib", 8, topology=TopologySpec(kind="fattree", radix=3, levels=2))


def test_crossbar_default_when_no_radix():
    m = Machine("ib", 4)
    assert type(m.fabric) is CrossbarTopology
    assert m.topology == TopologySpec()
