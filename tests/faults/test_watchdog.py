"""Runtime hardening: watchdog budgets and blocked-process rosters."""

import pytest

from repro.errors import DeadlockError, WatchdogError
from repro.mpi import Machine
from repro.sim import Simulator

pytestmark = pytest.mark.faults


def spinner(sim):
    while True:
        yield sim.timeout(1.0)


def test_event_budget_trips_watchdog():
    sim = Simulator()
    sim.spawn(spinner(sim), name="spinner")
    with pytest.raises(WatchdogError) as ei:
        sim.run(max_events=100)
    assert "event budget" in str(ei.value)
    assert ei.value.sim_time == sim.now
    assert any(name == "spinner" for name, _ in ei.value.roster)


def test_wall_clock_limit_trips_watchdog():
    sim = Simulator()
    sim.spawn(spinner(sim), name="spinner")
    with pytest.raises(WatchdogError) as ei:
        sim.run(wall_limit_s=1e-9)
    assert "wall" in str(ei.value)


def test_watchdog_roster_names_blocked_ranks():
    """A hung MPI program is reported with rank names and wait reasons."""

    def prog(mpi):
        if mpi.rank == 0:
            while True:
                yield from mpi.compute(1.0)
        else:
            yield from mpi.recv(source=0, size=64)  # never sent

    m = Machine("elan", 2)
    with pytest.raises(WatchdogError) as ei:
        m.run(prog, max_events=5000)
    names = [name for name, _ in ei.value.roster]
    assert "rank0" in names and "rank1" in names
    assert all(waiting for _, waiting in ei.value.roster)


def test_deadlock_error_names_blocked_processes():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(dest=1, size=1 << 20)  # rendezvous: needs 1
            return None
        yield from mpi.compute(1.0)  # rank 1 never receives

    m = Machine("ib", 2)
    with pytest.raises(DeadlockError) as ei:
        m.run(prog)
    assert ei.value.blocked == len(ei.value.roster) > 0
    assert any(name == "rank0" for name, _ in ei.value.roster)
    assert "waiting on" in str(ei.value)


def test_store_blocked_process_describes_its_store():
    from repro.sim import Store

    sim = Simulator()
    store = Store(sim, name="inbox7")

    def consumer():
        yield store.get()

    sim.spawn(consumer(), name="consumer")
    with pytest.raises(DeadlockError) as ei:
        sim.run_all()
    roster = dict(ei.value.roster)
    assert "inbox7" in roster["consumer"]


def test_resource_blocked_process_describes_its_resource():
    from repro.sim import FifoResource

    sim = Simulator()
    res = FifoResource(sim, name="tx-engine")

    def holder():
        yield res.request()
        yield sim.timeout(5.0)  # holds forever past the waiter's attempt

    def waiter():
        yield res.request()

    sim.spawn(holder(), name="holder")
    sim.spawn(waiter(), name="waiter")
    with pytest.raises(DeadlockError) as ei:
        sim.run_all()
    roster = dict(ei.value.roster)
    assert "tx-engine" in roster["waiter"]


def test_transfer_blocked_on_unreleased_resource_names_its_stage():
    from repro.sim import FifoResource, Stage, transfer

    sim = Simulator()
    links = [FifoResource(sim, name=f"down{i}") for i in range(10)]
    stages = [Stage(link, 1000.0, 0.1, 0.05) for link in links]

    def hog():
        yield links[2].request()  # granted and never released

    def sender():
        yield sim.timeout(1.0)
        yield from transfer(sim, stages, 4096, key="msg9")

    sim.spawn(hog(), name="hog")
    sim.spawn(sender(), name="sender")
    with pytest.raises(DeadlockError) as ei:
        sim.run_all()
    roster = dict(ei.value.roster)
    assert roster["sender"] == (
        "transfer stage 3/10: resource down2 [key=('msg9', 2)]"
    )


def test_clean_completion_unaffected_by_budgets():
    sim = Simulator()
    done = []

    def finite():
        yield sim.timeout(3.0)
        done.append(sim.now)

    sim.spawn(finite(), name="finite")
    sim.run(max_events=10_000, wall_limit_s=60.0)
    assert done == [3.0]
    assert sim.live_processes == 0


def test_invalid_budgets_rejected():
    sim = Simulator()
    with pytest.raises(Exception):
        sim.run(max_events=0)
    with pytest.raises(Exception):
        sim.run(wall_limit_s=0.0)
