"""Unit tests for FIFO resources and stores: ordering, stats, misuse."""

import pytest

from repro.errors import SimulationError
from repro.sim import FifoResource, Simulator, Store
from repro.sim.process import Interrupted
from repro.telemetry import Telemetry


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        FifoResource(sim, capacity=0)


def test_immediate_grant_when_free():
    sim = Simulator()
    res = FifoResource(sim)
    granted = []

    def proc():
        req = res.request()
        yield req
        granted.append(sim.now)
        res.release(req)

    sim.spawn(proc())
    sim.run()
    assert granted == [0.0]
    assert res.in_use == 0


def test_fifo_order_under_contention():
    sim = Simulator()
    res = FifoResource(sim)
    order = []

    def proc(tag, hold):
        yield from res.using(hold)
        order.append((tag, sim.now))

    sim.spawn(proc("first", 10.0))
    sim.spawn(proc("second", 5.0))
    sim.spawn(proc("third", 1.0))
    sim.run()
    assert order == [("first", 10.0), ("second", 15.0), ("third", 16.0)]


def test_capacity_two_allows_two_concurrent_holders():
    sim = Simulator()
    res = FifoResource(sim, capacity=2)
    done = []

    def proc(tag):
        yield from res.using(10.0)
        done.append((tag, sim.now))

    for t in range(3):
        sim.spawn(proc(t))
    sim.run()
    assert done == [(0, 10.0), (1, 10.0), (2, 20.0)]


def test_release_of_idle_resource_rejected():
    sim = Simulator()
    res = FifoResource(sim)
    req = res.request()  # granted immediately
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_cancel_queued_request():
    sim = Simulator()
    res = FifoResource(sim)
    held = res.request()
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # cancellation path
    assert res.queue_length == 0
    res.release(held)


def test_wait_time_statistics():
    sim = Simulator()
    res = FifoResource(sim)

    def holder():
        yield from res.using(8.0)

    def waiter():
        yield sim.timeout(2.0)
        yield from res.using(1.0)

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert res.total_grants == 2
    assert res.total_wait_time == pytest.approx(6.0)  # waited from t=2 to t=8


def test_utilization_tracking():
    sim = Simulator()
    res = FifoResource(sim)

    def proc():
        yield from res.using(4.0)
        yield sim.timeout(6.0)

    sim.spawn(proc())
    sim.run()
    assert res.utilization() == pytest.approx(0.4)


def test_store_fifo_delivery():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        yield sim.timeout(1.0)
        store.put("a")
        store.put("b")

    def consumer():
        x = yield store.get()
        got.append((x, sim.now))
        y = yield store.get()
        got.append((y, sim.now))

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [("a", 1.0), ("b", 1.0)]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)
    assert store.waiting_getters == 0

    def consumer():
        yield store.get()

    sim.spawn(consumer())
    sim.run()
    assert store.waiting_getters == 1
    store.put(1)
    sim.run()
    assert store.waiting_getters == 0


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(5)
    assert store.try_get() == 5
    assert len(store) == 0


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(tag):
        v = yield store.get()
        got.append((tag, v))

    sim.spawn(consumer("x"))
    sim.spawn(consumer("y"))
    sim.run()
    store.put(1)
    store.put(2)
    sim.run()
    assert got == [("x", 1), ("y", 2)]


def test_interrupted_waiter_withdraws_its_request():
    """A process interrupted while queued in ``using`` leaves no grant behind."""
    sim = Simulator()
    res = FifoResource(sim, name="r")
    log = []

    def holder():
        yield from res.using(5.0)

    def victim():
        try:
            yield from res.using(1.0)
        except Interrupted:
            log.append(("interrupted", sim.now))

    def later():
        yield sim.timeout(2.0)
        yield from res.using(1.0)
        log.append(("later", sim.now))

    sim.spawn(holder(), name="h")
    v = sim.spawn(victim(), name="v")
    sim.spawn(later(), name="l")

    def interrupter():
        yield sim.timeout(1.0)
        v.interrupt()

    sim.spawn(interrupter(), name="i")
    sim.run_all()
    assert log == [("interrupted", 1.0), ("later", 6.0)]
    assert res.in_use == 0 and res.queue_length == 0
    assert res.total_grants == 2


def test_idle_grant_is_synchronous_and_still_yieldable():
    sim = Simulator()
    res = FifoResource(sim)
    got = []

    def proc():
        req = res.request()
        assert req.processed and req.value == 0.0
        got.append((yield req))
        res.release(req)

    sim.spawn(proc())
    sim.run_all()
    assert got == [0.0]
    assert sim.pending_events() == 0


def test_lazy_release_settles_statistics_at_its_time():
    sim = Simulator()
    res = FifoResource(sim, name="bus")
    req = res.request()
    res.release_at(req, 4.0)
    assert sim.pending_events() == 0  # nobody waits: no timer
    assert res.in_use == 1
    assert sim.run() == 4.0  # the clock still runs to the release
    assert res.in_use == 0
    assert res.busy_time == 4.0
    assert res.utilization(10.0) == 0.4
    assert res.occupancy(10.0) == 0.4


def test_lazy_release_armed_when_someone_queues():
    sim = Simulator()
    res = FifoResource(sim, name="bus")
    granted = []
    first = res.request()
    res.release_at(first, 3.0)

    def waiter():
        yield sim.timeout(1.0)
        req = res.request()
        yield req
        granted.append(sim.now)
        res.release(req)

    sim.spawn(waiter())
    sim.run_all()
    assert granted == [3.0]
    assert res.total_wait_time == 2.0
    assert res.queue_hwm == 1
    assert res.busy_time == 3.0


def test_lazy_release_orders_like_its_timer_at_the_same_instant():
    """A request at a lazy release's instant sees the slot free only if it
    comes after the timer the release would have armed."""
    for request_first in (True, False):
        sim = Simulator()
        res = FifoResource(sim, name="bus")
        waits = []

        def requester():
            req = res.request()
            waits.append(res.queue_length)
            yield req
            res.release(req)

        def holder():
            req = res.request()
            res.release_at(req, 2.0)
            yield sim.timeout(0.0)

        if request_first:  # the requester's wakeup is scheduled first
            sim.spawn(_after(sim, 2.0, requester))
            sim.spawn(holder())
        else:
            sim.spawn(holder())
            sim.spawn(_after(sim, 2.0, requester))
        sim.run_all()
        assert waits == [1 if request_first else 0]
        assert res.queue_hwm == waits[0]
        assert res.in_use == 0 and res.busy_time == 2.0


def test_lazy_release_keeps_series_order_under_the_bank_limit():
    """With series sampling on, a hold's release point is recorded at its
    time, so a full bank drops the same later points a hold timer would."""
    sim = Simulator(telemetry=Telemetry(series=True, series_limit=2))
    a, b = FifoResource(sim, name="a"), FifoResource(sim, name="b")
    a.release_at(a.request(), 2.0)

    def grab():
        yield b.request()

    sim.spawn(_after(sim, 3.0, grab))
    sim.run()
    bank = sim.telemetry.series
    assert bank.channels["resource.a.in_use"].points == [(0.0, 1), (2.0, 0)]
    assert bank.dropped_by_channel == {"resource.b.in_use": 1}


def test_release_of_a_lazily_released_slot_is_refused():
    """A slot released twice (once early, once by its pending lazy
    release) is an error, as when the hold's timer fired on a free slot."""
    sim = Simulator()
    res = FifoResource(sim, name="r")
    req = res.request()
    res.release_at(req, 5.0)
    res.release(req)
    with pytest.raises(SimulationError, match="idle resource 'r'"):
        sim.run()


def _after(sim, delay, body):
    yield sim.timeout(delay)
    yield from body()
