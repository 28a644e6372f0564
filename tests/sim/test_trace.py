"""Unit tests for the protocol event log (``Telemetry(log=True)``)."""

from repro.sim import Simulator
from repro.telemetry import EventStream, Telemetry


def test_disabled_tracer_records_nothing():
    log = Simulator().log  # plain simulators share the null log
    assert not log.enabled
    log.append(1.0, "x", "msg")
    assert len(log) == 0
    assert log.records == ()


def test_records_in_order():
    sim = Simulator(telemetry=Telemetry(log=True))
    assert sim.log is sim.telemetry.log and sim.log.enabled
    sim.log.append(1.0, "a", "first")
    sim.log.append(2.0, "b", "second")
    assert sim.log.records == [(1.0, "a", "first"), (2.0, "b", "second")]


def test_category_filter():
    t = EventStream()
    t.append(1.0, "rndv", "kept")
    t.append(2.0, "eager", "other")
    assert len(t) == 2
    assert t.select("rndv") == [(1.0, "rndv", "kept")]
    assert t.select("eager") == [(2.0, "eager", "other")]
    assert t.select("rdata") == []


def test_limit_and_dropped_count():
    t = EventStream(limit=2)
    for i in range(5):
        t.append(float(i), "c", "m")
    assert len(t) == 2
    assert t.dropped == 3


def test_clear():
    t = EventStream()
    t.append(1.0, "c", "m")
    t.clear()
    assert len(t) == 0
    assert t.dropped == 0


def test_summary_counts_categories_and_dropped():
    t = EventStream(limit=4)
    for i in range(3):
        t.append(float(i), "rndv", "m")
    t.append(3.0, "eager", "m")
    t.append(4.0, "eager", "over limit")
    s = t.summary()
    assert s["total"] == 4
    assert s["dropped"] == 1
    assert s["by_category"] == {"eager": 1, "rndv": 3}


def test_summary_empty_tracer():
    assert Telemetry(log=True).log.summary() == {
        "total": 0,
        "dropped": 0,
        "by_category": {},
        "dropped_by_category": {},
    }


def test_summary_reports_drops_per_category():
    t = EventStream(limit=2)
    t.append(0.0, "rndv", "kept")
    t.append(1.0, "eager", "kept")
    t.append(2.0, "rndv", "over limit")
    t.append(3.0, "rndv", "over limit")
    t.append(4.0, "eager", "over limit")
    s = t.summary()
    assert s["dropped"] == 3
    assert s["dropped_by_category"] == {"eager": 1, "rndv": 2}
    # Stored records are untouched by the overflow accounting.
    assert s["by_category"] == {"eager": 1, "rndv": 1}


def test_summary_is_json_ready():
    import json

    t = EventStream()
    t.append(1.0, "a", "m")
    assert json.loads(json.dumps(t.summary())) == t.summary()
