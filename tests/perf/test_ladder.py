"""The perf ladder: rung execution, the two timed windows, row shape."""

import json

import pytest

from repro.mpi import Machine
from repro.perf import (
    LADDER,
    ladder,
    ladder_cases,
    load_results,
    run_case,
    write_results,
)
from repro.perf.ladder import PINGPONG_SIZE, _window, far_pingpong

pytestmark = pytest.mark.perf

#: Keys every ladder row carries regardless of workload family.
_BASE_KEYS = {
    "case",
    "app",
    "network",
    "nodes",
    "topology",
    "quick",
    "startup",
    "program",
}


@pytest.fixture(scope="module", autouse=True)
def one_timed_run():
    """One timed run per rung keeps the suite's wall time flat."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ladder, "TIMED_RUNS", 1)
        yield


@pytest.fixture(scope="module")
def rows():
    """Real quick rungs, shared across the tests below."""
    names = ["crossbar-64", "fattree-256", "degraded-fattree-64"]
    return {
        case.name: run_case(case, quick=True)
        for case in ladder_cases(names)
    }


def test_ladder_case_names_are_unique_and_stable():
    names = [case.name for case in LADDER]
    assert len(names) == len(set(names))
    # The diff gate joins on these labels.
    assert {"crossbar-64", "fattree-256", "degraded-fattree-64"} <= set(names)
    assert len(names) >= 5


def test_ladder_cases_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown ladder case"):
        ladder_cases(["crossbar-64", "nope"])


def test_run_case_row_shape(rows):
    row = rows["crossbar-64"]
    assert _BASE_KEYS <= set(row)
    assert row["case"] == "crossbar-64"
    assert row["quick"] is True
    for window in ("startup", "program"):
        assert set(row[window]) == {"events", "wall_s", "wall_iqr_s"}
        assert row[window]["events"] > 0 and row[window]["wall_s"] > 0
    assert row["latency_us"] > 0


def test_run_case_without_profile_skips_perf_block(rows):
    assert "perf" not in rows["crossbar-64"]
    assert "samples" not in rows["crossbar-64"]


def test_windows_partition_the_run(rows):
    """Start-up plus program is every event of a plain, unwrapped run."""
    (case,) = ladder_cases(["crossbar-64"])
    machine = Machine(
        case.network, case.nodes, seed=0, topology=case.topology
    )
    machine.run(far_pingpong(PINGPONG_SIZE, case.param("reps", True)))
    row = rows["crossbar-64"]
    total = row["startup"]["events"] + row["program"]["events"]
    assert total == machine.sim.events_processed


def test_fattree_latency_exceeds_crossbar(rows):
    # The deeper tree pays real per-hop latency: the distant-pair route
    # crosses four ISLs, so it must be measurably slower than one chassis.
    fattree, crossbar = rows["fattree-256"], rows["crossbar-64"]
    assert fattree["latency_us"] > crossbar["latency_us"]


def test_degraded_rung_fails_over(rows):
    row = rows["degraded-fattree-64"]
    assert 0.0 < row["bw_ratio"] < 1.0
    assert row["failovers"] >= 1


def test_window_takes_median_and_iqr_across_runs():
    runs = [(10, 1.0), (10, 3.0), (10, 2.0), (10, 5.0), (10, 4.0)]
    assert _window(runs) == {"events": 10, "wall_s": 3.0, "wall_iqr_s": 3.0}
    one = _window([(10, 0.5)])
    assert one == {"events": 10, "wall_s": 0.5, "wall_iqr_s": 0.0}
    # The count is seed-determined: identical runs must agree on it.
    with pytest.raises(RuntimeError, match="different events"):
        _window([(10, 1.0), (11, 1.0)])


def test_sample_mode_writes_flamegraph_and_chrome(tmp_path):
    (case,) = ladder_cases(["crossbar-64"])
    row = run_case(
        case,
        quick=True,
        sample=True,
        sample_interval_ms=1.0,
        flamegraph_dir=tmp_path / "fg",
        chrome_dir=tmp_path / "ct",
    )
    assert row["samples"] >= 0
    # The profiled pass sees the same events as the timed windows.
    assert row["perf"]["events"] == (
        row["startup"]["events"] + row["program"]["events"]
    )
    assert row["perf"]["overhead"] > 0
    assert row["perf"]["top_event_types"]
    collapsed = tmp_path / "fg" / "crossbar-64.collapsed"
    assert collapsed.exists()
    trace = tmp_path / "ct" / "crossbar-64.kernel.trace.json"
    doc = json.loads(trace.read_text())
    assert doc["otherData"]["kind"] == "kernel-profile"


def test_write_results_emits_one_document(tmp_path, rows):
    out = tmp_path / "sub" / "BENCH_perf.json"
    cases = [rows["crossbar-64"], rows["fattree-256"]]
    doc = write_results(cases, out)
    assert json.loads(out.read_text()) == doc
    assert doc["schema"] == "repro.perf/2"
    assert doc["quick"] is True
    assert doc["timed_runs"] == 1
    assert doc["cases"] == cases
    assert load_results(out) == cases
    assert [p.name for p in tmp_path.rglob("*.json")] == ["BENCH_perf.json"]
