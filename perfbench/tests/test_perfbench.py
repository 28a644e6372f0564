"""Tests of the benchmark itself, on workloads shrunk to run in seconds.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import serveload
from perfbench.common import END_TO_END, PER_LAYER, ROOT, RunOutcome
from perfbench.pins import load_pins
from perfbench.run import WORKLOADS
from perfbench.simwork import (
    CG,
    LJS_SHORT,
    TIME_KEYS,
    app_skeletons,
    fabric_sweep,
    run_pass,
    run_workload,
    traced_pass,
)
from perfbench.tracer import LayerTracer
from repro.apps import Sweep3dConfig, cg_program, lammps_program, sweep3d_program

TINY_APPS = (
    ("sweep3d", sweep3d_program, Sweep3dConfig(n=8, iterations=1)),
    ("cg", cg_program, dataclasses.replace(CG, cgitmax=1)),
    ("ljs", lammps_program, dataclasses.replace(LJS_SHORT, steps=1)),
)
TINY = {
    "fabric-sweep": lambda: fabric_sweep(sizes=(0, 65536)),
    "app-skeletons": lambda: app_skeletons(apps=TINY_APPS),
}


def _counts(layers):
    return {k: v for k, v in layers.items() if k not in TIME_KEYS}


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_counts_repeat_across_traced_runs(name):
    workload = TINY[name]()
    _, first = traced_pass(workload, 5, LayerTracer())
    _, second = traced_pass(workload, 5, LayerTracer())
    assert _counts(first) == _counts(second)
    assert first["mpi.isends"] > 0 and first["pipelines.transfers"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_plain_runs_give_identical_outputs(name):
    workload = TINY[name]()
    plain = run_pass(workload, 1)
    traced, _ = traced_pass(workload, 1, LayerTracer())
    assert not plain.errors and not traced.errors
    assert traced.outputs == plain.outputs


def test_tracer_restores_every_entry_point():
    from repro.mpi import MpiRank
    from repro.sim import Simulator, pipelines

    before = (Simulator.spawn, MpiRank.isend, MpiRank.compute, pipelines.transfer)
    with LayerTracer():
        assert Simulator.spawn is not before[0]
    assert (Simulator.spawn, MpiRank.isend, MpiRank.compute, pipelines.transfer) == before


def test_planted_wrong_pin_is_a_failed_operation():
    workload = TINY["fabric-sweep"]()
    outputs = run_pass(workload, 0).outputs
    op = "elan pingpong 65536"
    planted = dict(outputs, **{op: repr(float(outputs[op]) + 1e-9)})
    outcome = run_workload(workload, 0, 0.001, False, {workload.name: {"0": planted}})
    assert set(outcome.failures) == {op}
    # The timed pass and the counting pass both check every op.
    assert outcome.failed == 2
    assert outcome.attempted == 2 * len(outputs)

    clean = run_workload(workload, 0, 0.001, False, {workload.name: {"0": outputs}})
    assert clean.failed == 0 and clean.e2e["msgs_per_s"].value > 0


def test_unpinned_seed_also_checks_the_default_seed_pins():
    workload = TINY["app-skeletons"]()
    pins = {workload.name: {"0": {op: "0.0" for job in workload.jobs for op in job.ops}}}
    outcome = run_workload(workload, 7, 0.001, False, pins)
    # Seed 7 has no pins: its passes must agree with each other, and an
    # extra pass at seed 0 is held to the (here wrong) seed-0 pins.
    assert outcome.failed == len(workload.jobs)


def test_seed_changes_generated_serve_requests():
    assert serveload.write_specs(0, 40) == serveload.write_specs(0, 40)
    assert serveload.write_specs(0, 40) != serveload.write_specs(1, 40)
    assert serveload.read_order(0, 200) != serveload.read_order(1, 200)
    specs = serveload.write_specs(3, 100)
    assert len({json.dumps(s, sort_keys=True) for _, s in specs}) == 100
    # Every seed asks for the same mix of (network, size) work.
    mix = sorted(op for op, _ in serveload.write_specs(0, 60))
    assert mix == sorted(op for op, _ in serveload.write_specs(1, 60))


def test_pins_cover_every_generated_request():
    pinned = load_pins()["serve-mixed"]
    ops = {op for op, _ in serveload.write_specs(9, 200)}
    ops |= {op for op, _ in serveload.read_specs()}
    assert ops <= set(pinned)


def test_serve_run_stops_daemon_when_measuring_fails(monkeypatch, tmp_path):
    started = []
    real_start = serveload.Daemon.start

    def start(self):
        real_start(self)
        started.append(self.proc.pid)

    def broken(*args, **kwargs):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(serveload, "OUT_DIR", tmp_path)
    monkeypatch.setattr(serveload, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(serveload.Daemon, "start", start)
    monkeypatch.setattr(serveload, "_measure", broken)
    with pytest.raises(RuntimeError, match="planted failure"):
        serveload.run_serve(0, 1.0, False, load_pins())
    assert len(started) == 1
    with pytest.raises(ProcessLookupError):
        os.killpg(started[0], 0)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fabric-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_outcome_accounting():
    outcome = RunOutcome({})
    outcome.record({"a": "x"}, 3)
    outcome.record({"a": "y"}, 2)
    assert (outcome.attempted, outcome.failed, outcome.failures) == (5, 2, {"a": "x"})
