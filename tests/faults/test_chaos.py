"""Chaos-study harness: completion rate, degraded bandwidth, recovery.

The sweep rides the campaign engine, so its guarantees transfer: cells
are cached, journaled, quarantined on unexpected failure, and parallel
execution is bit-identical to serial.  A technology that *correctly*
reports an unsurvivable fabric (single-rail Elan-4 raising
``LinkDeadError``) is an expected outcome — the study completes and the
CLI exits zero.
"""

import json
import os

import pytest

from repro import FaultPlan, Machine, root_fault
from repro.campaign import CampaignEngine, ChaosStudy, default_kill_link
from repro.cli import main
from repro.errors import LinkDeadError, SimulationError
from repro.telemetry import Telemetry
from repro.topology import TopologySpec

pytestmark = pytest.mark.faults

ISL = "isl:l0>s1"
FATTREE = {"kind": "fattree", "radix": 4, "levels": 2}


def small_study(**overrides):
    kwargs = dict(
        app="is",
        app_args={"config": "S"},
        nodes=8,
        topology=dict(FATTREE),
        kill_links=(ISL,),
        fractions=(0.5,),
    )
    kwargs.update(overrides)
    return ChaosStudy(**kwargs)


# -- link selection ----------------------------------------------------------


def test_default_kill_link_prefers_inter_switch_hops():
    assert default_kill_link(8, FATTREE).startswith("isl:")
    assert default_kill_link(8, {"kind": "torus", "dims": "2x2x2"}).startswith(
        "torus."
    )
    # Single-crossbar fabrics only have node cables to offer.
    assert default_kill_link(4, None) in ("up0", "down3")


# -- the study ---------------------------------------------------------------


def test_chaos_study_ib_fails_over_and_single_rail_elan_dies(tmp_path):
    result = small_study().run(CampaignEngine(root=tmp_path, workers=1))
    assert len(result.cells) == 2
    by_net = {cell.network: cell for cell in result.cells}

    ib = by_net["ib"]
    assert ib.completed
    assert ib.failovers >= 1
    assert ib.recovery_us > 0.0
    assert ib.degraded_bw_ratio is not None and 0.0 < ib.degraded_bw_ratio < 1.0

    elan = by_net["elan"]
    assert not elan.completed
    assert elan.error_type == "LinkDeadError"
    assert ISL in elan.error
    assert elan.expected  # structured link death is a legitimate outcome

    assert result.completion_rate == 0.5
    assert result.failures() == []
    assert ISL in result.summary()


def test_chaos_dual_rail_elan_survives(tmp_path):
    study = small_study(networks=("elan",), fault_knobs={"elan_rails": 2})
    result = study.run(CampaignEngine(root=tmp_path, workers=1))
    (cell,) = result.cells
    assert cell.completed
    assert cell.rail_switches >= 1
    assert cell.link_dead_errors == 0


def test_chaos_parallel_equals_serial(tmp_path):
    serial = small_study().run(
        CampaignEngine(root=tmp_path / "serial", workers=1)
    )
    parallel = small_study().run(
        CampaignEngine(root=tmp_path / "parallel", workers=2)
    )
    assert serial.to_dict() == parallel.to_dict()


# -- CLI ---------------------------------------------------------------------


def chaos_cli(tmp_path, *extra):
    return main(
        [
            "campaign",
            "chaos",
            "--root", str(tmp_path),
            "--nodes", "8",
            "--arg", "config=S",
            "--topology", "kind=fattree",
            "--topology", "radix=4",
            "--topology", "levels=2",
            "--link", ISL,
            "--at", "0.5",
            "--quiet",
            *extra,
        ]
    )


def test_chaos_cli_exits_zero_on_expected_outcomes(tmp_path, capsys):
    assert chaos_cli(tmp_path, "--json") == 0
    out = capsys.readouterr().out
    assert "chaos study: 2 degraded cells" in out
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["completion_rate"] == 0.5
    assert {c["network"] for c in doc["cells"]} == {"ib", "elan"}


def test_status_prints_quarantine_reasons(tmp_path, capsys):
    chaos_cli(tmp_path)
    capsys.readouterr()
    assert main(["campaign", "status", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    # Not just a count: the quarantined spec's error and its root cause.
    assert "error:" in out
    assert "root cause: LinkDeadError" in out
    assert ISL in out


# -- the acceptance scenario at 256 ranks ------------------------------------


def far_exchange(size, repetitions):
    def program(mpi):
        last = mpi.size - 1
        if mpi.rank not in (0, last):
            return None
        peer = last if mpi.rank == 0 else 0
        sbuf, rbuf = ("fx-s", mpi.rank), ("fx-r", mpi.rank)
        t0 = mpi.now
        for _ in range(repetitions):
            if mpi.rank == 0:
                yield from mpi.send(dest=peer, size=size, buf=sbuf)
                yield from mpi.recv(source=peer, size=size, buf=rbuf)
            else:
                yield from mpi.recv(source=peer, size=size, buf=rbuf)
                yield from mpi.send(dest=peer, size=size, buf=sbuf)
        return mpi.now - t0

    return program


def run_256(network, plan=None, telemetry=None):
    machine = Machine(
        network, 256, seed=3,
        topology=TopologySpec(kind="fattree", radix=32, levels=2),
        faults=plan, telemetry=telemetry,
    )
    result = machine.run(far_exchange(8192, 12), check_invariants=True)
    return machine, result


def test_256_rank_isl_kill_ib_fails_over_elan_dies():
    # The ISL the 0 -> 255 route actually crosses (l0 -> s15 here:
    # primary spine choice is dst % n_spines).
    dead = default_kill_link(256, {"kind": "fattree", "radix": 32, "levels": 2})
    assert dead.startswith("isl:l0>")
    _, pristine = run_256("ib")
    start = max(s for s, _ in pristine.rank_spans)
    kill = round(start + 0.5 * pristine.elapsed_us, 3)
    plan = FaultPlan(link_down=dead, link_down_at_us=kill)

    machine, degraded = run_256("ib", plan, telemetry=Telemetry(lifecycle=True))
    stats = machine.sim.faults.stats()
    assert stats["failovers"] >= 1
    assert degraded.elapsed_us > pristine.elapsed_us
    ratio = pristine.elapsed_us / degraded.elapsed_us
    assert 0.0 < ratio < 1.0  # degraded-bandwidth ratio is reportable
    failover = machine.blame()["components"].get("failover")
    assert failover is not None and failover["us"] > 0.0

    _, again = run_256("ib", plan, telemetry=Telemetry(lifecycle=True))
    assert (again.elapsed_us, tuple(again.rank_spans)) == (
        degraded.elapsed_us, tuple(degraded.rank_spans)
    )

    # Same scenario under Elan, aimed at the Elan window (the two
    # technologies' measured windows differ).
    _, elan_pristine = run_256("elan")
    start = max(s for s, _ in elan_pristine.rank_spans)
    kill = round(start + 0.5 * elan_pristine.elapsed_us, 3)
    with pytest.raises(SimulationError) as ei:
        run_256("elan", FaultPlan(link_down=dead, link_down_at_us=kill))
    cause = root_fault(ei.value, LinkDeadError)
    assert cause is not None and cause.link == dead


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS_FULL"),
    reason="256-rank campaign chaos sweep takes minutes; set REPRO_CHAOS_FULL=1",
)
def test_256_rank_chaos_campaign_serial_equals_parallel(tmp_path):
    study = ChaosStudy(
        app="is",
        app_args={"config": "S"},
        nodes=256,
        topology={"kind": "fattree", "radix": 32, "levels": 2},
        kill_links=(ISL,),
        fractions=(0.5,),
    )
    serial = study.run(CampaignEngine(root=tmp_path / "serial", workers=1))
    parallel = study.run(CampaignEngine(root=tmp_path / "parallel", workers=2))
    assert serial.to_dict() == parallel.to_dict()
    assert serial.failures() == []
