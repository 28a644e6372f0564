"""Campaign hardening: timeouts, retries, quarantine, fault axes.

A crashing point must not take the grid down: the rest of the campaign
completes, the failure is retried within its budget, and a persistent
failure lands in the quarantine journal while the invocation exits
nonzero.
"""

import json

import pytest

from repro.campaign import CampaignEngine, CampaignSpec, Journal, execute_run
from repro.cli import main
from repro.campaign.spec import RunSpec
from repro.errors import ConfigurationError

pytestmark = pytest.mark.faults

#: pingpong on one node is a deterministic crash (needs two ranks).
CRASHING = {"app": "pingpong", "network": "ib", "nodes": 1}
GOOD = {"app": "pingpong", "network": "ib", "nodes": 2}


def mixed_campaign():
    return CampaignSpec(
        name="mixed",
        base={"app": "pingpong"},
        points=[
            dict(GOOD, **{"app_args.size": 0}),
            CRASHING,
            dict(GOOD, **{"app_args.size": 1024}),
        ],
    )


def test_crashing_point_is_quarantined_and_grid_completes(tmp_path):
    engine = CampaignEngine(root=tmp_path, workers=1)
    result = engine.run(mixed_campaign())
    assert result.total == 3
    assert result.errors == 1 and result.quarantined == 1
    statuses = [r["status"] for r in result.records]
    assert statuses == ["ok", "error", "ok"]
    assert "quarantined" in result.summary()
    quarantined = list(Journal(tmp_path / "quarantine.jsonl").entries())
    assert len(quarantined) == 1
    assert quarantined[0]["status"] == "error"
    assert quarantined[0]["spec"]["nodes"] == 1


def test_retries_reexecute_before_quarantine(tmp_path):
    engine = CampaignEngine(
        root=tmp_path, workers=1, max_retries=2, retry_backoff_s=0.0
    )
    result = engine.run(mixed_campaign())
    assert result.errors == 1 and result.quarantined == 1
    attempts = [
        r for r in Journal(tmp_path / "journal.jsonl").entries()
        if r.get("status") == "error"
    ]
    # One first-pass failure plus two retries, all journaled.
    assert len(attempts) == 3
    assert [a.get("retry", 0) for a in attempts] == [0, 1, 2]


def test_quarantined_point_does_not_poison_the_cache(tmp_path):
    CampaignEngine(root=tmp_path, workers=1).run(mixed_campaign())
    rerun = CampaignEngine(root=tmp_path, workers=1).run(mixed_campaign())
    # The two good points replay from cache; the bad one re-executes.
    assert rerun.hits == 2 and rerun.misses == 1 and rerun.errors == 1


def test_event_budget_produces_watchdog_error_record():
    spec = RunSpec(app="pingpong", network="ib", nodes=2)
    record = execute_run(spec, max_events=50)
    assert record["status"] == "error"
    assert record["error_type"] == "WatchdogError"
    assert "event budget" in record["error"]


def test_fault_axes_sweep_through_campaign(tmp_path):
    campaign = CampaignSpec(
        name="ber-sweep",
        base={"app": "pingpong", "network": "ib", "nodes": 2,
              "app_args.size": 1024},
        grid={"fault.ber": [0.0, 1e-7]},
    )
    result = CampaignEngine(root=tmp_path, workers=1).run(campaign)
    assert result.errors == 0
    plain, faulty = result.records
    assert plain["spec"]["faults"] == {"ber": 0.0}
    assert faulty["spec"]["faults"] == {"ber": 1e-7}
    assert "fault_stats" in faulty and "fault_stats" not in plain
    assert "faults[ber=1e-07]" in faulty["label"]


def test_fault_plan_validated_at_spec_time():
    with pytest.raises(ConfigurationError):
        RunSpec(app="pingpong", network="ib", nodes=2, faults=(("ber", 2.0),))
    with pytest.raises(ConfigurationError):
        RunSpec(app="pingpong", network="ib", nodes=2, faults=(("bogus", 1),))


def test_cli_timeout_retries_and_quarantine_status(tmp_path, capsys):
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps({
        "name": "cli-mixed",
        "base": {"app": "pingpong"},
        "points": [GOOD, CRASHING],
    }))
    root = tmp_path / "root"
    code = main([
        "campaign",
        "run", str(spec_path), "--root", str(root), "--quiet",
        "--timeout", "300", "--max-retries", "1",
    ])
    assert code == 1  # campaign completed, but with a quarantined failure
    out = capsys.readouterr().out
    assert "1 errors" in out and "quarantined" in out
    assert main(["campaign", "status", "--root", str(root)]) == 0
    status = capsys.readouterr().out
    assert "quarantine: 1 specs failed all retries" in status
    assert "[quarantined]" in status


def test_engine_rejects_bad_robustness_knobs(tmp_path):
    with pytest.raises(ConfigurationError):
        CampaignEngine(root=tmp_path, timeout_s=0)
    with pytest.raises(ConfigurationError):
        CampaignEngine(root=tmp_path, max_retries=-1)
    with pytest.raises(ConfigurationError):
        CampaignEngine(root=tmp_path, retry_backoff_s=-0.5)
