"""Job timing through the scheduler and the ``/v1/perf`` endpoint.

End-to-end: a profiled serve daemon executes a cold run, the scheduler
feeds the queue-delay / wall-time histograms, and ``/v1/perf`` reports
the job's kernel-profile summary.  The durable half — ``repro campaign
status --json``'s ``scheduler`` block — is folded from ``jobs.jsonl``
with no live scheduler at all.
"""

import json
import urllib.request

import pytest

from repro.campaign.cli import render_status, status_payload
from repro.campaign.scheduler import scheduler_status
from repro.serve import ServeService

pytestmark = [pytest.mark.perf, pytest.mark.serve]

SPEC = {"app": "pingpong", "network": "ib", "nodes": 2,
        "app_args": {"size": 2048}}


def http(method, url, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


@pytest.fixture(scope="module")
def profiled_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("perf-serve")
    svc = ServeService(root, workers=1, echo=None, profile=True).start()
    status, body = http(
        "POST", svc.url + "/v1/runs", {"spec": SPEC, "wait_s": 120}
    )
    assert status == 200 and body["job"]["state"] == "done", body
    yield svc
    svc.close()


def test_perf_endpoint_reports_profiled_jobs(profiled_service):
    status, perf = http("GET", profiled_service.url + "/v1/perf")
    assert status == 200
    assert perf["profile"] is True
    jobs = perf["jobs"]
    assert len(jobs) == 1
    job = jobs[0]
    assert job["state"] == "done" and job["status"] == "ok"
    assert job["wall_s"] > 0
    assert job["events"] > 0
    assert job["events_per_sec"] > 0
    # The kernel summary rode along on the record.
    assert job["perf"]["events"] == job["events"]
    assert job["perf"]["top_event_types"]


def test_scheduler_timing_histograms_fed(profiled_service):
    status, perf = http("GET", profiled_service.url + "/v1/perf")
    timing = perf["scheduler"]["timing"]
    assert set(timing) == {"queue_delay_s", "wall_s", "turnaround_s"}
    for name in ("queue_delay_s", "wall_s", "turnaround_s"):
        assert timing[name]["count"] >= 1, name
        assert timing[name]["max"] >= timing[name]["mean"] >= 0.0


def test_status_carries_profile_flag_and_timing(profiled_service):
    status, body = http("GET", profiled_service.url + "/v1/status")
    assert body["service"]["profile"] is True
    assert body["scheduler"]["timing"]["wall_s"]["count"] >= 1
    durable = body["campaign_root"]["scheduler"]
    assert durable["jobs"]["done"] >= 1


def test_unprofiled_daemon_records_have_no_perf_block(tmp_path):
    svc = ServeService(tmp_path, workers=1, echo=None).start()
    try:
        status, body = http(
            "POST", svc.url + "/v1/runs", {"spec": SPEC, "wait_s": 120}
        )
        assert body["job"]["state"] == "done", body
        _, perf = http("GET", svc.url + "/v1/perf")
        assert perf["profile"] is False
        assert perf["jobs"] and all("perf" not in j for j in perf["jobs"])
    finally:
        svc.close()


# -- durable fold (no live scheduler) -----------------------------------------


def test_scheduler_status_folds_jobs_jsonl(profiled_service):
    root = profiled_service.state.root
    block = scheduler_status(root)
    assert block["jobs"]["done"] >= 1
    assert block["queue_delay_s"]["count"] >= 1
    assert block["job_wall_s"]["count"] >= 1
    assert block["turnaround_s"]["count"] >= 1
    assert block["turnaround_s"]["max"] >= block["queue_delay_s"]["mean"]
    assert 0.0 <= block["cache_hit_ratio"] <= 1.0


def test_campaign_status_embeds_scheduler_block(profiled_service):
    root = profiled_service.state.root
    payload = status_payload(root)
    assert payload["scheduler"] == scheduler_status(root)
    json.dumps(payload)  # --json must serialize
    rendered = render_status(payload)
    assert "scheduler:" in rendered
    assert "cache-hit ratio" in rendered


def test_scheduler_status_on_empty_root(tmp_path):
    block = scheduler_status(tmp_path)
    assert block["jobs"] == {
        "pending": 0, "running": 0, "done": 0, "quarantined": 0,
    }
    assert block["cache_hit_ratio"] == 0.0
    assert block["queue_delay_s"]["count"] == 0
