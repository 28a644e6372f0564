"""The ``repro serve`` HTTP/JSON daemon: campaign-as-a-service.

Stdlib only: :mod:`http.server` (a :class:`ThreadingHTTPServer`, whose
``serve_forever`` loop polls the listening socket through
:mod:`selectors`) in front of the campaign
:class:`~repro.campaign.scheduler.JobScheduler`.  Handlers never block
on simulation work — they resolve against the result cache, coalesce
onto in-flight jobs, or schedule onto the worker pool and answer with a
job handle (``repro lint`` rule RPR011 enforces this: no ``time.sleep``
or direct engine/run calls inside handler code paths).

API (all JSON unless noted)::

    POST /v1/runs                RunSpec dict (or {"spec": .., "force": ..,
                                 "lifecycle": .., "wait_s": ..}) ->
                                 200 record on cache hit, 202 job handle
    POST /v1/campaigns           CampaignSpec dict (same envelope) ->
                                 202 campaign handle (per-run job ids)
    GET  /v1/jobs/<id>           job state (+ record once terminal)
    GET  /v1/jobs/<id>/events    JSONL progress stream (close-delimited)
    GET  /v1/campaigns/<id>      campaign aggregate (+ values when done)
    GET  /v1/runs/<key>          cached record by content key
    GET  /v1/runs/<key>/explain  self-contained HTML blame report
    GET  /v1/status              service + scheduler + campaign-root status
    GET  /v1/perf                job timing histograms + per-job kernel
                                 profiles (run with --profile for the
                                 per-event attribution summaries)
    GET  /v1/metrics             the serve MetricsRegistry, flat JSON

Every request lands in the service's own
:class:`~repro.telemetry.registry.MetricsRegistry` (request counters,
per-endpoint latency histograms, cache hit/miss/coalesce tallies) —
the same instrument kit the simulator uses, pointed at the service.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..campaign.cli import status_payload
from ..campaign.scheduler import JobScheduler, Submission
from ..campaign.spec import CampaignSpec, RunSpec
from ..errors import ConfigurationError, ReproError
from ..version import __version__
from .report import record_html

#: Request bodies above this are refused (a campaign spec is tiny).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: A single POSTed campaign may expand to at most this many runs.
MAX_CAMPAIGN_RUNS = 4096

#: Upper bound on the server-side block of a ``wait_s`` request.
MAX_WAIT_S = 300.0

#: Cache keys are 32 lowercase hex digits (RunSpec.key); anything else
#: is rejected before it can reach the filesystem layer.
_KEY_ALPHABET = set("0123456789abcdef")


def _valid_key(key: str) -> bool:
    return len(key) == 32 and all(c in _KEY_ALPHABET for c in key)


class _HttpError(Exception):
    """An error with an HTTP status, raised inside handler routes."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class CampaignHandle:
    """One POSTed campaign: its expansion order and per-run handles."""

    __slots__ = ("id", "name", "keys", "records", "job_ids", "hits")

    def __init__(self, handle_id: str, name: str) -> None:
        self.id = handle_id
        self.name = name
        #: Spec keys in expansion order (duplicates collapse onto one).
        self.keys: List[str] = []
        #: Reuse-tier answers, by key.
        self.records: Dict[str, Dict[str, Any]] = {}
        #: Scheduled/coalesced jobs, by key.
        self.job_ids: Dict[str, str] = {}
        self.hits = 0

    def to_dict(
        self, scheduler: JobScheduler, include_records: bool = False
    ) -> Dict[str, Any]:
        jobs = {}
        pending = 0
        for key, job_id in sorted(self.job_ids.items()):
            job = scheduler.job(job_id)
            state = job.state if job is not None else "unknown"
            jobs[job_id] = state
            if job is None or not job.done:
                pending += 1
        out: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "total": len(self.keys),
            "hits": self.hits,
            "misses": len(self.job_ids),
            "state": "done" if pending == 0 else "running",
            "jobs": jobs,
        }
        if include_records and pending == 0:
            records = []
            for key in self.keys:
                record = self.records.get(key)
                if record is None:
                    job = scheduler.job(self.job_ids[key])
                    record = job.record if job is not None else None
                records.append(record)
            out["records"] = records
            out["values"] = [
                (r or {}).get("value") for r in records
            ]
        return out


class ServeState:
    """Everything the handler threads share: scheduler, metrics, campaigns."""

    def __init__(
        self,
        root,
        workers: int = 2,
        use_cache: bool = True,
        timeout_s: Optional[float] = None,
        max_events: Optional[int] = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.25,
        lifecycle: bool = False,
        memory_cache: int = 4096,
        profile: bool = False,
        echo=None,
    ) -> None:
        from ..telemetry.registry import MetricsRegistry

        self.root = root
        self.echo = echo
        self.metrics = MetricsRegistry()
        #: Job-timing histograms fetched once so the per-request status
        #: and perf paths never touch the registry lock.
        self._timing_hists = tuple(
            (name, self.metrics.histogram(f"scheduler.jobs.{name}"))
            for name in ("queue_delay_s", "wall_s", "turnaround_s")
        )
        #: Kernel-profile every executed job (adds ``perf`` blocks to
        #: records and powers ``/v1/perf``'s per-job kernel summaries).
        self.profile = profile
        self.scheduler = JobScheduler.at(
            root,
            workers=workers,
            use_cache=use_cache,
            timeout_s=timeout_s,
            max_events=max_events,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            lifecycle=lifecycle,
            echo=echo,
            # A hot query loop must not append a journal line per hit.
            journal_reused=False,
            memory_cache=memory_cache,
            # Job timing spans land in the serve registry as
            # scheduler.jobs.* histograms (queue delay, wall, turnaround).
            metrics=self.metrics,
            profile=profile,
        )
        #: The batch engine's resume tier, loaded once: completed journal
        #: lines answer queries even when the disk cache was disabled.
        self.journaled = self.scheduler.journal.completed()
        self.campaigns: Dict[str, CampaignHandle] = {}
        self._campaign_lock = threading.Lock()
        self._next_campaign = 1
        self.started_t = time.time()  # repro-lint: disable=RPR001

    def submit(
        self,
        spec: RunSpec,
        force: bool = False,
        lifecycle: Optional[bool] = None,
    ) -> Submission:
        """Submit one spec, mirroring the outcome into serve metrics."""
        sub = self.scheduler.submit(
            spec, force=force, journaled=self.journaled, lifecycle=lifecycle
        )
        if sub.source in ("cache", "journal"):
            self.metrics.counter("serve.cache.hits").inc()
        elif sub.source == "coalesced":
            self.metrics.counter("serve.cache.coalesced").inc()
        else:
            self.metrics.counter("serve.cache.misses").inc()
        return sub

    def new_campaign(self, name: str) -> CampaignHandle:
        with self._campaign_lock:
            handle = CampaignHandle(f"c{self._next_campaign}", name)
            self._next_campaign += 1
            self.campaigns[handle.id] = handle
            return handle

    def cached_record(self, key: str) -> Optional[Dict[str, Any]]:
        """A record by content key: memory/disk cache, then the journal."""
        record = self.scheduler._cached(key)  # the scheduler's own tiers
        if record is None:
            record = self.journaled.get(key)
        return record

    def _job_timing(self) -> Dict[str, Any]:
        """Lifetime job-timing histograms (fed by the scheduler)."""
        out = {}
        for name, hist in self._timing_hists:
            out[name] = {
                "count": hist.count,
                "mean": round(hist.mean, 6),
                "max": round(hist.max, 6),
            }
        return out

    def status(self) -> Dict[str, Any]:
        return {
            "service": {
                "version": __version__,
                "uptime_s": round(
                    time.time() - self.started_t, 3  # repro-lint: disable=RPR001
                ),
                "workers": self.scheduler.workers,
                "campaigns": len(self.campaigns),
                "profile": self.profile,
            },
            "scheduler": {
                "stats": dict(self.scheduler.stats),
                "jobs": self.scheduler.counts(),
                "timing": self._job_timing(),
            },
            # Embeds the durable "scheduler" block (jobs.jsonl fold) —
            # the same shape ``repro campaign status --json`` reports.
            "campaign_root": status_payload(self.root),
        }

    def perf(self) -> Dict[str, Any]:
        """The ``/v1/perf`` payload: service timing + per-job kernels.

        One entry per terminal job, newest last: the record's wall
        time, simulated event count and events/sec, plus the compact
        kernel-profile summary when the job ran with profiling on.
        """
        jobs: List[Dict[str, Any]] = []
        for job in self.scheduler.jobs():
            if not job.done or job.record is None:
                continue
            record = job.record
            wall = float(record.get("wall_s", 0.0))
            events = (record.get("metrics") or {}).get("sim.events")
            entry: Dict[str, Any] = {
                "id": job.id,
                "label": job.label,
                "state": job.state,
                "status": record.get("status"),
                "wall_s": round(wall, 6),
            }
            if isinstance(events, (int, float)):
                entry["events"] = events
                entry["events_per_sec"] = (
                    round(events / wall) if wall > 0 else 0
                )
            if "perf" in record:
                entry["perf"] = record["perf"]
            jobs.append(entry)
        return {
            "profile": self.profile,
            "scheduler": {
                "stats": dict(self.scheduler.stats),
                "jobs": self.scheduler.counts(),
                "timing": self._job_timing(),
            },
            "jobs": jobs,
        }


class ServeHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` onto the shared :class:`ServeState`.

    Handler threads must stay non-blocking with respect to simulation
    work: every route either answers from state or hands back a job id.
    The one sanctioned wait is the condition-variable long-poll behind
    ``wait_s`` and the events stream, both deadline-bounded.
    """

    protocol_version = "HTTP/1.1"
    server_version = f"repro/{__version__}"
    #: Socket read timeout so an idle keep-alive client can't pin a
    #: handler thread forever.
    timeout = 60
    #: Without TCP_NODELAY, the headers+body write pair trips Nagle
    #: against delayed ACKs: ~40 ms per cached answer instead of <1 ms.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    @property
    def state(self) -> ServeState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        echo = self.state.echo
        if echo is not None:
            echo(f"{self.address_string()} {format % args}")

    def _send_json(
        self,
        code: int,
        payload: Dict[str, Any],
        location: Optional[str] = None,
    ) -> int:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        if location:
            self.send_header("Location", location)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return code

    def _send_html(self, code: int, text: str) -> int:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return code

    def _read_json(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length <= 0:
            raise _HttpError(411, "a JSON body with Content-Length is required")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "body is not valid JSON") from None
        if not isinstance(data, dict):
            raise _HttpError(400, "body must be a JSON object")
        return data

    @staticmethod
    def _envelope(data: Dict[str, Any]) -> Tuple[Dict[str, Any], bool, Optional[bool], Optional[float]]:
        """Unpack the optional request envelope around a spec dict.

        ``{"spec": {...}, "force": bool, "lifecycle": bool, "wait_s": s}``
        — or the bare spec dict itself.
        """
        if "spec" in data and isinstance(data["spec"], dict):
            spec = data["spec"]
            force = bool(data.get("force", False))
            lifecycle = data.get("lifecycle")
            lifecycle = None if lifecycle is None else bool(lifecycle)
            wait_s = data.get("wait_s")
            if wait_s is not None:
                try:
                    wait_s = min(float(wait_s), MAX_WAIT_S)
                except (TypeError, ValueError):
                    raise _HttpError(400, "wait_s must be a number") from None
            return spec, force, lifecycle, wait_s
        return data, False, None, None

    # -- dispatch ------------------------------------------------------------

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def _handle(self, method: str) -> None:
        t0 = time.perf_counter()  # repro-lint: disable=RPR001
        metrics = self.state.metrics
        route = "unrouted"
        try:
            route, code = self._route(method)
        except _HttpError as exc:
            code = self._send_json(exc.code, {"error": str(exc)})
        except (ConfigurationError, ReproError) as exc:
            code = self._send_json(400, {"error": str(exc)})
        except (BrokenPipeError, ConnectionError, TimeoutError):
            return  # client went away mid-response; nothing to answer
        except Exception as exc:  # surface, never kill the thread
            code = self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        latency_us = (time.perf_counter() - t0) * 1e6  # repro-lint: disable=RPR001
        metrics.counter("serve.requests").inc()
        metrics.counter(f"serve.http.{route}.requests").inc()
        metrics.histogram(f"serve.http.{route}.latency_us").observe(latency_us)
        metrics.counter(f"serve.http.responses.{code // 100}xx").inc()

    def _route(self, method: str) -> Tuple[str, int]:
        """Dispatch one request; returns (route-name, status) for metrics."""
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        if len(parts) < 2 or parts[0] != "v1":
            raise _HttpError(404, f"unknown path {url.path!r}")
        head = parts[1]
        if method == "POST":
            if parts == ["v1", "runs"]:
                return "runs.post", self._post_run()
            if parts == ["v1", "campaigns"]:
                return "campaigns.post", self._post_campaign()
            raise _HttpError(404, f"unknown POST path {url.path!r}")
        if head == "jobs" and len(parts) == 3:
            return "jobs.get", self._get_job(parts[2])
        if head == "jobs" and len(parts) == 4 and parts[3] == "events":
            return "events.get", self._get_job_events(parts[2])
        if head == "campaigns" and len(parts) == 3:
            return "campaigns.get", self._get_campaign(parts[2], query)
        if head == "runs" and len(parts) == 3:
            return "records.get", self._get_record(parts[2])
        if head == "runs" and len(parts) == 4 and parts[3] == "explain":
            return "explain.get", self._get_explain(parts[2])
        if parts == ["v1", "status"]:
            return "status.get", self._send_json(200, self.state.status())
        if parts == ["v1", "perf"]:
            return "perf.get", self._send_json(200, self.state.perf())
        if parts == ["v1", "metrics"]:
            return "metrics.get", self._send_json(
                200, self.state.metrics.as_dict()
            )
        raise _HttpError(404, f"unknown path {url.path!r}")

    # -- routes --------------------------------------------------------------

    def _post_run(self) -> int:
        spec_dict, force, lifecycle, wait_s = self._envelope(self._read_json())
        try:
            spec = RunSpec.from_dict(spec_dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad RunSpec: {exc}") from exc
        sub = self.state.submit(spec, force=force, lifecycle=lifecycle)
        if sub.hit:
            return self._send_json(
                200, {"source": sub.source, "key": spec.key, "record": sub.record}
            )
        job = sub.job
        if wait_s:
            # Deadline-bounded condition wait, not a poll loop: the
            # scheduler wakes us the moment the job turns terminal.
            self.state.scheduler.wait([job.id], timeout_s=wait_s)
        body = {"source": sub.source, "key": spec.key, "job": job.to_dict()}
        code = 200 if job.done else 202
        return self._send_json(code, body, location=f"/v1/jobs/{job.id}")

    def _post_campaign(self) -> int:
        spec_dict, force, lifecycle, wait_s = self._envelope(self._read_json())
        campaign = CampaignSpec.from_dict(spec_dict)
        specs = campaign.expand()
        if len(specs) > MAX_CAMPAIGN_RUNS:
            raise _HttpError(
                413,
                f"campaign expands to {len(specs)} runs "
                f"(limit {MAX_CAMPAIGN_RUNS})",
            )
        handle = self.state.new_campaign(campaign.name)
        seen = set()
        for spec in specs:
            key = spec.key
            if key in seen:
                continue  # duplicate grid point: one job serves all
            seen.add(key)
            handle.keys.append(key)
            sub = self.state.submit(spec, force=force, lifecycle=lifecycle)
            if sub.hit:
                handle.hits += 1
                handle.records[key] = sub.record
            else:
                handle.job_ids[key] = sub.job.id
        if wait_s and handle.job_ids:
            self.state.scheduler.wait(
                list(handle.job_ids.values()), timeout_s=wait_s
            )
        body = handle.to_dict(self.state.scheduler, include_records=bool(wait_s))
        code = 200 if body["state"] == "done" else 202
        return self._send_json(
            code, {"campaign": body}, location=f"/v1/campaigns/{handle.id}"
        )

    def _get_job(self, job_id: str) -> int:
        job = self.state.scheduler.job(job_id)
        if job is None:
            raise _HttpError(404, f"no such job {job_id!r}")
        return self._send_json(200, {"job": job.to_dict()})

    def _get_job_events(self, job_id: str) -> int:
        """Stream job events as JSONL until terminal (close-delimited)."""
        scheduler = self.state.scheduler
        job = scheduler.job(job_id)
        if job is None:
            raise _HttpError(404, f"no such job {job_id!r}")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        seen = 0
        deadline = time.monotonic() + MAX_WAIT_S  # repro-lint: disable=RPR001
        while True:
            remaining = deadline - time.monotonic()  # repro-lint: disable=RPR001
            events = scheduler.wait_events(
                job_id, seen, timeout_s=max(0.0, min(remaining, 10.0))
            )
            for event in events:
                line = json.dumps(event, sort_keys=True) + "\n"
                self.wfile.write(line.encode("utf-8"))
            seen += len(events)
            if events:
                self.wfile.flush()
            job = scheduler.job(job_id)
            if job is None or job.done or remaining <= 0:
                return 200

    def _get_campaign(self, campaign_id: str, query: Dict[str, List[str]]) -> int:
        handle = self.state.campaigns.get(campaign_id)
        if handle is None:
            raise _HttpError(404, f"no such campaign {campaign_id!r}")
        include = query.get("records", ["0"])[-1] not in ("0", "", "false")
        body = handle.to_dict(self.state.scheduler, include_records=include)
        return self._send_json(200, {"campaign": body})

    def _require_record(self, key: str) -> Dict[str, Any]:
        if not _valid_key(key):
            raise _HttpError(400, f"malformed run key {key!r}")
        record = self.state.cached_record(key)
        if record is None:
            raise _HttpError(404, f"no cached record for key {key!r}")
        return record

    def _get_record(self, key: str) -> int:
        return self._send_json(200, {"record": self._require_record(key)})

    def _get_explain(self, key: str) -> int:
        record = self._require_record(key)
        html = record_html(record)
        if html is None:
            raise _HttpError(
                409,
                "record has no blame data; re-submit the spec with "
                '{"lifecycle": true, "force": true} and retry',
            )
        return self._send_html(200, html)


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServeState`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], state: ServeState) -> None:
        self.state = state
        super().__init__(address, ServeHandler)


class ServeService:
    """One running daemon: state + server + (optional) background thread.

    The CLI calls :meth:`serve_forever`; tests and the benchmark call
    :meth:`start` to serve from a daemon thread in-process.
    """

    def __init__(
        self, root, host: str = "127.0.0.1", port: int = 0, **state_kwargs
    ) -> None:
        self.state = ServeState(root, **state_kwargs)
        self.server = ReproServer((host, port), self.state)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _startup(self) -> None:
        # Resume the durable backlog, then pre-fork pool workers so the
        # first cold query pays no spawn latency.
        self.state.scheduler.start()
        self.state.scheduler.prewarm()

    def start(self) -> "ServeService":
        self._startup()
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro.serve.http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._startup()
        self.server.serve_forever(poll_interval=0.2)

    def close(self) -> None:
        if self._thread is not None:
            self.server.shutdown()
            self._thread.join(timeout=5.0)
        self.server.server_close()
        self.state.scheduler.close(wait=False)
