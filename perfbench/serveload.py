"""The ``serve-mixed`` workload: an open-loop client against ``repro-serve``.

A ``repro-serve --workers 1`` daemon runs in its own process (and
process group).  Set-up launches it and warms its cache with the read
specs; this is repeated :data:`SETUP_LAUNCHES` times on fresh roots and
the last daemon is measured.  One client process then loads it on two
connections, one thread each:

* reads -- cached ``POST /v1/runs`` of the warm-up specs at a fixed
  :data:`READ_RATE`, then on a rate search for the highest rate whose
  p99 stays within :data:`P99_LIMIT_S` without a growing backlog;
* writes -- new 2-node ping-pong specs drawn from the seed, at a fixed
  :data:`WRITE_RATE` during the fixed-rate phase, each sent with
  ``wait_s`` so the reply carries the finished record.

Every request is timed from when it was due, not from when it was sent,
and the generator reports how many it sent late and by how much.  Reads
never enter the simulator; writes cross scheduler dispatch, the worker
pool, the simulator, the disk cache and the journal.

After the daemon has stopped, the fixed-phase write specs are run again
in this process: timed plain for ``run_s``, then under an
``IsendCounter`` for ``msgs_per_s``, or traced for the per-layer
numbers of the write path.
"""

from __future__ import annotations

import ctypes
import gc
import http.client
import json
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.programs import build_program
from repro.campaign.runner import scalar_value

from .common import (
    OUT_DIR,
    PER_LAYER,
    ROOT,
    Metric,
    RunOutcome,
    clock,
    median,
    peak_rss_mb,
    percentile,
)
from .simwork import Job, SimWorkload, canon, check_outputs, run_pass, traced_pass
from .tracer import IsendCounter, LayerTracer

NETWORKS = ("ib", "elan")
#: Payload sizes writes draw from (the pinned domain): 0 B to 64 KiB in
#: steps of 4x, so 60 writes cover every (network, size) three times.
WRITE_SIZES = (0,) + tuple(4 ** k for k in range(9))
#: Sizes of the read specs run during set-up.
READ_SIZES = (0, 1024, 16384, 65536)
READ_RATE = 300.0
WRITE_RATE = 5.0
#: Read latency limit for ``read_qps_max``.
P99_LIMIT_S = 0.005
#: A search step fails when its last requests lag more than this.
BACKLOG_LIMIT_S = 0.002
#: The search stops once its bracket is narrower than this share.
SEARCH_RESOLUTION = 0.04
SEARCH_STEP_S = 0.8
#: A request sent more than this after its due time counts as late.
LATE_S = 0.001
SETUP_LAUNCHES = 3
#: Share of the run spent at the fixed rates; the rest is the search.
FIXED_SHARE = 0.6
READ_TIMEOUT_S = 10.0
WRITE_WAIT_S = 30.0
DAEMON_START_S = 60.0
DAEMON_STOP_S = 10.0


def spec_dict(network: str, size: int, seed: int = 0) -> Dict[str, Any]:
    return {
        "app": "pingpong", "network": network, "nodes": 2, "seed": seed,
        "app_args": {"size": size},
    }


def op_name(network: str, size: int) -> str:
    return f"{network} {size}"


def read_specs() -> List[Tuple[str, Dict[str, Any]]]:
    return [(op_name(n, s), spec_dict(n, s)) for n in NETWORKS for s in READ_SIZES]


def write_specs(seed: int, count: int) -> List[Tuple[str, Dict[str, Any]]]:
    """``count`` distinct write specs drawn from ``seed``.

    The seed shuffles the order of the (network, size) pairs, each pair
    used once per round, so every seed asks for the same mix of work.
    Each spec carries its own machine seed, so every write is a new
    cache key; ping-pong draws no randomness, so the simulated value
    depends only on network and size.
    """
    rng = random.Random(seed)
    pairs = [(n, s) for n in NETWORKS for s in WRITE_SIZES]
    order: List[Tuple[str, int]] = []
    while len(order) < count:
        block = list(pairs)
        rng.shuffle(block)
        order.extend(block)
    machine_seeds = rng.sample(range(1, 2 ** 31), count)
    return [
        (op_name(network, size), spec_dict(network, size, mseed))
        for (network, size), mseed in zip(order, machine_seeds)
    ]


def read_order(seed: int, count: int) -> List[int]:
    """Which read spec each read request asks for."""
    rng = random.Random(seed ^ 0x5EAD)
    n = len(READ_SIZES) * len(NETWORKS)
    return [rng.randrange(n) for _ in range(count)]


# -- the daemon ------------------------------------------------------------------


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so worker processes can be reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro-serve`` process in its own process group."""

    def __init__(self, root: Path, log: Path) -> None:
        self.root = root
        self.log = log
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
        )
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve.cli", "--root", str(self.root),
                 "--port", str(self.port), "--workers", "1", "--quiet"],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        deadline = clock() + DAEMON_START_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro-serve exited with {self.proc.returncode}; see {self.log}")
            try:
                conn = connect(self.port)
                try:
                    conn.request("GET", "/v1/status")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            if clock() > deadline:
                raise RuntimeError("repro-serve did not answer within "
                                   f"{DAEMON_START_S:.0f} s")
            time.sleep(0.05)

    def stop(self) -> None:
        """Stop the daemon and every process of its group; wait for all."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)  # graceful: closes the pool
            try:
                proc.wait(timeout=DAEMON_STOP_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = clock() + DAEMON_STOP_S
        while clock() < deadline:
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pass
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)
        raise RuntimeError(f"processes of group {proc.pid} outlived the daemon")


def connect(port: int, timeout_s: float = READ_TIMEOUT_S) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    conn.connect()
    # Headers and body go out in separate writes: without TCP_NODELAY the
    # second stalls behind a delayed ACK.
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int, timeout_s: float) -> None:
        self.port = port
        self.timeout_s = timeout_s
        self.conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, Any]:
        if self.conn is None:
            self.conn = connect(self.port, self.timeout_s)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            return resp.status, json.loads(resp.read())
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# -- load generation -------------------------------------------------------------


@dataclass
class Sample:
    op: str
    due: float
    sent: float
    done: float
    error: str = ""
    #: Writes: the spec sent.
    spec: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def open_loop(requests, rate: float, start: float, end: float, send) -> List[Sample]:
    """Send ``requests`` at ``rate`` from ``start`` until ``end`` (open loop).

    A request is due at ``start + i / rate`` whether or not the previous
    one has finished; one that cannot go out on time goes out as soon as
    the connection is free, and its latency still counts from ``due``.
    """
    samples = []
    for i, request in enumerate(requests):
        due = start + i / rate
        if due >= end:
            break
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        sent = clock()
        error, extra = send(request)
        samples.append(Sample(request[0], due, sent, clock(), error, **extra))
    return samples


def _read_sender(client: Client, reads, pinned: Dict[str, str], keys: Dict[str, str]):
    bodies = [json.dumps(spec).encode() for _, spec in reads]

    def send(request: Tuple[str, int]) -> Tuple[str, Dict[str, Any]]:
        op, index = request
        try:
            status, body = client.call("POST", "/v1/runs", bodies[index])
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}", {}
        if not 200 <= status < 300:
            return f"HTTP {status}: {body.get('error', '')}", {}
        if body.get("source") != "cache":
            return f"source {body.get('source')!r}, expected 'cache'", {}
        record = body.get("record") or {}
        if body.get("key") != keys.get(op) or _value(record) != pinned.get(op):
            return f"record mismatch: {_value(record)} vs pinned {pinned.get(op)}", {}
        return "", {}

    return send


def _write_sender(client: Client, pinned: Dict[str, str]):
    def send(request: Tuple[str, Dict[str, Any]]) -> Tuple[str, Dict[str, Any]]:
        op, spec = request
        body = json.dumps({"spec": spec, "wait_s": WRITE_WAIT_S}).encode()
        try:
            status, reply = client.call("POST", "/v1/runs", body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}", {"spec": spec}
        job = reply.get("job") or {}
        record = job.get("record") or {}
        if status != 200 or job.get("state") != "done":
            return f"HTTP {status}, job state {job.get('state')!r}", {"spec": spec}
        if reply.get("source") != "scheduled":
            return f"source {reply.get('source')!r}, expected 'scheduled'", {"spec": spec}
        if _value(record) != pinned.get(op):
            return f"record value {_value(record)} vs pinned {pinned.get(op)}", {"spec": spec}
        return "", {"spec": spec}

    return send


def _value(record: Dict[str, Any]) -> Optional[str]:
    value = record.get("value")
    return repr(float(value)) if isinstance(value, (int, float)) else None


def _step_passes(samples: List[Sample]) -> bool:
    """p99 within the limit, no failure, and no growing backlog."""
    if not samples or any(s.error for s in samples):
        return False
    tail = samples[-max(1, len(samples) // 10):]
    return (percentile([s.latency for s in samples], 99) <= P99_LIMIT_S
            and median([s.lag for s in tail]) <= BACKLOG_LIMIT_S)


def rate_search(send, orders, start_rate: float, budget_s: float) -> Tuple[float, int, List[Sample]]:
    """Highest passing read rate: doubling from ``start_rate``, then bisection.

    Returns ``(rate, steps, samples)``; ``rate`` is 0 when no step
    passed.  The search stops when the bracket between the highest
    passing and the lowest failing rate is narrower than
    :data:`SEARCH_RESOLUTION`, or when the budget runs out.
    """
    deadline = clock() + budget_s
    lo, hi = 0.0, None
    rate = start_rate
    steps = 0
    samples: List[Sample] = []
    while clock() + SEARCH_STEP_S <= deadline:
        t0 = clock() + 0.05
        step = open_loop(orders(rate), rate, t0, t0 + SEARCH_STEP_S, send)
        samples.extend(step)
        steps += 1
        if _step_passes(step):
            lo = rate
        else:
            hi = rate
        if hi is not None and lo > 0 and (hi - lo) / hi < SEARCH_RESOLUTION:
            break
        rate = rate * 2 if hi is None else (lo + hi) / 2
    return lo, steps, samples


# -- one run ---------------------------------------------------------------------


def _local_workload(writes: List[Tuple[str, Dict[str, Any]]], pinned: Dict[str, str]):
    """The write specs as in-process jobs, with their pinned outputs.

    Each job runs the program the daemon's workers run for the spec
    (``repro.campaign.programs.build_program``) on a machine with the
    spec's seed; its output is the record's scalar value.
    """
    jobs, expected = [], {}
    for i, (op, spec) in enumerate(writes):
        name = f"write{i} {op}"
        expected[name] = pinned.get(op)
        jobs.append(Job(
            spec["network"], None,
            lambda spec=spec: build_program(spec["app"], dict(spec["app_args"])),
            (name,),
            lambda result, name=name: {name: canon(scalar_value(result.values))},
            nodes=spec["nodes"], seed=spec["seed"],
        ))
    return SimWorkload("serve-mixed writes", tuple(jobs), seed_free=True), expected


def _latencies(samples: List[Sample], timeout_s: float) -> List[float]:
    """Latencies, a failed request counting as at least ``timeout_s``."""
    return [max(s.latency, timeout_s) if s.error else s.latency for s in samples]


def _histogram_sum(metrics: Dict[str, Any], name: str) -> Tuple[float, int]:
    count = int(metrics.get(f"{name}.count", 0))
    return float(metrics.get(f"{name}.mean", 0.0)) * count, count


def _measure(
    port: int, seed: int, reads, writes, keys: Dict[str, str], pinned: Dict[str, str],
    fixed_s: float, search_s: float, outcome: RunOutcome,
) -> List[Sample]:
    """Load the daemon; fills ``outcome.extra`` and returns the write samples."""
    reader = Client(port, READ_TIMEOUT_S)
    writer = Client(port, WRITE_WAIT_S + 10.0)
    read_send = _read_sender(reader, reads, pinned, keys)
    order = read_order(seed, int(max(fixed_s * READ_RATE, 20000 * SEARCH_STEP_S)) + 1)

    def orders(rate: float) -> List[Tuple[str, int]]:
        # Every step asks for the same seeded sequence of read specs.
        n = int(rate * SEARCH_STEP_S) + 1
        return [(reads[i][0], i) for i in order[:n]]

    try:
        start = clock() + 0.1
        end = start + fixed_s
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="perfbench-writes") as pool:
            wfuture = pool.submit(
                open_loop, writes, WRITE_RATE, start, end, _write_sender(writer, pinned)
            )
            fixed_reads = [(reads[i][0], i) for i in order[:int(fixed_s * READ_RATE) + 1]]
            read_samples = open_loop(fixed_reads, READ_RATE, start, end, read_send)
            write_samples = wfuture.result()
        _, before = reader.call("GET", "/v1/metrics")
        qps_max, steps, search = rate_search(read_send, orders, READ_RATE, search_s)
        _, after = reader.call("GET", "/v1/metrics")
        _, status = reader.call("GET", "/v1/status")
    finally:
        reader.close()
        writer.close()

    for kind, group in (("read", read_samples), ("write", write_samples), ("search", search)):
        for i, s in enumerate(group):
            outcome.record({f"{kind}{i} {s.op}": s.error} if s.error else {}, 1)

    fixed = read_samples + write_samples
    rl = _latencies(read_samples, READ_TIMEOUT_S)
    wl = _latencies(write_samples, WRITE_WAIT_S)
    lags = [s.lag for s in fixed]
    post = "serve.http.runs.post.latency_us"
    s0, c0 = _histogram_sum(before, post)
    s1, c1 = _histogram_sum(after, post)
    hits = after.get("serve.cache.hits", 0)
    coalesced = after.get("serve.cache.coalesced", 0)
    lookups = hits + coalesced + after.get("serve.cache.misses", 0)
    timing = status["scheduler"]["timing"]
    outcome.extra.update({
        "read_p50_ms": Metric(median(rl) * 1e3, "ms", len(rl)),
        "read_p99_ms": Metric(percentile(rl, 99) * 1e3, "ms", len(rl)),
        "read_qps_max": Metric(qps_max, "1/s", steps),
        "write_p50_ms": Metric(median(wl) * 1e3, "ms", len(wl)),
        "write_p90_ms": Metric(percentile(wl, 90) * 1e3, "ms", len(wl)),
        "gen.late_requests": Metric(sum(1 for lag in lags if lag > LATE_S), "count", len(lags)),
        "gen.lag_p99_ms": Metric(percentile(lags, 99) * 1e3, "ms", len(lags)),
        "serve.server_mean_us": Metric((s1 - s0) / (c1 - c0) if c1 > c0 else 0.0, "us", c1 - c0),
        "serve.cache_hit_ratio": Metric(hits / lookups if lookups else 0.0, "ratio", lookups),
        "serve.coalesced": Metric(coalesced, "count", lookups),
        "scheduler.queue_delay_s": Metric(timing["queue_delay_s"]["mean"], "s", timing["queue_delay_s"]["count"]),
        "scheduler.job_wall_s": Metric(timing["wall_s"]["mean"], "s", timing["wall_s"]["count"]),
        "scheduler.turnaround_s": Metric(timing["turnaround_s"]["mean"], "s", timing["turnaround_s"]["count"]),
    })
    return write_samples


def _setup(daemon: Daemon, reads, pinned: Dict[str, str], outcome: RunOutcome) -> Dict[str, str]:
    """Launch ``daemon`` and run every read spec once; returns their keys."""
    daemon.start()
    keys = {}
    warm = Client(daemon.port, WRITE_WAIT_S + 10.0)
    try:
        for op, spec in reads:
            body = json.dumps({"spec": spec, "wait_s": WRITE_WAIT_S}).encode()
            status, reply = warm.call("POST", "/v1/runs", body)
            value = _value((reply.get("job") or {}).get("record") or {})
            keys[op] = reply.get("key", "")
            ok = status == 200 and value == pinned.get(op)
            outcome.record({} if ok else {f"warm-up {op}": f"HTTP {status}, value {value}"}, 1)
    finally:
        warm.close()
    return keys


def run_serve(seed: int, seconds: float, trace: bool, pins: Dict[str, Any]) -> RunOutcome:
    """Measure ``serve-mixed`` for ``seconds`` (plus set-up)."""
    pinned = pins.get("serve-mixed", {})
    reads = read_specs()
    fixed_s = seconds * FIXED_SHARE
    writes = write_specs(seed, max(1, int(fixed_s * WRITE_RATE)))
    outcome = RunOutcome(sizes={
        "reads": [op for op, _ in reads], "read_rate": READ_RATE,
        "write_rate": WRITE_RATE, "write_sizes": list(WRITE_SIZES),
        "writes": len(writes), "fixed_s": fixed_s, "search_s": seconds - fixed_s,
        "setup_launches": SETUP_LAUNCHES, "daemon_workers": 1,
    })
    work = OUT_DIR / f"serve-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _become_subreaper()

    setups: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for launch in range(SETUP_LAUNCHES):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(work / f"root{launch}", work / "daemon.log")
            t0 = clock()
            keys = _setup(daemon, reads, pinned, outcome)
            setups.append(clock() - t0)
        write_samples = _measure(daemon.port, seed, reads, writes, keys, pinned,
                                 fixed_s, seconds - fixed_s, outcome)
    finally:
        if daemon is not None:
            daemon.stop()
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    shutil.rmtree(work, ignore_errors=True)

    # The write specs again, in this process: the same programs and
    # machine seeds the daemon's worker ran, timed with nothing else
    # running (``run_s``), then counted or traced.
    done = [s for s in write_samples if not s.error]
    local, expected = _local_workload([(s.op, s.spec) for s in done], pinned)
    gc.collect()
    plain = run_pass(local, seed)
    outcome.record(check_outputs(local, plain, expected), len(done))
    if trace:
        tracer = LayerTracer()
        traced, layers = traced_pass(local, seed, tracer)
        outcome.record(check_outputs(local, traced, expected), len(done))
        outcome.layers = {k: Metric(v, PER_LAYER[k], 1) for k, v in layers.items()}
        outcome.layers["trace.overhead"] = Metric(traced.run_s / plain.run_s, "ratio", 1)
        outcome.layers.update(outcome.extra)
        outcome.spans = tracer
        return outcome
    with IsendCounter() as counter:
        p = run_pass(local, seed)
    outcome.record(check_outputs(local, p, expected), len(done))
    outcome.e2e = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "run_s": Metric(plain.run_s, "s", len(done)),
        "msgs_per_s": Metric(counter.isends / plain.run_s, "1/s", len(done)),
        "peak_rss_mb": Metric(rss, "MB", 1),
    }
    return outcome
