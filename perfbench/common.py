"""Shared helpers: paths, order statistics, the env block, metric records."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median  # noqa: F401 - re-exported
from typing import Any, Dict, Sequence

#: Repository (or benchmark checkout) root: the directory above this package.
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave span files and full result documents.
OUT_DIR = ROOT / ".perfbench"

#: The seed a run uses when none is given, and the held-out seed: both
#: have pinned simulated outputs.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

clock = time.perf_counter


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (MiB) of this process or its reaped children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_block(seed: int, sizes: Dict[str, Any]) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    from repro.version import __version__

    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "repro_version": __version__,
        "git_commit": git_commit(),
        "seed": seed,
        "sizes": sizes,
    }


class Metric:
    """One reported number with its unit and sample count."""

    __slots__ = ("value", "unit", "samples")

    def __init__(self, value: float, unit: str, samples: int = 1) -> None:
        self.value = value
        self.unit = unit
        self.samples = samples

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "unit": self.unit, "samples": self.samples}


def print_table(title: str, metrics: Dict[str, Metric]) -> None:
    print(f"{title}:")
    width = max((len(name) for name in metrics), default=0)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m.value:>14.6g} {m.unit:<6} n={m.samples}")


def write_json(path: Path, doc: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


#: End-to-end metrics (plain runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "msgs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  A layer a workload
#: does not exercise reports 0.
PER_LAYER = {
    "sim.events": "count",
    "sim.spawns": "count",
    "sim.resumes": "count",
    "sim.heap_pushes": "count",
    "sim.events_per_msg": "ratio",
    "sim.self_s": "s",
    "pipelines.transfers": "count",
    "pipelines.stages_per_transfer": "ratio",
    "pipelines.spawns": "count",
    "pipelines.self_s": "s",
    "topology.routes": "count",
    "topology.self_s": "s",
    "topology.build_s": "s",
    "nic.pushes": "count",
    "nic.bytes": "bytes",
    "nic.self_s": "s",
    "ib.reg_hit_ratio": "ratio",
    "mpi.isends": "count",
    "mpi.eager_sends": "count",
    "mpi.rndv_sends": "count",
    "mpi.credit_stalls": "count",
    "mpi.unexpected_max_depth": "count",
    "mpi.collectives": "count",
    "mpi.self_s": "s",
    "apps.compute_calls": "count",
    "apps.self_s": "s",
    "serve.server_mean_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "scheduler.queue_delay_s": "s",
    "scheduler.job_wall_s": "s",
    "scheduler.turnaround_s": "s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "read_qps_max": "1/s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "error_rate": "ratio",
    "gen.late_requests": "count",
    "gen.lag_p99_ms": "ms",
    "trace.overhead": "ratio",
}


class RunOutcome:
    """Everything one run measured and checked."""

    def __init__(self, sizes: Dict[str, Any]) -> None:
        self.sizes = sizes
        self.e2e: Dict[str, Metric] = {}
        self.layers: Dict[str, Metric] = {}
        #: Client-side numbers printed in every run, traced or not.
        self.extra: Dict[str, Metric] = {}
        self.attempted = 0
        #: op -> reason, for every failed check (first reason kept).
        self.failures: Dict[str, str] = {}
        self.failed = 0
        #: The tracer of the last traced pass (its spans are written out).
        self.spans: Any = None

    def record(self, failures: Dict[str, str], attempted: int) -> None:
        """Account one batch of ``attempted`` checks, ``failures`` of them failed."""
        self.attempted += attempted
        self.failed += len(failures)
        for op, why in failures.items():
            self.failures.setdefault(op, why)

    def fail(self, op: str, why: str) -> None:
        self.record({op: why}, 1)
