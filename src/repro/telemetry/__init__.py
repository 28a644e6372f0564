"""Structured observability for simulated runs.

The paper's claims are mechanism claims — protocol crossover points,
registration-cache thrash, NIC-thread matching, bus saturation — and
this package makes those mechanisms *numbers*:

* :class:`MetricsRegistry` — cheap named counters/gauges/histograms.
  Disabled registries hand out shared no-op instruments, so an
  untelemetered run pays one empty method call per event and allocates
  nothing.  Enabled contents are deterministic: same seed + same spec
  gives bit-identical metric dicts.
* :class:`Telemetry` — the per-simulator bundle (registry + optional
  span :class:`Timeline`), attached via ``Machine(...,
  telemetry=Telemetry(...))``.
* :func:`snapshot` — one flat JSON-ready dict per run: protocol
  counters, per-resource busy time / utilization / occupancy / queue
  high-water marks, per-store depths, kernel totals.
* :class:`LifecycleRecorder` / :class:`MessageSpan`
  (:mod:`~repro.telemetry.lifecycle`) — per-message spans: every phase a
  send or recv passes through, with dependency edges and fault
  annotations.
* :class:`SeriesBank` (:mod:`~repro.telemetry.series`) — deterministic
  virtual-time series of gauge-like values (bus occupancy, queue depth,
  credits outstanding, pinned bytes), resampled onto a Δt grid at export.
* :func:`critical_path` / :func:`blame`
  (:mod:`~repro.telemetry.critical_path`) — the longest dependency chain
  through the span graph and its per-component blame table.
* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome
  ``trace_event`` JSON timelines (load in ``chrome://tracing`` or
  Perfetto), with the metrics dict embedded under ``otherData``.
* ``repro trace`` (:mod:`repro.telemetry.cli`) — record / dump /
  summarize / diff traces from the shell.
* ``repro explain`` (:mod:`repro.telemetry.explain`) — run a traced
  benchmark and render waterfall + blame analysis as JSON and HTML.

Telemetry never touches simulation behaviour: no events are scheduled,
no randomness is drawn, and enabling it leaves every simulated timing
bit-identical.
"""

from .chrome import chrome_trace, load_trace, validate_trace, write_chrome_trace
from .collect import DISABLED, Telemetry, snapshot
from .critical_path import Segment, blame, blame_of_spans, critical_path
from .lifecycle import (
    LifecycleRecorder,
    MessageSpan,
    NULL_LIFECYCLE,
    NULL_SPAN,
    component_of,
    matched_on_arrival_share,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from .series import Channel, NULL_CHANNEL, NULL_SERIES, SeriesBank
from .stream import EventStream, Timeline

__all__ = [
    "Telemetry",
    "DISABLED",
    "snapshot",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "EventStream",
    "Timeline",
    "MessageSpan",
    "LifecycleRecorder",
    "NULL_SPAN",
    "NULL_LIFECYCLE",
    "component_of",
    "matched_on_arrival_share",
    "Channel",
    "SeriesBank",
    "NULL_CHANNEL",
    "NULL_SERIES",
    "Segment",
    "critical_path",
    "blame",
    "blame_of_spans",
    "chrome_trace",
    "write_chrome_trace",
    "load_trace",
    "validate_trace",
]
