"""The perf gate: compare two BENCH_perf.json documents case by case.

``repro perf diff BASELINE CURRENT`` joins rows on their ``case``
label and checks both windows of each rung, ``startup`` and
``program``:

* ``events`` must match exactly.  The count depends only on the seed,
  so the check is machine-independent, and a change to it (a kernel
  that does more or less work per message) must come with a
  regenerated baseline.
* The median wall time may rise by at most ``max(MIN_THRESHOLD,
  relative IQR of either side)``.  The limit comes from the spread the
  two documents measured, so a noisy window widens its own limit
  instead of flaking the gate.  Wall times only compare on one
  machine.

Rows of different workloads (``quick``, ``nodes``, ``network`` or
``topology`` differ) are not comparable and fail as
``config-mismatch``.  Cases present on only one side are reported but
never fail the gate (the ladder grows over time, and a baseline
regenerated on a new rung shouldn't brick older branches).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import ReproError

#: The results document format ``repro perf run`` writes.
SCHEMA = "repro.perf/2"

#: The smallest allowed fractional rise of a window's median wall time.
MIN_THRESHOLD = 0.25

#: The timed windows of every row, in run order.
WINDOWS = ("startup", "program")

#: Row fields that define the workload; rows differing here don't join.
_WORKLOAD_KEYS = ("quick", "nodes", "network", "topology")

#: Window statuses from worst to best; a case takes its worst window's.
_SEVERITY = ("regressed", "events-changed", "improved", "ok")


def load_results(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load the rows of the ``repro.perf/2`` document at ``path``."""
    doc = json.loads(Path(path).read_text())
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise ReproError(
            f"{path}: schema {schema!r} is not {SCHEMA!r}; "
            "regenerate it with `repro perf run`"
        )
    return list(doc["cases"])


def _spread(window: Dict[str, Any]) -> float:
    """Relative interquartile range of a window's wall time."""
    wall = window["wall_s"]
    return window["wall_iqr_s"] / wall if wall > 0 else 0.0


def _compare_window(b: Dict[str, Any], c: Dict[str, Any]) -> Dict[str, Any]:
    threshold = max(MIN_THRESHOLD, _spread(b), _spread(c))
    ratio: Optional[float] = (
        c["wall_s"] / b["wall_s"] if b["wall_s"] > 0 else None
    )
    if ratio is not None and ratio > 1.0 + threshold:
        status = "regressed"
    elif b["events"] != c["events"]:
        status = "events-changed"
    elif ratio is not None and ratio < 1.0 - threshold:
        status = "improved"
    else:
        status = "ok"
    return {
        "status": status,
        "baseline_wall_s": b["wall_s"],
        "current_wall_s": c["wall_s"],
        "ratio": None if ratio is None else round(ratio, 4),
        "threshold": round(threshold, 4),
        "baseline_events": b["events"],
        "current_events": c["events"],
    }


def compare_results(
    baseline: List[Dict[str, Any]], current: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Join rows by case and gate each window of each joined rung.

    Takes the row lists :func:`load_results` returns.  Each joined case
    gets a status among ``ok`` / ``regressed`` / ``improved`` /
    ``events-changed`` / ``config-mismatch``, the worst of its windows';
    unjoined cases are ``baseline-only`` / ``current-only``.  ``passed``
    is False iff a window regressed or changed its event count, or a
    case's workload differs.
    """
    base = {r["case"]: r for r in baseline}
    cur = {r["case"]: r for r in current}
    cases: List[Dict[str, Any]] = []
    regressed: List[str] = []
    changed: List[str] = []
    mismatched: List[str] = []
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            cases.append({"case": name, "status": "baseline-only"})
            continue
        if name not in base:
            cases.append({"case": name, "status": "current-only"})
            continue
        b, c = base[name], cur[name]
        mismatch = {
            key: [b.get(key), c.get(key)]
            for key in _WORKLOAD_KEYS
            if b.get(key) != c.get(key)
        }
        if mismatch:
            mismatched.append(name)
            cases.append(
                {
                    "case": name,
                    "status": "config-mismatch",
                    "mismatch": mismatch,
                }
            )
            continue
        windows = {w: _compare_window(b[w], c[w]) for w in WINDOWS}
        statuses = {w["status"] for w in windows.values()}
        if "regressed" in statuses:
            regressed.append(name)
        # Checked apart: a regressed window may also have changed its count.
        if any(
            w["baseline_events"] != w["current_events"]
            for w in windows.values()
        ):
            changed.append(name)
        status = next(s for s in _SEVERITY if s in statuses)
        cases.append({"case": name, "status": status, "windows": windows})
    return {
        "min_threshold": MIN_THRESHOLD,
        "passed": not (regressed or changed or mismatched),
        "regressed": regressed,
        "events_changed": changed,
        "config_mismatch": mismatched,
        "cases": cases,
    }


def render_comparison(comparison: Dict[str, Any]) -> str:
    """The comparison as an aligned text table plus a verdict line."""
    lines = [
        f"{'case':>22} {'window':>8} {'baseline_s':>11} {'current_s':>11} "
        f"{'ratio':>7} {'limit':>7}  status"
    ]
    failures: List[str] = []
    for entry in comparison["cases"]:
        name = entry["case"]
        if "windows" not in entry:
            lines.append(
                f"{name:>22} {'-':>8} {'-':>11} {'-':>11} {'-':>7} "
                f"{'-':>7}  {entry['status']}"
            )
            for key, (b, c) in entry.get("mismatch", {}).items():
                failures.append(
                    f"FAIL: {name} config-mismatch: {key} is {b!r} in the "
                    f"baseline, {c!r} now (compare runs of one workload)"
                )
            continue
        for window, w in entry["windows"].items():
            ratio = w["ratio"]
            lines.append(
                f"{name:>22} {window:>8} {w['baseline_wall_s']:>11.4f} "
                f"{w['current_wall_s']:>11.4f} "
                f"{(f'{ratio:.3f}' if ratio is not None else '-'):>7} "
                f"{1.0 + w['threshold']:>7.3f}  {w['status']}"
            )
            if w["status"] == "regressed":
                failures.append(
                    f"FAIL: {name} {window} wall time rose {ratio:.3f}x, "
                    f"past its {1.0 + w['threshold']:.3f}x limit"
                )
            if w["baseline_events"] != w["current_events"]:
                failures.append(
                    f"FAIL: {name} fired {w['current_events']} {window} "
                    f"events, baseline {w['baseline_events']} (regenerate "
                    "the baseline if the change is intended)"
                )
    if comparison["passed"]:
        lines.append(
            "PASS: no window's median wall time rose past its limit "
            "or changed its event count"
        )
    return "\n".join(lines + failures)
