"""The perf gate: compare two BENCH_perf.json documents case by case.

``repro perf diff BASELINE CURRENT`` joins rows on their ``case``
label, computes the events/sec ratio, and fails (exit 1) when any case
regressed past the threshold.  The threshold is deliberately generous
— CI runners are noisy; the gate exists to catch order-of-magnitude
kernel regressions, not 5% wobble.  Cases present on only one side are
reported but never fail the gate (the ladder grows over time, and a
baseline regenerated on a new rung shouldn't brick older branches).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

#: Default allowed fractional events/sec drop (0.25 == 25% slower).
DEFAULT_THRESHOLD = 0.25


def _rows(doc: Any) -> List[Dict[str, Any]]:
    """Rows from either document shape: repro.perf/1 or a bare list."""
    if isinstance(doc, dict):
        return list(doc.get("cases", []))
    return list(doc)


def load_results(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load one results document's rows from ``path``."""
    return _rows(json.loads(Path(path).read_text()))


def compare_results(
    baseline: Any,
    current: Any,
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, Any]:
    """Join rows by case; flag events/sec drops beyond ``threshold``.

    Accepts loaded documents (dict or list) on both sides.  Returns a
    JSON-ready comparison: one entry per case with baseline/current
    events/sec, the ratio, and a status among ``ok`` / ``regressed`` /
    ``improved`` / ``baseline-only`` / ``current-only``.  ``passed`` is
    False iff any case regressed.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1): {threshold}")
    base = {r["case"]: r for r in _rows(baseline)}
    cur = {r["case"]: r for r in _rows(current)}
    cases: List[Dict[str, Any]] = []
    regressed: List[str] = []
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            cases.append({"case": name, "status": "baseline-only"})
            continue
        if name not in base:
            cases.append(
                {
                    "case": name,
                    "status": "current-only",
                    "current_events_per_sec": cur[name]["events_per_sec"],
                }
            )
            continue
        b = float(base[name]["events_per_sec"])
        c = float(cur[name]["events_per_sec"])
        ratio = c / b if b > 0 else 0.0
        if b > 0 and ratio < 1.0 - threshold:
            status = "regressed"
            regressed.append(name)
        elif ratio > 1.0 + threshold:
            status = "improved"
        else:
            status = "ok"
        cases.append(
            {
                "case": name,
                "status": status,
                "baseline_events_per_sec": b,
                "current_events_per_sec": c,
                "ratio": round(ratio, 4),
            }
        )
    return {
        "threshold": threshold,
        "passed": not regressed,
        "regressed": regressed,
        "cases": cases,
    }


def render_comparison(comparison: Dict[str, Any]) -> str:
    """The comparison as an aligned text table plus a verdict line."""
    lines = [
        f"{'case':>22} {'baseline':>12} {'current':>12} "
        f"{'ratio':>7}  status"
    ]
    for entry in comparison["cases"]:
        b = entry.get("baseline_events_per_sec")
        c = entry.get("current_events_per_sec")
        ratio = entry.get("ratio")
        lines.append(
            f"{entry['case']:>22} "
            f"{(f'{b:.0f}' if b is not None else '-'):>12} "
            f"{(f'{c:.0f}' if c is not None else '-'):>12} "
            f"{(f'{ratio:.3f}' if ratio is not None else '-'):>7}  "
            f"{entry['status']}"
        )
    pct = comparison["threshold"] * 100
    if comparison["passed"]:
        lines.append(f"PASS: no case regressed more than {pct:.0f}%")
    else:
        names = ", ".join(comparison["regressed"])
        lines.append(f"FAIL: regressed past {pct:.0f}%: {names}")
    return "\n".join(lines)
