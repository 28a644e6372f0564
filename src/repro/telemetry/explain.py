"""``repro explain``: where did the time go, and whose fault is it?

``run`` executes one declarative app (the campaign registry) on a fresh
machine with lifecycle spans and series sampling enabled, then folds the
span graph into an *explanation*: the critical path through the run, a
per-component blame table (host / pcix / nic / link / switch / waiting /
app), a latency waterfall of mean per-phase time for every (kind, proto,
size) bucket, and the sampled occupancy series.  The result is written
as JSON and, optionally, as a self-contained HTML report (inline CSS and
SVG, no external assets) with stacked waterfall bars, the blame table,
and per-channel sparklines.

``diff`` compares the blame tables of two reports and exits non-zero
when any component's share of the critical path drifted past a
threshold — a shell-pipeline gate against "the optimization moved the
bottleneck" regressions, same spirit as ``repro trace diff`` but over
*attribution* rather than raw metrics.

Examples::

    repro explain run --app pingpong --network ib --nodes 2 \\
        --arg size=4194304 -o ib-4mb.json --html ib-4mb.html
    repro explain run --app pingpong --network elan --nodes 2 \\
        --arg size=4194304 -o elan-4mb.json
    repro explain diff ib-4mb.json elan-4mb.json --threshold 0.05
"""

from __future__ import annotations

import argparse
import html as _html
import json
from pathlib import Path
from typing import Any, Dict, List

from ..cli import add_run_spec_options, run_spec
from ..errors import ReproError
from ..version import __version__
from .collect import Telemetry
from .critical_path import blame, critical_path
from .lifecycle import matched_on_arrival_share

#: Fixed component palette so report colours are stable across runs.
_COMPONENT_COLORS = {
    "host": "#d9534f",
    "pcix": "#f0ad4e",
    "nic": "#5bc0de",
    "link": "#428bca",
    "switch": "#7b68ee",
    "waiting": "#999999",
    "app": "#cccccc",
}
_PHASE_FALLBACK = "#66aa88"

#: Critical-path segments included verbatim in the JSON report (the
#: trailing — latest — portion; the blame table covers the whole path).
_MAX_REPORT_SEGMENTS = 500


def waterfall(spans: Any) -> List[Dict[str, Any]]:
    """Mean per-phase time for every ``(kind, proto, size)`` bucket.

    The per-bucket phase dict is the latency *waterfall*: stacked, the
    bars show how a message of that shape spends its life.  Means are
    over all spans in the bucket; gap time (total minus the phase sum)
    is overlap-naive but a faithful "unattributed" residual.
    """
    buckets: Dict[tuple, Dict[str, Any]] = {}
    for span in spans:
        key = (span.kind, span.proto, span.size)
        b = buckets.get(key)
        if b is None:
            b = buckets[key] = {"count": 0, "total": 0.0, "phases": {}}
        b["count"] += 1
        b["total"] += span.end - span.t0
        phases = b["phases"]
        for name, t0, t1 in span.phases:
            phases[name] = phases.get(name, 0.0) + (t1 - t0)
    out: List[Dict[str, Any]] = []
    for key in sorted(buckets):
        kind, proto, size = key
        b = buckets[key]
        n = b["count"]
        out.append(
            {
                "kind": kind,
                "proto": proto,
                "size": size,
                "count": n,
                "mean_total_us": b["total"] / n,
                "phases": {
                    name: us / n for name, us in sorted(b["phases"].items())
                },
            }
        )
    return out


def build_report(machine, result, label: str = "") -> Dict[str, Any]:
    """The JSON-ready explanation of one finished run on ``machine``."""
    lifecycle = machine.sim.telemetry.lifecycle
    spans = list(lifecycle.spans)
    by_id = {s.id: s for s in spans}
    segments = critical_path(spans)
    return {
        "label": label or machine.label,
        "version": __version__,
        "network": machine.network,
        "n_nodes": machine.n_nodes,
        "ppn": machine.ppn,
        "elapsed_us": result.elapsed_us,
        "spans": len(spans),
        "dropped": lifecycle.summary(),
        "matched_on_arrival_share": matched_on_arrival_share(spans),
        "blame": blame(segments, by_id),
        "critical_path_segments": len(segments),
        "critical_path": [
            s.to_dict() for s in segments[-_MAX_REPORT_SEGMENTS:]
        ],
        "waterfall": waterfall(spans),
        "series": machine.series(),
        "metrics": result.metrics,
    }


# -- HTML rendering (no external assets, deterministic output) ---------------


def _esc(value: Any) -> str:
    return _html.escape(str(value))


def _color(name: str) -> str:
    from .lifecycle import component_of

    if name in _COMPONENT_COLORS:
        return _COMPONENT_COLORS[name]
    return _COMPONENT_COLORS.get(component_of(name), _PHASE_FALLBACK)


def _blame_rows(report: Dict[str, Any]) -> str:
    rows = []
    components = report["blame"]["components"]
    for name, entry in sorted(
        components.items(), key=lambda kv: -kv[1]["us"]
    ):
        pct = entry["share"] * 100.0
        rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td class='num'>{entry['us']:.3f}</td>"
            f"<td class='num'>{pct:.1f}%</td>"
            f"<td><div class='bar' style='width:{pct:.1f}%;"
            f"background:{_color(name)}'></div></td></tr>"
        )
    return "".join(rows)


def _waterfall_rows(report: Dict[str, Any]) -> str:
    rows = []
    for bucket in report["waterfall"]:
        total = bucket["mean_total_us"]
        if total <= 0:
            continue
        parts = []
        explained = 0.0
        for name, us in bucket["phases"].items():
            width = 100.0 * us / total
            explained += us
            if width < 0.05:
                continue
            parts.append(
                f"<div class='seg' style='width:{width:.2f}%;"
                f"background:{_color(name)}' title='{_esc(name)}: "
                f"{us:.3f}us'></div>"
            )
        residual = total - explained
        if residual > 0 and 100.0 * residual / total >= 0.05:
            parts.append(
                f"<div class='seg' style='width:{100.0 * residual / total:.2f}%;"
                f"background:#eeeeee' title='unattributed: "
                f"{residual:.3f}us'></div>"
            )
        head = (
            f"{bucket['kind']}/{bucket['proto']} {bucket['size']}B "
            f"&times;{bucket['count']}"
        )
        rows.append(
            f"<tr><td>{head}</td><td class='num'>{total:.3f}</td>"
            f"<td><div class='stack'>{''.join(parts)}</div></td></tr>"
        )
    return "".join(rows)


def _sparkline(values: List[float], width: int = 220, height: int = 36) -> str:
    if not values:
        return ""
    vmax = max(values)
    if vmax <= 0:
        vmax = 1.0
    n = len(values)
    step = width / max(1, n - 1)
    points = " ".join(
        f"{i * step:.1f},{height - (v / vmax) * (height - 2) - 1:.1f}"
        for i, v in enumerate(values)
    )
    return (
        f"<svg width='{width}' height='{height}' class='spark'>"
        f"<polyline points='{points}' fill='none' stroke='#428bca' "
        f"stroke-width='1.2'/></svg>"
    )


def _series_rows(report: Dict[str, Any]) -> str:
    channels = report.get("series", {}).get("channels", {})
    rows = []
    for name in sorted(channels):
        values = channels[name]
        peak = max(values) if values else 0.0
        rows.append(
            f"<tr><td>{_esc(name)}</td><td class='num'>{peak:g}</td>"
            f"<td>{_sparkline(values)}</td></tr>"
        )
    return "".join(rows)


def build_html(report: Dict[str, Any]) -> str:
    """Render a report dict as one self-contained HTML page."""
    share = report.get("matched_on_arrival_share")
    share_text = f"{share:.3f}" if share is not None else "n/a"
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro explain: {_esc(report['label'])}</title>
<style>
body {{ font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 960px; color: #222; }}
h1 {{ font-size: 1.4em; }} h2 {{ font-size: 1.1em; margin-top: 1.6em; }}
table {{ border-collapse: collapse; width: 100%; }}
td, th {{ padding: 3px 8px; border-bottom: 1px solid #e5e5e5;
          text-align: left; vertical-align: middle; }}
td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
.bar {{ height: 11px; min-width: 1px; }}
.stack {{ display: flex; height: 14px; width: 100%; background: #fafafa; }}
.seg {{ height: 100%; }}
.meta {{ color: #666; }}
svg.spark {{ display: block; }}
</style></head><body>
<h1>repro explain &mdash; {_esc(report['label'])}</h1>
<p class="meta">repro {_esc(report['version'])} &middot;
network {_esc(report['network'])} &middot;
{report['n_nodes']} nodes &times; {report['ppn']} ppn &middot;
elapsed {report['elapsed_us']:.2f}&micro;s &middot;
{report['spans']} spans &middot;
matched-on-arrival share {share_text}</p>
<h2>Critical-path blame</h2>
<p class="meta">total attributed: {report['blame']['total_us']:.3f}&micro;s
over {report['critical_path_segments']} segments</p>
<table><tr><th>component</th><th>&micro;s</th><th>share</th><th></th></tr>
{_blame_rows(report)}</table>
<h2>Latency waterfall (mean per message bucket)</h2>
<table><tr><th>bucket</th><th>mean &micro;s</th><th>phases</th></tr>
{_waterfall_rows(report)}</table>
<h2>Occupancy series</h2>
<table><tr><th>channel</th><th>peak</th><th></th></tr>
{_series_rows(report)}</table>
</body></html>
"""


# -- CLI ---------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    machine, result, label = run_spec(
        args, Telemetry(metrics=True, lifecycle=True, series=True)
    )
    report = build_report(machine, result, label=label)
    Path(args.output).write_text(json.dumps(report, sort_keys=True))
    written = [str(args.output)]
    if args.html:
        Path(args.html).write_text(build_html(report))
        written.append(str(args.html))
    top = sorted(
        report["blame"]["components"].items(), key=lambda kv: -kv[1]["us"]
    )[:3]
    top_text = ", ".join(
        f"{name} {entry['share'] * 100:.1f}%" for name, entry in top
    )
    print(
        f"wrote {' + '.join(written)}: {report['spans']} spans, "
        f"elapsed {report['elapsed_us']:.2f}us, blame: {top_text or 'n/a'}"
    )
    return 0


def _report_of(path) -> Dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "blame" not in data:
        raise ReproError(f"{path} is not a repro explain report")
    return data


def cmd_diff(args: argparse.Namespace) -> int:
    a, b = _report_of(args.a), _report_of(args.b)
    ca = a["blame"]["components"]
    cb = b["blame"]["components"]
    regressed = False
    for name in sorted(set(ca) | set(cb)):
        sa = ca.get(name, {}).get("share", 0.0)
        sb = cb.get(name, {}).get("share", 0.0)
        drift = sb - sa
        marker = ""
        if abs(drift) > args.threshold:
            regressed = True
            marker = "  <-- drift"
        print(
            f"{name:12s} {sa * 100:6.1f}% -> {sb * 100:6.1f}% "
            f"({drift * 100:+.1f}pp){marker}"
        )
    sha = a.get("matched_on_arrival_share")
    shb = b.get("matched_on_arrival_share")
    if sha is not None or shb is not None:
        print(
            f"matched-on-arrival share: "
            f"{sha if sha is not None else 'n/a'} -> "
            f"{shb if shb is not None else 'n/a'}"
        )
    if regressed:
        print(
            f"blame shares drifted past {args.threshold * 100:.1f}pp "
            f"({args.a} vs {args.b})"
        )
        return 1
    print("blame shares within threshold")
    return 0


def configure(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="action", required=True)

    run = sub.add_parser(
        "run", help="run one app with lifecycle tracing and write a report"
    )
    add_run_spec_options(run)
    run.add_argument("-o", "--output", default="explain.json")
    run.add_argument("--html", default="", help="also write an HTML report")
    run.set_defaults(func=cmd_run)

    diff = sub.add_parser(
        "diff", help="compare the blame tables of two reports"
    )
    diff.add_argument("a")
    diff.add_argument("b")
    diff.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="max tolerated per-component share drift (default 0.05)",
    )
    diff.set_defaults(func=cmd_diff)
