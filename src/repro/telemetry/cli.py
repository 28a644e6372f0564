"""``repro trace``: record / dump / summarize / diff.

``record`` runs one declarative app (the campaign app registry) on a
fresh telemetered machine and writes a Chrome ``trace_event`` JSON file;
``dump`` prints a trace's events as text, ``summarize`` aggregates one
(per-category counts, per-track busy time, the metrics dict), and
``diff`` compares the embedded metrics dicts of two traces — exit code 1
when they differ, which makes it a regression gate in shell pipelines.

Examples::

    repro trace record --app pingpong --network ib --nodes 2 \\
        --arg size=4194304 -o ib-4mb.json
    repro trace summarize ib-4mb.json
    repro trace diff ib-4mb.json elan-4mb.json
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from ..cli import add_run_spec_options, run_spec
from ..errors import ReproError
from .chrome import load_trace, write_chrome_trace
from .collect import Telemetry


def cmd_record(args: argparse.Namespace) -> int:
    machine, result, label = run_spec(
        args, Telemetry(metrics=True, timeline=True, log=True)
    )
    trace = write_chrome_trace(args.output, machine.sim, label=label)
    metrics = trace["otherData"]["metrics"]
    print(
        f"wrote {args.output}: {len(trace['traceEvents'])} events, "
        f"{len(metrics)} metrics, elapsed {result.elapsed_us:.2f}us"
    )
    return 0


def _events(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [e for e in trace["traceEvents"] if e.get("ph") != "M"]


def _track_names(trace: Dict[str, Any]) -> Dict[int, str]:
    names = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event["tid"]] = event["args"]["name"]
    return names


def cmd_dump(args: argparse.Namespace) -> int:
    trace = load_trace(args.file)
    tracks = _track_names(trace)
    shown = 0
    for event in sorted(_events(trace), key=lambda e: (e["ts"], e["tid"])):
        if args.category and event.get("cat") != args.category:
            continue
        if args.limit and shown >= args.limit:
            print("...")
            break
        shown += 1
        track = tracks.get(event["tid"], str(event["tid"]))
        if event["ph"] == "X":
            body = f"dur={event['dur']:.3f}us"
        else:
            body = event.get("args", {}).get("message", "")
        print(
            f"{event['ts']:12.3f} {event['ph']} {track:24s} "
            f"{event.get('cat', '')}: {body}"
        )
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    trace = load_trace(args.file)
    other = trace.get("otherData", {})
    events = _events(trace)
    tracks = _track_names(trace)
    print(f"trace: {args.file}")
    if other.get("label"):
        print(f"label: {other['label']} (repro {other.get('version', '?')})")
    by_cat: Dict[str, int] = {}
    busy: Dict[int, float] = {}
    for event in events:
        cat = event.get("cat", "")
        by_cat[cat] = by_cat.get(cat, 0) + 1
        if event["ph"] == "X":
            busy[event["tid"]] = busy.get(event["tid"], 0.0) + event["dur"]
    print(f"events: {len(events)} across {len(by_cat)} categories")
    for cat, count in sorted(by_cat.items()):
        print(f"  {cat:32s} {count}")
    if busy:
        print("busy time per track (top 10):")
        top = sorted(busy.items(), key=lambda kv: -kv[1])[:10]
        for tid, total in top:
            print(f"  {tracks.get(tid, str(tid)):32s} {total:.3f}us")
    if args.top:
        slow = sorted(
            (e for e in events if e["ph"] == "X"),
            key=lambda e: (-e["dur"], e["ts"], e["tid"]),
        )[: args.top]
        print(f"slowest {len(slow)} spans:")
        for event in slow:
            track = tracks.get(event["tid"], str(event["tid"]))
            print(
                f"  {event['dur']:12.3f}us {track:24s} "
                f"{event.get('cat', '')}: {event['name']} @ {event['ts']:.3f}"
            )
    if args.phase:
        hist: Dict[tuple, List[float]] = {}
        for event in events:
            if event["ph"] != "X":
                continue
            hist.setdefault((event.get("cat", ""), event["name"]), []).append(
                event["dur"]
            )
        print(f"phase histogram: {len(hist)} (category, name) cells")
        for (cat, name), durs in sorted(hist.items()):
            total = sum(durs)
            print(
                f"  {cat:28s} {name:20s} n={len(durs):6d} "
                f"total={total:12.3f}us mean={total / len(durs):10.3f}us "
                f"max={max(durs):10.3f}us"
            )
    dropped = other.get("dropped") or {}
    if any(dropped.values()):
        print("dropped records (cap hit):")
        for source, by_cat in sorted(dropped.items()):
            for cat, count in sorted(by_cat.items()):
                print(f"  {source}.{cat}: {count}")
    metrics = other.get("metrics") or {}
    if metrics:
        print(f"metrics: {len(metrics)}")
        for name, value in sorted(metrics.items()):
            print(f"  {name} = {value}")
    return 0


def _metrics_of(path) -> Dict[str, Any]:
    data = json.loads(open(path).read())
    if isinstance(data, dict) and "traceEvents" in data:
        return (data.get("otherData") or {}).get("metrics") or {}
    if isinstance(data, dict):
        return data  # a bare metrics dict is also accepted
    raise ReproError(f"{path} holds neither a trace nor a metrics dict")


def cmd_diff(args: argparse.Namespace) -> int:
    a, b = _metrics_of(args.a), _metrics_of(args.b)
    changed = False
    for name in sorted(set(a) | set(b)):
        if name not in a:
            print(f"+ {name} = {b[name]}")
            changed = True
        elif name not in b:
            print(f"- {name} = {a[name]}")
            changed = True
        elif a[name] != b[name]:
            print(f"~ {name}: {a[name]} -> {b[name]}")
            changed = True
    if not changed:
        print(f"identical: {len(a)} metrics match")
    return 1 if changed else 0


def configure(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="action", required=True)

    rec = sub.add_parser("record", help="run one app and export its trace")
    add_run_spec_options(rec)
    rec.add_argument("-o", "--output", default="trace.json")
    rec.set_defaults(func=cmd_record)

    dump = sub.add_parser("dump", help="print a trace's events as text")
    dump.add_argument("file")
    dump.add_argument("--category", default="", help="only this category")
    dump.add_argument("--limit", type=int, default=0, help="max events (0=all)")
    dump.set_defaults(func=cmd_dump)

    summ = sub.add_parser("summarize", help="aggregate one trace")
    summ.add_argument("file")
    summ.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also list the N slowest complete events",
    )
    summ.add_argument(
        "--phase",
        action="store_true",
        help="also print a per-(category, name) duration histogram",
    )
    summ.set_defaults(func=cmd_summarize)

    diff = sub.add_parser(
        "diff", help="compare the metrics dicts of two traces"
    )
    diff.add_argument("a")
    diff.add_argument("b")
    diff.set_defaults(func=cmd_diff)
