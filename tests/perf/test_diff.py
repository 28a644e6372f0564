"""The perf gate: compare_results semantics and ``repro perf`` exit codes."""

import json

import pytest

from repro.cli import main as repro_main
from repro.perf import compare_results, load_results, render_comparison

pytestmark = pytest.mark.perf


def main(argv):
    return repro_main(["perf", *argv])


def _row(name, startup=(100, 0.1, 0.0), program=(50, 1.0, 0.0), **fields):
    """One ladder row; each window is ``(events, wall_s, wall_iqr_s)``."""
    row = {
        "case": name,
        "quick": True,
        "nodes": 64,
        "network": "elan",
        "topology": "TopologySpec()",
    }
    for window, (events, wall, iqr) in (
        ("startup", startup),
        ("program", program),
    ):
        row[window] = {"events": events, "wall_s": wall, "wall_iqr_s": iqr}
    row.update(fields)
    return row


def _doc(rows):
    return {
        "schema": "repro.perf/2",
        "quick": True,
        "timed_runs": 5,
        "cases": rows,
    }


def _by_case(comparison):
    return {entry["case"]: entry for entry in comparison["cases"]}


# -- compare_results ----------------------------------------------------------


def test_statuses_cover_all_join_outcomes():
    baseline = [_row(n) for n in ("steady", "slow", "fast", "gone")]
    current = [
        _row("steady", program=(50, 1.05, 0.0)),
        _row("slow", program=(50, 1.5, 0.0)),
        _row("fast", program=(50, 0.5, 0.0)),
        _row("new"),
    ]
    comparison = compare_results(baseline, current)
    by_case = _by_case(comparison)
    assert by_case["steady"]["status"] == "ok"
    assert by_case["slow"]["status"] == "regressed"
    assert by_case["slow"]["windows"]["startup"]["status"] == "ok"
    assert by_case["fast"]["status"] == "improved"
    assert by_case["gone"]["status"] == "baseline-only"
    assert by_case["new"]["status"] == "current-only"
    assert comparison["passed"] is False
    assert comparison["regressed"] == ["slow"]


def test_boundary_is_strict():
    baseline = [_row("edge")]
    # Exactly the 25% floor slower is still ok; any further fails.
    ok = compare_results(baseline, [_row("edge", program=(50, 1.25, 0.0))])
    assert ok["passed"] is True
    bad = compare_results(baseline, [_row("edge", program=(50, 1.2501, 0.0))])
    assert bad["passed"] is False


@pytest.mark.parametrize(
    "window, slow",
    [("startup", (100, 0.13, 0.0)), ("program", (50, 1.3, 0.0))],
)
def test_wall_rise_past_threshold_fails(window, slow):
    comparison = compare_results([_row("a")], [_row("a", **{window: slow})])
    entry = _by_case(comparison)["a"]
    assert entry["status"] == "regressed"
    assert entry["windows"][window]["status"] == "regressed"
    assert comparison["passed"] is False
    text = render_comparison(comparison)
    assert f"FAIL: a {window} wall time rose 1.300x" in text


@pytest.mark.parametrize(
    "base, cur",
    [((50, 1.0, 0.4), (50, 1.3, 0.0)), ((50, 1.0, 0.0), (50, 1.3, 0.52))],
    ids=["baseline", "current"],
)
def test_wide_iqr_widens_threshold(base, cur):
    """A 40% relative IQR on either side lets a 30% rise through."""
    comparison = compare_results(
        [_row("a", program=base)], [_row("a", program=cur)]
    )
    window = _by_case(comparison)["a"]["windows"]["program"]
    assert window["threshold"] == 0.4
    assert window["status"] == "ok"
    assert comparison["passed"] is True
    # The same rise with no spread on either side fails the 25% floor.
    tight = compare_results(
        [_row("a", program=(50, 1.0, 0.0))],
        [_row("a", program=(50, 1.3, 0.0))],
    )
    assert tight["passed"] is False


def test_lower_rate_with_lower_wall_time_passes():
    """The gate reads wall time, never a rate.

    After synchronous grants and lazy releases, fattree-256's profiled
    rate fell from 33,313 to 29,782 events/s while its wall time fell
    from 2.99 s to 1.99 s.  A falling rate next to a falling median
    wall time passes.
    """
    baseline = _row(
        "fattree-256",
        program=(2799, 2.99, 0.0),
        perf={"events": 99606, "loop_wall_s": 2.99},
    )
    current = _row(
        "fattree-256",
        program=(2799, 1.99, 0.0),
        perf={"events": 59372, "loop_wall_s": 1.99},
    )

    def rate(row):
        return row["perf"]["events"] / row["perf"]["loop_wall_s"]

    assert rate(current) < rate(baseline)
    comparison = compare_results([baseline], [current])
    assert comparison["passed"] is True
    assert _by_case(comparison)["fattree-256"]["status"] == "improved"


def test_one_sided_cases_never_fail_the_gate():
    comparison = compare_results(
        [_row("gone")], [_row("new", program=(1, 99.0, 0.0))]
    )
    assert comparison["passed"] is True


def test_zero_baseline_wall_is_not_gated():
    comparison = compare_results(
        [_row("a", program=(50, 0.0, 0.0))],
        [_row("a", program=(50, 1.0, 0.0))],
    )
    window = _by_case(comparison)["a"]["windows"]["program"]
    assert window["ratio"] is None and window["status"] == "ok"
    assert comparison["passed"] is True


def test_changed_event_count_fails_the_gate():
    """Event counts are seed-determined: any difference fails, either way."""
    base = [
        _row(name, program=(500, 1.0, 0.0))
        for name in ("same", "fewer", "more")
    ]
    cur = [
        _row("same", program=(500, 1.0, 0.0)),
        _row("fewer", program=(499, 1.0, 0.0)),
        _row("more", program=(501, 1.0, 0.0)),
    ]
    comparison = compare_results(base, cur)
    by_case = _by_case(comparison)
    assert by_case["same"]["status"] == "ok"
    assert by_case["fewer"]["status"] == "events-changed"
    assert by_case["more"]["status"] == "events-changed"
    assert by_case["fewer"]["windows"]["program"]["current_events"] == 499
    assert comparison["events_changed"] == ["fewer", "more"]
    assert comparison["passed"] is False
    text = render_comparison(comparison)
    assert "FAIL: fewer fired 499 program events, baseline 500" in text
    assert "PASS" not in text


@pytest.mark.parametrize("window", ["startup", "program"])
def test_one_window_count_change_fails(window):
    """Each window's count is gated on its own."""
    events = {"startup": (101, 0.1, 0.0), "program": (49, 1.0, 0.0)}
    current = _row("a", **{window: events[window]})
    comparison = compare_results([_row("a")], [current])
    entry = _by_case(comparison)["a"]
    assert entry["windows"][window]["status"] == "events-changed"
    other = "program" if window == "startup" else "startup"
    assert entry["windows"][other]["status"] == "ok"
    assert comparison["events_changed"] == ["a"]
    assert comparison["passed"] is False


def test_regression_and_changed_count_both_reported():
    comparison = compare_results(
        [_row("a", program=(500, 1.0, 0.0))],
        [_row("a", program=(400, 10.0, 0.0))],
    )
    assert comparison["regressed"] == ["a"] == comparison["events_changed"]
    assert _by_case(comparison)["a"]["status"] == "regressed"


@pytest.mark.parametrize(
    "field, value",
    [
        ("quick", False),
        ("nodes", 256),
        ("network", "ib"),
        ("topology", "TopologySpec(kind=fattree, radix=16)"),
    ],
)
def test_config_mismatch_fails_naming_the_field(field, value):
    """A full run against a quick baseline is not an event-count change."""
    current = _row("a", program=(5000, 9.0, 0.0), **{field: value})
    comparison = compare_results([_row("a")], [current])
    entry = _by_case(comparison)["a"]
    assert entry["status"] == "config-mismatch"
    assert list(entry["mismatch"]) == [field]
    assert comparison["config_mismatch"] == ["a"]
    assert comparison["events_changed"] == [] == comparison["regressed"]
    assert comparison["passed"] is False
    text = render_comparison(comparison)
    assert f"FAIL: a config-mismatch: {field} is" in text
    assert "fired" not in text


def test_render_comparison_has_verdict_line():
    good = compare_results([_row("a")], [_row("a")])
    assert render_comparison(good).splitlines()[-1].startswith("PASS")
    bad = compare_results([_row("a")], [_row("a", program=(50, 10.0, 0.0))])
    assert "FAIL" in render_comparison(bad).splitlines()[-1]
    assert "a" in render_comparison(bad)


# -- CLI ----------------------------------------------------------------------


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_diff_fails_on_changed_event_count(tmp_path, capsys):
    base = _doc([_row("a", program=(500, 1.0, 0.0))])
    cur = _doc([_row("a", program=(250, 1.0, 0.0))])
    base = _write(tmp_path / "base.json", base)
    cur = _write(tmp_path / "cur.json", cur)
    assert main(["diff", base, base]) == 0
    assert main(["diff", base, cur]) == 1
    capsys.readouterr()


def test_cli_diff_exit_codes(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _doc([_row("a")]))
    same = _write(tmp_path / "same.json", _doc([_row("a")]))
    slow = _doc([_row("a", program=(50, 10.0, 0.0))])
    slow = _write(tmp_path / "slow.json", slow)

    assert main(["diff", base, same]) == 0
    assert main(["diff", base, slow]) == 1
    # Within the 25% floor the same window passes.
    near = _doc([_row("a", program=(50, 1.2, 0.0))])
    assert main(["diff", base, _write(tmp_path / "near.json", near)]) == 0
    assert main(["diff", base, str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["diff", base, str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": "repro.perf/1", "cases": []},
        [{"case": "a", "events": 1}],
    ],
    ids=["old-schema", "bare-list"],
)
def test_cli_diff_rejects_other_schemas(tmp_path, capsys, doc):
    base = _write(tmp_path / "base.json", _doc([_row("a")]))
    other = _write(tmp_path / "other.json", doc)
    assert main(["diff", base, other]) == 2
    err = capsys.readouterr().err
    assert "other.json" in err and "repro.perf/2" in err


def test_cli_diff_json_output(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _doc([_row("a")]))
    assert main(["diff", base, base, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True and out["min_threshold"] == 0.25


def test_cli_list_names_every_rung(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("crossbar-64", "fattree-256", "degraded-fattree-64"):
        assert name in out


def test_cli_run_rejects_unknown_case(tmp_path, capsys):
    code = main(
        ["run", "--quick", "--case", "nope", "-o", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert "unknown ladder case" in capsys.readouterr().err


def test_cli_load_results_roundtrip(tmp_path):
    doc = _doc([_row("a")])
    path = _write(tmp_path / "r.json", doc)
    assert load_results(path) == doc["cases"]
