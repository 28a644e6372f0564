"""The perf gate: compare_results semantics and ``repro perf`` exit codes."""

import json

import pytest

from repro.cli import main as repro_main
from repro.perf import compare_results, load_results, render_comparison

pytestmark = pytest.mark.perf


def main(argv):
    return repro_main(["perf", *argv])


def _doc(cases):
    return {
        "schema": "repro.perf/1",
        "quick": True,
        "cases": [
            {"case": name, "events_per_sec": eps} for name, eps in cases
        ],
    }


def _by_case(comparison):
    return {entry["case"]: entry for entry in comparison["cases"]}


# -- compare_results ----------------------------------------------------------


def test_statuses_cover_all_join_outcomes():
    baseline = _doc(
        [("steady", 1000), ("slow", 1000), ("fast", 1000), ("gone", 1000)]
    )
    current = _doc(
        [("steady", 990), ("slow", 700), ("fast", 1500), ("new", 1000)]
    )
    comparison = compare_results(baseline, current, threshold=0.25)
    by_case = _by_case(comparison)
    assert by_case["steady"]["status"] == "ok"
    assert by_case["slow"]["status"] == "regressed"
    assert by_case["fast"]["status"] == "improved"
    assert by_case["gone"]["status"] == "baseline-only"
    assert by_case["new"]["status"] == "current-only"
    assert comparison["passed"] is False
    assert comparison["regressed"] == ["slow"]


def test_boundary_is_strict():
    baseline = _doc([("edge", 1000)])
    # Exactly threshold slower is still ok; one unit past fails.
    ok = compare_results(baseline, _doc([("edge", 750)]), threshold=0.25)
    assert ok["passed"] is True
    bad = compare_results(baseline, _doc([("edge", 749)]), threshold=0.25)
    assert bad["passed"] is False


def test_one_sided_cases_never_fail_the_gate():
    comparison = compare_results(
        _doc([("gone", 1000)]), _doc([("new", 10)]), threshold=0.25
    )
    assert comparison["passed"] is True


def test_zero_baseline_counts_as_regression():
    comparison = compare_results(_doc([("a", 0)]), _doc([("a", 100)]))
    assert _by_case(comparison)["a"]["ratio"] == 0.0
    # b == 0 can't regress (guarded); it reports ok.
    assert comparison["passed"] is True


def test_bare_list_documents_are_accepted():
    comparison = compare_results(
        [{"case": "a", "events_per_sec": 100}],
        [{"case": "a", "events_per_sec": 100}],
    )
    assert comparison["passed"] is True


def test_threshold_must_be_a_fraction():
    with pytest.raises(ValueError):
        compare_results(_doc([]), _doc([]), threshold=1.0)
    with pytest.raises(ValueError):
        compare_results(_doc([]), _doc([]), threshold=-0.1)


def test_render_comparison_has_verdict_line():
    good = compare_results(_doc([("a", 100)]), _doc([("a", 100)]))
    assert render_comparison(good).splitlines()[-1].startswith("PASS")
    bad = compare_results(_doc([("a", 100)]), _doc([("a", 10)]))
    assert "FAIL" in render_comparison(bad).splitlines()[-1]
    assert "a" in render_comparison(bad)


# -- CLI ----------------------------------------------------------------------


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_diff_exit_codes(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _doc([("a", 1000)]))
    same = _write(tmp_path / "same.json", _doc([("a", 1000)]))
    slow = _write(tmp_path / "slow.json", _doc([("a", 100)]))

    assert main(["diff", base, same]) == 0
    assert main(["diff", base, slow]) == 1
    # Within a looser threshold the same drop passes.
    assert main(["diff", base, _write(tmp_path / "s2.json", _doc([("a", 800)]))]) == 0
    assert main(["diff", base, str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["diff", base, str(bad)]) == 2
    capsys.readouterr()


def test_cli_diff_json_output(tmp_path, capsys):
    base = _write(tmp_path / "base.json", _doc([("a", 1000)]))
    assert main(["diff", base, base, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True and out["threshold"] == 0.25


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
    doc = _doc([("a", 1000)])
    path = _write(tmp_path / "r.json", doc)
    assert load_results(path) == doc["cases"]
