"""Tests for record->blame-report adaptation and the ``repro serve`` CLI."""

import json

import pytest

from repro.campaign import RunSpec, execute_run
from repro.serve import record_explainable, record_html, record_report
from repro.cli import main

pytestmark = pytest.mark.serve


def lifecycle_record():
    spec = RunSpec(app="pingpong", network="ib", nodes=2,
                   app_args=(("size", 1024),))
    return execute_run(spec, lifecycle=True)


def plain_record():
    spec = RunSpec(app="pingpong", network="ib", nodes=2,
                   app_args=(("size", 1024),))
    return execute_run(spec)


def test_plain_record_is_not_explainable():
    record = plain_record()
    assert not record_explainable(record)
    assert record_report(record) is None
    assert record_html(record) is None


def test_lifecycle_record_builds_report():
    record = lifecycle_record()
    assert record_explainable(record)
    report = record_report(record)
    assert report["label"] == record["label"]
    assert report["network"] == "ib"
    assert report["n_nodes"] == 2
    assert report["elapsed_us"] == record["elapsed_us"]
    assert report["blame"]["components"]
    shares = [c["share"] for c in report["blame"]["components"].values()]
    assert all(0.0 <= s <= 1.0 for s in shares)


def test_lifecycle_record_renders_html():
    html = record_html(lifecycle_record())
    assert html is not None
    assert "<html" in html.lower()
    for component in record_report(lifecycle_record())["blame"]["components"]:
        assert component in html


def test_cli_print_status(tmp_path, capsys):
    code = main(["serve", "--root", str(tmp_path / "root"), "--print-status",
                 "--quiet", "--workers", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["service"]["workers"] == 1
    assert set(payload["scheduler"]["jobs"].values()) == {0}
    assert payload["campaign_root"]["journal"]["records"] == 0
