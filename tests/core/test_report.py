"""Tests for the ``repro report`` CLI driver."""

import pytest

from repro.cli import main as repro_main
from repro.core.report import render_report, run_experiments


def main(argv):
    return repro_main(["report", *argv])


def test_cli_only_selection(capsys):
    rc = main(["--only", "table1,table2_3,fig7", "--no-anchors", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Figure 7" in out
    assert "Figure 1(a)" not in out


def test_cli_unknown_experiment_raises():
    with pytest.raises(KeyError):
        main(["--only", "fig99"])


def test_cli_anchor_section(capsys):
    rc = main(["--only", "table1", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Calibration anchors" in out
    assert "PASS" in out


def test_render_report_header_has_citation():
    figs = run_experiments(ids=["table1"])
    text = render_report(figs, with_anchors=False)
    assert "CLUSTER 2004" in text
    assert "Brightwell" in text


def test_echo_callback(capsys):
    messages = []
    run_experiments(ids=["table1"], echo=messages.append)
    assert messages and "table1" in messages[0]


def test_export_figures(tmp_path):
    from repro.core.report import export_figures

    figs = run_experiments(ids=["fig7", "table1"])
    written = export_figures(figs, str(tmp_path))
    names = {p.split("/")[-1] for p in written}
    assert names == {"fig7.csv", "fig7.json", "table1.txt"}
    csv = (tmp_path / "fig7.csv").read_text()
    assert csv.startswith("series,")
    import json

    data = json.loads((tmp_path / "fig7.json").read_text())
    assert data["title"].startswith("Figure 7")
    assert len(data["series"]) == 4


def test_cli_export_dir(tmp_path, capsys):
    rc = main(
        ["--only", "fig7", "--no-anchors", "--export-dir", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "fig7.csv").exists()


def test_cli_plots_flag(capsys):
    rc = main(["--only", "fig7", "--no-anchors", "--plots"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "$ per port" in out or "o Quadrics" in out
