"""The one ``repro`` command: dispatch, shared options, shared errors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.campaign.cli
import repro.telemetry.cli
import repro.telemetry.explain
from repro.cli import COMMANDS, main, parse_pair

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def test_pyproject_declares_one_console_script():
    lines = (REPO_ROOT / "pyproject.toml").read_text().splitlines()
    start = lines.index("[project.scripts]") + 1
    section = []
    for line in lines[start:]:
        if line.startswith("["):
            break
        if line.strip():
            section.append(line.strip())
    assert section == ['repro = "repro.cli:main"']


def test_seven_subcommands():
    assert sorted(COMMANDS) == sorted(
        ["report", "campaign", "trace", "explain", "serve", "perf", "lint"]
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: repro {command}" in capsys.readouterr().out


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- the one NAME=VALUE coercer ------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("size=4096", ("size", 4096)),
        ("flag=true", ("flag", True)),
        ("flag=False", ("flag", False)),
        ("ratio=0.5", ("ratio", 0.5)),
        ("config=S", ("config", "S")),
        ("expr=a=b", ("expr", "a=b")),
        ("empty=", ("empty", "")),
    ],
)
def test_parse_pair_coercion(text, expected):
    assert parse_pair(text) == expected
    assert type(parse_pair(text)[1]) is type(expected[1])


#: Every subcommand that takes ``--arg``: (argv prefix, module, command fn).
ARG_COMMANDS = [
    (["trace", "record"], repro.telemetry.cli, "cmd_record"),
    (["explain", "run"], repro.telemetry.explain, "cmd_run"),
    (["campaign", "chaos"], repro.campaign.cli, "cmd_chaos"),
]


@pytest.mark.parametrize(
    "prefix, module, fn", ARG_COMMANDS, ids=[" ".join(c[0]) for c in ARG_COMMANDS]
)
def test_arg_values_are_coerced_alike(prefix, module, fn, monkeypatch):
    seen = {}
    monkeypatch.setattr(module, fn, lambda args: seen.update(dict(args.arg)) or 0)
    assert main([*prefix, "--arg", "size=4096", "--arg", "flag=true"]) == 0
    assert seen == {"size": 4096, "flag": True}
    assert type(seen["size"]) is int and type(seen["flag"]) is bool


@pytest.mark.parametrize(
    "prefix, module, fn", ARG_COMMANDS, ids=[" ".join(c[0]) for c in ARG_COMMANDS]
)
@pytest.mark.parametrize("bad", ["=5", "size"])
def test_arg_without_name_exits_two(prefix, module, fn, bad, monkeypatch, capsys):
    monkeypatch.setattr(module, fn, lambda args: 0)
    with pytest.raises(SystemExit) as exc:
        main([*prefix, "--arg", bad])
    assert exc.value.code == 2
    assert "expected NAME=VALUE" in capsys.readouterr().err


# -- the one error handler -----------------------------------------------------

#: (subcommand argv with {f} for the input file, error prefix)
FILE_COMMANDS = [
    (["campaign", "run", "{f}", "--root", "{root}"], "repro campaign: "),
    (["perf", "diff", "{f}", "{f}"], "repro perf: "),
    (["trace", "summarize", "{f}"], "repro trace: "),
    (["explain", "diff", "{f}", "{f}"], "repro explain: "),
]


def _fill(argv, f, root):
    return [a.format(f=f, root=root) for a in argv]


@pytest.mark.parametrize(
    "argv, prefix", FILE_COMMANDS, ids=[" ".join(c[0][:2]) for c in FILE_COMMANDS]
)
def test_missing_file_is_one_line_exit_two(argv, prefix, tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    assert main(_fill(argv, missing, tmp_path / "root")) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "No such file" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, prefix", FILE_COMMANDS, ids=[" ".join(c[0][:2]) for c in FILE_COMMANDS]
)
def test_invalid_json_is_one_line_exit_two(argv, prefix, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(_fill(argv, bad, tmp_path / "root")) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert len(err.strip().splitlines()) == 1


def test_report_unwritable_export_dir_is_one_line_exit_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["report", "--only", "table1", "--no-anchors", "--export-dir", str(blocker)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("repro report: ")


# -- module entry points -------------------------------------------------------


def test_python_dash_m_repro(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 16


def test_serve_module_shim_stays_lean(tmp_path):
    """``python -m repro.serve.cli`` is ``repro serve``, minus the analyzer."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.serve.cli",
         "--root", str(tmp_path / "root"), "--print-status", "--quiet",
         "--workers", "1"],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["service"]["workers"] == 1
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.serve.server" in imported
    assert not [m for m in imported if m.startswith("repro.analysis")]
    assert "repro.perf.ladder" not in imported
