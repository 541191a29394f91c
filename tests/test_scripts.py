"""Smoke runs of the example scripts on tiny inputs, each in a fresh
interpreter, and of the README's examples, so that an API change they
depend on fails here."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qfibounds.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("axis,lb,qfi,ub1,ub2")
    return len(lines) - 1


@pytest.mark.parametrize("script, args, csvs", [
    ("run_temperature_sweep.py", ["--n-sites", "4", "--points", "6", "--out", "t"],
     {"t_ferro": 6, "t_para": 6}),
    ("run_gamma_sweep.py", ["--n-sites", "4", "--points", "3", "--out", "g"],
     {"g": 3}),
], ids=["temperature", "gamma"])
def test_sweep_script_writes_csv(tmp_path, script, args, csvs):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for out, rows in csvs.items():
        assert _csv_rows(tmp_path / out / "sweep.csv") == rows
        assert (tmp_path / out / "sweep.json").exists()


def test_locality_script_runs(tmp_path):
    proc = _run("run_locality.py", "--n-sites", "6", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "fitted decay rate" in proc.stdout
    assert proc.stdout.count("k = ") == 4  # leading regions k = 2..5
    assert list(tmp_path.iterdir()) == []  # it prints and writes nothing


def _readme_block(heading, lang):
    text = (ROOT / "README.md").read_text()
    return re.search(rf"^## {heading}\n\n```{lang}\n(.*?)^```", text, re.S | re.M).group(1)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the quick-start block, then each CLI line through the entry point's
    # main, in a scratch directory; configs/ is read from the repository root
    monkeypatch.chdir(tmp_path)
    exec(compile(_readme_block("Library quick start", "python"), "README.md", "exec"), {})
    lines = _readme_block("CLI", "sh").splitlines()
    assert len(lines) == 7 and all(line.startswith("qfibounds ") for line in lines)
    for line in lines:
        argv = [str(ROOT / a) if a.startswith("configs/") else a for a in shlex.split(line)[1:]]
        assert main(argv) == 0, line
