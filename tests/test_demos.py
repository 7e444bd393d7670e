"""The demo scripts and the README's examples run against the package sources."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cbcontrol
from cbcontrol.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/0*.py"))


def _source_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _readme_block(lang):
    """The README's one fenced block of the given language."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, f"README has {len(blocks)} {lang} blocks"
    return blocks[0]


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=_source_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _readme_block("python")], cwd=tmp_path, env=_source_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    energy, passed = result.stdout.split()
    assert float(energy) > 0.0
    assert passed == "True"


def test_readme_problem_designs(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(_readme_block("json"))
    out = tmp_path / "run"
    assert main(["design", "--problem", str(problem), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["design"]["passed"] is True


def test_readme_names_every_exported_name():
    words = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert [name for name in cbcontrol.__all__ if name not in words] == []
