"""Whole-package checks: no assert in the library, and the scripts run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gbent").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_library(path):
    # python -O strips assert statements, so no check may rest on one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120, env=env)


def test_zq_showcase_runs():
    res = run_script("zq_showcase.py")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.count("Z_8-bent: True") == 2


def test_count_gbent_runs():
    res = run_script("count_gbent.py", "--max-n", "2", "--max-k", "2")
    assert (res.returncode, res.stderr) == (0, "")
    rows = [line.split() for line in res.stdout.splitlines()[1:]]
    assert [row[:5] for row in rows] == [
        ["1", "1", "4", "0", "yes"], ["1", "2", "16", "8", "yes"],
        ["2", "1", "16", "8", "yes"], ["2", "2", "256", "64", "yes"]]
