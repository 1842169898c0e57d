"""Smoke tests for the example scripts.

Every example must at least be syntactically valid and importable as a
module with a ``main`` entry point; the quickstart is additionally executed
end to end (with its default, example-sized settings) to guarantee the
documented user journey works.
"""

import pathlib
import py_compile
import runpy
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_has_expected_scripts():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_defines_main(path):
    namespace = {}
    code = path.read_text()
    assert "def main(" in code, f"{path.name} must define main()"
    assert "__main__" in code, f"{path.name} must be runnable as a script"


def test_quickstart_runs_end_to_end(tmp_path):
    """Run the quickstart exactly as a user would."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True, text=True, timeout=600,
        cwd=str(EXAMPLES_DIR.parent))
    assert result.returncode == 0, result.stderr
    assert "epoch time" in result.stdout
    assert "test accuracy" in result.stdout


def test_partitioning_comparison_runs_end_to_end():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "partitioning_comparison.py")],
        capture_output=True, text=True, timeout=600,
        cwd=str(EXAMPLES_DIR.parent))
    assert result.returncode == 0, result.stderr
    assert "partition quality" in result.stdout


def test_cost_model_analysis_runs_end_to_end():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "cost_model_analysis.py")],
        capture_output=True, text=True, timeout=600,
        cwd=str(EXAMPLES_DIR.parent))
    assert result.returncode == 0, result.stderr
    assert "simulated crossover" in result.stdout
    assert "best 1.5D replication factor at P = 16: c = " in result.stdout
