"""Import smoke test for the benchmark scripts.

pytest does not collect ``benchmarks/bench_*.py`` in the tier-1 run (they
need the ``pytest-benchmark`` fixtures and minutes of runtime), so a
renamed or deleted ``repro`` export would break them unnoticed.  Importing
every module, as ``tests/test_examples.py`` compiles every example,
catches that.
"""

import importlib.util
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
BENCHES = sorted(BENCH_DIR.glob("bench_*.py"))


def test_benchmarks_directory_has_scripts():
    assert BENCHES


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
def test_benchmark_imports(path):
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
