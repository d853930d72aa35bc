"""The benchmark's untimed self-checks still run against the library.

``benchmarks/check_bench.py`` builds scenes and sheets through the public
API and compares its independent reference with
``oracles.dense_quadrature_field_ratio``. Its smoke runs take about a
minute, so only the checks that take well under a second run here: a
library change that breaks them then fails this suite, not only a manual
run of the benchmark's own tests.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_CHECK_BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_bench.py"


@pytest.fixture(scope="module")
def check_bench():
    """The benchmark's check module; loading it prepends to sys.path, which is restored."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_checks", _CHECK_BENCH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("x, y, rotation_deg", [(1.0, 0.0, 0.0), (1.0, 0.05, 0.0), (2.5, -0.4, 25.0)])
def test_reference_agrees_with_dense_oracle(check_bench, x, y, rotation_deg):
    check_bench.test_reference_agrees_with_dense_oracle(x, y, rotation_deg)


def test_reference_converged_in_its_order(check_bench):
    check_bench.test_reference_converged_in_its_order()


def test_gate_flags_an_export_off_by_a_fraction_of_a_db(check_bench):
    check_bench.test_gate_flags_an_export_off_by_a_fraction_of_a_db()
