"""Self-tests of the benchmark: python3 -m pytest benchmarks/check_bench.py -q

Not collected by the package's own test run (the file name does not
start with test_); the smoke runs take about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import reference as ref  # noqa: E402
from arrayshadow import ArraySpec, Scene, TargetSheet  # noqa: E402
from arrayshadow.oracles import dense_quadrature_field_ratio  # noqa: E402

DESK = {
    "scene": {"carrier_frequency_hz": 2486800000.0, "central_distance_m": 4.0,
              "half_count": 2, "spacing_wavelengths": 0.5, "link_height_m": 0.9},
    "target": {"half_width_m": 0.275, "half_height_m": 0.9},
}


def desk_link(rotation_deg: float = 0.0) -> ref.Link:
    raw = json.loads(json.dumps(DESK))
    raw["target"]["rotation_deg"] = rotation_deg
    return ref.Link.from_scenario(raw)


@pytest.mark.parametrize("x, y, rotation_deg", [(1.0, 0.0, 0.0), (1.0, 0.05, 0.0), (2.5, -0.4, 25.0)])
def test_reference_agrees_with_dense_oracle(x, y, rotation_deg):
    link = desk_link(rotation_deg)
    scene = Scene(link.frequency, ArraySpec(2, link.spacing, 4.0), link_height=0.9)
    target = TargetSheet((x, y), 0.275, 0.9, math.radians(rotation_deg))
    ours = ref.field_ratios(link, x, y)
    oracle = np.array([dense_quadrature_field_ratio(scene, target, m) for m in range(-2, 3)])
    # the oracle's lambda/40 midpoint rule is itself about 1e-3 off
    assert np.max(np.abs(ours - oracle) / np.abs(ours)) < 3e-3


def test_reference_converged_in_its_order():
    assert ref.order_doubling_error(desk_link(), 1.0, 0.05) < 1e-10
    assert ref.order_doubling_error(desk_link(-30.0), 0.5, 1.2) < 1e-10


def test_gate_flags_an_export_off_by_a_fraction_of_a_db():
    expected = ref.expected_position(desk_link(), 1.0, 0.25, abs_error=ref.DEFAULT_GRID_RATIO_ERROR)
    good = ref.Check()
    good.compare("per_antenna", expected.per_antenna.db, expected.per_antenna)
    assert good.misses == 0 and good.checked == 5
    shifted = expected.per_antenna.db.copy()
    shifted[2] += 0.5
    bad = ref.Check()
    bad.compare("per_antenna", shifted, expected.per_antenna)
    assert bad.misses == 1


def run_bench(cwd: Path, workload: str, seconds: float, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    "end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
}


@pytest.mark.parametrize("workload, trace", [
    ("cli_presets", 0), ("desk_sweep", 0), ("converged_desk", 0),
    ("cli_presets", 1), ("desk_sweep", 1),
])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, 1, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = UNITS["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "desk_sweep", 1, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
