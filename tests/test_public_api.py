from pathlib import Path

import pytest

import arrayshadow

README = Path(__file__).parents[1] / "README.md"

# the pipeline only: reference formulas live in arrayshadow.oracles
PIPELINE_API = [
    "SPEED_OF_LIGHT",
    "ArraySpec",
    "DoaSpectrum",
    "QuadratureGrid",
    "QuadratureReport",
    "Scene",
    "TargetSheet",
    "antenna_positions",
    "array_factor",
    "array_factor_closed_form",
    "attenuation_spectrum_from_snapshots",
    "boresight_steering",
    "converged_field_ratio_vector",
    "discretize_sheet",
    "excess_attenuation_db",
    "field_ratio_vector",
    "first_lobe_width",
    "mean_attenuation_from_snapshots",
    "nearfield_steering",
    "planar_steering",
    "uniform_weights",
]


def test_every_exported_name_resolves():
    assert sorted(arrayshadow.__all__) == sorted(PIPELINE_API)
    assert len(set(arrayshadow.__all__)) == len(arrayshadow.__all__)
    assert [n for n in arrayshadow.__all__ if not hasattr(arrayshadow, n)] == []
    namespace = {}
    exec("from arrayshadow import *", namespace)
    assert set(arrayshadow.__all__) <= set(namespace)


def test_readme_library_example_runs():
    text = README.read_text()
    example = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["spectrum"].main_lobe_attenuation() == pytest.approx(15.0, abs=2.0)
