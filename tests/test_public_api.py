import arrayshadow

# the pipeline only: reference formulas live in arrayshadow.oracles
PIPELINE_API = [
    "SPEED_OF_LIGHT",
    "ArraySpec",
    "DoaSpectrum",
    "Observation",
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
    "observe",
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
