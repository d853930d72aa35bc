"""The benchmark's tracer still finds and reads every function it times.

``benchmarks/tracing.py`` rebinds arrayshadow functions by name and reads
their arguments and results by name. It skips a name it cannot resolve,
so a rename would otherwise only show as a benchmark run with missing
layers.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from arrayshadow import runner

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def converged_desk_scenario() -> str:
    """One paper_fig4 desk position solved to a relative tolerance of 1e-4."""
    return json.dumps({
        "scene": {"carrier_frequency_hz": 2.4868e9, "central_distance_m": 4.0, "half_count": 2,
                  "spacing_wavelengths": 0.5},
        "target": {"half_width_m": 0.275, "half_height_m": 0.9, "positions_m": [[1.0, 0.0]]},
        "processing": {"n_fft": 257, "quadrature_step_wavelengths": 0.1,
                       "quadrature_rel_tol": 1e-4},
        "outputs": ["doa_spectrum", "per_antenna_attenuation", "mean_attenuation"],
    })


def test_tracer_resolves_and_counts_a_converged_desk_run(tmp_path):
    tracing = load_tracing()
    modules = {m: importlib.import_module(f"arrayshadow.{m}") for m, _, _ in tracing.TRACED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unresolved = [
            f"{m}.{f}" for m, f, _ in tracing.TRACED
            if not hasattr(getattr(modules[m], f, None), "__wrapped__")
        ]
        # through the module, as the benchmark calls it, so the rebound names are used
        config = runner.parse_scenario(converged_desk_scenario())
        runner.export(runner.run(config), "csv", tmp_path)
    finally:
        tracer.restore()

    assert unresolved == []
    metrics = tracing.summarize(tracer.spans)
    assert metrics["runner.run.rows"] > 0
    assert metrics["runner.export.files"] == 3
    # two folded grids, the check and the start orders' solve: 16 x 18 + 20 x 20 = 688
    assert metrics["geometry.discretize_sheet.nodes"] == 688
    assert metrics["em_model.field_ratio_vector.node_antennas"] == 688 * 5
    assert metrics["em_model.converged_field_ratio_vector.refinements"] == 1
