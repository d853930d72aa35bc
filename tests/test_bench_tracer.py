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

import numpy as np

from arrayshadow import em_model, runner

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
    config = runner.parse_scenario(converged_desk_scenario())
    scene, target = config.scene(), config.target_at(*config.positions[0])
    ratios, report = em_model.converged_field_ratio_vector(scene, target, config.quadrature_rel_tol)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unresolved = [
            f"{m}.{f}" for m, f, _ in tracing.TRACED
            if not hasattr(getattr(modules[m], f, None), "__wrapped__")
        ]
        # through the module, as the benchmark calls it, so the rebound names are used
        runner.export(runner.run(config), "csv", tmp_path)

        # run solves its positions together, through names the tracer does not wrap yet;
        # drive the single-target pieces it wraps: the checked solve's check and solve
        # grids, each built and summed, inside a span of the solve's name
        def checked_solve():
            ny, nz = report.orders
            return [
                modules["em_model"].field_ratio_vector(
                    scene, target, modules["geometry"].discretize_sheet(target, scene, orders)
                )
                for orders in ((ny - 4, nz - 4), (ny, nz))
            ][-1]

        by_hand = tracer.wrap("em_model.converged_field_ratio_vector", checked_solve)()
    finally:
        tracer.restore()

    assert unresolved == []
    assert np.array_equal(by_hand, ratios)
    metrics = tracing.summarize(tracer.spans)
    assert metrics["runner.run.rows"] > 0
    assert metrics["runner.export.files"] == 3
    # two folded grids, the check and the start orders' solve: 16 x 18 + 20 x 20 = 688
    assert metrics["geometry.discretize_sheet.nodes"] == 688
    assert metrics["em_model.field_ratio_vector.node_antennas"] == 688 * 5
    assert metrics["em_model.converged_field_ratio_vector.refinements"] == 1
