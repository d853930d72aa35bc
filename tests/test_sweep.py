"""A run's positions are solved together and give every bit of one solve per position."""

import json
import tracemalloc

import numpy as np
import pytest

from arrayshadow import TargetSheet, em_model, geometry, observe
from arrayshadow.em_model import SolveError, converged_field_ratio_vectors
from arrayshadow.runner import SimulationError, parse_scenario, run
from arrayshadow.sensing import attenuation_spectra, observe_all
from conftest import make_paper_scene, make_paper_target
from test_runner import minimal_config


def assert_same_observations(batched, single):
    assert len(batched) == len(single)
    for a, b in zip(batched, single):
        assert np.array_equal(a.ratios, b.ratios)
        assert np.array_equal(a.empty, b.empty)
        assert np.array_equal(a.occupied, b.occupied)
        assert a.quadrature == b.quadrature


@pytest.mark.parametrize("half_count", [2, 4, 8])
def test_a_rotated_sweep_equals_one_observe_per_position(half_count):
    scene = make_paper_scene(half_count)
    rotation = np.radians(-17.5)
    targets = [make_paper_target(0.5 + 0.25 * i, 0.1 * (i % 7) - 0.3, rotation) for i in range(13)]
    batched = observe_all(scene, targets)
    assert_same_observations(batched, [observe(scene, t) for t in targets])
    # several grids share each chunk, and several chunks a rule
    orders = {obs.quadrature.orders for obs in batched}
    assert 1 < len(orders) < len(targets)


def test_positions_that_double_and_grids_over_one_block_keep_every_bit():
    scene = make_paper_scene(2)
    targets = [make_paper_target(x, 0.0) for x in (1.0, 3.9, 2.0, 3.95)]
    batched = observe_all(scene, targets)
    assert_same_observations(batched, [observe(scene, t) for t in targets])
    start = geometry.sheet_orders(scene, targets)
    doubled = [obs.quadrature.orders != tuple(o) for obs, o in zip(batched, start.tolist())]
    assert doubled == [False, True, False, True]
    # 3.95 m ends at 96 x 240, 11,520 nodes: over one block of 16,384 / 5 antennas
    assert batched[3].quadrature.nodes * 5 > em_model._BLOCK_NODE_ANTENNAS


def test_a_chunk_of_grids_sums_each_grid_as_alone():
    scene = make_paper_scene(4)
    targets = [make_paper_target(1.0 + 0.5 * i, 0.2 * i, 0.3) for i in range(3)]
    orders = [(20, 36), (24, 40), (20, 36)]
    grid = geometry.discretize_sheets(scene, targets, orders)
    sizes = [geometry.folded_nodes(*o) for o in orders]
    assert sum(sizes) * 9 <= em_model._BLOCK_NODE_ANTENNAS  # one block
    together, close = em_model._field_ratios(em_model._Link.of(scene), grid, sizes)
    assert not close.any()
    for row, target, o in zip(together, targets, orders):
        alone = geometry.discretize_sheet(target, scene, o)
        assert np.array_equal(row, em_model.field_ratio_vector(scene, target, alone))


def test_spectra_in_one_call_equal_one_call_per_pair():
    scene = make_paper_scene(8)
    observations = observe_all(scene, [make_paper_target(1.0, y) for y in (-0.4, 0.0, 0.3)])
    occupied = np.array([obs.occupied for obs in observations])
    together = attenuation_spectra(observations[0].empty, occupied, 0.06, 0.12, 257)
    for row, obs in zip(together, observations):
        alone = attenuation_spectra(obs.empty, obs.occupied[None], 0.06, 0.12, 257)[0]
        assert np.array_equal(row, alone)


def test_the_first_failing_position_is_named_with_its_own_message(monkeypatch):
    # the second of three exceeds the budget when it doubles to 96 x 240; the third
    # would exceed it too, and the first converges at 48 x 120, 2,880 nodes
    raw = minimal_config()
    raw["target"]["positions_m"] = [[3.98, 0.0], [3.9, 0.0], [3.95, 0.0]]
    config = parse_scenario(json.dumps(raw))
    monkeypatch.setattr(geometry, "MAX_GRID_NODES", 5_000)
    with pytest.raises(SimulationError) as err:
        run(config)
    assert str(err.value) == (
        "position (3.95, 0): quadrature stopped at relative change 4.79e-06 against rel_tol "
        "1e-09: quadrature grid of 11,520 nodes (96 x 240) exceeds the budget of 5,000 nodes"
    )


def test_a_position_failing_in_a_later_round_is_named_first(monkeypatch):
    # 3.98 m reaches the budget two doublings before 2 m, but 2 m comes first
    raw = minimal_config(processing={"quadrature_rel_tol": 1e-16})
    raw["target"]["positions_m"] = [[3.98, 0.0], [2.0, 0.0]]
    config = parse_scenario(json.dumps(raw))
    monkeypatch.setattr(geometry, "MAX_GRID_NODES", 30_000)
    with pytest.raises(SimulationError, match=(
        r"^position \(2, 0\): quadrature stopped at relative change \S+ against rel_tol 1e-16: "
        r"quadrature grid of 73,728 nodes \(256 x 576\) exceeds the budget of 30,000 nodes$"
    )):
        run(config)


def test_a_sheet_on_the_transmitter_is_named_by_its_place():
    # odd orders put a node at the sheet centre, 1e-12 m from the transmitter
    scene = make_paper_scene(2)
    targets = [make_paper_target(1.0, 0.0), TargetSheet((1e-12, 0.0), 0.275, 0.9),
               TargetSheet((2e-12, 0.0), 0.275, 0.9)]
    with pytest.raises(SolveError, match="^target intersects antenna$") as err:
        converged_field_ratio_vectors(scene, targets, orders=[(21, 41)] * 3)
    assert err.value.index == 1


def desk_run_peak(positions: int) -> tuple[int, int]:
    """Traced peak of a desk run at M = 8 and the bytes its blocks export."""
    raw = minimal_config(outputs=["doa_spectrum", "per_antenna_attenuation", "mean_attenuation"])
    raw["scene"]["half_count"] = 8
    raw["target"].update(rotation_deg=15.0, positions_m=[
        [0.5 + 0.375 * (i // 8), 0.15 * (i % 8) - 0.6] for i in range(positions)
    ])
    config = parse_scenario(json.dumps(raw))
    run(config)  # the rules and the DoA grid cached before the measurement
    tracemalloc.start()
    try:
        table = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(b.values.nbytes for b in table.blocks)


def test_a_run_holds_nothing_sized_by_positions_times_nodes():
    one, one_exported = desk_run_peak(1)
    many, many_exported = desk_run_peak(64)
    # Beyond the exported values, 64 positions may add one FFT call's transform and
    # magnitudes, 24 B per row and bin over at most 16,384 of them (about 0.39 MB; the
    # run measured 0.09 MB). An array of the 64 positions' nodes (about 900 each) adds
    # 0.46 MB per double, one of their node-antenna terms 7.8 MB.
    assert many - one < many_exported - one_exported + 24 * em_model._BLOCK_NODE_ANTENNAS
