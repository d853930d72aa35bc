"""A run's positions are solved together and give every bit of one solve per position."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from arrayshadow import TargetSheet, converged_field_ratio_vector, em_model, geometry, sensing
from arrayshadow.em_model import SolveError, converged_field_ratio_vectors
from arrayshadow.runner import ScenarioError, SimulationError, parse_scenario, run
from arrayshadow.sensing import attenuation_spectra, boresight_steering
from conftest import make_paper_scene, make_paper_target
from test_runner import minimal_config


def solve_as_run_does_and_alone(scene, sheet, centers):
    """The batched solve's reports, after checking each row against a solve of its centre alone."""
    ratios, reports = converged_field_ratio_vectors(scene, sheet, centers)
    assert ratios.shape == (len(centers), scene.array.num_elements) and len(reports) == len(centers)
    for row, report, center in zip(ratios, reports, centers):
        target = dataclasses.replace(sheet, barycenter=center)
        alone, alone_report = converged_field_ratio_vector(scene, target)
        assert np.array_equal(row, alone)
        assert report == alone_report
    return reports


@pytest.mark.parametrize("half_count", [2, 4, 8])
def test_a_rotated_sweep_equals_one_solve_per_position(half_count):
    scene = make_paper_scene(half_count)
    sheet = make_paper_target(rotation=np.radians(-17.5))
    centers = [(0.5 + 0.25 * i, 0.1 * (i % 7) - 0.3) for i in range(13)]
    reports = solve_as_run_does_and_alone(scene, sheet, centers)
    # several grids share each chunk, and several chunks a rule
    orders = {report.orders for report in reports}
    assert 1 < len(orders) < len(centers)


def test_positions_that_double_and_grids_over_one_block_keep_every_bit():
    scene = make_paper_scene(2)
    sheet, centers = make_paper_target(), [(x, 0.0) for x in (1.0, 3.9, 2.0, 3.95)]
    reports = solve_as_run_does_and_alone(scene, sheet, centers)
    start = geometry.sheet_orders(scene, sheet, centers)
    doubled = [report.orders != tuple(o) for report, o in zip(reports, start.tolist())]
    assert doubled == [False, True, False, True]
    # 3.95 m ends at 96 x 240, 11,520 nodes: over one block of 16,384 / 5 antennas
    assert reports[3].nodes * 5 > em_model._BLOCK_NODE_ANTENNAS


def test_a_chunk_of_grids_sums_each_grid_as_alone():
    scene = make_paper_scene(4)
    sheet = make_paper_target(rotation=0.3)
    centers = [(1.0 + 0.5 * i, 0.2 * i) for i in range(3)]
    orders = [(20, 36), (24, 40), (20, 36)]
    grid = geometry.discretize_sheets(scene, sheet, centers, orders)
    sizes = [geometry.folded_nodes(*o) for o in orders]
    assert sum(sizes) * 9 <= em_model._BLOCK_NODE_ANTENNAS  # one block
    together, close = em_model._field_ratios(em_model._Link.of(scene), grid, sizes)
    assert not close.any()
    for row, center, o in zip(together, centers, orders):
        target = dataclasses.replace(sheet, barycenter=center)
        alone = geometry.discretize_sheet(target, scene, o)
        assert np.array_equal(row, em_model.field_ratio_vector(scene, target, alone))


@pytest.mark.parametrize("n_fft", [257, 8_193, 20_000])  # 3 rows in one call; 2 and 1; 1 each
def test_spectra_in_one_call_equal_one_call_per_pair(n_fft):
    scene = make_paper_scene(8)
    ratios = converged_field_ratio_vectors(
        scene, make_paper_target(), [(1.0, y) for y in (-0.4, 0.0, 0.3)])[0]
    empty = boresight_steering(scene)
    occupied = empty * ratios
    together = attenuation_spectra(empty, occupied, 0.06, 0.12, n_fft)
    assert together.shape == (3, len(sensing.doa_grid(0.06, 0.12, n_fft)[0]))
    for row, pair in zip(together, occupied):
        alone = attenuation_spectra(empty, pair[None], 0.06, 0.12, n_fft)[0]
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
    centers = [(1.0, 0.0), (1e-12, 0.0), (2e-12, 0.0)]
    with pytest.raises(SolveError, match="^target intersects antenna$") as err:
        converged_field_ratio_vectors(scene, make_paper_target(), centers, orders=[(21, 41)] * 3)
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
    assert many - one < many_exported - one_exported + 24 * sensing._FFT_BLOCK_VALUES


def test_no_targets_give_an_empty_solve():
    scene = make_paper_scene(4)
    for orders in (None, []):
        ratios, reports = converged_field_ratio_vectors(scene, make_paper_target(), [], orders=orders)
        assert ratios.shape == (0, 9) and ratios.dtype == complex
        assert reports == []
    grid = geometry.discretize_sheets(scene, make_paper_target(), np.empty((0, 2)), [])
    assert grid.points.shape == (0, 3) and grid.areas.shape == (0,)


def test_a_nan_change_keeps_doubling_until_the_budget(monkeypatch):
    # the kernel gives NaN for every grid of the sheet at 2 m: its change is NaN, which is
    # not below rel_tol, so it doubles from 16 x 36 until 128 x 288 exceeds the budget
    scene = make_paper_scene(2)
    kernel = em_model._field_ratios

    def nan_at_two_metres(link, grid, sizes):
        ratios, close = kernel(link, grid, sizes)
        first_nodes = np.cumsum(sizes) - sizes
        ratios[grid.points[first_nodes, 0] > 1.5] = np.nan
        return ratios, close

    monkeypatch.setattr(em_model, "_field_ratios", nan_at_two_metres)
    monkeypatch.setattr(geometry, "MAX_GRID_NODES", 5_000)
    with pytest.raises(SolveError) as err:
        converged_field_ratio_vectors(scene, make_paper_target(), [(1.0, 0.0), (2.0, 0.0)])
    assert err.value.index == 1
    assert str(err.value) == (
        "quadrature stopped at relative change nan against rel_tol 1e-09: quadrature grid of "
        "18,432 nodes (128 x 288) exceeds the budget of 5,000 nodes"
    )


@pytest.mark.parametrize("x, rotation_deg, span", [
    (-1.0, 0.0, "-1 to -1"),
    (4.0, 0.0, "4 to 4"),
    (4.5, 0.0, "4.5 to 4.5"),
    (0.1, 90.0, "-0.175 to 0.375"),
], ids=["behind_tx", "array_plane", "beyond_array", "rotated_across_tx"])
def test_a_sheet_outside_the_link_is_refused_before_any_grid(monkeypatch, x, rotation_deg, span):
    scene = make_paper_scene(2)
    outside = make_paper_target(x, 0.0, np.radians(rotation_deg))
    built = []
    monkeypatch.setattr(em_model, "discretize_sheets", lambda *args: built.append(args))
    with pytest.raises(SolveError) as err:  # the sheet at 1 m lies inside at any rotation
        converged_field_ratio_vectors(scene, outside, [(1.0, 0.0), (x, 0.0), (x, 0.0)])
    assert err.value.index == 1
    assert built == []
    message = (f"the sheet spans x = {span} m, not strictly between the transmitter (x = 0) "
               "and the array (x = 4 m)")
    assert str(err.value) == message
    with pytest.raises(SolveError, match=f"^{re.escape(message)}$"):
        converged_field_ratio_vector(scene, outside)
    # parse's rule and words, after the position's label
    raw = minimal_config()
    raw["target"].update(positions_m=[[x, 0.0]], rotation_deg=rotation_deg)
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(json.dumps(raw))
    assert str(parsed.value) == f"<config>: invalid scenario\n  - target.positions_m[0]: {message}"


@pytest.mark.parametrize("half_width, nodes", [
    (1e6, "2,084,775,120 nodes (104,238,756 x 40)"),
    (1e150, "2.08478e+153 nodes (1.04239e+152 x 40)"),  # counts past the int64 range
    (1e300, "inf nodes (inf x inf)"),  # the sheet's distances overflow
])
def test_a_sheet_too_wide_for_any_grid_gets_the_budget_message(half_width, nodes):
    with pytest.raises(SolveError) as err:
        converged_field_ratio_vector(make_paper_scene(2), TargetSheet((1.0, 0.0), half_width, 0.9))
    assert str(err.value) == (
        f"quadrature stopped at relative change inf against rel_tol 1e-09: quadrature grid of "
        f"{nodes} exceeds the budget of 10,000,000 nodes"
    )
    assert len(str(err.value)) < 250


@pytest.mark.parametrize("centers, orders, shape", [
    ([(1.0, 0.0)] * 2, [(20, 40)], "(1, 2)"),
    ([(1.0, 0.0)], [(20, 40)] * 2, "(2, 2)"),
    ([(1.0, 0.0)], [(20, 40, 60)], "(1, 3)"),
    ([(1.0, 0.0)], [], "(0, 2)"),
], ids=["one_row_two_centres", "two_rows_one_centre", "three_orders_one_centre", "no_rows"])
def test_orders_that_do_not_give_one_row_per_centre_are_refused(
    monkeypatch, centers, orders, shape
):
    scene, sheet = make_paper_scene(2), make_paper_target()
    message = (f"^orders must give one \\(across, up\\) row per centre: "
               f"{len(centers)} centre\\(s\\), orders of shape {re.escape(shape)}$")
    with pytest.raises(ValueError, match=message):
        geometry.discretize_sheets(scene, sheet, centers, orders)
    built = []
    monkeypatch.setattr(em_model, "discretize_sheets", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=message) as err:
        converged_field_ratio_vectors(scene, sheet, centers, orders=orders)
    assert type(err.value) is ValueError and built == []  # no centre is to blame
    if shape == "(1, 3)":  # as the one-target solve gets it
        with pytest.raises(ValueError, match=message):
            converged_field_ratio_vector(scene, sheet, orders=orders[0])


@pytest.mark.parametrize("centers, shape", [
    ([(1.0, 0.5, 2.0), (0.3, 1.5, 0.2)], "(2, 3)"),
    ((1.0, 0.5), "(2,)"),
    ([[(1.0, 0.0)]], "(1, 1, 2)"),
], ids=["two_rows_of_three", "one_flat_pair", "nested_once_more"])
def test_centres_that_are_not_xy_rows_are_refused(monkeypatch, centers, shape):
    scene, sheet = make_paper_scene(2), make_paper_target()
    message = f"^centers must be \\(x, y\\) rows, got shape {re.escape(shape)}$"
    for call in (geometry.path_sweeps, geometry.sheet_orders):
        with pytest.raises(ValueError, match=message):
            call(scene, sheet, centers)
    with pytest.raises(ValueError, match=message):
        geometry.discretize_sheets(scene, sheet, centers, [(20, 40)] * 3)
    built = []
    monkeypatch.setattr(em_model, "discretize_sheets", lambda *args: built.append(args))
    for orders in (None, [(20, 40)] * 3):
        with pytest.raises(ValueError, match=message) as err:
            converged_field_ratio_vectors(scene, sheet, centers, orders=orders)
        assert type(err.value) is ValueError and built == []


@pytest.mark.parametrize("rel_tol", [math.nan, 0.0, -1e-9, math.inf],
                         ids=["nan", "zero", "negative", "inf"])
def test_a_tolerance_parse_refuses_is_refused_before_any_grid(monkeypatch, rel_tol):
    scene, sheet = make_paper_scene(2), make_paper_target()
    built = []
    monkeypatch.setattr(em_model, "discretize_sheets", lambda *args: built.append(args))
    message = f"^rel_tol must be positive and finite, got {rel_tol:g}$"
    with pytest.raises(ValueError, match=message):
        converged_field_ratio_vectors(scene, sheet, [(1.0, 0.0)] * 2, rel_tol)
    with pytest.raises(ValueError, match=message):
        converged_field_ratio_vector(scene, sheet, rel_tol)
    assert built == []


@pytest.mark.parametrize("center, spelt", [
    ((np.nan, 0.0), "(nan, 0)"), ((1.0, -np.inf), "(1, -inf)"),
], ids=["nan_x", "infinite_y"])
def test_a_centre_that_is_not_finite_is_named_before_any_grid(monkeypatch, center, spelt):
    built = []
    monkeypatch.setattr(em_model, "discretize_sheets", lambda *args: built.append(args))
    message = f"^barycenter must be finite, got {re.escape(spelt)}$"
    with pytest.raises(SolveError, match=message) as err:
        converged_field_ratio_vectors(make_paper_scene(2), make_paper_target(),
                                      [(1.0, 0.0), center, center])
    assert err.value.index == 1
    assert built == []
    # a direct call builds no grid of NaN nodes either
    with pytest.raises(ValueError, match=f"^barycenter must be finite, got {re.escape(spelt)} "
                                         f"at centre 1$"):
        geometry.discretize_sheets(make_paper_scene(2), make_paper_target(),
                                   [(1.0, 0.0), center], [(20, 40)] * 2)


def mean_only_map(positions: int):
    """A mean-only desk run at M = 2 over a map of ``positions``, 40 to a row."""
    raw = minimal_config(outputs=["mean_attenuation"])
    raw["target"]["positions_m"] = [[0.5 + 0.01 * (i // 40), 0.04 * (i % 40) - 0.8]
                                    for i in range(positions)]
    return parse_scenario(json.dumps(raw))


def test_a_mean_only_map_holds_under_740_bytes_a_position():
    # The run, its blocks included, measured 632 B a position from 200 to 2,000 positions;
    # with one TargetSheet per position it held 846 B.
    small, large = mean_only_map(200), mean_only_map(2_000)
    run(large)  # every rule cached before the measurements
    peaks = []
    for config in (small, large):
        tracemalloc.start()
        try:
            run(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 1_800 < 740
