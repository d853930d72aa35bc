import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arrayshadow import (
    ArraySpec,
    QuadratureGrid,
    Scene,
    TargetSheet,
    antenna_positions,
    converged_field_ratio_vector,
    discretize_sheet,
    em_model,
    excess_attenuation_db,
    field_ratio_vector,
)
from arrayshadow.geometry import SPEED_OF_LIGHT, discretize_sheets, gauss_legendre, sheet_orders
from arrayshadow.oracles import dense_quadrature_field_ratio, free_space_ratio_vector
from conftest import CARRIER_HZ, WAVELENGTH, make_paper_scene, make_paper_target

# knife-edge validation geometry: edge plane halfway down the link,
# sheet tall and wide enough that only the tracked edge matters
_EDGE_X = 2.0
_NU_SCALE = np.sqrt(2.0 * 4.0 / (WAVELENGTH * 2.0 * 2.0))
_EDGE_HALF_WIDTH = 30.0 / _NU_SCALE
_EDGE_HALF_HEIGHT = 20.0 * np.sqrt(WAVELENGTH * 2.0 * 2.0 / 4.0)


def edge_sheet(edge_y: float) -> TargetSheet:
    """Wide tall sheet whose right vertical edge sits at transverse offset edge_y."""
    return TargetSheet(
        barycenter=(_EDGE_X, edge_y - _EDGE_HALF_WIDTH),
        half_width=_EDGE_HALF_WIDTH,
        half_height=_EDGE_HALF_HEIGHT,
    )


class TestFreeSpaceRatio:
    def test_central_antenna_is_identity(self, paper_scene):
        assert free_space_ratio_vector(paper_scene)[2] == 1.0 + 0.0j

    def test_amplitude_spreading(self, paper_scene):
        d0 = 4.0
        ratios = free_space_ratio_vector(paper_scene)
        for m in (-2, -1, 1, 2):
            value = ratios[m + 2]
            dm = np.hypot(d0, m * WAVELENGTH / 2)
            assert abs(value) == pytest.approx(d0 / dm, rel=1e-12)
            assert abs(value) < 1.0

    def test_phase_closed_form(self, paper_scene):
        k = 2 * np.pi / WAVELENGTH
        ratios = free_space_ratio_vector(paper_scene)
        for m in range(-2, 3):
            dm = np.hypot(4.0, m * WAVELENGTH / 2)
            expected = -(k * (dm - 4.0))
            got = np.angle(ratios[m + 2])
            assert np.exp(1j * got) == pytest.approx(np.exp(1j * expected), rel=1e-10)


class TestFieldRatio:
    def test_vanishing_sheet_tends_to_one(self, paper_scene):
        target = TargetSheet((1.0, 0.0), 1e-6, 1e-6)
        ratio = converged_field_ratio_vector(paper_scene, target)[0][2]
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_on_los_attenuation_matches_reported_range(self, paper_scene):
        grid = discretize_sheet(make_paper_target(), paper_scene)
        att = excess_attenuation_db(field_ratio_vector(paper_scene, make_paper_target(), grid)[2])
        assert 13.0 <= att <= 17.0

    @pytest.mark.parametrize("half_count", [0, 2, 8])
    @pytest.mark.parametrize("rotation_deg", [-30.0, 30.0])
    def test_agrees_with_the_complex_exponential_sum(self, half_count, rotation_deg):
        scene = make_paper_scene(half_count)
        target = make_paper_target(1.3, 0.2, np.radians(rotation_deg))
        grid = discretize_sheet(target, scene)
        r1 = np.linalg.norm(grid.points - scene.tx, axis=1)
        expected = []
        for rx in antenna_positions(scene):
            r2 = np.linalg.norm(grid.points - rx, axis=1)
            dm = np.linalg.norm(rx - scene.tx)
            terms = np.exp(-2j * np.pi / WAVELENGTH * (r1 + r2 - dm)) / (r1 * r2) * grid.areas
            expected.append(1.0 - 1j * dm / WAVELENGTH * np.sum(terms))
        assert_allclose(field_ratio_vector(scene, target, grid), expected, rtol=1e-13)

    @pytest.mark.parametrize("central_distance", [4.0, 400.0, 4_000.0])
    def test_agrees_with_a_sum_reduced_to_turns_in_long_double(self, central_distance):
        # the sheet scales with the first Fresnel zone, so every link casts a shadow
        s = np.sqrt(central_distance / 4.0)
        scene = Scene(CARRIER_HZ, ArraySpec(8, WAVELENGTH / 2, central_distance), link_height=0.9)
        target = TargetSheet((0.325 * central_distance, 0.2 * s), 0.275 * s, 0.9 * s,
                             np.radians(30.0))
        grid = discretize_sheet(target, scene)
        r1 = np.linalg.norm(grid.points - scene.tx, axis=1)
        expected = []
        for rx in antenna_positions(scene):
            r2 = np.linalg.norm(grid.points - rx, axis=1)
            dm = np.linalg.norm(rx - scene.tx)
            turns = (r1 + r2 - dm).astype(np.longdouble) / np.longdouble(scene.wavelength)
            phase = 2.0 * np.pi * (turns - np.rint(turns)).astype(float)
            terms = np.exp(-1j * phase) / (r1 * r2) * grid.areas
            expected.append(1.0 - 1j * dm / scene.wavelength * np.sum(terms))
        assert_allclose(field_ratio_vector(scene, target, grid), expected, rtol=1e-13)

    @pytest.mark.parametrize("central_distance, x, y, turns", [  # lengths in 1/128 m
        (140, 70, 24, 0.5),  # r1 = r2 = 74: a path difference of 8, half a turn
        (132, 105, 36, 1.5),  # r1 = 111, r2 = 45: 24, reduced to -1/2
    ])
    def test_path_differences_of_half_a_turn_give_finite_ratios(
        self, central_distance, x, y, turns
    ):
        # lambda = 1/8 m exactly; the nodes' distances are Pythagorean triples, so every
        # path difference reduces exactly to +-1/2 turn, where tan(pi t) is about 1.6e16
        scene = Scene(8.0 * SPEED_OF_LIGHT, ArraySpec(0, 1.0, central_distance / 128))
        assert scene.wavelength == 0.125
        points = np.array([[x, y, 0], [x, -y, 0], [x, 0, y], [x, 0, -y]]) / 128
        grid = QuadratureGrid(points=points, areas=np.full(4, 1e-4))
        r1 = np.linalg.norm(points, axis=1)
        r2 = np.linalg.norm(points - antenna_positions(scene)[0], axis=1)
        assert np.all((r1 + r2 - central_distance / 128) / 0.125 == turns)
        ratios = field_ratio_vector(scene, make_paper_target(), grid)
        assert np.all(np.isfinite(ratios.view(float)))
        # every term is exp(-j pi) dS / (r1 r2) = -dS / (r1 r2)
        expected = 1.0 + 1j * central_distance / 128 / 0.125 * np.sum(grid.areas / (r1 * r2))
        assert_allclose(ratios, [expected], rtol=1e-13)

    def test_a_desk_call_keeps_its_temporaries_to_the_width_of_its_grids(self):
        # The on-LoS check and solve in one call: 288 + 400 nodes at 5 antennas. The r2 and w
        # buffers span 688 nodes, not the 3,276 of a block: at a block's width the call peaks
        # at 462,185 B. The cos and sin kernel this one replaced peaked at 174,401 B.
        scene = make_paper_scene(2)
        grid = discretize_sheets(scene, make_paper_target(), [(1.0, 0.0)] * 2,
                                 [(16, 36), (20, 40)])
        link = em_model._Link.of(scene)
        em_model._field_ratios(link, grid, [288, 400])  # numpy's first-call allocations
        tracemalloc.start()
        try:
            em_model._field_ratios(link, grid, [288, 400])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid.areas) == 688
        assert peak <= 174_401 + 16_384

    @pytest.mark.parametrize("half_count", [0, 2, 8])
    def test_solve_holds_three_doubles_per_node(self, half_count):
        # r1 and the two partial-sum arrays; the rest is one block of temporaries,
        # so the peak does not grow with the antenna count
        scene = make_paper_scene(half_count)
        target = make_paper_target()
        grid = discretize_sheet(target, scene, (787, 2_575))  # folded to 787 x 1,288 nodes
        tracemalloc.start()
        try:
            field_ratio_vector(scene, target, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid.areas) == 1_013_656
        assert peak < 24 * len(grid.areas) + 1_000_000

    @pytest.mark.parametrize("half_count", [0, 2, 8])
    def test_block_size_leaves_every_bit_unchanged(self, half_count, monkeypatch):
        scene = make_paper_scene(half_count)
        target = make_paper_target(1.0, 0.25)
        grid = discretize_sheet(target, scene, (44, 92))
        nodes, antennas = len(grid.areas), 2 * half_count + 1
        monkeypatch.setattr(em_model, "_BLOCK_NODE_ANTENNAS", nodes * antennas)
        whole = field_ratio_vector(scene, target, grid)  # every antenna in one block
        # groups of 3 antennas (the last one ragged at 17); one antenna per whole-grid
        # block; one antenna in 7-node blocks (2,024 nodes: the last one ragged)
        for budget in (3 * nodes, nodes, 7):
            monkeypatch.setattr(em_model, "_BLOCK_NODE_ANTENNAS", budget)
            assert np.array_equal(field_ratio_vector(scene, target, grid), whole)

    def test_full_plane_sheet_kills_the_field(self, paper_scene):
        # 40-wavelength square centered on the LoS; residual is edge leakage
        target = TargetSheet((1.0, 0.0), 20 * WAVELENGTH, 20 * WAVELENGTH)
        ratio = converged_field_ratio_vector(paper_scene, target)[0][2]
        assert abs(ratio) == pytest.approx(0.0738, abs=0.005)
        assert abs(ratio) < 0.08

    def test_monotone_blockage_limit(self, paper_scene):
        magnitudes = []
        for mult in (1, 2, 4, 8):
            target = TargetSheet((1.0, 0.0), 0.275 * mult, 0.9 * mult)
            magnitudes.append(abs(converged_field_ratio_vector(paper_scene, target)[0][2]))
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 0.05

    def test_target_intersecting_antenna_rejected(self, paper_scene):
        grid = QuadratureGrid(
            points=np.array([[4.0, 0.0, 0.9]]), areas=np.array([1e-4])
        )
        with pytest.raises(ValueError, match="intersects"):
            field_ratio_vector(paper_scene, make_paper_target(), grid)
        # a sheet through any antenna is outside the model
        on_m2 = QuadratureGrid(
            points=antenna_positions(paper_scene)[-1:], areas=np.array([1e-4])
        )
        with pytest.raises(ValueError, match="intersects"):
            field_ratio_vector(paper_scene, make_paper_target(), on_m2)

    def test_knife_edge_on_central_los(self, paper_scene):
        ratios = converged_field_ratio_vector(paper_scene, edge_sheet(0.0))[0]
        att = excess_attenuation_db(ratios[2])
        assert att == pytest.approx(6.02, abs=0.1)

    def test_knife_edge_on_outer_antenna_los(self, paper_scene):
        # the m=2 ray crosses the sheet plane at half its transverse offset
        edge_y = 0.5 * 2 * WAVELENGTH / 2
        target = edge_sheet(edge_y)
        att = excess_attenuation_db(converged_field_ratio_vector(paper_scene, target)[0][4])
        assert att == pytest.approx(6.02, abs=0.1)


class TestExcessAttenuation:
    def test_total_blockage_sentinel(self):
        assert excess_attenuation_db(0.0) == np.inf

    def test_short_array_flatness(self, paper_scene):
        grid = discretize_sheet(make_paper_target(), paper_scene)
        att = excess_attenuation_db(field_ratio_vector(paper_scene, make_paper_target(), grid))
        assert np.ptp(att) <= 2.5

    def test_mirror_symmetry(self, paper_scene):
        for m, y in ((2, 0.3), (1, -0.15)):
            a = converged_field_ratio_vector(paper_scene, make_paper_target(1.0, y))[0][m + 2]
            b = converged_field_ratio_vector(paper_scene, make_paper_target(1.0, -y))[0][-m + 2]
            assert b == pytest.approx(a, rel=1e-9)


def recording_orders(monkeypatch) -> list[tuple[int, int]]:
    """The orders of every grid the checked solve builds, in build order."""
    orders = []

    def recording_discretize_sheets(scene, sheet, centers, given):
        orders.extend(tuple(int(n) for n in row) for row in given)
        return discretize_sheets(scene, sheet, centers, given)

    monkeypatch.setattr(em_model, "discretize_sheets", recording_discretize_sheets)
    return orders


class TestQuadratureConvergence:
    @pytest.mark.parametrize("half_count", [2, 8])
    @pytest.mark.parametrize("x, y, rotation_deg", [
        (0.5, -0.4, -30.0), (1.0, 0.0, 0.0), (2.0, 0.3, 30.0), (3.5, -0.1, 30.0),
    ])
    def test_start_orders_agree_with_four_times_the_density(self, half_count, x, y, rotation_deg):
        scene = make_paper_scene(half_count)
        target = make_paper_target(x, y, np.radians(rotation_deg))
        start, dense = (
            field_ratio_vector(scene, target, discretize_sheet(
                target, scene, sheet_orders(scene, target, [target.barycenter], d)[0]))
            for d in (1.0, 4.0)
        )
        assert_allclose(start, dense, rtol=1e-11)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        x=st.floats(0.5, 3.5),
        y=st.floats(-1.2, 1.2),
        rotation_deg=st.floats(-30.0, 30.0),
        half_count=st.sampled_from([2, 4, 8]),
    )
    def test_desk_solves_hold_without_doubling(self, x, y, rotation_deg, half_count):
        scene = make_paper_scene(half_count)
        target = make_paper_target(x, y, np.radians(rotation_deg))
        ratios, report = converged_field_ratio_vector(scene, target)
        assert report.orders == tuple(sheet_orders(scene, target, [(x, y)])[0])
        reference = field_ratio_vector(scene, target, discretize_sheet(target, scene, (96, 192)))
        assert_allclose(ratios, reference, rtol=1e-11)

    def test_the_check_comes_first_at_four_fewer_nodes(self, paper_scene, monkeypatch):
        orders = recording_orders(monkeypatch)
        target = TargetSheet((1.0, 0.1), 0.1, 0.2)
        converged_field_ratio_vector(paper_scene, target, rel_tol=1e-4, orders=(24, 40))
        assert orders == [(20, 36), (24, 40)]

    @pytest.mark.parametrize("x, expected", [
        # near the ends the rule's nine samples miss the 1/r growth, and the check flags it
        (0.02, [(24, 64), (28, 68), (52, 132), (56, 136), (108, 268), (112, 272),
                (220, 540), (224, 544)]),
        (0.1, [(24, 60), (28, 64), (52, 124), (56, 128)]),
        (3.9, [(20, 56), (24, 60), (44, 116), (48, 120)]),
        (3.98, [(20, 60), (24, 64), (44, 124), (48, 128), (92, 252), (96, 256),
                (188, 508), (192, 512)]),
    ])
    def test_near_the_ends_both_orders_double_until_the_check_holds(
        self, paper_scene, monkeypatch, x, expected
    ):
        orders = recording_orders(monkeypatch)
        target = make_paper_target(x, 0.0)
        ratios, report = converged_field_ratio_vector(paper_scene, target)
        monkeypatch.undo()
        assert orders == expected
        assert report.orders == expected[-1] and report.change < 1e-9
        grid = discretize_sheet(target, paper_scene, expected[-1])
        assert report.nodes == len(grid.areas)
        assert np.array_equal(ratios, field_ratio_vector(paper_scene, target, grid))
        # the returned solve is good to rel_tol against one at twice its orders
        twice = discretize_sheet(target, paper_scene, [2 * n for n in expected[-1]])
        assert_allclose(ratios, field_ratio_vector(paper_scene, target, twice), rtol=1e-9)

    @pytest.mark.parametrize("orders", [(4, 40), (20, 4), (0, 0), (20.7, 40)])
    def test_orders_of_four_or_less_rejected(self, paper_scene, orders):
        # a fraction is refused too, where it would be truncated
        message = "orders must be integers" if orders[0] % 1 else "orders must exceed 4"
        with pytest.raises(ValueError, match=message):
            converged_field_ratio_vector(paper_scene, make_paper_target(), orders=orders)
        with pytest.raises(em_model.SolveError, match=message) as err:  # before any grid
            em_model.converged_field_ratio_vectors(
                paper_scene, make_paper_target(), [(1.0, 0.0)] * 2, orders=[(20, 40), orders])
        assert err.value.index == 1

    def test_returned_change_is_that_of_the_last_pair(self, paper_scene, converged_on_los):
        ratios, report = converged_on_los
        target = make_paper_target()
        check, fine = (
            field_ratio_vector(paper_scene, target, discretize_sheet(target, paper_scene, orders))
            for orders in ((16, 36), (20, 40))
        )
        assert report.orders == (20, 40) and report.nodes == 400
        assert np.array_equal(ratios, fine)  # the start orders' solve, kept
        assert report.change == np.max(np.abs(fine - check) / np.abs(fine))
        assert report.change < 1e-10

    def test_a_looser_tolerance_never_returns_a_coarser_grid(self, paper_scene):
        target = make_paper_target(1.0, 0.3)
        strict = converged_field_ratio_vector(paper_scene, target, rel_tol=1e-12)
        loose = converged_field_ratio_vector(paper_scene, target, rel_tol=1.0)
        assert loose[1].orders == strict[1].orders
        assert np.array_equal(loose[0], strict[0])

    def test_on_los_solve_stops_after_two_grids(self, paper_scene, monkeypatch):
        orders = recording_orders(monkeypatch)
        converged_field_ratio_vector(paper_scene, make_paper_target())
        assert orders == [(16, 36), (20, 40)]  # 288 + 400 nodes, folded

    def test_meets_tolerance_against_a_finer_estimate(self, paper_scene):
        target = TargetSheet((1.0, 0.1), 0.1, 0.2)
        ratios, _ = converged_field_ratio_vector(paper_scene, target)
        grid = discretize_sheet(target, paper_scene, (128, 128))
        assert_allclose(ratios, field_ratio_vector(paper_scene, target, grid), rtol=1e-9)

    def test_agrees_with_dense_oracle_on_desk_geometries(self, paper_scene, converged_on_los):
        for y in (-0.25, 0.0, 0.25):
            target = make_paper_target(1.0, y)
            if y == 0.0:
                ratios, _ = converged_on_los
            else:
                ratios, _ = converged_field_ratio_vector(paper_scene, target)
            for i, m in enumerate(range(-2, 3)):
                reference = dense_quadrature_field_ratio(paper_scene, target, m)
                assert abs(ratios[i] - reference) / abs(reference) < 1e-3


# a sheet clear of the transmitter and the array, drawn in desk units
SHEETS = dict(
    x=st.floats(0.5, 3.5),
    y=st.floats(-0.6, 0.6),
    theta=st.floats(-0.6, 0.6),
    half_width=st.floats(0.05, 0.4),
    half_height=st.floats(0.05, 0.4),
    half_count=st.integers(0, 3),
)


def full_gauss_legendre_grid(scene: Scene, target: TargetSheet, orders) -> QuadratureGrid:
    """The Gauss-Legendre grid at ``orders`` over the whole sheet, below the link plane too."""
    ny, nz = map(int, orders)  # gauss_legendre takes ints; sheet_orders gives floats
    ay, az = target.half_width, target.half_height
    (u, wu), (v, wv) = gauss_legendre(ny), gauss_legendre(nz)
    uu, vv = (a.ravel() for a in np.meshgrid(ay * u, az * v, indexing="ij"))
    (x, y), theta = target.barycenter, target.rotation
    points = np.column_stack(
        [x - uu * np.sin(theta), y + uu * np.cos(theta), scene.link_height + vv]
    )
    return QuadratureGrid(points=points, areas=np.outer(ay * wu, az * wv).ravel())


def scaled_solve(scale, x, y, theta, half_width, half_height, half_count):
    """Checked-solve field ratios of a desk link with every length and the wavelength times scale."""
    scene = Scene(
        CARRIER_HZ / scale,
        ArraySpec(half_count, scale * WAVELENGTH / 2.0, scale * 4.0),
        link_height=scale * 0.9,
    )
    target = TargetSheet((scale * x, scale * y), scale * half_width, scale * half_height, theta)
    return converged_field_ratio_vector(scene, target)[0]


class TestPhysicsInvariants:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(scale=st.floats(0.25, 4.0), **SHEETS)
    def test_scaling_lengths_with_the_wavelength_leaves_ratios(self, scale, **sheet):
        # the orders depend only on the layout in wavelengths; the ratios are
        # relative to the free-space field, so atol is 1e-12 of the unblocked field
        assert_allclose(
            scaled_solve(scale, **sheet), scaled_solve(1.0, **sheet), rtol=1e-12, atol=1e-12
        )

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(**SHEETS)
    def test_rotating_the_sheet_by_pi_leaves_ratios(self, theta, **sheet):
        assert_allclose(
            scaled_solve(1.0, theta=theta + np.pi, **sheet),
            scaled_solve(1.0, theta=theta, **sheet),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        link_height=st.floats(0.0, 2.0),
        half_rows=st.integers(2, 33),
        **{k: v for k, v in SHEETS.items() if k != "half_height"},
    )
    def test_folded_grid_matches_the_full_sheet(
        self, parity, link_height, half_rows, x, y, theta, half_width, half_count
    ):
        # the vertical order is 2 * half_rows + parity, at the mean spacing lambda/10
        half_height = (2 * half_rows + parity) * 0.1 * WAVELENGTH / 2.0
        scene = Scene(CARRIER_HZ, ArraySpec(half_count, WAVELENGTH / 2.0, 4.0), link_height)
        target = TargetSheet((x, y), half_width, half_height, theta)
        orders = (sheet_orders(scene, target, [(x, y)])[0][0], 2 * half_rows + parity)
        assert_allclose(
            field_ratio_vector(scene, target, discretize_sheet(target, scene, orders)),
            field_ratio_vector(scene, target, full_gauss_legendre_grid(scene, target, orders)),
            rtol=1e-12,
        )

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        x=st.floats(0.5, 3.5),
        y=st.floats(3.0, 4.0) | st.floats(-4.0, -3.0),
        theta=st.floats(-np.pi / 6, np.pi / 6),
        half_count=st.sampled_from([0, 2, 4]),
    )
    def test_a_sheet_far_off_the_link_barely_attenuates(self, x, y, theta, half_count):
        # the desk sheet 3-4 m to the side reads at most about 0.24 dB at any antenna
        ratios = converged_field_ratio_vector(make_paper_scene(half_count),
                                              make_paper_target(x, y, theta))[0]
        assert np.all(np.abs(excess_attenuation_db(ratios)) < 0.5)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(**SHEETS)
    def test_swapping_transmitter_and_central_antenna_leaves_its_ratio(self, x, theta, **sheet):
        # the sheet mirrored about x = d_0 / 2 sees the m = 0 link from its other end
        m0 = sheet["half_count"]
        mirrored = scaled_solve(1.0, 4.0 - x, theta=-theta, **sheet)[m0]
        assert mirrored == pytest.approx(scaled_solve(1.0, x, theta=theta, **sheet)[m0], rel=1e-12)
