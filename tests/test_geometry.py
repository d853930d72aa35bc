import numpy as np
import pytest
from numpy.testing import assert_allclose

from arrayshadow import (
    ArraySpec,
    Scene,
    TargetSheet,
    antenna_positions,
    discretize_sheet,
)
from arrayshadow.geometry import gauss_legendre, grid_cells
from arrayshadow.presets import load_preset
from conftest import WAVELENGTH, make_paper_target


class TestAntennaPositions:
    def test_single_antenna_degenerate_case(self):
        scene = Scene(2.4868e9, ArraySpec(0, WAVELENGTH / 2, 4.0), link_height=0.9)
        pos = antenna_positions(scene)
        assert pos.shape == (1, 3)
        assert_allclose(pos[0], [4.0, 0.0, 0.9])

    def test_paper_layout_distances(self, paper_scene):
        pos = antenna_positions(paper_scene)
        assert pos.shape == (5, 3)
        d = np.linalg.norm(pos - paper_scene.tx, axis=1)
        expected = [np.hypot(4.0, m * WAVELENGTH / 2) for m in range(-2, 3)]
        assert_allclose(d, expected, rtol=1e-12)

    def test_closed_form_matches_point_distance(self):
        scene = Scene(5.8e9, ArraySpec(7, 0.031, 2.5), link_height=1.2)
        pos = antenna_positions(scene)
        d = np.linalg.norm(pos - scene.tx, axis=1)
        m = scene.array.indices
        assert_allclose(d, np.sqrt(2.5**2 + (m * 0.031) ** 2), rtol=1e-12)

    def test_reflection_symmetry(self, paper_scene):
        pos = antenna_positions(paper_scene)
        assert_allclose(pos, pos[::-1] * [1, -1, 1], rtol=0, atol=0)

    def test_all_at_link_height(self, paper_scene):
        pos = antenna_positions(paper_scene)
        assert_allclose(pos[:, 2], 0.9)


# The four-point Gauss-Legendre rule on [-1, 1], in closed form.
GL4_NODES = np.sqrt(3.0 / 7.0 + np.array([-2.0, 2.0]) / 7.0 * np.sqrt(6.0 / 5.0))
GL4_WEIGHTS = (18.0 + np.array([1.0, -1.0]) * np.sqrt(30.0)) / 36.0


class TestDiscretizeSheet:
    def test_four_point_rule_on_each_axis(self):
        scene = Scene(1e8, ArraySpec(0, 1.0, 4.0))  # 3 m wavelength: nodes 0.3 m apart on average
        target = TargetSheet((1.0, 0.0), 0.5, 0.5)
        assert grid_cells(target, scene) == (4, 4)
        grid = discretize_sheet(target, scene)
        # the 2 nodes above the link plane are built at twice their weight
        assert grid.points.shape == (8, 3)
        assert_allclose(np.unique(grid.points[:, 2]), 0.5 * GL4_NODES, rtol=1e-14)
        across = 0.5 * np.concatenate([GL4_WEIGHTS[::-1], GL4_WEIGHTS])
        assert_allclose(grid.areas, np.outer(across, 2.0 * 0.5 * GL4_WEIGHTS).ravel(), rtol=1e-14)

    def test_paper_grid_shape_and_area(self, paper_scene):
        grid = discretize_sheet(make_paper_target(), paper_scene, 0.1)
        assert grid.points.shape[0] == 46 * 75  # 150 nodes up the sheet, folded
        assert grid.areas.sum() == pytest.approx(0.99, rel=1e-12)

    def test_halving_the_step_about_doubles_the_orders(self, paper_scene):
        target = make_paper_target(1.0, 0.3)
        steps = (0.1, 0.05, 0.025)
        assert [grid_cells(target, paper_scene, s) for s in steps] == [
            (46, 150), (92, 299), (183, 598),
        ]
        assert [len(discretize_sheet(target, paper_scene, s).areas) for s in steps] == [
            3_450, 13_800, 54_717,
        ]

    def test_area_sum_exact(self, paper_scene):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ay, az = rng.uniform(0.05, 2.0, size=2)
            target = TargetSheet((1.5, 0.3), ay, az, rotation=rng.uniform(0, np.pi))
            grid = discretize_sheet(target, paper_scene)
            assert grid.areas.sum() == pytest.approx(4 * ay * az, rel=1e-12)
            ny, nz = grid_cells(target, paper_scene)
            assert len(grid.areas) == ny * -(-nz // 2)  # the nodes at or above the link plane

    @pytest.mark.parametrize("half_width, half_height", [(0.5, 0.5), (0.3, 0.45), (0.8, 0.3)])
    def test_rule_integrates_the_top_even_degree_exactly(self, half_width, half_height):
        scene = Scene(1e8, ArraySpec(0, 1.0, 4.0), link_height=0.7)  # 0.3 m mean node spacing
        target = TargetSheet((1.5, -0.2), half_width, half_height, rotation=0.4)
        ny, nz = grid_cells(target, scene)
        grid = discretize_sheet(target, scene)
        offsets = grid.points - [1.5, -0.2, 0.7]
        y = offsets @ [-np.sin(0.4), np.cos(0.4), 0.0]  # along the sheet's in-plane axis
        z = offsets[:, 2]
        assert grid.areas.sum() == pytest.approx(4.0 * half_width * half_height, rel=1e-13)
        # degree 2n - 2 is the highest even degree an n-point rule integrates exactly
        exact = (2.0 * half_width ** (2 * ny - 1) / (2 * ny - 1)
                 * 2.0 * half_height ** (2 * nz - 1) / (2 * nz - 1))
        integral = np.sum(grid.areas * y ** (2 * ny - 2) * z ** (2 * nz - 2))
        assert integral == pytest.approx(exact, rel=1e-12)

    def test_odd_order_keeps_the_middle_node_once(self):
        scene = Scene(1e8, ArraySpec(0, 1.0, 4.0), link_height=1.0)
        target = TargetSheet((1.0, 0.0), 0.5, 0.3)  # 4 x 3 nodes
        assert grid_cells(target, scene) == (4, 3)
        grid = discretize_sheet(target, scene)
        assert grid.points.shape == (8, 3)
        # the three-point rule: nodes 0 and +-sqrt(3/5), weights 8/9 and 5/9
        up = 1.0 + 0.3 * np.array([0.0, np.sqrt(0.6)])
        assert_allclose(grid.points[:, 2].reshape(4, 2), [up] * 4, rtol=1e-14)
        across = 0.5 * np.concatenate([GL4_WEIGHTS[::-1], GL4_WEIGHTS])
        assert_allclose(grid.areas, np.outer(across, 0.3 * np.array([8 / 9, 10 / 9])).ravel(),
                        rtol=1e-14)

    @pytest.mark.parametrize("rotation_deg", [0.0, 30.0, -30.0])
    @pytest.mark.parametrize("half_height, up", [(0.9, 150), (0.885, 147)])
    def test_points_are_the_broadcast_in_contiguous_columns(
        self, paper_scene, rotation_deg, half_height, up
    ):
        target = TargetSheet((1.3, -0.2), 0.275, half_height, np.radians(rotation_deg))
        ny, nz = grid_cells(target, paper_scene)
        assert nz == up
        grid = discretize_sheet(target, paper_scene)
        assert all(grid.points[:, j].flags.c_contiguous for j in range(3))
        u, v = gauss_legendre(ny)[0], gauss_legendre(nz)[0][nz // 2:]
        yy, zz = np.meshgrid(0.275 * u, half_height * v, indexing="ij")
        theta = target.rotation
        center = np.array([1.3, -0.2, paper_scene.link_height])
        expected = (center + yy.reshape(-1, 1) * [-np.sin(theta), np.cos(theta), 0.0]
                    + zz.reshape(-1, 1) * [0.0, 0.0, 1.0])
        assert grid.points.tobytes() == expected.tobytes()  # every bit, the sign of zero too

    def test_mean_node_spacing_never_exceeds_the_step(self, paper_scene):
        target = make_paper_target()
        for step in (0.1, 0.05, 0.0125, 0.03):
            ny, nz = grid_cells(target, paper_scene, step)
            spacing = step * WAVELENGTH
            assert 2 * 0.275 / ny <= spacing < 2 * 0.275 / (ny - 1)
            assert 2 * 0.9 / nz <= spacing < 2 * 0.9 / (nz - 1)

    def test_right_angle_rotation_contains_los_direction(self, paper_scene):
        target = make_paper_target(1.0, 0.4, rotation=np.pi / 2)
        grid = discretize_sheet(target, paper_scene)
        # in-plane axis now points along -x: nodes keep the barycenter y
        assert_allclose(grid.points[:, 1], 0.4, atol=1e-12)
        assert np.ptp(grid.points[:, 0]) > 0.5

    def test_nodes_lie_on_rotated_plane(self, paper_scene):
        theta = 0.7
        target = make_paper_target(1.2, -0.2, rotation=theta)
        grid = discretize_sheet(target, paper_scene)
        normal = np.array([np.cos(theta), np.sin(theta), 0.0])
        center = np.array([1.2, -0.2, 0.9])
        offsets = (grid.points - center) @ normal
        assert_allclose(offsets, 0.0, atol=1e-12)

    @pytest.mark.parametrize("step", [0.0, -0.05, 0.2000001, np.inf, np.nan])
    def test_step_outside_zero_to_a_fifth_wavelength_rejected(self, paper_scene, step):
        # a fifth: converged mode checks a step of at most a tenth against twice that step
        target = make_paper_target()
        with pytest.raises(ValueError, match=r"step must be in \(0, 0.2\]"):
            grid_cells(target, paper_scene, step)
        with pytest.raises(ValueError, match="step"):
            discretize_sheet(target, paper_scene, step)


    def test_order_cap_admits_the_largest_shipped_and_desk_grids(self, paper_scene):
        knife_edge = load_preset("knife_edge_validation")
        target = knife_edge.target_at(*knife_edge.positions[0])
        assert grid_cells(target, knife_edge.scene(), knife_edge.quadrature_step) == (1_222, 1_153)
        assert grid_cells(make_paper_target(), paper_scene, 0.1 / 32) == (1_460, 4_778)

    @pytest.mark.parametrize("half_width, step, order", [
        (500.0, 0.1, "82,951"),  # 1 km wide, 1 mm tall: 82,951 x 1 nodes
        (50.0, 0.001, "829,508"),
    ])
    def test_axis_order_over_the_cap_rejected(self, paper_scene, half_width, step, order):
        target = TargetSheet((1.0, 0.0), half_width, 0.0005)
        with pytest.raises(ValueError, match=f"order {order} .* exceeds the cap of 10,000"):
            grid_cells(target, paper_scene, step)


class TestFrameProperties:
    def test_mirror_maps_node_distances_to_opposite_antenna(self, paper_scene):
        pos = antenna_positions(paper_scene)
        tx = paper_scene.tx
        for m, y in ((2, 0.3), (1, -0.6)):
            ga = discretize_sheet(make_paper_target(1.0, y), paper_scene)
            gb = discretize_sheet(make_paper_target(1.0, -y), paper_scene)
            ra1 = np.sort(np.linalg.norm(ga.points - tx, axis=1))
            rb1 = np.sort(np.linalg.norm(gb.points - tx, axis=1))
            assert_allclose(rb1, ra1, rtol=1e-12)
            ra2 = np.sort(np.linalg.norm(ga.points - pos[m + 2], axis=1))
            rb2 = np.sort(np.linalg.norm(gb.points - pos[-m + 2], axis=1))
            assert_allclose(rb2, ra2, rtol=1e-12)


class TestValidation:
    def test_coupling_warning_raised_below_quarter_wavelength(self):
        with pytest.warns(UserWarning, match="lambda/4"):
            Scene(2.4868e9, ArraySpec(2, 0.2 * WAVELENGTH, 4.0), link_height=0.9)

    def test_coupling_warning_points_at_the_caller(self):
        # not at the dataclass-generated __init__, which reads as "<string>"
        with pytest.warns(UserWarning, match="lambda/4") as record:
            Scene(2.4868e9, ArraySpec(2, 0.2 * WAVELENGTH, 4.0))
        assert [w.filename for w in record] == [__file__]

    def test_no_warning_above_quarter_wavelength(self, recwarn):
        Scene(2.4868e9, ArraySpec(2, 0.3 * WAVELENGTH, 4.0), link_height=0.9)
        assert not [w for w in recwarn if "lambda/4" in str(w.message)]

    def test_rejects_bad_array(self):
        with pytest.raises(ValueError):
            ArraySpec(-1, 0.06, 4.0)
        with pytest.raises(ValueError):
            ArraySpec(2, 0.0, 4.0)
        with pytest.raises(ValueError):
            ArraySpec(2, 0.06, -4.0)

    def test_rejects_bad_sheet(self):
        with pytest.raises(ValueError):
            TargetSheet((1.0, 0.0), 0.0, 0.9)
        with pytest.raises(ValueError):
            TargetSheet((1.0, 0.0), 0.275, -0.1)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Scene(0.0, ArraySpec(2, 0.06, 4.0))
