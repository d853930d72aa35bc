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
from arrayshadow.geometry import grid_cells
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


class TestDiscretizeSheet:
    def test_exact_tiling(self):
        scene = Scene(1e8, ArraySpec(0, 1.0, 4.0))  # 3 m wavelength: 0.3 m level-0 cap
        target = TargetSheet((1.0, 0.0), 0.5, 0.5)
        grid = discretize_sheet(target, scene)
        # 4 x 4 cells of 0.0625; the 2 rows above the link plane are built at twice the area
        assert grid.points.shape == (8, 3)
        assert_allclose(grid.areas, 0.125)
        assert_allclose(np.unique(grid.points[:, 2]), [0.125, 0.375])

    def test_paper_grid_shape_and_area(self, paper_scene):
        grid = discretize_sheet(make_paper_target(), paper_scene, 0)
        assert grid.points.shape[0] == 46 * 75  # 150 rows, folded
        assert grid.areas.sum() == pytest.approx(0.99, rel=1e-12)

    def test_each_level_doubles_the_cells_along_both_axes(self, paper_scene):
        target = make_paper_target(1.0, 0.3)  # unrotated: y and z are the sheet axes
        grids = [discretize_sheet(target, paper_scene, k) for k in range(3)]
        assert [len(g.areas) for g in grids] == [3_450, 13_800, 55_200]
        for coarse, fine in zip(grids, grids[1:]):
            assert_allclose(fine.areas, coarse.areas[0] / 4.0, rtol=1e-12)
            for axis in (1, 2):
                # each coarse midpoint is the mean of the two fine midpoints bisecting its cell
                pairs = np.unique(fine.points[:, axis]).reshape(-1, 2).mean(axis=1)
                assert_allclose(pairs, np.unique(coarse.points[:, axis]), rtol=0, atol=1e-12)

    def test_area_sum_exact(self, paper_scene):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ay, az = rng.uniform(0.05, 2.0, size=2)
            target = TargetSheet((1.5, 0.3), ay, az, rotation=rng.uniform(0, np.pi))
            grid = discretize_sheet(target, paper_scene)
            assert grid.areas.sum() == pytest.approx(4 * ay * az, rel=1e-12)
            ny, nz = grid_cells(target, paper_scene)
            assert len(grid.areas) == ny * -(-nz // 2)  # the rows at or above the link plane

    def test_odd_row_count_keeps_the_middle_row_once(self):
        scene = Scene(1e8, ArraySpec(0, 1.0, 4.0), link_height=1.0)  # 0.3 m level-0 cap
        target = TargetSheet((1.0, 0.0), 0.5, 0.3)  # 4 x 3 cells of 0.25 x 0.2 m
        grid = discretize_sheet(target, scene)
        assert grid.points.shape == (8, 3)
        assert_allclose(grid.points[:, 2].reshape(4, 2), [[1.0, 1.2]] * 4, rtol=0, atol=1e-12)
        assert_allclose(grid.areas.reshape(4, 2), [[0.05, 0.1]] * 4, rtol=1e-12)

    def test_step_never_exceeds_cap(self, paper_scene):
        for k in (0, 1, 3):
            grid = discretize_sheet(make_paper_target(), paper_scene, k)
            cell_sides = [np.diff(np.unique(grid.points[:, axis]))[0] for axis in (1, 2)]
            assert max(cell_sides) <= WAVELENGTH / 10 / 2**k

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

    def test_bad_halvings_rejected(self, paper_scene):
        for halvings in (-1, 0.5):
            with pytest.raises(ValueError, match="halvings"):
                discretize_sheet(make_paper_target(), paper_scene, halvings)


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
