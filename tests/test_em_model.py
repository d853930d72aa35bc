import numpy as np
import pytest
from numpy.testing import assert_allclose

from arrayshadow import (
    QuadratureGrid,
    TargetSheet,
    antenna_positions,
    converged_field_ratio_vector,
    discretize_sheet,
    em_model,
    excess_attenuation_db,
    field_ratio,
    field_ratio_vector,
    free_space_ratio,
    free_space_ratio_vector,
)
from arrayshadow.oracles import dense_quadrature_field_ratio
from conftest import WAVELENGTH, make_paper_target

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
        assert free_space_ratio(paper_scene, 0) == 1.0 + 0.0j

    def test_amplitude_spreading(self, paper_scene):
        d0 = 4.0
        for m in (-2, -1, 1, 2):
            value = free_space_ratio(paper_scene, m)
            dm = np.hypot(d0, m * WAVELENGTH / 2)
            assert abs(value) == pytest.approx(d0 / dm, rel=1e-12)
            assert abs(value) < 1.0

    def test_phase_closed_form(self, paper_scene):
        k = 2 * np.pi / WAVELENGTH
        for m in range(-2, 3):
            dm = np.hypot(4.0, m * WAVELENGTH / 2)
            expected = -(k * (dm - 4.0))
            got = np.angle(free_space_ratio(paper_scene, m))
            assert np.exp(1j * got) == pytest.approx(np.exp(1j * expected), rel=1e-10)

    def test_vector_matches_scalars(self, paper_scene):
        vec = free_space_ratio_vector(paper_scene)
        scalars = [free_space_ratio(paper_scene, m) for m in range(-2, 3)]
        assert_allclose(vec, scalars, rtol=1e-14)

    def test_index_out_of_range(self, paper_scene):
        with pytest.raises(ValueError):
            free_space_ratio(paper_scene, 3)


class TestFieldRatio:
    def test_empty_scene_is_exactly_one(self, paper_scene):
        assert field_ratio(paper_scene, None, 0) == 1.0 + 0.0j
        assert_allclose(field_ratio_vector(paper_scene, None), np.ones(5), rtol=0, atol=0)

    def test_vanishing_sheet_tends_to_one(self, paper_scene):
        target = TargetSheet((1.0, 0.0), 1e-6, 1e-6)
        assert field_ratio(paper_scene, target, 0) == pytest.approx(1.0, abs=1e-6)

    def test_on_los_attenuation_matches_reported_range(self, paper_scene):
        grid = discretize_sheet(make_paper_target(), paper_scene)
        att = excess_attenuation_db(field_ratio(paper_scene, make_paper_target(), 0, grid))
        assert 13.0 <= att <= 17.0

    def test_vector_consistent_with_scalar(self, paper_scene):
        target = make_paper_target(1.0, 0.25)
        grid = discretize_sheet(target, paper_scene)
        vec = field_ratio_vector(paper_scene, target, grid)
        for i, m in enumerate(range(-2, 3)):
            assert vec[i] == pytest.approx(field_ratio(paper_scene, target, m, grid), rel=1e-12)

    def test_block_size_leaves_every_bit_unchanged(self, paper_scene, monkeypatch):
        target = make_paper_target(1.0, 0.25)
        grid = discretize_sheet(target, paper_scene)
        monkeypatch.setattr(em_model, "_BLOCK_NODES", len(grid.areas))
        whole = field_ratio_vector(paper_scene, target, grid)
        monkeypatch.setattr(em_model, "_BLOCK_NODES", 7)  # 6,900 nodes: ragged last block
        assert np.array_equal(field_ratio_vector(paper_scene, target, grid), whole)

    def test_full_plane_sheet_kills_the_field(self, paper_scene):
        # 40-wavelength square centered on the LoS; residual is edge leakage
        target = TargetSheet((1.0, 0.0), 20 * WAVELENGTH, 20 * WAVELENGTH)
        ratio = field_ratio(paper_scene, target, 0)
        assert abs(ratio) == pytest.approx(0.0738, abs=0.005)
        assert abs(ratio) < 0.08

    def test_monotone_blockage_limit(self, paper_scene):
        magnitudes = []
        for mult in (1, 2, 4, 8):
            target = TargetSheet((1.0, 0.0), 0.275 * mult, 0.9 * mult)
            magnitudes.append(abs(field_ratio(paper_scene, target, 0)))
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 0.05

    def test_target_intersecting_antenna_rejected(self, paper_scene):
        grid = QuadratureGrid(
            points=np.array([[4.0, 0.0, 0.9]]), areas=np.array([1e-4]), step=1e-2
        )
        with pytest.raises(ValueError, match="intersects"):
            field_ratio(paper_scene, make_paper_target(), 0, grid)
        # a sheet through any antenna is outside the model, even when asking
        # for the field at another one
        on_m2 = QuadratureGrid(
            points=antenna_positions(paper_scene)[-1:], areas=np.array([1e-4]), step=1e-2
        )
        with pytest.raises(ValueError, match="intersects"):
            field_ratio(paper_scene, make_paper_target(), 0, on_m2)

    def test_knife_edge_on_central_los(self, paper_scene):
        att = excess_attenuation_db(field_ratio(paper_scene, edge_sheet(0.0), 0))
        assert att == pytest.approx(6.02, abs=0.1)

    def test_knife_edge_on_outer_antenna_los(self, paper_scene):
        # the m=2 ray crosses the sheet plane at half its transverse offset
        edge_y = 0.5 * 2 * WAVELENGTH / 2
        target = edge_sheet(edge_y)
        att = excess_attenuation_db(field_ratio(paper_scene, target, 2))
        assert att == pytest.approx(6.02, abs=0.1)


class TestExcessAttenuation:
    def test_no_target_zero_db(self, paper_scene):
        assert excess_attenuation_db(field_ratio(paper_scene, None, 0)) == 0.0

    def test_total_blockage_sentinel(self):
        assert excess_attenuation_db(0.0) == np.inf

    def test_short_array_flatness(self, paper_scene):
        grid = discretize_sheet(make_paper_target(), paper_scene)
        att = excess_attenuation_db(field_ratio_vector(paper_scene, make_paper_target(), grid))
        assert np.ptp(att) <= 2.5

    def test_mirror_symmetry(self, paper_scene):
        for m, y in ((2, 0.3), (1, -0.15)):
            a = field_ratio(paper_scene, make_paper_target(1.0, y), m)
            b = field_ratio(paper_scene, make_paper_target(1.0, -y), -m)
            assert b == pytest.approx(a, rel=1e-9)


class TestQuadratureConvergence:
    def test_step_halving_change_is_small(self, paper_scene):
        target = make_paper_target()
        coarse = field_ratio_vector(
            paper_scene, target, discretize_sheet(target, paper_scene, WAVELENGTH / 40)
        )
        fine = field_ratio_vector(
            paper_scene, target, discretize_sheet(target, paper_scene, WAVELENGTH / 80)
        )
        change = np.max(np.abs(fine - coarse) / np.abs(fine))
        assert change < 5e-4

    def test_converged_mode_meets_tolerance(self, paper_scene, converged_on_los):
        target = make_paper_target()
        ratios, step = converged_on_los
        again = field_ratio_vector(
            paper_scene, target, discretize_sheet(target, paper_scene, step)
        )
        assert_allclose(again, ratios, rtol=1e-12)

    def test_initial_step_above_grid_cap_still_refines(self, paper_scene):
        # the grid never goes coarser than lambda/10, so halving starts there
        target = TargetSheet((1.0, 0.1), 0.1, 0.2)
        ratios, step = converged_field_ratio_vector(paper_scene, target, rel_tol=1e-4)
        coarse, coarse_step = converged_field_ratio_vector(
            paper_scene, target, rel_tol=1e-4, initial_step=WAVELENGTH / 2
        )
        assert step == pytest.approx(WAVELENGTH / 80, rel=1e-12)
        assert coarse_step == step
        assert_allclose(coarse, ratios, rtol=0, atol=0)

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
