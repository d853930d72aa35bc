import numpy as np
import pytest
from numpy.testing import assert_allclose

from arrayshadow import (
    array_factor,
    array_factor_closed_form,
    first_lobe_width,
    free_space_ratio_vector,
    nearfield_steering,
    planar_steering,
    uniform_weights,
)
from conftest import WAVELENGTH

LAM = WAVELENGTH


class TestPlanarSteering:
    def test_broadside_is_all_ones(self):
        a = planar_steering(3, LAM / 2, LAM, np.pi / 2)
        assert_allclose(a, np.ones(7), atol=1e-15)

    def test_half_wavelength_sixty_degrees(self):
        # cos(pi/3) = 1/2 with d_a = lambda/2 gives element phase m*pi/2
        a = planar_steering(1, LAM / 2, LAM, np.pi / 3)
        assert_allclose(np.angle(a), [-np.pi / 2, 0.0, np.pi / 2], atol=1e-12)

    def test_conjugate_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            a = planar_steering(m, rng.uniform(0.1, 1.0) * LAM, LAM, rng.uniform(0.1, 3.0))
            assert_allclose(a[::-1], np.conj(a), rtol=1e-12)

    def test_squared_norm(self):
        for m in (0, 1, 4, 9):
            a = planar_steering(m, LAM / 2, LAM, 1.1)
            assert abs(np.vdot(a, a).real - (2 * m + 1)) < 1e-12

    def test_rejects_doa_outside_open_interval(self):
        for bad in (0.0, np.pi, -0.5, 4.0):
            with pytest.raises(ValueError):
                planar_steering(2, LAM / 2, LAM, bad)


class TestNearfieldSteering:
    def test_central_element_is_one(self):
        a = nearfield_steering(2, LAM / 2, 4.0, LAM, 0.9)
        assert a[2] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_squared_norm(self):
        m = np.arange(-2, 3)
        dm = np.hypot(4.0, m * LAM / 2)
        a = nearfield_steering(2, LAM / 2, 4.0, LAM, 1.3)
        assert abs(np.vdot(a, a).real - np.sum((4.0 / dm) ** 2)) < 1e-12

    def test_broadside_equals_free_space_ratios(self, paper_scene):
        a = nearfield_steering(2, LAM / 2, 4.0, LAM, np.pi / 2)
        assert_allclose(a, free_space_ratio_vector(paper_scene), rtol=1e-9)

    def test_far_link_converges_to_planar(self):
        gamma = 1.0
        near = nearfield_steering(2, LAM / 2, 1e6, LAM, gamma)
        planar = planar_steering(2, LAM / 2, LAM, gamma)
        assert np.max(np.abs(np.abs(near) - np.abs(planar))) < 1e-4
        assert np.max(np.abs(np.angle(near / planar))) < 1e-4

    def test_convergence_is_monotone_in_distance(self):
        gamma = 1.9
        deviations = []
        planar = planar_steering(3, LAM / 2, LAM, gamma)
        for d0 in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
            near = nearfield_steering(3, LAM / 2, d0, LAM, gamma)
            deviations.append(np.max(np.abs(near - planar)))
        assert all(a > b for a, b in zip(deviations, deviations[1:]))

    def test_invalid_geometry_rejected(self):
        # endfire DoA with element offsets comparable to the link length
        with pytest.raises(ValueError, match="near-field"):
            nearfield_steering(2, LAM, LAM, LAM, 0.01)


class TestWeightsAndArrayFactor:
    def test_single_antenna_weights(self):
        assert_allclose(uniform_weights(0), [1.0])

    def test_nine_antenna_weights(self):
        w = uniform_weights(4)
        assert w.shape == (9,)
        assert_allclose(w, 1.0 / 9.0)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-15)

    def test_broadside_unity(self):
        w = uniform_weights(4)
        a = planar_steering(4, LAM / 2, LAM, np.pi / 2)
        assert array_factor(w, a) == pytest.approx(1.0, abs=1e-14)

    def test_first_null(self):
        w = uniform_weights(4)
        gamma = np.arccos(2.0 / 9.0)
        a = planar_steering(4, LAM / 2, LAM, gamma)
        assert abs(array_factor(w, a)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            array_factor(uniform_weights(2), planar_steering(3, LAM / 2, LAM, 1.0))

    def test_matches_closed_form(self):
        rng = np.random.default_rng(11)
        gammas = np.linspace(0.01, np.pi - 0.01, 181)
        for _ in range(5):
            m = int(rng.integers(1, 6))
            spacing = rng.uniform(0.1, 0.6) * LAM
            w = uniform_weights(m)
            for gamma in gammas:
                direct = array_factor(w, planar_steering(m, spacing, LAM, gamma))
                closed = array_factor_closed_form(m, spacing, LAM, gamma)
                assert abs(direct - closed) < 1e-12

    def test_closed_form_broadside_limit(self):
        assert array_factor_closed_form(4, LAM / 2, LAM, np.pi / 2) == pytest.approx(1.0)

    def test_sidelobes_below_minus_12_db(self):
        # 9 elements at half-wavelength spacing: all sidelobe peaks < -12 dB
        w = uniform_weights(4)
        gammas = np.radians(np.linspace(0.25, 179.75, 719))
        null = np.arccos(2.0 / 9.0)
        levels = []
        for gamma in gammas:
            if null < gamma < np.pi - null:
                continue  # inside the main lobe
            value = abs(array_factor(w, planar_steering(4, LAM / 2, LAM, gamma)))
            levels.append(20 * np.log10(max(value, 1e-300)))
        assert max(levels) < -12.0


class TestFirstLobeWidth:
    def test_nine_element_half_wavelength(self):
        exact, approx = first_lobe_width(4, LAM / 2, LAM)
        assert approx == pytest.approx(2.0 / 4.5, rel=1e-12)
        assert exact == pytest.approx(2 * abs(np.arccos(2.0 / 9.0) - np.pi / 2), rel=1e-12)

    def test_boundary_aperture_of_one_wavelength(self):
        exact, approx = first_lobe_width(0, LAM, LAM)
        assert exact == pytest.approx(np.pi)
        assert approx == pytest.approx(2.0)

    def test_long_array_agreement(self):
        # aperture of 20 wavelengths: the two forms agree within 2 percent
        spacing = 20.0 * LAM / 9.0
        exact, approx = first_lobe_width(4, spacing, LAM)
        assert abs(exact - approx) / approx < 0.02

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            first_lobe_width(0, LAM / 2, LAM)
