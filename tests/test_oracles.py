import numpy as np
import pytest
from numpy.testing import assert_allclose

from arrayshadow import TargetSheet
from arrayshadow.oracles import (
    dense_quadrature_field_ratio,
    knife_edge_attenuation,
    knife_edge_parameter,
    naive_dft,
)
from conftest import WAVELENGTH


class TestKnifeEdge:
    def test_edge_on_los(self):
        assert knife_edge_attenuation(0.0) == pytest.approx(6.0206, abs=1e-3)

    def test_unobstructed_limit(self):
        # far below the path the attenuation oscillates toward 0 dB
        assert abs(knife_edge_attenuation(-6.0)) < 0.5
        assert abs(knife_edge_attenuation(-50.0)) < 0.06

    def test_unit_parameter_value(self):
        # frozen from the closed form with scipy's Fresnel integrals
        assert knife_edge_attenuation(1.0) == pytest.approx(13.8641, abs=1e-3)

    def test_deep_shadow_grows(self):
        values = knife_edge_attenuation(np.array([0.0, 1.0, 2.0, 4.0]))
        assert np.all(np.diff(values) > 0)

    def test_parameter_mapping(self):
        nu = knife_edge_parameter(0.5, 2.0, 2.0, WAVELENGTH)
        assert nu == pytest.approx(0.5 * np.sqrt(2 * 4 / (WAVELENGTH * 4)), rel=1e-12)
        assert knife_edge_parameter(-0.5, 2.0, 2.0, WAVELENGTH) == pytest.approx(-nu)


class TestDenseQuadrature:
    def test_vanishing_sheet(self, paper_scene):
        target = TargetSheet((1.0, 0.0), 1e-7, 1e-7)
        value = dense_quadrature_field_ratio(paper_scene, target, 0)
        assert value == pytest.approx(1.0 + 0.0j, abs=1e-6)

    def test_full_plane_limit(self, paper_scene):
        target = TargetSheet((1.0, 0.0), 20 * WAVELENGTH, 20 * WAVELENGTH)
        value = dense_quadrature_field_ratio(paper_scene, target, 0, step=WAVELENGTH / 10)
        assert abs(value) < 0.08

    def test_rotated_sheet_supported(self, paper_scene):
        target = TargetSheet((1.0, 0.2), 0.275, 0.9, rotation=0.4)
        value = dense_quadrature_field_ratio(paper_scene, target, 1, step=WAVELENGTH / 20)
        assert np.isfinite(value.real) and np.isfinite(value.imag)


class TestNaiveDft:
    def test_delta_has_flat_spectrum(self):
        out = naive_dft(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 64)
        assert_allclose(np.abs(out), 1.0, atol=1e-12)

    def test_all_ones_gives_dirichlet_kernel(self):
        out = naive_dft(np.ones(5), 257)
        f = np.fft.fftfreq(257)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = np.where(f == 0.0, 5.0, np.sin(5 * np.pi * f) / np.sin(np.pi * f))
        assert_allclose(out.real, expected, atol=1e-9)
        assert_allclose(out.imag, 0.0, atol=1e-9)

    def test_matches_fft_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.choice([1, 3, 5, 7]))
            n_fft = int(rng.choice([n, 33, 257]))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            half = n // 2
            padded = np.zeros(n_fft, dtype=complex)
            for i, m in enumerate(range(-half, half + 1)):
                padded[m % n_fft] = x[i]
            assert_allclose(naive_dft(x, n_fft), np.fft.fft(padded), atol=1e-10)

    def test_rejects_short_transform(self):
        with pytest.raises(ValueError):
            naive_dft(np.ones(5), 3)
