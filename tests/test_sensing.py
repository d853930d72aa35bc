import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arrayshadow import (
    ArraySpec,
    Scene,
    attenuation_spectrum_from_snapshots,
    boresight_steering,
    converged_field_ratio_vector,
    discretize_sheet,
    excess_attenuation_db,
    field_ratio_vector,
    mean_attenuation_from_snapshots,
    uniform_weights,
)
from arrayshadow.oracles import free_space_ratio_vector, naive_dft
from conftest import WAVELENGTH, make_paper_scene, make_paper_target, observed_spectrum


class TestSnapshot:
    """The empty snapshot, and the one-target solve the occupied snapshot scales it by."""

    def test_empty_noiseless_equals_boresight_response(self, paper_scene):
        empty = boresight_steering(paper_scene)
        assert isinstance(empty, np.ndarray)
        assert_allclose(empty, free_space_ratio_vector(paper_scene), rtol=1e-9)

    def test_occupied_central_component_is_field_ratio(self, paper_scene, converged_on_los):
        ratio = converged_on_los[0][2]
        occupied = boresight_steering(paper_scene)[2] * ratio
        assert occupied == pytest.approx(ratio, rel=1e-9)
        assert 13.0 <= -20 * np.log10(abs(occupied)) <= 17.0

    def test_one_checked_solve_and_its_report(self, paper_scene):
        target = make_paper_target(1.0, 0.4)
        ratios, report = converged_field_ratio_vector(paper_scene, target)
        across, up = report.orders
        assert report.nodes == across * up // 2 == len(discretize_sheet(target, paper_scene,
                                                                         report.orders).areas)
        assert report.change < 1e-9
        # a looser tolerance keeps the grid: the finer solve of the pair is returned
        assert np.array_equal(converged_field_ratio_vector(paper_scene, target, 1.0)[0], ratios)
        # orders are taken as given, and the solve is on their grid
        given, given_report = converged_field_ratio_vector(paper_scene, target, 1.0, (48, 96))
        grid = discretize_sheet(target, paper_scene, (48, 96))
        assert np.array_equal(given, field_ratio_vector(paper_scene, target, grid))
        assert given_report.orders == (48, 96)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        x=st.floats(0.3, 3.7),
        y=st.floats(-1.2, 1.2),
        theta=st.floats(-0.6, 0.6),
        half_count=st.integers(0, 4),
    )
    def test_mirrored_target_reverses_antenna_order(self, x, y, theta, half_count):
        scene = make_paper_scene(half_count)
        plus = converged_field_ratio_vector(scene, make_paper_target(x, y, theta))[0]
        minus = converged_field_ratio_vector(scene, make_paper_target(x, -y, -theta))[0]
        assert_allclose(minus, plus[::-1], rtol=1e-9)


class TestFieldAutocorrelation:
    def test_diagonal_entries_are_power_ratios(self, paper_scene):
        power = np.abs(converged_field_ratio_vector(paper_scene, make_paper_target())[0]) ** 2
        # on-LoS desk target: 13 to 17 dB of per-antenna attenuation
        assert np.all(power >= 10 ** (-1.7)) and np.all(power <= 10 ** (-1.3))


class TestMeanExcessAttenuation:
    def test_no_target_is_zero(self, paper_scene):
        r0 = boresight_steering(paper_scene)
        w = uniform_weights(2)
        assert mean_attenuation_from_snapshots(w, r0, r0) == pytest.approx(0.0, abs=1e-12)

    def test_single_antenna_reduces_to_per_antenna_value(self):
        scene = Scene(2.4868e9, ArraySpec(0, WAVELENGTH / 2, 4.0), link_height=0.9)
        ratios = converged_field_ratio_vector(scene, make_paper_target())[0]
        empty = boresight_steering(scene)
        got = mean_attenuation_from_snapshots(uniform_weights(0), empty, empty * ratios)
        assert got == pytest.approx(excess_attenuation_db(ratios[0]), rel=1e-12)

    def test_on_los_desk_value(self, paper_scene, converged_on_los):
        empty = boresight_steering(paper_scene)
        att = mean_attenuation_from_snapshots(uniform_weights(2), empty,
                                              empty * converged_on_los[0])
        assert att == pytest.approx(15.0, abs=2.0)

    def test_matches_noiseless_beamformed_power_ratio(self, paper_scene):
        target = make_paper_target(1.0, 0.25)
        w = uniform_weights(2)
        r0 = boresight_steering(paper_scene)
        r1 = r0 * converged_field_ratio_vector(paper_scene, target)[0]
        bridged = 10 * np.log10(abs(np.vdot(w, r0)) ** 2 / abs(np.vdot(w, r1)) ** 2)
        direct = mean_attenuation_from_snapshots(w, r0, r1)
        assert abs(direct - bridged) < 1e-10


class TestDoaSpectrum:
    def test_no_target_flat_zero(self, paper_scene):
        r0 = boresight_steering(paper_scene)
        spectrum = attenuation_spectrum_from_snapshots(r0, r0, WAVELENGTH / 2, WAVELENGTH)
        assert_allclose(spectrum.excess_attenuation_db, 0.0, atol=1e-10)

    def test_grid_monotone_inside_open_interval(self, paper_scene):
        spectrum = observed_spectrum(paper_scene, make_paper_target())
        g = spectrum.gamma_grid
        assert np.all(np.diff(g) > 0)
        assert g[0] > 0.0 and g[-1] < np.pi
        assert g.size == spectrum.excess_attenuation_db.size

    def test_scale_invariance(self, paper_scene, converged_on_los):
        r0 = boresight_steering(paper_scene)
        r1 = r0 * converged_on_los[0]
        base = attenuation_spectrum_from_snapshots(r0, r1, WAVELENGTH / 2, WAVELENGTH)
        c = 2.7 - 1.3j
        scaled = attenuation_spectrum_from_snapshots(c * r0, c * r1, WAVELENGTH / 2, WAVELENGTH)
        assert_allclose(scaled.excess_attenuation_db, base.excess_attenuation_db, atol=1e-10)

    @pytest.mark.parametrize("half_count", [0, 2, 8])
    @pytest.mark.parametrize("n_fft", [None, 256, 257, 1031], ids=["unpadded", "256", "257", "1031"])
    def test_matches_naive_dft_oracle(self, half_count, n_fft):
        n = 2 * half_count + 1
        n_fft = n_fft or n
        spacing = 0.7 * WAVELENGTH  # wide enough that bin -n_fft/2 of an even length is a DoA
        cosg = WAVELENGTH * np.fft.fftfreq(n_fft) / spacing
        valid = np.abs(cosg) < 1.0
        assert n_fft % 2 or valid[n_fft // 2]
        order = np.argsort(np.arccos(cosg[valid]))
        rng = np.random.default_rng(17)
        for _ in range(2):
            r0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            r1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = attenuation_spectrum_from_snapshots(r0, r1, spacing, WAVELENGTH, n_fft)
            y0 = naive_dft(r0, n_fft)
            y1 = naive_dft(r1, n_fft)
            expected = 20 * np.log10(np.abs(y0[valid]) / np.abs(y1[valid]))[order]
            assert_allclose(got.excess_attenuation_db, expected, atol=1e-10)

    def test_transient_memory_is_three_doubles_per_bin(self):
        # both transforms, complex, and then their magnitudes: 48 B per bin
        n_fft = 2**18
        r0, r1 = np.arange(1.0, 6.0) + 0.5j, np.arange(5.0, 0.0, -1.0) - 0.25j
        attenuation_spectrum_from_snapshots(r0, r1, WAVELENGTH / 2, WAVELENGTH, n_fft)  # warm
        tracemalloc.start()
        try:
            attenuation_spectrum_from_snapshots(r0, r1, WAVELENGTH / 2, WAVELENGTH, n_fft)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_fft < 64

    def test_mirror_symmetry_about_broadside(self, paper_scene):
        plus = observed_spectrum(paper_scene, make_paper_target(1.0, 0.25))
        minus = observed_spectrum(paper_scene, make_paper_target(1.0, -0.25))
        assert_allclose(plus.gamma_grid, np.pi - minus.gamma_grid[::-1], atol=1e-12)
        assert_allclose(
            plus.excess_attenuation_db, minus.excess_attenuation_db[::-1], atol=1e-6
        )

    def test_main_lobe_reading_near_reported_value(self, paper_scene):
        spectrum = observed_spectrum(paper_scene, make_paper_target())
        assert spectrum.main_lobe_attenuation() == pytest.approx(15.0, abs=2.0)
        assert spectrum.attenuation_at(np.pi / 2) == spectrum.main_lobe_attenuation()

    def test_n_fft_too_small(self, paper_scene):
        with pytest.raises(ValueError, match="n_fft"):
            observed_spectrum(paper_scene, make_paper_target(), n_fft=3)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            attenuation_spectrum_from_snapshots(np.ones(4), np.ones(4), 0.06, 0.12)
