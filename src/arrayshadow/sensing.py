"""Received-signal model, beamformed attenuation and DoA spectra.

The reference field at the central antenna is normalized to 1: every
quantity exposed here is a ratio in which the absolute transmit level
cancels. Occupancy 0 denotes the empty scene, 1 a scene with the target
present. Noise is optional and off by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import nearfield_steering
from .em_model import field_ratio_vector
from .geometry import QuadratureGrid, Scene, TargetSheet


@dataclass(frozen=True)
class DoaSpectrum:
    """Excess attenuation sampled against direction of arrival.

    ``gamma_grid`` is strictly increasing inside (0, pi); entries pair
    with ``excess_attenuation_db``.
    """

    gamma_grid: np.ndarray
    excess_attenuation_db: np.ndarray

    def attenuation_at(self, gamma: float) -> float:
        """Attenuation at the grid point nearest to ``gamma`` (rad)."""
        i = int(np.argmin(np.abs(self.gamma_grid - gamma)))
        return float(self.excess_attenuation_db[i])

    def main_lobe_attenuation(self) -> float:
        """Attenuation read at broadside, where the empty-scene response peaks."""
        return self.attenuation_at(np.pi / 2.0)


def boresight_steering(scene: Scene) -> np.ndarray:
    """Near-field steering vector at broadside; the empty-scene array response."""
    return nearfield_steering(
        scene.array.half_count,
        scene.array.spacing,
        scene.array.central_distance,
        scene.wavelength,
        np.pi / 2.0,
    )


def snapshot(
    scene: Scene,
    target: TargetSheet | None = None,
    occupancy: int = 0,
    noise_std: float = 0.0,
    seed: int | None = None,
    grid: QuadratureGrid | None = None,
) -> np.ndarray:
    """Received-field vector for the empty (0) or occupied (1) scene.

    With occupancy 1 the per-antenna field ratios multiply the broadside
    steering elements. Noise, when enabled, is circularly-symmetric complex
    Gaussian with per-component variance noise_std**2, drawn from ``seed``.
    """
    if occupancy not in (0, 1):
        raise ValueError("occupancy must be 0 or 1")
    if noise_std < 0.0:
        raise ValueError("noise_std must be non-negative")
    a = boresight_steering(scene)
    if occupancy == 1:
        if target is None:
            raise ValueError("occupancy 1 requires a target sheet")
        r = a * field_ratio_vector(scene, target, grid)
    else:
        r = a.copy()
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        n = scene.array.num_elements
        noise = (noise_std / np.sqrt(2.0)) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        r = r + noise
    return r


def field_autocorrelation(ratios: np.ndarray) -> np.ndarray:
    """Outer product R = E_r E_r^H of the per-antenna field ratios.

    Hermitian and rank one by construction; diagonal entries are the
    per-antenna power ratios |E/E_ref|^2.
    """
    ratios = np.asarray(ratios, dtype=complex)
    return np.outer(ratios, ratios.conj())


def mean_excess_attenuation(
    weights: np.ndarray,
    scene: Scene,
    target: TargetSheet | None,
    grid: QuadratureGrid | None = None,
) -> float:
    """Beamformed empty-over-occupied power ratio in dB, noise excluded.

    Ratio of |w^H a|^2 to |w^H diag(a) E_r|^2 with a the broadside
    steering vector; +inf when the beamformed occupied field vanishes.
    """
    a = boresight_steering(scene)
    return mean_attenuation_from_snapshots(
        weights, a, a * field_ratio_vector(scene, target, grid)
    )


def mean_attenuation_from_snapshots(
    weights: np.ndarray, r_empty: np.ndarray, r_occupied: np.ndarray
) -> float:
    """Beamformed empty-over-occupied power ratio |w^H r_0|^2 / |w^H r_1|^2 in dB.

    +inf when the beamformed occupied field vanishes.
    """
    num = abs(np.vdot(weights, r_empty)) ** 2
    den = abs(np.vdot(weights, r_occupied)) ** 2
    if den == 0.0:
        return float("inf")
    return float(10.0 * np.log10(num / den))


def attenuation_spectrum_from_snapshots(
    r_empty: np.ndarray,
    r_occupied: np.ndarray,
    spacing: float,
    wavelength: float,
    n_fft: int = 257,
) -> DoaSpectrum:
    """Excess attenuation against DoA from a pair of received vectors.

    Both vectors are placed at centered DFT positions m = -M .. +M,
    zero-padded to ``n_fft`` and transformed; bins whose spatial frequency
    maps inside cos(gamma) in (-1, 1) become the gamma grid via
    gamma = arccos(lambda f / d_a). The curve is 20 log10 of the
    empty-over-occupied magnitude ratio per bin, so any common scale on
    the two vectors cancels.
    """
    r_empty = np.asarray(r_empty, dtype=complex)
    r_occupied = np.asarray(r_occupied, dtype=complex)
    if r_empty.shape != r_occupied.shape:
        raise ValueError("snapshot vectors must have equal length")
    n = r_empty.size
    if n % 2 != 1:
        raise ValueError("expected an odd number of antennas (2M+1)")
    if n_fft < n:
        raise ValueError(f"n_fft {n_fft} smaller than the array size {n}")
    half = n // 2

    padded0 = np.zeros(n_fft, dtype=complex)
    padded1 = np.zeros(n_fft, dtype=complex)
    for i, m in enumerate(range(-half, half + 1)):
        padded0[m % n_fft] = r_empty[i]
        padded1[m % n_fft] = r_occupied[i]
    spec0 = np.fft.fft(padded0)
    spec1 = np.fft.fft(padded1)

    cos_gamma = wavelength * np.fft.fftfreq(n_fft) / spacing
    valid = np.abs(cos_gamma) < 1.0
    gamma = np.arccos(cos_gamma[valid])
    with np.errstate(divide="ignore"):
        attenuation = 20.0 * np.log10(np.abs(spec0[valid]) / np.abs(spec1[valid]))

    order = np.argsort(gamma)
    return DoaSpectrum(gamma_grid=gamma[order], excess_attenuation_db=attenuation[order])


def doa_attenuation_spectrum(
    scene: Scene,
    target: TargetSheet | None,
    n_fft: int = 257,
    grid: QuadratureGrid | None = None,
) -> DoaSpectrum:
    """DoA excess-attenuation spectrum from noiseless snapshot pairs."""
    r0 = snapshot(scene, occupancy=0)
    if target is None:
        r1 = r0
    else:
        r1 = snapshot(scene, target, occupancy=1, grid=grid)
    return attenuation_spectrum_from_snapshots(
        r0, r1, scene.array.spacing, scene.wavelength, n_fft
    )


def fresnel_first_zone_minor_axis(scene: Scene) -> float:
    """Minor axis sqrt(lambda d_0) of the first Fresnel ellipsoid, m."""
    return float(np.sqrt(scene.wavelength * scene.array.central_distance))
