"""Received-signal model, beamformed attenuation and DoA spectra.

The reference field at the central antenna is normalized to 1: every
quantity exposed here is a ratio in which the absolute transmit level
cancels. Each quantity is read from two snapshots: the empty scene's, the
broadside steering vector (``boresight_steering``), and the occupied
scene's, that vector times the field ratios an ``em_model`` solve
returns. This module solves no sheet: ``runner`` passes it one empty
vector and one array of occupied ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .array_model import nearfield_steering
from .geometry import Scene

# Rows x n_fft per FFT call of attenuation_spectra: a call's transients stay under
# about 0.8 MB while n_fft <= 8,192, above which a call takes one occupied row.
_FFT_BLOCK_VALUES = 16384


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

    ``attenuation_spectra`` for one occupied vector; the bins that map to a
    direction of arrival (``doa_grid``) give the gamma grid.
    """
    attenuation = attenuation_spectra(
        r_empty, np.asarray(r_occupied)[None], spacing, wavelength, n_fft
    )[0]
    return DoaSpectrum(gamma_grid=doa_grid(spacing, wavelength, n_fft)[1],
                       excess_attenuation_db=attenuation)


def attenuation_spectra(
    r_empty: np.ndarray,
    r_occupied: np.ndarray,
    spacing: float,
    wavelength: float,
    n_fft: int = 257,
) -> np.ndarray:
    """Excess attenuation against DoA of each row of ``r_occupied``, one row each.

    The empty vector and the occupied ones are zero-padded to ``n_fft`` and
    transformed together, as many occupied rows per call as keep rows x
    ``n_fft`` within ``_FFT_BLOCK_VALUES``, at least one; each row of
    the result holds, at the bins that map to a direction of arrival
    (``doa_grid``, by ascending gamma), 20 log10 of the empty-over-occupied
    magnitude ratio. So a common scale on the two vectors cancels, as does
    the samples' place in the padded input, which moves only phases. Each
    transform, and so each row, is that of its own vector alone.
    """
    r_empty = np.asarray(r_empty, dtype=complex)
    r_occupied = np.asarray(r_occupied, dtype=complex)
    if r_empty.ndim != 1 or r_occupied.shape[1:] != r_empty.shape:
        raise ValueError("snapshot vectors must have equal length")
    n = r_empty.size
    if n % 2 != 1:
        raise ValueError("expected an odd number of antennas (2M+1)")
    if n_fft < n:
        raise ValueError(f"n_fft {n_fft} smaller than the array size {n}")
    bins = doa_grid(spacing, wavelength, n_fft)[0]
    out = np.empty((len(r_occupied), len(bins)))
    rows = max(1, _FFT_BLOCK_VALUES // n_fft)
    for first in range(0, len(r_occupied), rows):
        magnitudes = np.abs(np.fft.fft(np.vstack([r_empty, r_occupied[first:first + rows]]), n_fft))
        with np.errstate(divide="ignore"):
            out[first:first + rows] = 20.0 * np.log10(magnitudes[:1, bins] / magnitudes[1:, bins])
    return out


# A run, as a single spectrum, asks twice for its one grid: for its gammas and for its
# bins. A few entries cover a few runs.
@functools.lru_cache(maxsize=4)
def doa_grid(spacing: float, wavelength: float, n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    """The DFT bins that map to a direction of arrival, and their gammas, by ascending gamma.

    Bin f maps to gamma = arccos(lambda f / d_a) when that cosine lies in (-1, 1).
    Both arrays are read-only: they are shared through the cache.
    """
    cos_gamma = wavelength * np.fft.fftfreq(n_fft) / spacing
    bins = np.flatnonzero(np.abs(cos_gamma) < 1.0)
    gamma = np.arccos(cos_gamma[bins])
    order = np.argsort(gamma)
    bins, gamma = bins[order], gamma[order]
    for a in (bins, gamma):
        a.flags.writeable = False
    return bins, gamma
