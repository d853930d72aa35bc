"""Received-signal model, beamformed attenuation and DoA spectra.

The reference field at the central antenna is normalized to 1: every
quantity exposed here is a ratio in which the absolute transmit level
cancels. ``observe_all`` makes one checked sheet solve per target, all
targets together, and returns the empty and occupied snapshots every other
quantity is derived from, with each solve's quadrature report; ``observe``
is its one-target case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .array_model import nearfield_steering
from .em_model import DEFAULT_REL_TOL, QuadratureReport, converged_field_ratio_vectors
from .geometry import Scene, TargetSheet


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


class Observation(NamedTuple):
    """One checked solve of the sheet: field ratios, the two received vectors, the report."""

    ratios: np.ndarray    # E/E_ref per antenna, m = -M .. +M
    empty: np.ndarray     # broadside near-field response, the empty scene
    occupied: np.ndarray  # empty * ratios, the scene with the target present
    quadrature: QuadratureReport  # the solve's orders, nodes and check; never exported


def observe(
    scene: Scene,
    target: TargetSheet,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    orders=None,
) -> Observation:
    """Solve the sheet integral once and form the empty and occupied snapshots.

    One checked solve: ``observe_all`` for one target.
    """
    return observe_all(
        scene, [target], rel_tol=rel_tol, orders=None if orders is None else [orders]
    )[0]


def observe_all(
    scene: Scene,
    targets,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    orders=None,
) -> list[Observation]:
    """One observation per target, from one checked solve each, all solved together.

    Each target's checked solve (``converged_field_ratio_vectors``) starts
    at its row of ``orders``, by default ``geometry.sheet_orders`` at
    density 1, and doubles until the solve and its check at 4 fewer nodes
    per axis agree to ``rel_tol``. The empty snapshot is computed once and
    shared. Noiseless. Raises ``em_model.SolveError`` naming the first
    failing target.
    """
    ratios, reports = converged_field_ratio_vectors(scene, targets, rel_tol, orders)
    empty = boresight_steering(scene)
    return [Observation(r, empty, o, q) for r, o, q in zip(ratios, empty * ratios, reports)]


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

    The empty vector and every occupied one are zero-padded to ``n_fft``
    and transformed in one call; each row of the result holds, at the bins
    that map to a direction of arrival (``doa_grid``, by ascending gamma),
    20 log10 of the empty-over-occupied magnitude ratio. So a common scale
    on the two vectors cancels, as does the samples' place in the padded
    input, which moves only phases. Each transform, and so each row, is
    that of its own vector alone.
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
    magnitudes = np.abs(np.fft.fft(np.vstack([r_empty, r_occupied]), n_fft))

    bins = doa_grid(spacing, wavelength, n_fft)[0]
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(magnitudes[:1, bins] / magnitudes[1:, bins])


# Every position of a run asks for the run's one grid; a few entries cover a few runs.
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
