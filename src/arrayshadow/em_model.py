"""Diffraction field ratios for an absorbing sheet shadowing a multi-antenna link.

The perturbed-over-reference field ratio at antenna m is

    E / E_ref = 1 - j (d_m / lambda) * sum over sheet cells of
                exp(-j 2 pi (r1 + r2 - d_m) / lambda) / (r1 r2) * dS,

with r1, r2 the cell distances to the transmitter and to antenna m. The
sheet absorbs everything that hits it and re-radiates nothing. All sums
run at double precision; node contributions are accumulated with numpy's
pairwise summation. Every solver takes a sheet: an empty scene needs no
solve, its ratio is exactly 1 at every antenna.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    MAX_STEP,
    QuadratureGrid,
    Scene,
    TargetSheet,
    antenna_positions,
    discretize_sheet,
)

_MIN_CLEARANCE = 1e-9  # m; below this a grid node sits on an antenna
# Nodes per block of temporaries: a block's arrays stay in cache and below
# malloc's mmap threshold, so large grids cost the same from run to run.
_BLOCK_NODES = 4096


def field_ratio_vector(
    scene: Scene,
    target: TargetSheet,
    grid: QuadratureGrid | None = None,
) -> np.ndarray:
    """Field ratios E/E_ref of ``target`` at every antenna, ordered m = -M .. +M.

    The grid defaults to ``discretize_sheet`` at its default step. The sheet
    discretization and the transmitter-side distances do not depend on the
    antenna, so they are computed once. Each antenna's node contributions
    are computed block by block into one array and summed whole, so the
    result does not depend on the block size.
    """
    if grid is None:
        grid = discretize_sheet(target, scene)

    points, areas = grid.points, grid.areas
    blocks = [slice(start, start + _BLOCK_NODES) for start in range(0, len(areas), _BLOCK_NODES)]
    r1 = np.empty(len(areas))
    for b in blocks:
        r1[b] = np.linalg.norm(points[b] - scene.tx, axis=1)
    if r1.min() < _MIN_CLEARANCE:
        raise ValueError("target intersects antenna")
    k = 2.0 * np.pi / scene.wavelength
    rx_all = antenna_positions(scene)
    dm_all = np.linalg.norm(rx_all - scene.tx, axis=1)

    out = np.empty(len(rx_all), dtype=complex)
    contributions = np.empty(len(areas), dtype=complex)
    for i in range(len(rx_all)):
        for b in blocks:
            r2 = np.linalg.norm(points[b] - rx_all[i], axis=1)
            if r2.min() < _MIN_CLEARANCE:
                raise ValueError("target intersects antenna")
            contributions[b] = np.exp(-1j * k * (r1[b] + r2 - dm_all[i])) / (r1[b] * r2) * areas[b]
        out[i] = 1.0 - 1j * (dm_all[i] / scene.wavelength) * np.sum(contributions)
    return out


def excess_attenuation_db(ratio) -> float | np.ndarray:
    """Convert field ratios to excess attenuation, -20 log10 |ratio| in dB."""
    mag = np.abs(ratio)
    with np.errstate(divide="ignore"):
        out = -20.0 * np.log10(mag)
    if np.isscalar(ratio) or np.ndim(ratio) == 0:
        return float(out)
    return out


def converged_field_ratio_vector(
    scene: Scene,
    target: TargetSheet,
    rel_tol: float = 1e-4,
    step: float = MAX_STEP,
) -> tuple[np.ndarray, float]:
    """Field ratios by halving the quadrature step until two solves agree to rel_tol.

    Solves on the ``discretize_sheet`` grid at ``step`` wavelengths, then
    halves the step until the worst per-antenna relative change between two
    successive solves is below ``rel_tol``; returns the finer solve and that
    change, its error estimate. When the next grid would exceed
    ``geometry.MAX_GRID_NODES``, raises ValueError giving the change reached
    (inf when only one grid was solved).
    """
    coarse = field_ratio_vector(scene, target, discretize_sheet(target, scene, step))
    change = np.inf
    while True:
        step /= 2.0
        try:
            grid = discretize_sheet(target, scene, step)
        except ValueError as e:
            raise ValueError(
                f"quadrature stopped at relative change {change:.3g} against "
                f"rel_tol {rel_tol:g}: {e}"
            ) from e
        fine = field_ratio_vector(scene, target, grid)
        change = float(np.max(np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-300)))
        if change < rel_tol:
            return fine, change
        coarse = fine
