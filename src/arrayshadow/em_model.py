"""Diffraction field ratios for an absorbing sheet shadowing a multi-antenna link.

The perturbed-over-reference field ratio at antenna m is

    E / E_ref = 1 - j (d_m / lambda) * sum over sheet cells of
                exp(-j 2 pi (r1 + r2 - d_m) / lambda) / (r1 r2) * dS,

with r1, r2 the cell distances to the transmitter and to antenna m. The
sheet absorbs everything that hits it and re-radiates nothing. All sums
run at double precision; node contributions are accumulated with numpy's
pairwise summation.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
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


def _check_index(scene: Scene, antenna_index: int) -> None:
    if abs(antenna_index) > scene.array.half_count:
        raise ValueError(
            f"antenna index {antenna_index} outside -M..M for M={scene.array.half_count}"
        )


def free_space_ratio(scene: Scene, antenna_index: int) -> complex:
    """Reference-field ratio of antenna m relative to the central antenna.

    Returns (d_0/d_m) * exp(-j 2 pi (d_m - d_0) / lambda); exactly 1 for m = 0.
    """
    _check_index(scene, antenna_index)
    return complex(free_space_ratio_vector(scene)[antenna_index + scene.array.half_count])


def free_space_ratio_vector(scene: Scene) -> np.ndarray:
    """free_space_ratio for every antenna, ordered m = -M .. +M."""
    d0 = scene.array.central_distance
    dm = np.hypot(d0, scene.array.indices * scene.array.spacing)
    k = 2.0 * np.pi / scene.wavelength
    return (d0 / dm) * np.exp(-1j * k * (dm - d0))


def field_ratio(
    scene: Scene,
    target: TargetSheet | None,
    antenna_index: int,
    grid: QuadratureGrid | None = None,
) -> complex:
    """Perturbed-over-reference field ratio E/E_ref at one antenna.

    Parameters
    ----------
    scene : Scene
        Link layout.
    target : TargetSheet or None
        Absorbing sheet; None means an empty scene and yields exactly 1.
    antenna_index : int
        Signed element index m.
    grid : QuadratureGrid, optional
        Discretization of the sheet; built at the default step when omitted.

    Returns
    -------
    complex
        Dimensionless field ratio.
    """
    _check_index(scene, antenna_index)
    ratios = field_ratio_vector(scene, target, grid)
    return complex(ratios[antenna_index + scene.array.half_count])


def field_ratio_vector(
    scene: Scene,
    target: TargetSheet | None,
    grid: QuadratureGrid | None = None,
) -> np.ndarray:
    """Field ratios for all antennas, reusing one grid across the array.

    The sheet discretization and the transmitter-side distances do not
    depend on the antenna, so they are computed once. Each antenna's node
    contributions are computed block by block into one array and summed
    whole, so the result does not depend on the block size.
    """
    n = scene.array.num_elements
    if target is None:
        return np.ones(n, dtype=complex)
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

    out = np.empty(n, dtype=complex)
    contributions = np.empty(len(areas), dtype=complex)
    for i in range(n):
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
    target: TargetSheet | None,
    rel_tol: float = 1e-4,
    initial_step: float | None = None,
) -> tuple[np.ndarray, float]:
    """Field ratios with step halving until the change drops below rel_tol.

    Starts from ``min(initial_step, lambda/10)`` (default lambda/10), the
    step ``discretize_sheet`` actually uses, and halves the grid step until
    the worst per-antenna relative change between successive grids is below
    ``rel_tol``. Returns the converged vector and the step that produced it.
    When the next grid would exceed ``geometry.MAX_GRID_NODES``, raises
    ValueError giving the change reached.
    """
    if target is None:
        return np.ones(scene.array.num_elements, dtype=complex), 0.0
    step = scene.wavelength / 10.0
    if initial_step is not None:
        step = min(initial_step, step)
    grid = discretize_sheet(target, scene, step)
    current = field_ratio_vector(scene, target, grid)
    change = np.inf  # no refinement compared yet
    while True:
        step /= 2.0
        try:
            grid = discretize_sheet(target, scene, step)
        except ValueError as e:
            raise ValueError(
                f"quadrature stopped at relative change {change:.3g} against "
                f"rel_tol {rel_tol:g}: {e}"
            ) from e
        refined = field_ratio_vector(scene, target, grid)
        change = np.max(np.abs(refined - current) / np.maximum(np.abs(refined), 1e-300))
        current = refined
        if change < rel_tol:
            return current, step
