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
    depend on the antenna, so they are computed once.
    """
    n = scene.array.num_elements
    if target is None:
        return np.ones(n, dtype=complex)
    if grid is None:
        grid = discretize_sheet(target, scene)

    r1 = np.linalg.norm(grid.points - scene.tx, axis=1)
    if r1.min() < _MIN_CLEARANCE:
        raise ValueError("target intersects antenna")
    k = 2.0 * np.pi / scene.wavelength
    rx_all = antenna_positions(scene)
    dm_all = np.linalg.norm(rx_all - scene.tx, axis=1)

    out = np.empty(n, dtype=complex)
    for i in range(n):
        r2 = np.linalg.norm(grid.points - rx_all[i], axis=1)
        if r2.min() < _MIN_CLEARANCE:
            raise ValueError("target intersects antenna")
        contributions = np.exp(-1j * k * (r1 + r2 - dm_all[i])) / (r1 * r2) * grid.areas
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
    max_refinements: int = 8,
) -> tuple[np.ndarray, float]:
    """Field ratios with step halving until the change drops below rel_tol.

    Starts from ``min(initial_step, lambda/10)`` (default lambda/10), the
    step ``discretize_sheet`` actually uses, and halves the grid step until
    the worst per-antenna relative change between successive grids is below
    ``rel_tol``. Returns the converged vector and the step that produced it.
    """
    if target is None:
        return np.ones(scene.array.num_elements, dtype=complex), 0.0
    step = scene.wavelength / 10.0
    if initial_step is not None:
        step = min(initial_step, step)
    grid = discretize_sheet(target, scene, step)
    current = field_ratio_vector(scene, target, grid)
    for _ in range(max_refinements):
        step /= 2.0
        grid = discretize_sheet(target, scene, step)
        refined = field_ratio_vector(scene, target, grid)
        change = np.max(np.abs(refined - current) / np.maximum(np.abs(refined), 1e-300))
        current = refined
        if change < rel_tol:
            return current, step
    raise RuntimeError(
        f"quadrature did not converge to {rel_tol:g} within {max_refinements} refinements"
    )
