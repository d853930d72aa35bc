"""Diffraction field ratios for an absorbing sheet shadowing a multi-antenna link.

The perturbed-over-reference field ratio at antenna m is

    E / E_ref = 1 - j (d_m / lambda) * sum over sheet cells of
                exp(-j 2 pi (r1 + r2 - d_m) / lambda) / (r1 r2) * dS,

with r1, r2 the cell distances to the transmitter and to antenna m. The
sheet absorbs everything that hits it and re-radiates nothing. All sums
run at double precision; the real and imaginary parts of the node
contributions are each accumulated with numpy's pairwise summation. Every
solver takes a sheet: an empty scene needs no solve, its ratio is exactly 1
at every antenna.
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


def _distances(points: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Distance of each row of ``points`` from ``origin``.

    One coordinate column at a time: numpy loops over an (N, 3) - (3,)
    difference, and a norm along its short axis, row by row, several times
    slower. The sum runs x, y, z in order, as ``np.linalg.norm`` sums them, in
    two buffers.
    """
    d = points[:, 0] - origin[0]
    d *= d
    t = points[:, 1] - origin[1]
    t *= t
    d += t
    np.subtract(points[:, 2], origin[2], out=t)
    t *= t
    d += t
    return np.sqrt(d, out=d)


def field_ratio_vector(
    scene: Scene,
    target: TargetSheet,
    grid: QuadratureGrid | None = None,
) -> np.ndarray:
    """Field ratios E/E_ref of ``target`` at every antenna, ordered m = -M .. +M.

    The grid defaults to ``discretize_sheet`` at its default step. The sheet
    discretization and the transmitter-side distances do not depend on the
    antenna, so they are computed once. Each antenna's node terms
    w cos(phase) and w sin(phase), with w = dS / (r1 r2) and
    exp(-j phase) = cos(phase) - j sin(phase), are computed block by block
    into two arrays and each is summed whole, so the result does not depend
    on the block size.
    """
    if grid is None:
        grid = discretize_sheet(target, scene)

    points, areas = grid.points, grid.areas
    blocks = [slice(start, start + _BLOCK_NODES) for start in range(0, len(areas), _BLOCK_NODES)]
    r1 = np.empty(len(areas))
    for b in blocks:
        r1[b] = _distances(points[b], scene.tx)
    if r1.min() < _MIN_CLEARANCE:
        raise ValueError("target intersects antenna")
    k = 2.0 * np.pi / scene.wavelength
    rx_all = antenna_positions(scene)
    dm_all = np.linalg.norm(rx_all - scene.tx, axis=1)

    out = np.empty(len(rx_all), dtype=complex)
    real, imag = np.empty(len(areas)), np.empty(len(areas))
    for i in range(len(rx_all)):
        for b in blocks:
            r2 = _distances(points[b], rx_all[i])
            if r2.min() < _MIN_CLEARANCE:
                raise ValueError("target intersects antenna")
            # in place, in the operation order of areas / (r1 r2) and k (r1 + r2 - d_m),
            # so the buffers change no bit
            w = r1[b] * r2
            np.divide(areas[b], w, out=w)
            phase = r2
            phase += r1[b]
            phase -= dm_all[i]
            phase *= k
            for part, fn in ((real[b], np.cos), (imag[b], np.sin)):
                fn(phase, out=part)
                part *= w
        # 1 - j c (S_cos - j S_sin) with c = d_m / lambda
        c = dm_all[i] / scene.wavelength
        out[i] = complex(1.0 - c * np.sum(imag), -c * np.sum(real))
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
    """Field ratios on the ``step`` grid, checked against a solve at twice the step.

    Solves on the ``discretize_sheet`` grids at ``2 * step`` and at ``step``
    wavelengths (about half and the full Gauss-Legendre order per axis), and
    halves the step until the worst per-antenna relative change between two
    successive solves is below ``rel_tol``. Returns the finer solve and that
    change: the coarser solve's error, a conservative estimate of the finer
    one's. When the first check passes, the ratios are exactly those of the
    fixed-step solve at ``step``. Raises ValueError for a step outside
    (0, MAX_STEP], and when the next grid would exceed
    ``geometry.MAX_GRID_NODES`` or ``geometry.MAX_ORDER``, giving the change
    reached (inf when only one grid was solved).
    """
    if not 0.0 < step <= MAX_STEP:  # NaN fails too
        raise ValueError(f"quadrature step must be in (0, {MAX_STEP}] wavelengths, got {step!r}")
    coarse = field_ratio_vector(scene, target, discretize_sheet(target, scene, 2.0 * step))
    change = np.inf
    while True:
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
        step /= 2.0
