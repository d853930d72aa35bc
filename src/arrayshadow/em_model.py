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

from typing import NamedTuple

import numpy as np

from .geometry import (
    QuadratureGrid,
    Scene,
    TargetSheet,
    antenna_positions,
    check_orders,
    discretize_sheet,
    sheet_orders,
)

_MIN_CLEARANCE = 1e-9  # m; below this a grid node sits on an antenna
# Antennas x nodes per block of temporaries, whose arrays (128 KB each) stay in
# cache. A desk solve's antennas and nodes fit in one block, so the per-call cost
# of numpy is paid once per solve; a grid of more nodes is summed one antenna at a
# time, in blocks of this many nodes.
_BLOCK_NODE_ANTENNAS = 16384
# The relative change between a solve and its check at which
# converged_field_ratio_vector stops doubling.
DEFAULT_REL_TOL = 1e-9


class QuadratureReport(NamedTuple):
    """What a checked solve did: its grid and its check."""

    orders: tuple[int, int]  # (across, up) of the returned solve
    nodes: int               # folded nodes of the returned solve
    change: float            # worst relative change against the check, 4 lower per axis


def _distances(points: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """Distance of each row of ``points`` from each row of ``origins``, shape (origins, points).

    One coordinate column at a time: numpy loops over an (N, 3) - (3,)
    difference, and a norm along its short axis, row by row, several times
    slower. The sum runs x, y, z in order, as ``np.linalg.norm`` sums them, in
    two buffers.
    """
    d = points[:, 0] - origins[:, 0, None]
    d *= d
    t = points[:, 1] - origins[:, 1, None]
    t *= t
    d += t
    np.subtract(points[:, 2], origins[:, 2, None], out=t)
    t *= t
    d += t
    return np.sqrt(d, out=d)


def field_ratio_vector(
    scene: Scene,
    target: TargetSheet,
    grid: QuadratureGrid | None = None,
) -> np.ndarray:
    """Field ratios E/E_ref of ``target`` at every antenna, ordered m = -M .. +M.

    Without a grid, the ratios are those of the checked solve,
    ``converged_field_ratio_vector`` at its defaults: the start orders alone
    can be far off near a link end. The transmitter-side distances do not
    depend on the antenna, so they are computed once. The node terms
    w cos(phase) and w sin(phase), with w = dS / (r1 r2) and
    exp(-j phase) = cos(phase) - j sin(phase), are computed for a group of
    antennas at a time, block by block, into two (antennas, nodes) arrays,
    and each antenna's row is summed whole, so the result does not depend
    on the grouping or the block size. A group holds as many antennas as
    keep antennas x nodes within ``_BLOCK_NODE_ANTENNAS``, at least one.
    """
    if grid is None:
        return converged_field_ratio_vector(scene, target)[0]

    points, areas = grid.points, grid.areas
    n = len(areas)
    k = 2.0 * np.pi / scene.wavelength
    rx_all = antenna_positions(scene)
    dm_all = np.linalg.norm(rx_all - scene.tx, axis=1)
    group = min(len(rx_all), max(1, _BLOCK_NODE_ANTENNAS // n))
    block = max(1, _BLOCK_NODE_ANTENNAS // group)
    blocks = [slice(start, start + block) for start in range(0, n, block)]
    r1 = np.empty(n)
    for b in blocks:
        r1[b] = _distances(points[b], scene.tx[None])[0]
    if r1.min() < _MIN_CLEARANCE:
        raise ValueError("target intersects antenna")

    out = np.empty(len(rx_all), dtype=complex)
    real, imag = np.empty((group, n)), np.empty((group, n))
    for first in range(0, len(rx_all), group):
        rx, dm = rx_all[first:first + group], dm_all[first:first + group, None]
        rows = slice(0, len(rx))
        for b in blocks:
            r2 = _distances(points[b], rx)
            if r2.min() < _MIN_CLEARANCE:
                raise ValueError("target intersects antenna")
            # in place, in the operation order of areas / (r1 r2) and k (r1 + r2 - d_m),
            # so the buffers change no bit
            w = r1[b] * r2
            np.divide(areas[b], w, out=w)
            phase = r2
            phase += r1[b]
            phase -= dm
            phase *= k
            for part, fn in ((real[rows, b], np.cos), (imag[rows, b], np.sin)):
                fn(phase, out=part)
                part *= w
        # 1 - j c (S_cos - j S_sin) with c = d_m / lambda
        c = dm[:, 0] / scene.wavelength
        out.real[first:first + len(rx)] = 1.0 - c * np.sum(imag[rows], axis=1)
        out.imag[first:first + len(rx)] = -c * np.sum(real[rows], axis=1)
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
    rel_tol: float = DEFAULT_REL_TOL,
    orders=None,
) -> tuple[np.ndarray, QuadratureReport]:
    """Field ratios from one checked solve: the start orders, doubled until they hold.

    Solves on the ``discretize_sheet`` grid at ``orders`` (across, up; by
    default the sheet's ``sheet_orders``) and checks it against a solve at
    4 fewer nodes per axis. While the worst per-antenna relative change
    between the two is at least ``rel_tol``, both axis orders double and
    the pair is solved again. Returns the finer solve of the last pair, so
    a looser ``rel_tol`` never returns a coarser grid, and its report. The
    change is the check's error, a conservative estimate of the returned
    solve's. Raises ValueError when either order is 4 or less, and when
    the next grid would exceed ``geometry.MAX_GRID_NODES`` or
    ``geometry.MAX_ORDER``, giving the change reached (inf before the first
    pair).
    """
    if orders is None:
        orders = sheet_orders(scene, [target])[0]
    ny, nz = (int(n) for n in orders)
    if min(ny, nz) <= 4:
        raise ValueError(f"quadrature orders must exceed 4, got {ny} x {nz}")
    change = np.inf
    while True:
        try:
            check_orders(ny, nz)  # the larger grid of the pair
        except ValueError as e:
            raise ValueError(
                f"quadrature stopped at relative change {change:.3g} against "
                f"rel_tol {rel_tol:g}: {e}"
            ) from e
        # the check first: its grid is freed before the larger one is built
        check = field_ratio_vector(scene, target, discretize_sheet(target, scene, (ny - 4, nz - 4)))
        grid = discretize_sheet(target, scene, (ny, nz))
        fine = field_ratio_vector(scene, target, grid)
        change = float(np.max(np.abs(fine - check) / np.maximum(np.abs(fine), 1e-300)))
        if change < rel_tol:
            return fine, QuadratureReport((ny, nz), len(grid.areas), change)
        ny, nz = 2 * ny, 2 * nz
