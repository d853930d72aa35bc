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

The kernel takes each path difference in turns, reduced to [-1/2, 1/2],
and the cosine and sine of its phase from one tangent of the half angle,
tan(pi t), by numpy's own vectorised loop: numpy's float64 cos and sin
call the platform's scalar libm, some ten times slower per element. The
exported bits thus depend on numpy's tan loop as they already depend on its
pairwise sum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import (
    QuadratureGrid,
    Scene,
    TargetSheet,
    antenna_positions,
    check_orders,
    discretize_sheets,
    folded_nodes,
    pair_rows,
    sheet_orders,
    sheet_span_error,
)

_MIN_CLEARANCE = 1e-9  # m; below this a grid node sits on an antenna
# Antennas x nodes per block of temporaries: the r2 and w buffers (128 KB each at
# most, as wide as the grids when they are narrower) stay in cache with the x and z
# rows that every antenna shares. A run's grids are summed in chunks of as many
# whole grids as fit in one block with all antennas (one or two desk grids at
# M = 8, a dozen at M = 2), so the per-call cost of numpy is paid once per chunk;
# a grid of more nodes is summed alone, a group of antennas at a time, in blocks
# of this many antennas x nodes.
_BLOCK_NODE_ANTENNAS = 16384
# The relative change between a solve and its check at which
# converged_field_ratio_vector stops doubling.
DEFAULT_REL_TOL = 1e-9


class QuadratureReport(NamedTuple):
    """What a checked solve did: its grid and its check."""

    orders: tuple[int, int]  # (across, up) of the returned solve
    nodes: int               # folded nodes of the returned solve
    change: float            # worst relative change against the check, 4 lower per axis


class SolveError(ValueError):
    """A solve of a batch that failed; ``index`` is its centre's place in the batch."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class _Link(NamedTuple):
    """What every solve in one scene shares: the transmitter, the antennas, d_m and lambda."""

    tx: np.ndarray
    rx: np.ndarray          # antenna positions, m = -M .. +M
    dm: np.ndarray          # LoS length to each antenna
    wavelength: float

    @classmethod
    def of(cls, scene: Scene) -> _Link:
        rx = antenna_positions(scene)
        return cls(scene.tx, rx, np.linalg.norm(rx - scene.tx, axis=1), scene.wavelength)


def _squares(coordinate: np.ndarray, origin: float, out: np.ndarray) -> np.ndarray:
    """(coordinate - origin)^2 into ``out``."""
    np.subtract(coordinate, origin, out=out)
    return np.multiply(out, out, out=out)


def _field_ratios(link: _Link, grid: QuadratureGrid, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Field ratios of the grids stored end to end in ``grid``, ``sizes`` nodes each.

    Returns one row of ratios per grid, and a flag per grid set when one of
    its nodes lies within ``_MIN_CLEARANCE`` of the transmitter or an
    antenna; such a grid's row is meaningless. The transmitter-side
    distances do not depend on the antenna, so they are computed once. The
    node terms w cos(phase) and w sin(phase), with w = dS / (r1 r2) and
    exp(-j phase) = cos(phase) - j sin(phase), are computed for a group of
    antennas at a time, block by block, into two (antennas, nodes) arrays,
    and each grid's row of each antenna is summed whole, so no bit depends on
    the grouping, the block size or the other grids. A group holds as many
    antennas as keep antennas x nodes within ``_BLOCK_NODE_ANTENNAS``, at
    least one.

    Every antenna sits at x = d0 and at the transmitter's height, so a
    block's (x - d0)^2 and (z - h)^2 are one row each and only (y - y_m)^2
    is per antenna; r2 sums them x, y, z, in ``np.linalg.norm``'s order. The
    path difference is taken in turns, t = (r1 + r2 - d_m) / lambda, less
    rint(t), so t lies in [-1/2, 1/2] and phase / 2 = pi t. With
    tau = tan(pi t),

        cos(phase) = (1 - tau^2) / (1 + tau^2),   sin(phase) = 2 tau / (1 + tau^2),

    and no sign table is needed. At t = +-1/2, tau is about 1.6e16, so every
    term stays finite. numpy's float64 tan is its own SIMD loop: its bits
    depend on no offset, stride or length of the array, and differ from
    glibc's tan by 1 ulp on about 0.5 % of arguments. Every temporary is a
    buffer made once per call, at most one block wide and no wider than the
    grids.
    """
    points, areas = grid.points, grid.areas
    n = len(areas)
    group = min(len(link.rx), max(1, _BLOCK_NODE_ANTENNAS // n))
    block = max(1, _BLOCK_NODE_ANTENNAS // group)
    blocks = [slice(start, min(start + block, n)) for start in range(0, n, block)]
    ends = np.cumsum(sizes)
    grids = [slice(end - size, end) for end, size in zip(ends.tolist(), sizes)]
    close = np.zeros(len(grids), dtype=bool)

    def clear(dist: np.ndarray, first_node: int) -> None:
        """Flag the grids of nodes too close in ``dist``, and move those nodes away."""
        if dist.min() < _MIN_CLEARANCE:
            near = dist < _MIN_CLEARANCE
            nodes = first_node + np.flatnonzero(near.reshape(-1, dist.shape[-1]).any(axis=0))
            close[np.searchsorted(ends, nodes, side="right")] = True
            dist[near] = 1.0  # a flagged grid's terms are never read; this keeps them finite

    width = min(block, n)
    dx2, dz2 = np.empty(width), np.empty(width)  # a block's (x - x0)^2 and (z - z0)^2
    r2, w = np.empty((group, width)), np.empty((group, width))

    r1 = np.empty(n)
    for b in blocks:
        span = slice(0, b.stop - b.start)
        dist = _squares(points[b, 0], link.tx[0], r1[b])
        dist += _squares(points[b, 1], link.tx[1], dx2[span])  # dx2 as scratch
        dist += _squares(points[b, 2], link.tx[2], dz2[span])
        np.sqrt(dist, out=dist)
    clear(r1, 0)

    sums = np.empty((2, len(grids), len(link.rx)))  # of the w sin and the w cos terms
    real, imag = np.empty((group, n)), np.empty((group, n))
    x0, _, z0 = link.rx[0]  # every antenna's x and z
    for first in range(0, len(link.rx), group):
        y, dm = link.rx[first:first + group, 1, None], link.dm[first:first + group, None]
        rows, antennas = slice(0, len(y)), slice(first, first + len(y))
        for b in blocks:
            span = slice(0, b.stop - b.start)
            re, im, dist, wb = real[rows, b], imag[rows, b], r2[rows, span], w[rows, span]
            _squares(points[b, 0], x0, dx2[span])
            _squares(points[b, 2], z0, dz2[span])
            # y - y_m: numpy buffers each broadcast operand, so the y row is copied first
            dist[...] = points[b, 1]
            dist -= y
            dist *= dist
            dist += dx2[span]  # in the order x, y, z
            dist += dz2[span]
            np.sqrt(dist, out=dist)
            clear(dist, b.start)
            # in place, in the operation order of areas / (r1 r2)
            np.multiply(r1[b], dist, out=wb)
            np.divide(areas[b], wb, out=wb)
            turns = dist  # (r1 + r2 - d_m) / lambda, reduced to [-1/2, 1/2]
            turns += r1[b]
            turns -= dm
            turns /= link.wavelength
            turns -= np.rint(turns, out=re)
            turns *= np.pi
            tau = np.tan(turns, out=turns)  # tan(phase / 2)
            np.multiply(tau, tau, out=im)
            wb /= np.add(im, 1.0, out=re)  # w / (1 + tau^2)
            np.subtract(1.0, im, out=re)
            re *= wb  # w cos(phase)
            np.add(tau, tau, out=im)
            im *= wb  # w sin(phase)
        for g, nodes in enumerate(grids):
            sums[0, g, antennas] = np.sum(imag[rows, nodes], axis=1)
            sums[1, g, antennas] = np.sum(real[rows, nodes], axis=1)
    # 1 - j c (S_cos - j S_sin) with c = d_m / lambda
    c = link.dm / link.wavelength
    out = np.empty((len(grids), len(link.rx)), dtype=complex)
    out.real = 1.0 - c * sums[0]
    out.imag = -c * sums[1]
    return out, close


def field_ratio_vector(scene: Scene, target: TargetSheet, grid: QuadratureGrid) -> np.ndarray:
    """Field ratios E/E_ref of ``target`` at every antenna from ``grid``'s sum, m = -M .. +M.

    One sum, unchecked: the checked solve is ``converged_field_ratio_vector``.
    Raises ValueError when a node lies on the transmitter or an antenna.
    """
    ratios, close = _field_ratios(_Link.of(scene), grid, [len(grid.areas)])
    if close[0]:
        raise ValueError("target intersects antenna")
    return ratios[0]


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
    """Field ratios of ``target`` from one checked solve, and its report.

    ``converged_field_ratio_vectors`` of ``target`` at its barycenter.
    """
    ratios, reports = converged_field_ratio_vectors(
        scene, target, [target.barycenter], rel_tol, None if orders is None else [orders]
    )
    return ratios[0], reports[0]


def _chunks(tasks, antennas: int):
    """Runs of consecutive ``(orders, ...)`` tasks whose grids are summed together.

    A run holds as many grids as fit in ``_BLOCK_NODE_ANTENNAS`` antennas x
    nodes together; a larger grid is a run of its own.
    """
    chunk, nodes = [], 0
    for task in tasks:
        size = folded_nodes(*task[0])
        if chunk and (nodes + size) * antennas > _BLOCK_NODE_ANTENNAS:
            yield chunk
            chunk, nodes = [], 0
        chunk.append(task)
        nodes += size
    if chunk:
        yield chunk


def converged_field_ratio_vectors(
    scene: Scene,
    sheet: TargetSheet,
    centers,
    rel_tol: float = DEFAULT_REL_TOL,
    orders=None,
) -> tuple[np.ndarray, list[QuadratureReport]]:
    """Field ratios of ``sheet`` placed at each (x, y) row of ``centers``, and their reports.

    Each centre is solved on the ``discretize_sheet`` grid at its row of
    ``orders`` (across, up; by default ``sheet_orders``) and checked against
    a solve at 4 fewer nodes per axis. While the worst per-antenna relative
    change between the two is not below ``rel_tol`` (a NaN change included),
    both axis orders double and the pair is solved again. A centre's ratios
    are the finer solve of its last pair, so a looser ``rel_tol`` never
    returns a coarser grid; its report's change is the check's error, a
    conservative estimate of the returned solve's. Returns one row of ratios
    per centre, m = -M .. +M.

    All pending centres' grids are built and summed together, round by
    round, in chunks of whole grids (``_chunks``) sorted by orders, so grids
    of equal orders share one rule. Every value is that of the centre's own
    solve: no bit depends on the other centres.

    Raises ValueError before any grid is built when ``rel_tol`` is not
    positive and finite, ``centers`` not (x, y) rows (``pair_rows``), or
    ``orders`` not one row per centre. Raises
    SolveError, a ValueError naming the first failing centre in
    ``centers`` order. Before any grid is built: when the centre is not
    finite or the sheet there does not lie strictly between the
    transmitter and the array plane (``geometry.sheet_span_error``), when
    its orders are 4 or less, or when a finite order is not an integer.
    Then: when a node of its grid lies on the transmitter or an antenna,
    and when its next grid would exceed ``geometry.MAX_GRID_NODES`` or
    ``geometry.MAX_ORDER``, giving the change reached (inf before the
    first pair; an order that overflows reads as inf). No later centre is
    solved further. No centres give a (0, antennas) array and no reports.
    """
    if not 0.0 < rel_tol < math.inf:  # NaN fails it
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol:g}")
    centers = pair_rows(centers)
    orders = pair_rows(sheet_orders(scene, sheet, centers) if orders is None else orders,
                        len(centers))
    for i, ((x, y), (ny, nz)) in enumerate(zip(centers.tolist(), orders.tolist())):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise SolveError(i, f"barycenter must be finite, got ({x:g}, {y:g})")
        outside = sheet_span_error(x, sheet.half_width, sheet.rotation, scene.array.central_distance)
        if outside is not None:
            raise SolveError(i, outside)
        if not (ny > 4 and nz > 4):
            raise SolveError(i, f"quadrature orders must exceed 4, got {ny:g} x {nz:g}")
        if ny % 1 > 0 or nz % 1 > 0:  # inf % 1 is NaN: an infinite order meets the budget
            raise SolveError(i, f"quadrature orders must be integers, got {ny:g} x {nz:g}")
    link = _Link.of(scene)
    solves = np.empty((2, len(centers), len(link.rx)), dtype=complex)  # checks, finer solves
    change = np.full(len(centers), np.inf)
    failures: dict[int, tuple[str, Exception | None]] = {}  # centre -> message, cause
    pending = np.arange(len(centers))
    while pending.size:
        for i in pending.tolist():
            try:
                check_orders(*orders[i])  # the larger grid of the pair
            except ValueError as e:
                failures[i] = (f"quadrature stopped at relative change {change[i]:.3g} against "
                               f"rel_tol {rel_tol:g}: {e}", e)
        if failures:  # a later centre's solve cannot change what is raised
            pending = pending[pending < min(failures)]
        # (orders, centre, 0 for the check or 1 for the finer solve), the check first; the
        # pending orders have passed check_orders, so they fit ints
        pairs = zip(pending.tolist(), orders[pending].astype(int).tolist())
        tasks = sorted(((ny - 4 + 4 * fine, nz - 4 + 4 * fine), i, fine)
                       for i, (ny, nz) in pairs for fine in (0, 1))
        for chunk in _chunks(tasks, len(link.rx)):
            grid_orders, where, which = zip(*chunk)
            grid = discretize_sheets(scene, sheet, centers[list(where)], grid_orders)
            values, close = _field_ratios(link, grid, [folded_nodes(*o) for o in grid_orders])
            del grid  # before the next chunk's grid is built
            solves[which, where] = values
            failures.update((i, ("target intersects antenna", None))
                            for i in np.asarray(where)[close].tolist())
        if failures:
            pending = pending[pending < min(failures)]
        checks, finer = solves[:, pending]
        change[pending] = np.max(np.abs(finer - checks) / np.maximum(np.abs(finer), 1e-300), axis=1)
        pending = pending[~(change[pending] < rel_tol)]
        orders[pending] *= 2
    if failures:
        i = min(failures)
        message, cause = failures[i]
        raise SolveError(i, message) from cause
    reports = [QuadratureReport((ny, nz), folded_nodes(ny, nz), c)
               for (ny, nz), c in zip(orders.astype(int).tolist(), change.tolist())]
    return solves[1], reports
