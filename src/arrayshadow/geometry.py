"""Link-layout geometry: array placement, target sheet, quadrature grids.

Frame convention: the central line of sight runs along +x from the
transmitter, the array axis runs along y, z is vertical. Transmitter and
all receiving antennas sit in the horizontal plane at the link height h.
Target positions are given as (x, y) in that plane; the sheet extends
vertically from h - a_z to h + a_z.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# Wavelengths: the default quadrature node spacing and the largest a scenario or
# solve may ask for. Grids are built up to twice it, for the coarse check of
# em_model.converged_field_ratio_vector.
MAX_STEP = 0.1
# Largest quadrature grid built, refused before allocation: it admits the
# 3.5M-node desk grid at step lambda/320, about 250 MB peak RSS, and refuses
# the 14.0M-node one at lambda/640. The 1e-4 desk solve builds the grids at
# lambda/5 and lambda/10 (874 + 3,450 nodes).
MAX_GRID_NODES = 10_000_000
# Largest Gauss-Legendre order along one sheet axis, refused before the rule is
# built: the rule costs O(n^2), about 0.9 s at 10,000. It admits the
# knife_edge_validation grid (1,222 x 1,153) and the desk grid at lambda/320
# (1,460 x 4,778).
MAX_ORDER = 10_000


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array of 2M+1 elements orthogonal to the central LoS.

    Elements are indexed m = -M .. +M; element 0 sits on the line of sight
    at ``central_distance`` from the transmitter.
    """

    half_count: int          # M
    spacing: float           # d_a, m
    central_distance: float  # d_0, m

    def __post_init__(self):
        if self.half_count < 0 or int(self.half_count) != self.half_count:
            raise ValueError("half_count must be a non-negative integer")
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if self.central_distance <= 0.0:
            raise ValueError("central_distance must be positive")

    @property
    def num_elements(self) -> int:
        return 2 * self.half_count + 1

    @property
    def indices(self) -> np.ndarray:
        """Signed element indices -M .. +M."""
        return np.arange(-self.half_count, self.half_count + 1)


@dataclass(frozen=True)
class Scene:
    """Fixed link layout: carrier, link height and array; transmitter at (0, 0, h)."""

    carrier_frequency: float            # Hz
    array: ArraySpec
    link_height: float = 0.0            # h, m

    def __post_init__(self):
        if self.carrier_frequency <= 0.0:
            raise ValueError("carrier_frequency must be positive")
        if self.array.spacing <= self.wavelength / 4.0:
            warnings.warn(
                f"antenna spacing {self.array.spacing:.4g} m is <= lambda/4 "
                f"({self.wavelength / 4.0:.4g} m); the no-mutual-coupling "
                "assumption is violated",
                stacklevel=3,  # past the dataclass __init__ to its caller
            )

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def tx(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.link_height])


@dataclass(frozen=True)
class TargetSheet:
    """Vertical absorbing rectangle standing in the link area.

    ``rotation`` turns the sheet's horizontal in-plane axis about the
    vertical axis through the barycenter; at rotation 0 the face is
    orthogonal to the central line of sight (broadside).
    """

    barycenter: tuple[float, float]  # (x, y), m
    half_width: float                # a_y, m
    half_height: float               # a_z, m
    rotation: float = 0.0            # theta, rad

    def __post_init__(self):
        object.__setattr__(self, "barycenter", (float(self.barycenter[0]), float(self.barycenter[1])))
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")
        if self.half_height <= 0.0:
            raise ValueError("half_height must be positive")


@dataclass(frozen=True)
class QuadratureGrid:
    """Quadrature nodes on a target sheet and the area each one stands for."""

    points: np.ndarray  # shape (N, 3)
    areas: np.ndarray   # shape (N,), m^2


def antenna_positions(scene: Scene) -> np.ndarray:
    """Positions of all 2M+1 receiving antennas, ordered m = -M .. +M."""
    spec = scene.array
    offsets = np.zeros((spec.num_elements, 3))
    offsets[:, 0] = spec.central_distance
    offsets[:, 1] = spec.indices * spec.spacing
    return scene.tx + offsets


# Filled by the first solve at each order; a solve needs two orders per grid.
@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term recurrence finds the roots in [0, 1),
    starting from the estimates cos(pi (k - 1/4) / (n + 1/2)); mirroring them
    makes the nodes exactly odd and the weights exactly even about 0.
    """
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))  # descending
    x[n // 2:] = 0.0  # an odd order's middle root; Newton keeps it, as odd P_k vanish at 0
    for _ in range(100):  # three or four iterations reach round-off at every order tried
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        if np.max(np.abs(p1 / slope), initial=0.0) < 1e-15:
            break
        x = x - p1 / slope
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    for a in (nodes, weights):
        a.flags.writeable = False  # shared through the cache
    return nodes, weights


def grid_cells(target: TargetSheet, scene: Scene, step: float = MAX_STEP) -> tuple[int, int]:
    """Gauss-Legendre orders (across, up) of the whole sheet at node spacing ``step``.

    ``step`` is in wavelengths, in (0, 2 * MAX_STEP]; each axis of length 2a
    gets ``ceil(2a / (step * lambda))`` nodes. Raises ValueError for any other
    step, when the ``across * ceil(up / 2)`` nodes that ``discretize_sheet``
    builds would exceed ``MAX_GRID_NODES``, and when either order exceeds
    ``MAX_ORDER``.
    """
    if not 0.0 < step <= 2 * MAX_STEP:  # NaN fails too
        raise ValueError(
            f"quadrature step must be in (0, {2 * MAX_STEP:g}] wavelengths, got {step!r}"
        )
    spacing = np.float64(step) * scene.wavelength
    with np.errstate(over="ignore", divide="ignore"):  # inf nodes are refused below
        ny, nz = (np.ceil(2.0 * a / spacing) for a in (target.half_width, target.half_height))
        nodes = ny * np.ceil(nz / 2.0)
    if nodes > MAX_GRID_NODES:
        raise ValueError(
            f"quadrature grid of {nodes:,.0f} nodes at step {step:g} wavelengths exceeds "
            f"the budget of {MAX_GRID_NODES:,} nodes"
        )
    if max(ny, nz) > MAX_ORDER:
        raise ValueError(
            f"quadrature order {max(ny, nz):,.0f} along the sheet at step {step:g} wavelengths "
            f"exceeds the cap of {MAX_ORDER:,} nodes per axis"
        )
    return int(ny), int(nz)


def discretize_sheet(target: TargetSheet, scene: Scene, step: float = MAX_STEP) -> QuadratureGrid:
    """Tensor Gauss-Legendre rule on the (possibly rotated) sheet, folded about z = h.

    Each sheet axis of length 2a gets ``ceil(2a / (step * lambda))`` nodes
    (``grid_cells``), so ``step`` is the mean node spacing in wavelengths.
    Only the nodes with z >= h are built, each at twice its weight, but the
    node at z = h of an odd order keeps its own weight; the weights sum to
    the sheet area.
    """
    ny, nz = grid_cells(target, scene, step)
    ay, az = target.half_width, target.half_height
    u, wu = gauss_legendre(ny)
    # The TX, every antenna and the sheet centre share z = h, so r1 and r2 are
    # even in z - h and each node below h adds what its mirror node above adds.
    v, wv = (a[nz // 2:] for a in gauss_legendre(nz))
    wv = np.where(v > 0.0, 2.0 * wv, wv)  # an odd order's middle node v = 0 counts once

    theta = target.rotation
    in_plane = np.array([-np.sin(theta), np.cos(theta), 0.0])
    vertical = np.array([0.0, 0.0, 1.0])
    center = np.array([*target.barycenter, scene.link_height])

    yy, zz = np.repeat(ay * u, len(v)), np.tile(az * v, len(u))  # the (across, up) mesh, raveled
    # Column by column, in Fortran order, so each coordinate the distances read
    # is contiguous; (c + yy * in_plane) + zz * vertical is the broadcast's order.
    points = np.empty((len(yy), 3), order="F")
    for j, col in enumerate(points.T):
        np.multiply(yy, in_plane[j], out=col)
        col += center[j]
        col += zz * vertical[j]
    areas = np.outer(ay * wu, az * wv).ravel()
    return QuadratureGrid(points=points, areas=areas)
