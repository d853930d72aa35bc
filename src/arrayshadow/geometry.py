"""Link-layout geometry: array placement, target sheet, quadrature grids.

Frame convention: the central line of sight runs along +x from the
transmitter, the array axis runs along y, z is vertical. Transmitter and
all receiving antennas sit in the horizontal plane at the link height h.
Target positions are given as (x, y) in that plane; the sheet extends
vertically from h - a_z to h + a_z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
BASE_CELLS_PER_WAVELENGTH = 10  # level-0 sheet grid: cells of at most lambda/10
# Largest quadrature grid built, refused before allocation: it admits the
# 3.5M-node level-5 (lambda/320) desk grid, about 250 MB peak RSS, and refuses
# the 14.1M-node level-6 one. The 1e-4 desk solve stops at level 2 (55,200).
MAX_GRID_NODES = 10_000_000


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


def grid_cells(target: TargetSheet, scene: Scene, halvings: int = 0) -> tuple[int, int]:
    """Cells (across, up) of the whole sheet at grid level ``halvings``.

    Raises ValueError when the ``across * ceil(up / 2)`` nodes that
    ``discretize_sheet`` builds would exceed ``MAX_GRID_NODES``.
    """
    if halvings < 0 or int(halvings) != halvings:
        raise ValueError("halvings must be a non-negative integer")
    base_step = scene.wavelength / BASE_CELLS_PER_WAVELENGTH
    with np.errstate(over="ignore"):  # level-0 counts times 2**halvings; inf is refused
        ny, nz = (np.ldexp(np.ceil(2.0 * a / base_step), halvings)
                  for a in (target.half_width, target.half_height))
        nodes = ny * np.ceil(nz / 2.0)
    if nodes > MAX_GRID_NODES:
        raise ValueError(
            f"quadrature grid of {nodes:,.0f} nodes at level {halvings} exceeds "
            f"the budget of {MAX_GRID_NODES:,} nodes"
        )
    return int(ny), int(nz)


def discretize_sheet(target: TargetSheet, scene: Scene, halvings: int = 0) -> QuadratureGrid:
    """Uniform midpoint-rule grid on the (possibly rotated) sheet, folded about z = h.

    Level 0 takes the fewest cells along each sheet axis whose side is at
    most lambda/10; level ``halvings`` bisects every level-0 cell that many
    times along both axes, so each level has exactly four times the cells of
    the one before. Only the rows with z >= h are built, each at twice its
    cell area, but the row at z = h of an odd row count keeps its own area;
    the areas sum to the exact sheet area.
    """
    ny, nz = grid_cells(target, scene, halvings)
    ay, az = target.half_width, target.half_height
    dy, dz = 2.0 * ay / ny, 2.0 * az / nz
    mids_y = (np.arange(ny) + 0.5) * dy - ay
    # The TX, every antenna and the sheet centre share z = h, so r1 and r2 are
    # even in z - h and each row below h adds what its mirror row above adds.
    mids_z = ((np.arange(nz) + 0.5) * dz - az)[nz // 2:]
    row_weights = np.full(len(mids_z), 2.0)
    row_weights[0] -= nz % 2

    theta = target.rotation
    in_plane = np.array([-np.sin(theta), np.cos(theta), 0.0])
    vertical = np.array([0.0, 0.0, 1.0])
    center = np.array([*target.barycenter, scene.link_height])

    yy, zz = np.meshgrid(mids_y, mids_z, indexing="ij")
    points = center + yy.reshape(-1, 1) * in_plane + zz.reshape(-1, 1) * vertical
    areas = np.tile(row_weights * (dy * dz), ny)
    return QuadratureGrid(points=points, areas=areas)
