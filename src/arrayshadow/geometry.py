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
# Largest quadrature grid built, refused before allocation. The 1e-4 desk
# solve stops at the 110,400-node level-2 (lambda/40) grid; the budget still
# admits the 7M-node level-5 (lambda/320) desk grid (about 0.54 GB peak RSS)
# that a tighter tolerance or a finer fixed level may ask for, and refuses
# the 28M-node level-6 one (about 3.4 GB).
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
                stacklevel=2,
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
    """Midpoint-rule nodes covering a target sheet."""

    points: np.ndarray  # shape (N, 3)
    areas: np.ndarray   # shape (N,), m^2


def antenna_positions(scene: Scene) -> np.ndarray:
    """Positions of all 2M+1 receiving antennas, ordered m = -M .. +M."""
    spec = scene.array
    offsets = np.zeros((spec.num_elements, 3))
    offsets[:, 0] = spec.central_distance
    offsets[:, 1] = spec.indices * spec.spacing
    return scene.tx + offsets


def discretize_sheet(target: TargetSheet, scene: Scene, halvings: int = 0) -> QuadratureGrid:
    """Uniform midpoint-rule grid on the (possibly rotated) sheet.

    Level 0 takes the fewest cells along each sheet axis whose side is at
    most lambda/10; level ``halvings`` bisects every level-0 cell that many
    times along both axes, so each level has exactly four times the nodes of
    the one before. Cell areas sum to the exact sheet area. A grid of more
    than ``MAX_GRID_NODES`` nodes raises ValueError before any allocation.
    """
    if halvings < 0 or int(halvings) != halvings:
        raise ValueError("halvings must be a non-negative integer")
    base_step = scene.wavelength / BASE_CELLS_PER_WAVELENGTH
    ay, az = target.half_width, target.half_height
    with np.errstate(over="ignore"):  # level-0 counts times 2**halvings; inf is refused
        ny, nz = (np.ldexp(np.ceil(2.0 * a / base_step), halvings) for a in (ay, az))
        nodes = ny * nz
    if nodes > MAX_GRID_NODES:
        raise ValueError(
            f"quadrature grid of {nodes:,.0f} nodes at level {halvings} exceeds "
            f"the budget of {MAX_GRID_NODES:,} nodes"
        )
    ny, nz = int(ny), int(nz)
    dy = 2.0 * ay / ny
    dz = 2.0 * az / nz
    mids_y = (np.arange(ny) + 0.5) * dy - ay
    mids_z = (np.arange(nz) + 0.5) * dz - az

    theta = target.rotation
    in_plane = np.array([-np.sin(theta), np.cos(theta), 0.0])
    vertical = np.array([0.0, 0.0, 1.0])
    center = np.array([*target.barycenter, scene.link_height])

    yy, zz = np.meshgrid(mids_y, mids_z, indexing="ij")
    points = (
        center
        + yy.reshape(-1, 1) * in_plane
        + zz.reshape(-1, 1) * vertical
    )
    areas = np.full(ny * nz, dy * dz)
    return QuadratureGrid(points=points, areas=areas)
