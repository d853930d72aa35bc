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
# Largest quadrature grid built: it admits the 7M-node lambda/320 desk grid
# (about 0.54 GB peak RSS) and refuses the 28M-node lambda/640 one.
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
    """Fixed link layout: carrier, transmitter position and receiving array."""

    carrier_frequency: float            # Hz
    array: ArraySpec
    link_height: float = 0.0            # h, m
    tx_position: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.carrier_frequency <= 0.0:
            raise ValueError("carrier_frequency must be positive")
        if self.tx_position is None:
            object.__setattr__(
                self, "tx_position", (0.0, 0.0, float(self.link_height))
            )
        else:
            object.__setattr__(self, "tx_position", tuple(float(v) for v in self.tx_position))
            if len(self.tx_position) != 3:
                raise ValueError("tx_position must be a 3-D point")
            if self.tx_position[2] != self.link_height:
                raise ValueError("transmitter must lie in the link plane at height h")
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
        return np.array(self.tx_position, dtype=float)


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
    step: float         # largest cell side, m

    @property
    def total_area(self) -> float:
        return float(np.sum(self.areas))


def antenna_positions(scene: Scene) -> np.ndarray:
    """Positions of all 2M+1 receiving antennas, ordered m = -M .. +M."""
    spec = scene.array
    offsets = np.zeros((spec.num_elements, 3))
    offsets[:, 0] = spec.central_distance
    offsets[:, 1] = spec.indices * spec.spacing
    return scene.tx + offsets


def discretize_sheet(
    target: TargetSheet, scene: Scene, step_hint: float | None = None
) -> QuadratureGrid:
    """Uniform midpoint-rule grid on the (possibly rotated) sheet.

    The actual cell side never exceeds min(step_hint, lambda/10); the hint
    defaults to lambda/10. Cell areas sum to the exact sheet area. A grid
    of more than ``MAX_GRID_NODES`` nodes raises ValueError before any
    allocation.
    """
    lam = scene.wavelength
    if step_hint is None:
        step_hint = lam / 10.0
    if step_hint <= 0.0:
        raise ValueError("step_hint must be positive")
    step = min(step_hint, lam / 10.0)

    ay, az = target.half_width, target.half_height
    ny, nz = np.ceil(2.0 * ay / step), np.ceil(2.0 * az / step)  # floats: may be inf
    if ny * nz > MAX_GRID_NODES:
        raise ValueError(
            f"quadrature grid of {ny * nz:,.0f} nodes at step {step:.3g} m exceeds "
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
    return QuadratureGrid(points=points, areas=areas, step=max(dy, dz))
