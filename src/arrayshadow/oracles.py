"""Independent reference computations used to validate the numeric core.

Nothing here shares quadrature or transform code with the modules under
test: node coordinates, accumulation order and the transform loop are all
written separately on purpose. ``free_space_ratio_vector`` is the closed
form that the broadside (empty-scene) array response must equal.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import fresnel

from .geometry import Scene, TargetSheet


def knife_edge_attenuation(nu) -> float | np.ndarray:
    """Classical absorbing half-plane attenuation in dB.

    ``nu`` is the dimensionless diffraction parameter of the edge; 0 puts
    the edge on the line of sight (6.02 dB), large negative values leave
    the path clear (0 dB). Uses the closed form
    0.5 * |(1 - C(nu) - S(nu)) + j (C(nu) - S(nu))| with the Fresnel
    cosine/sine integrals C and S.
    """
    s, c = fresnel(nu)
    magnitude = 0.5 * np.hypot(1.0 - c - s, c - s)
    out = -20.0 * np.log10(magnitude)
    if np.ndim(nu) == 0:
        return float(out)
    return out


def knife_edge_parameter(
    edge_offset: float, d1: float, d2: float, wavelength: float
) -> float:
    """Diffraction parameter of a vertical edge at transverse offset.

    Positive offsets describe an obstacle extending past the line of
    sight. ``d1`` and ``d2`` are the distances from the edge plane to the
    two link ends.
    """
    return edge_offset * math.sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2))


def free_space_ratio_vector(scene: Scene) -> np.ndarray:
    """Reference-field ratio of every antenna to the central one, m = -M .. +M.

    Returns (d_0/d_m) * exp(-j 2 pi (d_m - d_0) / lambda); exactly 1 for m = 0.
    """
    d0 = scene.array.central_distance
    dm = np.hypot(d0, scene.array.indices * scene.array.spacing)
    k = 2.0 * np.pi / scene.wavelength
    return (d0 / dm) * np.exp(-1j * k * (dm - d0))


def dense_quadrature_field_ratio(
    scene: Scene,
    target: TargetSheet,
    antenna_index: int,
    step: float | None = None,
) -> complex:
    """Field ratio via an independently coded dense quadrature.

    Nodes come from linspace cell edges and the sum is accumulated with
    math.fsum on the real and imaginary parts; the grid step defaults to
    lambda/40. Test use only.
    """
    lam = scene.wavelength
    if step is None:
        step = lam / 40.0

    tx = scene.tx
    d0 = scene.array.central_distance
    da = scene.array.spacing
    rx = tx + np.array([d0, antenna_index * da, 0.0])
    dm = math.sqrt(d0 * d0 + (antenna_index * da) ** 2)

    ay, az = target.half_width, target.half_height
    ny = math.ceil(2.0 * ay / step)
    nz = math.ceil(2.0 * az / step)
    edges_y = np.linspace(-ay, ay, ny + 1)
    edges_z = np.linspace(-az, az, nz + 1)
    mids_y = 0.5 * (edges_y[:-1] + edges_y[1:])
    mids_z = 0.5 * (edges_z[:-1] + edges_z[1:])
    cell = (2.0 * ay / ny) * (2.0 * az / nz)

    theta = target.rotation
    ux, uy = -math.sin(theta), math.cos(theta)
    cx = target.barycenter[0]
    cy = target.barycenter[1]
    cz = scene.link_height

    k = 2.0 * math.pi / lam
    yy, zz = np.meshgrid(mids_y, mids_z, indexing="ij")
    px = cx + ux * yy
    py = cy + uy * yy
    pz = cz + zz
    r1 = np.sqrt((px - tx[0]) ** 2 + (py - tx[1]) ** 2 + (pz - tx[2]) ** 2)
    r2 = np.sqrt((px - rx[0]) ** 2 + (py - rx[1]) ** 2 + (pz - rx[2]) ** 2)
    if r1.min() < 1e-9 or r2.min() < 1e-9:
        raise ValueError("target intersects antenna")
    phased = np.exp(-1j * k * (r1 + r2 - dm)) / (r1 * r2)

    total = complex(
        math.fsum(phased.real.ravel()), math.fsum(phased.imag.ravel())
    ) * cell
    return 1.0 - 1j * (dm / lam) * total


def naive_dft(x: np.ndarray, n_fft: int) -> np.ndarray:
    """Direct O(N^2) DFT with centered input indexing.

    The input of odd length 2M+1 occupies positions m = -M .. +M; output
    bin k holds sum_m x_m exp(-j 2 pi k m / n_fft). The fast transform of
    the DoA spectra places the input at 0 .. 2M instead, so the two agree in
    magnitude, not in phase.
    """
    x = np.asarray(x, dtype=complex)
    if n_fft < x.size:
        raise ValueError("n_fft smaller than the input length")
    half = x.size // 2
    out = np.empty(n_fft, dtype=complex)
    for k in range(n_fft):
        acc = 0.0 + 0.0j
        for i, m in enumerate(range(-half, half + 1)):
            acc += x[i] * complex(
                math.cos(2.0 * math.pi * k * m / n_fft),
                -math.sin(2.0 * math.pi * k * m / n_fft),
            )
        out[k] = acc
    return out
