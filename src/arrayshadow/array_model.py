"""Steering vectors, beamforming weights, array factor and beamwidth.

Steering element m carries the phase +j * m * (2 pi / lambda) * d_a * (...),
so negative-index elements are conjugates of their positive partners.
DoA gamma is measured from the array axis; broadside is gamma = pi/2.
"""

from __future__ import annotations

import numpy as np

_ARCCOS_SLACK = 1e-12  # tolerated floating-point overshoot of |arg| past 1


def _check_doa(doa) -> None:
    doa = np.asarray(doa)
    outside = doa[~((doa > 0.0) & (doa < np.pi))]
    if outside.size:
        raise ValueError(f"DoA must lie in (0, pi), got {outside[0]}")


def planar_steering(
    half_count: int, spacing: float, wavelength: float, doa
) -> np.ndarray:
    """Far-field (planar wavefront) steering vector, ordered m = -M .. +M.

    Element m is exp(+j m (2 pi / lambda) d_a cos gamma); the squared norm
    equals 2M+1 exactly. An array of DoAs gives one row per DoA.
    """
    _check_doa(doa)
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    m = np.arange(-half_count, half_count + 1)
    phase = np.multiply.outer(np.cos(doa), m * (2.0 * np.pi / wavelength) * spacing)
    return np.exp(1j * phase)


def nearfield_steering(
    half_count: int,
    spacing: float,
    central_distance: float,
    wavelength: float,
    doa: float,
) -> np.ndarray:
    """Spherical-wavefront steering vector for a short link.

    Each element sees the wavefront under its own angle

        phi_m = arccos((d_0/d_m) cos gamma - m d_a/d_m),   phi_0 = gamma,

    and element m is

        (d_0/d_m) exp(+j m (2 pi/lambda) d_a
                      cos((gamma + phi_m)/2) / cos((gamma - phi_m)/2)).

    The squared norm equals sum_m (d_0/d_m)^2. Converges to the planar
    vector as d_0 grows.

    Raises
    ------
    ValueError
        If the arccos argument falls outside [-1, 1] for some element.
    """
    _check_doa(doa)
    m = np.arange(-half_count, half_count + 1)
    d0 = central_distance
    dm = np.hypot(d0, m * spacing)
    arg = (d0 / dm) * np.cos(doa) - m * (spacing / dm)
    if np.any(np.abs(arg) > 1.0 + _ARCCOS_SLACK):
        raise ValueError("invalid near-field geometry: element angle undefined")
    phi = np.arccos(np.clip(arg, -1.0, 1.0))
    ratio = np.cos((doa + phi) / 2.0) / np.cos((doa - phi) / 2.0)
    phase = m * (2.0 * np.pi / wavelength) * spacing * ratio
    return (d0 / dm) * np.exp(1j * phase)


def uniform_weights(half_count: int) -> np.ndarray:
    """Conventional delay-and-sum weights, every element 1/(2M+1)."""
    n = 2 * half_count + 1
    return np.full(n, 1.0 / n)


def array_factor(weights: np.ndarray, steering: np.ndarray) -> complex | np.ndarray:
    """Array response w^T a (plain transpose, no conjugation).

    A 2-D ``steering`` (one row per DoA) gives one response per row.
    """
    weights = np.asarray(weights)
    steering = np.asarray(steering)
    if weights.shape != steering.shape[-1:]:
        raise ValueError(
            f"length mismatch: weights {weights.shape} vs steering {steering.shape}"
        )
    response = steering @ weights
    return complex(response) if steering.ndim == 1 else response


def array_factor_closed_form(
    half_count: int, spacing: float, wavelength: float, doa: float
) -> float:
    """Uniform-weight array factor as a Dirichlet-kernel expression.

    Evaluates sin((2M+1) x)/((2M+1) sin x) with x = pi d_a cos(gamma)/lambda.
    Removable singularities (sin x = 0) take their limit value, which is 1
    at broadside and at any grating lobe.
    """
    n = 2 * half_count + 1
    x = np.pi * spacing * np.cos(doa) / wavelength
    s = np.sin(x)
    if abs(s) < 1e-9:
        return float(np.cos(n * x) / np.cos(x))
    return float(np.sin(n * x) / (n * s))


def first_lobe_width(
    half_count: int, spacing: float, wavelength: float
) -> tuple[float, float]:
    """Width of the main lobe about broadside, exact and approximate, in rad.

    Exact form: 2 |arccos(lambda / ((2M+1) d_a)) - pi/2|, re-centered on
    broadside. Approximate form: 2 lambda / ((2M+1) d_a), valid for arrays
    long compared with the wavelength.

    Raises
    ------
    ValueError
        If the aperture (2M+1) d_a is shorter than one wavelength.
    """
    aperture = (2 * half_count + 1) * spacing
    arg = wavelength / aperture
    if arg > 1.0:
        raise ValueError("array too short: aperture below one wavelength")
    exact = 2.0 * abs(np.arccos(arg) - np.pi / 2.0)
    approximate = 2.0 * arg
    return float(exact), float(approximate)
