import pytest

from arrayshadow import (
    ArraySpec,
    Scene,
    TargetSheet,
    attenuation_spectrum_from_snapshots,
    boresight_steering,
    converged_field_ratio_vector,
)

CARRIER_HZ = 2.4868e9
WAVELENGTH = 299_792_458.0 / CARRIER_HZ


def make_paper_scene(half_count: int = 2) -> Scene:
    """Desk-scale link: 4 m LoS, half-wavelength ULA, 0.9 m link height."""
    return Scene(
        carrier_frequency=CARRIER_HZ,
        array=ArraySpec(
            half_count=half_count,
            spacing=WAVELENGTH / 2.0,
            central_distance=4.0,
        ),
        link_height=0.9,
    )


def make_paper_target(x: float = 1.0, y: float = 0.0, rotation: float = 0.0) -> TargetSheet:
    """Person-sized absorbing sheet, 1.8 m tall and 0.55 m wide."""
    return TargetSheet(barycenter=(x, y), half_width=0.275, half_height=0.9, rotation=rotation)


def observed_spectrum(scene: Scene, target: TargetSheet, n_fft: int = 257):
    """DoA spectrum of one checked solve of ``target`` at the default tolerance."""
    empty = boresight_steering(scene)
    occupied = empty * converged_field_ratio_vector(scene, target)[0]
    return attenuation_spectrum_from_snapshots(
        empty, occupied, scene.array.spacing, scene.wavelength, n_fft
    )


@pytest.fixture
def paper_scene() -> Scene:
    return make_paper_scene()


@pytest.fixture(scope="session")
def converged_on_los():
    """(ratios, report) of the checked on-LoS solve, run once (two grids, 288 + 400 nodes)."""
    return converged_field_ratio_vector(make_paper_scene(), make_paper_target())
