import numpy as np
import pytest

from arrayshadow import ArraySpec, Scene, TargetSheet, converged_field_ratio_vector

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


@pytest.fixture
def paper_scene() -> Scene:
    return make_paper_scene()


@pytest.fixture(scope="session")
def converged_on_los() -> tuple[np.ndarray, float]:
    """(ratios, step) of the 1e-4-converged on-LoS solve, a ~7M-node grid run once."""
    return converged_field_ratio_vector(make_paper_scene(), make_paper_target(), rel_tol=1e-4)
