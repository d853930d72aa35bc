"""Body-induced shadowing of RF links observed by a uniform linear array.

Models a person as a vertical absorbing sheet, computes the complex
diffraction field ratio it induces at every antenna of a short-range
link, and derives beamformed excess attenuation and DoA spectra.
"""

__version__ = "0.1.0"

from .array_model import (
    array_factor,
    array_factor_closed_form,
    first_lobe_width,
    nearfield_steering,
    planar_steering,
    uniform_weights,
)
from .em_model import (
    QuadratureReport,
    converged_field_ratio_vector,
    excess_attenuation_db,
    field_ratio_vector,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArraySpec,
    QuadratureGrid,
    Scene,
    TargetSheet,
    antenna_positions,
    discretize_sheet,
)
from .sensing import (
    DoaSpectrum,
    Observation,
    attenuation_spectrum_from_snapshots,
    boresight_steering,
    mean_attenuation_from_snapshots,
    observe,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "ArraySpec",
    "DoaSpectrum",
    "Observation",
    "QuadratureGrid",
    "QuadratureReport",
    "Scene",
    "TargetSheet",
    "antenna_positions",
    "array_factor",
    "array_factor_closed_form",
    "attenuation_spectrum_from_snapshots",
    "boresight_steering",
    "converged_field_ratio_vector",
    "discretize_sheet",
    "excess_attenuation_db",
    "field_ratio_vector",
    "first_lobe_width",
    "mean_attenuation_from_snapshots",
    "nearfield_steering",
    "observe",
    "planar_steering",
    "uniform_weights",
]
