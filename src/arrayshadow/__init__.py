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
    converged_field_ratio_vector,
    excess_attenuation_antenna,
    excess_attenuation_db,
    field_ratio,
    field_ratio_vector,
    field_vs_central,
    free_space_ratio,
    free_space_ratio_vector,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArraySpec,
    LinkGeometry,
    QuadratureGrid,
    Scene,
    TargetSheet,
    antenna_positions,
    discretize_sheet,
    link_geometry,
)
from .sensing import (
    DoaSpectrum,
    Snapshot,
    attenuation_spectrum_from_snapshots,
    beamform,
    beamformed_power,
    boresight_steering,
    doa_attenuation_spectrum,
    field_autocorrelation,
    fresnel_first_zone_minor_axis,
    mean_attenuation_from_snapshots,
    mean_excess_attenuation,
    snapshot,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "ArraySpec",
    "DoaSpectrum",
    "LinkGeometry",
    "QuadratureGrid",
    "Scene",
    "Snapshot",
    "TargetSheet",
    "antenna_positions",
    "array_factor",
    "array_factor_closed_form",
    "attenuation_spectrum_from_snapshots",
    "beamform",
    "beamformed_power",
    "boresight_steering",
    "converged_field_ratio_vector",
    "discretize_sheet",
    "doa_attenuation_spectrum",
    "excess_attenuation_antenna",
    "excess_attenuation_db",
    "field_autocorrelation",
    "field_ratio",
    "field_ratio_vector",
    "field_vs_central",
    "first_lobe_width",
    "free_space_ratio",
    "free_space_ratio_vector",
    "fresnel_first_zone_minor_axis",
    "link_geometry",
    "mean_attenuation_from_snapshots",
    "mean_excess_attenuation",
    "nearfield_steering",
    "planar_steering",
    "snapshot",
    "uniform_weights",
]
