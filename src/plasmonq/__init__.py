"""Quantum-enhanced Kretschmann surface-plasmon-resonance sensing toolkit.

The package is organised around one pipeline: a dispersive metal film
(:mod:`plasmonq.materials`) inside a prism-coupled three-layer stack
(:mod:`plasmonq.fresnel`) attenuates one mode of a twin-mode photon state
(:mod:`plasmonq.quantum_states`); the photon-number difference between the
two modes then estimates the analyte's refractive index
(:mod:`plasmonq.metrology`), and every closed-form moment used there is
cross-checked by brute force (:mod:`plasmonq.fock_oracle`).
"""

from .fresnel import (
    IncidenceGeometry,
    KretschmannStack,
    NoInteriorExtremumError,
    Sensor,
    inflection_index,
    reflection,
    reflection_coefficient,
    resonance_angle,
    sensitivity,
    transfer_matrix_reflection,
)
from .materials import (
    GOLD_DRUDE_LORENTZ,
    DispersionTable,
    DrudeLorentzParams,
    drude_lorentz_permittivity,
    gold_dispersion,
    load_dispersion,
    permittivity_at,
)
from .metrology import (
    ChannelEfficiencies,
    MeasurementStats,
    PrecisionResult,
    family_statistics,
    precision,
    ratio,
    ratio_tmsv,
    ratio_twin_fock,
    signal_mean,
    signal_std,
    sweep_precision_vs_angle,
    sweep_ratio,
)
from .quantum_states import (
    FockCoefficients,
    PhotonStatistics,
    coherent_product,
    is_twin_mode,
    noon,
    squeezed_product,
    statistics,
    tmsv,
    twin_fock,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # materials
    "DispersionTable",
    "DrudeLorentzParams",
    "GOLD_DRUDE_LORENTZ",
    "drude_lorentz_permittivity",
    "gold_dispersion",
    "load_dispersion",
    "permittivity_at",
    # fresnel
    "IncidenceGeometry",
    "KretschmannStack",
    "NoInteriorExtremumError",
    "Sensor",
    "inflection_index",
    "reflection",
    "reflection_coefficient",
    "resonance_angle",
    "sensitivity",
    "transfer_matrix_reflection",
    # quantum states
    "FockCoefficients",
    "coherent_product",
    "twin_fock",
    "tmsv",
    "noon",
    "squeezed_product",
    "statistics",
    "is_twin_mode",
    # metrology
    "ChannelEfficiencies",
    "MeasurementStats",
    "PhotonStatistics",
    "PrecisionResult",
    "family_statistics",
    "signal_mean",
    "signal_std",
    "ratio",
    "ratio_twin_fock",
    "ratio_tmsv",
    "precision",
    "sweep_ratio",
    "sweep_precision_vs_angle",
]
