"""cqedkit: design and verification toolkit for a capacitively coupled
transmon read out through a quarter-wave resonator and feedline.

Derives the full readout-chain parameter set (energies, transition
frequencies, coupling, dispersive shift, linewidth, relaxation bound)
from lumped-element inputs, cross-checks the closed-form chain against
exact-diagonalization oracles, and automates sweeps and target tuning.
"""

__version__ = "0.1.0"

from .constants import (
    critical_current_to_junction_inductance,
    ej_to_junction_inductance,
    junction_inductance_to_critical_current,
    junction_inductance_to_ej,
)
from .coupling import (
    CoupledSpectrum,
    CouplingParameters,
    coupled_spectrum_oracle,
    coupling_strength,
    dispersive_shift,
    external_quality_factor,
    norton_equivalent,
    purcell_t1,
    zero_point_voltage,
)
from .errors import (
    BracketingError,
    ConvergenceError,
    ConvergenceWarning,
    DispersiveValidityWarning,
    DomainError,
    ExtractionError,
    LabelingError,
    NarrowSpanWarning,
)
from .lumped import (
    DesignInputs,
    LumpedCircuit,
    build_lumped_circuit,
    charging_energy,
    quarter_wave_equivalents,
)
from .readout import (
    TransmissionCurve,
    notch_separation,
    s21_curve,
    write_curve_csv,
)
from .spectrum import (
    PerturbativeTransmon,
    TransmonSpectrum,
    exact_transmon_spectrum,
    perturbative_levels,
)
from .studio import (
    EPR_REFERENCE,
    DerivedParameters,
    EprGapEntry,
    EprReference,
    SweepResult,
    SweepSpec,
    TuneResult,
    TuneSpec,
    compare_to_epr,
    derive,
    design_from_dict,
    design_to_dict,
    input_digest,
    load_design,
    load_reference_design,
    render_report,
    sweep,
    tune,
)

__all__ = [
    "__version__",
    "junction_inductance_to_critical_current",
    "critical_current_to_junction_inductance",
    "junction_inductance_to_ej",
    "ej_to_junction_inductance",
    "DesignInputs",
    "LumpedCircuit",
    "build_lumped_circuit",
    "charging_energy",
    "quarter_wave_equivalents",
    "PerturbativeTransmon",
    "TransmonSpectrum",
    "exact_transmon_spectrum",
    "perturbative_levels",
    "CoupledSpectrum",
    "CouplingParameters",
    "coupled_spectrum_oracle",
    "coupling_strength",
    "dispersive_shift",
    "external_quality_factor",
    "norton_equivalent",
    "purcell_t1",
    "zero_point_voltage",
    "TransmissionCurve",
    "notch_separation",
    "s21_curve",
    "write_curve_csv",
    "DerivedParameters",
    "EprGapEntry",
    "EprReference",
    "EPR_REFERENCE",
    "SweepResult",
    "SweepSpec",
    "TuneResult",
    "TuneSpec",
    "compare_to_epr",
    "derive",
    "design_from_dict",
    "design_to_dict",
    "input_digest",
    "load_design",
    "load_reference_design",
    "render_report",
    "sweep",
    "tune",
    "DomainError",
    "ConvergenceError",
    "BracketingError",
    "LabelingError",
    "ExtractionError",
    "ConvergenceWarning",
    "DispersiveValidityWarning",
    "NarrowSpanWarning",
]
