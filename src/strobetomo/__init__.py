"""strobetomo: stroboscopic quantum tomography for parametric Kraus channels.

The package answers three questions about a Markovian open quantum system
with generator L:

* **Can one observable reconstruct the state?**  Yes exactly when the
  index of cyclicity is 1 (:func:`strobetomo.analysis.spectral_report`,
  :func:`strobetomo.analysis.optimality_report`).
* **Which observables work?**  Those passing the Krylov span check, read
  off one Hermitian eigendecomposition of the generator
  (:func:`strobetomo.analysis.span_report`; for qubits the closed form
  :func:`strobetomo.analysis.two_level_admissible`).
* **How is the state recovered?**  Measure Q at n^2 - 1 instants and run
  the linear inversion (:func:`strobetomo.reconstruct.plan` /
  :func:`strobetomo.reconstruct.execute`).

Two concrete channel families (a qubit/Pauli one and a qutrit/Gell-Mann
one) with closed-form spectra live in :mod:`strobetomo.channels`; the
command-line interface is in :mod:`strobetomo.cli`.
"""

from . import analysis, channels, cli, matcore, reconstruct
from .analysis import (
    ObservableSpec,
    OptimalityReport,
    SpanReport,
    SpectralReport,
    optimality_report,
    random_admissible_observable,
    span_check,
    span_report,
    spectral_report,
    two_level_admissible,
)
from .channels import (
    KrausFamily,
    LindbladSpec,
    ThreeLevelParams,
    TwoLevelParams,
    ValidityReport,
    apply_kraus,
    closed_form_spectrum_three_level,
    closed_form_spectrum_two_level,
    embed_one_param,
    gellmann,
    generator_from_lindblad,
    generator_of,
    generator_three_level,
    generator_two_level,
    kraus_at,
    kraus_vs_semigroup_deviation,
    pauli,
    three_level_family,
    two_level_family,
    validate_three_level,
    validate_two_level,
)
from .matcore import (
    ConditioningError,
    NumericalFailure,
    Spectrum,
    eig,
    eigh,
    propagate,
    unvec,
    vec,
)
from .reconstruct import (
    MeasurementRecord,
    ReconstructionPlan,
    ReconstructionResult,
    TimeGrid,
    default_time_grid,
    evolve,
    execute,
    expectation,
    measure,
    plan,
    reconstruct_trajectory,
    records_from_csv,
    records_to_csv,
    simulate_records,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "channels",
    "cli",
    "matcore",
    "reconstruct",
    "ObservableSpec",
    "OptimalityReport",
    "SpanReport",
    "SpectralReport",
    "optimality_report",
    "random_admissible_observable",
    "span_check",
    "span_report",
    "spectral_report",
    "two_level_admissible",
    "KrausFamily",
    "LindbladSpec",
    "ThreeLevelParams",
    "TwoLevelParams",
    "ValidityReport",
    "apply_kraus",
    "closed_form_spectrum_three_level",
    "closed_form_spectrum_two_level",
    "embed_one_param",
    "gellmann",
    "generator_from_lindblad",
    "generator_of",
    "generator_three_level",
    "generator_two_level",
    "kraus_at",
    "kraus_vs_semigroup_deviation",
    "pauli",
    "three_level_family",
    "two_level_family",
    "validate_three_level",
    "validate_two_level",
    "ConditioningError",
    "NumericalFailure",
    "Spectrum",
    "eig",
    "eigh",
    "propagate",
    "unvec",
    "vec",
    "MeasurementRecord",
    "ReconstructionPlan",
    "ReconstructionResult",
    "TimeGrid",
    "default_time_grid",
    "evolve",
    "execute",
    "expectation",
    "measure",
    "plan",
    "reconstruct_trajectory",
    "records_from_csv",
    "records_to_csv",
    "simulate_records",
    "__version__",
]
