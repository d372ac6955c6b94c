"""Spectrum and norm of Gaussian time-frequency localization on Cantor-type sets.

The operator multiplies by the indicator of a spherically symmetric set
built from a Cantor-type iterate in the radial variable rho = pi r^2, so
its eigenvalues are integrals of the Poisson-type densities
rho^k e^(-rho) / k! over the iterate.  The package computes those
eigenvalues, certified operator norms, Cantor functions of the iterates,
and the asymptotic sweeps that exhibit how the norm scales with the
iteration depth and the localization radius.
"""

__version__ = "0.1.0"

from .cantor import (
    CantorSpec,
    CapExceededError,
    IndexedCantorSpec,
    IterateIntervals,
    canonical_of,
    cantor_function,
    continuous_iterate,
    discrete_iterate,
    indexed_intervals,
    inner_rho,
    resolve_max_intervals,
    reverse_canonical_of,
    shift_decomposition,
)
from .experiments import (
    DecayParams,
    HypothesisViolationError,
    IndexedCounterexampleResult,
    IndexedDecayResult,
    PositiveMeasureResult,
    RadiusSchedule,
    ScheduleError,
    SweepRow,
    positive_measure_demo,
    sweep_fixed,
    sweep_indexed_counterexample,
    sweep_indexed_decay,
    sweep_reverse_counterexample,
)
from .operator import (
    DegenerateMassError,
    EigenvalueResult,
    LocalizationProblem,
    NormResult,
    ball_bound,
    eigenvalue,
    eigenvalue_table,
    lambda0_closed_form,
    limit_relative_area,
    localization_problem,
    operator_norm,
    relative_area,
)
from .special import (
    SegmentMass,
    gamma_tail_mass,
    log_density,
    log_segment_mass,
    lower_tail_batch,
    regularized_lower_gamma,
    segment_mass,
    segment_mass_batch,
)
from .verify import PropertyCheck, run_suites

__all__ = [
    "CantorSpec",
    "CapExceededError",
    "DecayParams",
    "DegenerateMassError",
    "EigenvalueResult",
    "HypothesisViolationError",
    "IndexedCantorSpec",
    "IndexedCounterexampleResult",
    "IndexedDecayResult",
    "IterateIntervals",
    "LocalizationProblem",
    "NormResult",
    "PositiveMeasureResult",
    "PropertyCheck",
    "RadiusSchedule",
    "ScheduleError",
    "SegmentMass",
    "SweepRow",
    "ball_bound",
    "canonical_of",
    "cantor_function",
    "continuous_iterate",
    "discrete_iterate",
    "eigenvalue",
    "eigenvalue_table",
    "gamma_tail_mass",
    "indexed_intervals",
    "inner_rho",
    "lambda0_closed_form",
    "limit_relative_area",
    "localization_problem",
    "log_density",
    "log_segment_mass",
    "lower_tail_batch",
    "operator_norm",
    "positive_measure_demo",
    "regularized_lower_gamma",
    "relative_area",
    "resolve_max_intervals",
    "segment_mass",
    "segment_mass_batch",
    "shift_decomposition",
    "sweep_fixed",
    "sweep_indexed_counterexample",
    "sweep_indexed_decay",
    "sweep_reverse_counterexample",
    "__version__",
]
