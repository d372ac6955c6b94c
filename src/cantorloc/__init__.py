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

import importlib.util
import sys

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
    resolve_max_intervals,
    reverse_canonical_of,
)
from .operator import (
    DegenerateMassError,
    EigenvalueResult,
    LocalizationProblem,
    NormResult,
    eigenvalue,
    eigenvalue_table,
    lambda0_closed_form,
    limit_relative_area,
    localization_problem,
    operator_norm,
    relative_area,
)
from .special import (
    log_density,
    log_segment_mass,
    lower_tail_batch,
    regularized_lower_gamma,
    segment_mass_batch,
)


def _lazy_submodule(name: str):
    """The submodule *name*, entered in sys.modules without running its
    code, which runs on first attribute access (importlib.util.LazyLoader)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Only the sweep subcommand runs the experiments, so eigs and norm neither
# compile nor run the module; it stays in sys.modules for code that looks
# it up there.
experiments = _lazy_submodule("experiments")


def __getattr__(name):
    # The verify suites and the experiments load on first use, so the CLI's
    # other subcommands do not import them.  The exports not defined here
    # are the experiments'.
    if name in ("PropertyCheck", "run_suites"):
        from . import verify

        return getattr(verify, name)
    if name in __all__:
        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CantorSpec",
    "CapExceededError",
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
    "SweepRow",
    "canonical_of",
    "cantor_function",
    "continuous_iterate",
    "discrete_iterate",
    "eigenvalue",
    "eigenvalue_table",
    "indexed_intervals",
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
    "segment_mass_batch",
    "sweep_fixed",
    "sweep_indexed_counterexample",
    "sweep_indexed_decay",
    "sweep_reverse_counterexample",
    "__version__",
]
