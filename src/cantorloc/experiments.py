"""Sweep drivers reproducing the scaling phenomena of the localization norm.

Four families of experiments:

* fixed-base sweeps: norm, first-eigenvalue, and two normalized statistics
  (a dimension-scaled norm and a bounded-ratio witness) along a radius
  schedule rho(n);
* reverse-canonical counterexample: the norm ratio reverse/canonical of two
  fixed-base sweeps along the critical schedule, which decays instead of
  staying comparable;
* indexed decay: per-level random bases within [M, M^(1+delta)] and
  densities at most epsilon give exponentially decaying first eigenvalues,
  summarized by a fitted rate beta;
* indexed counterexample and positive-measure demo: doubly-exponential base
  growth keeps the first eigenvalue bounded below, and near-full alphabets
  yield a limit set of positive measure with an explicit norm lower bound.

Randomized constructions draw every level up front from a seeded generator
and the seed is recorded in the result, so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cantor import (CantorSpec, CapExceededError, IndexedCantorSpec, canonical_of,
                     reverse_canonical_of)
from .operator import (
    _norm_walk,
    lambda0_canonical_levels,
    lambda0_closed_form,
    localization_problem,
)


class ScheduleError(ValueError):
    """A radius schedule emitted a value outside its cap."""


class HypothesisViolationError(ValueError):
    """A generated level sequence broke the experiment's hypotheses."""


@dataclass(frozen=True)
class RadiusSchedule:
    """Radius-squared schedule rho(n) = gamma * M^(n/2), the critical growth
    rate, checked against the bounded-ratio hypothesis cap rho(n) <= M^n."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0.0) or not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")

    def rho(self, base: int, n: int) -> float:
        """rho(n) for a fixed base, validated against the cap M^n."""
        value = self.gamma * float(base) ** (0.5 * n)
        if not (value > 0.0) or value > float(base) ** n * (1.0 + 1e-12):
            raise ScheduleError(
                f"schedule emitted rho({n}) = {value!r} outside (0, {base}^{n}]")
        return value


@dataclass(frozen=True)
class SweepRow:
    """One depth of a fixed-base sweep.

    norm and its derived columns are None where the norm's indices pass
    the cap (the norm's walk, operator._norm_walk, raises
    CapExceededError), which blanks the depth in both fixed-base sweeps;
    the first-eigenvalue column for the canonical sibling is always
    present.
    scaled_norm = norm * (M/|A|)^n * rho^(d-1) with d = ln|A|/ln M;
    thm32_ratio = (rho+1)^d / (|A|^n (1 - e^(-M^-n rho))) * norm.
    """

    n: int
    rho: float
    norm: float | None
    lambda0_canonical: float
    scaled_norm: float | None
    thm32_ratio: float | None


SWEEP_COLUMNS = ("n", "rho", "norm", "lambda0_canonical", "scaled_norm", "thm32_ratio")


def sweep_fixed(spec: CantorSpec, schedule: RadiusSchedule, n_max: int) -> list[SweepRow]:
    """Norm and scaling columns for iterates 0..n_max of one spec; each norm
    is the certified value of operator._norm_walk, without the truncation
    that operator_norm adds for its report."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    dim = spec.dimension
    rows = []
    for n in range(n_max + 1):
        rho = schedule.rho(spec.base, n)
        l0_can = lambda0_closed_form(canonical_of(spec), n, rho)
        try:
            norm = _norm_walk(localization_problem(spec, n, rho))[0].value
        except CapExceededError:
            norm = scaled = ratio = None
        else:
            scaled = norm * (spec.base / spec.size) ** n * rho ** (dim - 1.0)
            ratio = ((rho + 1.0) ** dim
                     / (float(spec.size) ** n * -math.expm1(-rho * float(spec.base) ** -n))
                     * norm)
        rows.append(SweepRow(n=n, rho=rho, norm=norm, lambda0_canonical=l0_can,
                             scaled_norm=scaled, thm32_ratio=ratio))
    return rows


def sweep_reverse_counterexample(base: int, size: int, schedule: RadiusSchedule,
                                 n_max: int) -> list[tuple[int, float | None]]:
    """(n, norm ratio reverse-canonical / canonical) along the schedule.

    The ratio of two sweep_fixed norm columns, so it is None where a
    depth's norms pass the cap.  The ratio tending to zero is what rules
    out a two-sided sibling comparison at the critical radius.
    """
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if not (1 <= size <= base - 1):
        raise ValueError(
            f"alphabet size must lie in [1, {base - 1}] for base {base}, got {size}")
    rev = reverse_canonical_of(CantorSpec(base, tuple(range(size))))
    return [(r.n, None if r.norm is None else r.norm / c.norm)
            for r, c in zip(sweep_fixed(rev, schedule, n_max),
                            sweep_fixed(canonical_of(rev), schedule, n_max))]


# ----------------------------------------------------------------------
# Indexed constructions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayParams:
    """Hypotheses for the indexed decay experiment: bases in
    [M, M^(1+delta)], densities |A_j|/M_j <= epsilon, radius
    rho(n) = gamma * sqrt(M_1 ... M_n)."""

    M: int = 3
    delta: float = 0.5
    epsilon: float = 2.0 / 3.0
    gamma: float = 1.0
    n_max: int = 20

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be at least 2")
        if not (self.delta >= 0.0):
            raise ValueError("delta must be nonnegative")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")


def default_level_generator(rng: np.random.Generator,
                            params: DecayParams) -> list[CantorSpec]:
    """Draw n_max canonical levels meeting the decay hypotheses."""
    top = int(math.floor(float(params.M) ** (1.0 + params.delta)))
    levels = []
    for _ in range(params.n_max):
        base = int(rng.integers(params.M, top + 1))
        largest = int(math.floor(params.epsilon * base))
        if largest < 1:
            raise HypothesisViolationError(
                f"epsilon={params.epsilon} admits no alphabet for base {base}")
        size = int(rng.integers(1, largest + 1))
        levels.append(CantorSpec(base, tuple(range(size))))
    return levels


@dataclass(frozen=True)
class IndexedDecayResult:
    """rows = (n, lambda0, fitted_beta) with the common fitted rate; the
    fit is least squares on ln lambda0 over the last ceil(n_max/2) depths."""

    rows: list[tuple[int, float, float]]
    fitted_beta: float
    seed: int
    levels: IndexedCantorSpec


def sweep_indexed_decay(params: DecayParams,
                        level_generator: Callable[[np.random.Generator, DecayParams],
                                                  Sequence[CantorSpec]] | None = None,
                        seed: int = 0) -> IndexedDecayResult:
    """First-eigenvalue decay along random levels meeting the hypotheses."""
    rng = np.random.default_rng(seed)
    generator = level_generator or default_level_generator
    levels = list(generator(rng, params))
    if len(levels) < params.n_max:
        raise HypothesisViolationError(
            f"generator produced {len(levels)} levels, need {params.n_max}")
    top = float(params.M) ** (1.0 + params.delta)
    for j, lv in enumerate(levels, start=1):
        if not (params.M <= lv.base <= top * (1.0 + 1e-12)):
            raise HypothesisViolationError(
                f"level {j} base {lv.base} outside [{params.M}, M^(1+delta)={top:.6g}]")
        if lv.size / lv.base > params.epsilon * (1.0 + 1e-12):
            raise HypothesisViolationError(
                f"level {j} density {lv.size}/{lv.base} exceeds epsilon={params.epsilon}")
        if not lv.is_canonical:
            raise HypothesisViolationError(f"level {j} alphabet is not canonical")
    spec = IndexedCantorSpec(tuple(levels))
    pairs = []
    for n in range(params.n_max + 1):
        rho = params.gamma * math.sqrt(float(spec.base_product(n)))
        pairs.append((n, lambda0_closed_form(spec, n, rho)))
    tail = pairs[-math.ceil(params.n_max / 2):]
    ns = np.array([p[0] for p in tail], dtype=float)
    logs = np.log(np.array([p[1] for p in tail], dtype=float))
    slope = float(np.polyfit(ns, logs, 1)[0])
    beta = -slope
    rows = [(n, l0, beta) for n, l0 in pairs]
    return IndexedDecayResult(rows=rows, fitted_beta=beta, seed=seed, levels=spec)


@dataclass(frozen=True)
class IndexedCounterexampleResult:
    """rows = (n, lambda0, lower_bound_product); the product
    prod_{m>=2} (1 - e^(-theta N^m)), N = sqrt(M), bounds the eventual
    lambda0 from below, so no uniform decay rate exists."""

    rows: list[tuple[int, float, float]]
    lower_bound_product: float
    bases: list[int]
    sizes: list[int]


def sweep_indexed_counterexample(base: int, size: int, gamma: float = 1.0,
                                 n_max: int = 5) -> IndexedCounterexampleResult:
    """Doubly-exponential bases M_j = M_1 ... M_{j-1} at fixed density.

    Every level keeps |A_j| = theta M_j with theta = size/base, which must
    be integral at every level; base products square at each step, so n_max
    is capped at 6 to stay within float range.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    if not (1 <= size <= base - 1):
        raise ValueError(
            f"alphabet size must lie in [1, {base - 1}] for base {base}, got {size}")
    if not (0 <= n_max <= 6):
        raise ValueError("n_max must lie in [0, 6]")
    if not (gamma > 0.0):
        raise ValueError("gamma must be positive")
    bases = []
    sizes = []
    prod = 1
    for j in range(1, n_max + 1):
        b = base if j == 1 else prod
        if (size * b) % base != 0:
            raise ValueError(
                f"theta = {size}/{base} gives a non-integral alphabet at level {j}")
        a = size * b // base
        if a < 1:
            raise ValueError(f"theta = {size}/{base} empties level {j}")
        bases.append(b)
        sizes.append(a)
        prod *= b
    theta = size / base
    root = math.sqrt(base)
    lower = 1.0
    m = 2
    while True:
        factor = -math.expm1(-theta * root ** m)
        lower *= factor
        if factor > 1.0 - 1e-17 or m > 400:
            break
        m += 1
    rows = []
    running = 1
    for n in range(1, n_max + 1):
        running *= bases[n - 1]
        rho = gamma * math.sqrt(float(running))
        rows.append((n, lambda0_canonical_levels(bases[:n], sizes[:n], rho), lower))
    return IndexedCounterexampleResult(rows=rows, lower_bound_product=lower,
                                       bases=bases, sizes=sizes)


@dataclass(frozen=True)
class PositiveMeasureResult:
    """rows = (n, measure, lambda0, exp(-rho)*measure); the last column is
    a certified lower bound for lambda0 and hence for the norm."""

    rows: list[tuple[int, float, float, float]]
    measure_limit_estimate: float
    norm_lower_bound: float
    rho: float


def positive_measure_demo(levels: int | Sequence[CantorSpec],
                          rho_fixed: float) -> PositiveMeasureResult:
    """Near-full alphabets |A_j|/M_j = 1 - 2^-j on bases M_j = 2^j.

    The measure product converges to a positive limit, and on [0, rho] the
    density f_0 = e^(-r) is at least e^(-rho), so lambda0 is bounded below
    by e^(-rho) times the measure at every depth.
    """
    if not (rho_fixed > 0.0) or not math.isfinite(rho_fixed):
        raise ValueError(f"rho_fixed must be positive and finite, got {rho_fixed!r}")
    if isinstance(levels, int):
        if levels < 1:
            raise ValueError("level count must be positive")
        bases = [2 ** j for j in range(1, levels + 1)]
        sizes = [2 ** j - 1 for j in range(1, levels + 1)]
    else:
        bases = [lv.base for lv in levels]
        sizes = [lv.size for lv in levels]
        if not bases:
            raise ValueError("need at least one level")
        for lv in levels:
            if not lv.is_canonical:
                raise ValueError("positive-measure demo levels must be canonical")
    rows = []
    measure = rho_fixed
    for n in range(1, len(bases) + 1):
        measure *= sizes[n - 1] / bases[n - 1]
        l0 = lambda0_canonical_levels(bases[:n], sizes[:n], rho_fixed)
        rows.append((n, measure, l0, math.exp(-rho_fixed) * measure))
    return PositiveMeasureResult(rows=rows, measure_limit_estimate=measure,
                                 norm_lower_bound=math.exp(-rho_fixed) * measure,
                                 rho=rho_fixed)
