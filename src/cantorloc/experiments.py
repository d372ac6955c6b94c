"""Sweep drivers reproducing the scaling phenomena of the localization norm.

Four families of experiments:

* fixed-base sweeps: norm, first-eigenvalue, and two normalized statistics
  (a dimension-scaled norm and a bounded-ratio witness) along
  rho(n) = gamma * M^(n/2);
* reverse-canonical counterexample: the norm ratio reverse/canonical of two
  fixed-base sweeps at gamma * M^(n/2), which decays instead of staying
  comparable;
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
from typing import NamedTuple, Sequence

import numpy as np

from .cantor import (CantorSpec, IndexedCantorSpec, canonical_of, check_cap, check_depth,
                     frexp_quotient, level_products, reverse_canonical_of)
from .operator import (
    _lambda0_depths,
    lambda0_closed_form,
    localization_problem,
    operator_norms,
)


class HypothesisViolationError(ValueError):
    """A generated level sequence broke the experiment's hypotheses."""


def _check_gamma(gamma: float) -> None:
    """The one check of a radius prefactor: positive and finite."""
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")


def _check_proper_size(base: int, size: int) -> None:
    """The one check of a base and a proper alphabet size in it, base first."""
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if not (1 <= size <= base - 1):
        raise ValueError(
            f"alphabet size must lie in [1, {base - 1}] for base {base}, got {size}")


class SweepRow(NamedTuple):
    """One depth of a fixed-base sweep.

    norm is operator_norm's value, certified at every depth: where the
    norms would pass the cap, the sweep raises CapExceededError instead of
    returning rows.
    scaled_norm = norm * (M/|A|)^n * rho^(d-1) with d = ln|A|/ln M;
    thm32_ratio = (rho+1)^d / (|A|^n (1 - e^(-M^-n rho))) * norm.
    """

    n: int
    rho: float
    norm: float
    lambda0_canonical: float
    scaled_norm: float
    thm32_ratio: float


def sweep_fixed(spec: CantorSpec, n_max: int, gamma: float = 1.0) -> list[SweepRow]:
    """Norm and scaling columns for iterates 0..n_max of one spec at
    rho(n) = gamma * M^(n/2); the norms are operator_norms' certified
    values, whose depths share walks, and their truncation reports, never
    read, are never computed.

    gamma must lie in (0, 1]: exactly the gammas for which the
    bounded-ratio hypothesis rho(n) <= M^n holds at every depth.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    n_max = check_depth(n_max)
    dim = spec.dimension
    problems = [localization_problem(spec, n, gamma * float(spec.base) ** (0.5 * n))
                for n in range(n_max + 1)]
    rows = []
    for problem, result in zip(problems, operator_norms(problems)):
        n, rho = problem.n, problem.rho
        l0_can = lambda0_closed_form(canonical_of(spec), n, rho)
        norm = result.value
        scaled = norm * (spec.base / spec.size) ** n * rho ** (dim - 1.0)
        ratio = ((rho + 1.0) ** dim
                 / (float(spec.size) ** n * -math.expm1(-rho * float(spec.base) ** -n))
                 * norm)
        rows.append(SweepRow(n=n, rho=rho, norm=norm, lambda0_canonical=l0_can,
                             scaled_norm=scaled, thm32_ratio=ratio))
    return rows


def sweep_reverse_counterexample(base: int, size: int, n_max: int, gamma: float = 1.0
                                 ) -> list[tuple[int, float]]:
    """(n, norm ratio reverse-canonical / canonical) at rho(n) = gamma * M^(n/2).

    The ratio of two sweep_fixed norm columns.  The ratio tending to zero is
    what rules out a two-sided sibling comparison at the critical radius.
    """
    _check_proper_size(base, size)
    check_cap(size, "alphabet digits")
    rev = reverse_canonical_of(CantorSpec(base, tuple(range(size))))
    return [(r.n, r.norm / c.norm)
            for r, c in zip(sweep_fixed(rev, n_max, gamma),
                            sweep_fixed(canonical_of(rev), n_max, gamma))]


# ----------------------------------------------------------------------
# Indexed constructions
# ----------------------------------------------------------------------

def _indexed_radius(gamma: float, product: int, n: int) -> float:
    """gamma sqrt(M_1 ... M_n) for a positive, finite gamma: the double
    gamma * math.sqrt(float(product)) wherever that is a normal double, with
    no overflow on the way.  A radius past the largest double is refused."""
    m, e = frexp_quotient(product, 1)
    g, shift = math.frexp(gamma)
    try:
        return math.ldexp(g * math.sqrt(math.ldexp(m, e & 1)), shift + (e >> 1))
    except OverflowError:
        raise ValueError(
            f"the radius gamma sqrt(M_1 ... M_n) passes the largest double at depth {n}, "
            f"so n_max must be at most {n - 1}") from None


@dataclass(frozen=True)
class IndexedDecayResult:
    """rows = (n, lambda0, fitted_beta) with the common fitted rate; the
    fit is least squares on ln lambda0 over the last ceil(n_max/2) depths,
    fitted_beta is minus its slope and beta_stderr the slope's standard
    error, from the residuals with n - 2 degrees of freedom."""

    rows: list[tuple[int, float, float]]
    fitted_beta: float
    beta_stderr: float
    seed: int
    levels: IndexedCantorSpec


def sweep_indexed_decay(M: int = 3, delta: float = 0.5, epsilon: float = 2.0 / 3.0,
                        gamma: float = 1.0, n_max: int = 20, seed: int = 0
                        ) -> IndexedDecayResult:
    """First-eigenvalue decay along n_max random canonical levels meeting
    the hypotheses: each base uniform in [M, floor(M^(1+delta))], then
    each size uniform in [1, floor(epsilon * base)], so the densities
    |A_j|/M_j stay at most epsilon; rho(n) = gamma * sqrt(M_1 ... M_n)."""
    if M < 2:
        raise ValueError("M must be at least 2")
    if not (delta >= 0.0):
        raise ValueError("delta must be nonnegative")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    _check_gamma(gamma)
    n_max = check_depth(n_max)
    if n_max < 5:
        raise ValueError("n_max must be at least 5, so the fit has three depths")
    # The bases are drawn as int64, so the top of their range stays below
    # 2^63; a power past 2^64 is not formed, since it may overflow a double.
    top = float(M) ** (1.0 + delta) if (1.0 + delta) * math.log2(M) < 64.0 else math.inf
    if top >= 2.0 ** 63:
        raise ValueError(f"delta = {delta:g} (--delta) puts the largest base M^(1+delta) "
                         f"= {M}^{1.0 + delta:g} at or past 2^63, beyond the int64 bases drawn")
    rng = np.random.default_rng(seed)
    levels = []
    for _ in range(n_max):
        base = int(rng.integers(M, int(top) + 1))
        largest = int(math.floor(epsilon * base))
        if largest < 1:
            raise HypothesisViolationError(
                f"epsilon={epsilon} admits no alphabet for base {base}")
        size = int(rng.integers(1, largest + 1))
        check_cap(size, "alphabet digits")
        levels.append(CantorSpec(base, tuple(range(size))))
    spec = IndexedCantorSpec(tuple(levels))
    pairs = [(n, lambda0_closed_form(spec, n, _indexed_radius(gamma, product, n)))
             for n, product in enumerate(level_products(lv.base for lv in levels))]
    tail = pairs[-math.ceil(n_max / 2):]
    ns = np.array([p[0] for p in tail], dtype=float)
    logs = np.log(np.array([p[1] for p in tail], dtype=float))
    slope, intercept = np.polyfit(ns, logs, 1)
    resid = logs - (slope * ns + intercept)
    stderr = math.sqrt(float(resid @ resid) / (len(ns) - 2)
                       / float(((ns - ns.mean()) ** 2).sum()))
    beta = -float(slope)
    rows = [(n, l0, beta) for n, l0 in pairs]
    return IndexedDecayResult(rows=rows, fitted_beta=beta, beta_stderr=stderr, seed=seed,
                              levels=spec)


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
    """Doubly-exponential bases M_j = M_1 ... M_{j-1} = M_1^(2^(j-2)) at fixed density.

    Every level keeps |A_j| = theta M_j with theta = size/base, an integer
    since every M_j is a multiple of M_1 = base.  The base products square
    at each step, so the radius rho(n) = gamma M_1^(2^(n-2)) passes the
    largest double within a few depths (at n = 11 for base 4 and gamma 1);
    an n_max that reaches such a depth is refused before any row.
    """
    _check_proper_size(base, size)
    n_max = check_depth(n_max)
    _check_gamma(gamma)
    bases, radii = [], []
    product = 1
    for n in range(1, n_max + 1):
        bases.append(product if n > 1 else base)
        product *= bases[-1]
        radii.append(_indexed_radius(gamma, product, n))
    sizes = [size * b // base for b in bases]
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
    canonical = [(b, a, None) for b, a in zip(bases, sizes)]
    rows = [(n, _lambda0_depths(canonical[:n], radius)[-1], lower)
            for n, radius in enumerate(radii, start=1)]
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
    if not isinstance(levels, Sequence):
        bases = [2 ** j for j in range(1, check_depth(levels) + 1)]
        if not bases:
            raise ValueError("level count must be positive")
        sizes = [b - 1 for b in bases]
    else:
        bases = [lv.base for lv in levels]
        sizes = [lv.size for lv in levels]
        if not bases:
            raise ValueError("need at least one level")
        for lv in levels:
            if not lv.is_canonical:
                raise ValueError("positive-measure demo levels must be canonical")
    # One pass over the levels gives lambda_0 at every depth.
    lambda0s = _lambda0_depths([(b, a, None) for b, a in zip(bases, sizes)], rho_fixed)
    rows = []
    measure = rho_fixed
    for n, (base, size, l0) in enumerate(zip(bases, sizes, lambda0s[1:]), start=1):
        measure *= size / base
        rows.append((n, measure, l0, math.exp(-rho_fixed) * measure))
    return PositiveMeasureResult(rows=rows, measure_limit_estimate=measure,
                                 norm_lower_bound=math.exp(-rho_fixed) * measure,
                                 rho=rho_fixed)
