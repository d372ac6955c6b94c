"""Localization-operator spectra over Cantor-type sets.

With a Gaussian window, the localization operator over a spherically
symmetric set is diagonal in the Hermite basis and its k-th eigenvalue is
the mass of the gamma density f_k over the radial-squared profile of the
set.  Here the profile is the n-th Cantor iterate scaled to [0, rho] with
rho = pi R^2, so

    lambda_k = sum over merged blocks [lo, hi] of integral_lo^hi f_k.

The first eigenvalue has a closed product form built from per-level
relative areas; the operator norm is the supremum over k, located by a
scan whose truncation is certified by lambda_k <= P(k+1, rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .cantor import (
    CantorSpec,
    IndexedCantorSpec,
    IterateIntervals,
    _levels_of,
    continuous_iterate,
)
from .special import (
    _quadrature,
    log_density,
    regularized_lower_gamma,
    segment_mass_batch,
)

AnySpec = Union[CantorSpec, IndexedCantorSpec]


class DegenerateMassError(ArithmeticError):
    """A reference mass underflowed to zero, so a ratio is undefined."""


def ball_bound(measure: float) -> float:
    """Upper bound 1 - e^(-m) on every eigenvalue of a set of measure m."""
    if measure < 0.0:
        raise ValueError("measure must be nonnegative")
    return -math.expm1(-measure)


@dataclass(frozen=True, eq=False)
class LocalizationProblem:
    """A radial-squared profile (merged intervals in [0, rho]) plus rho."""

    rho: float
    intervals: IterateIntervals

    def __post_init__(self):
        if not (self.rho >= 0.0) or not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho!r}")
        if abs(self.intervals.scale - self.rho) > 1e-12 * max(self.rho, 1.0):
            raise ValueError("interval scale disagrees with rho")


def localization_problem(spec: AnySpec, n: int, rho: float,
                         max_intervals: int | None = None) -> LocalizationProblem:
    """Problem whose set is the n-th iterate of *spec* scaled to [0, rho]."""
    ivals = continuous_iterate(spec, n, rho, max_intervals)
    return LocalizationProblem(rho=float(rho), intervals=ivals)


@dataclass(frozen=True)
class EigenvalueResult:
    k: int
    value: float
    err: float


def eigenvalue(problem: LocalizationProblem, k: int) -> EigenvalueResult:
    """lambda_k: summed segment masses with an accumulated error bound."""
    ivals = problem.intervals
    vals, rels = segment_mass_batch(k, ivals.lows, ivals.highs, ivals.widths)
    value = float(np.sum(vals))
    err = float(np.sum(vals * rels)) + 1e-300
    return EigenvalueResult(k=int(k), value=value, err=err)


def eigenvalue_table(problem: LocalizationProblem, k_max: int) -> list[EigenvalueResult]:
    """lambda_0 .. lambda_{k_max}, each through the full segment-mass path."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    return [eigenvalue(problem, k) for k in range(k_max + 1)]


# ----------------------------------------------------------------------
# First eigenvalue in closed form
# ----------------------------------------------------------------------

def _lambda0(levels, rho: float) -> float:
    """Level product for lambda_0; each level is (base, size, letters), with
    letters None for a canonical alphabet {0, ..., size-1}.

    A level's factor is sum_{a in A} e^(-a t), t = rho / (M_1 ... M_j); a
    canonical alphabet uses (1 - e^(-|A| t)) / (1 - e^(-t)), so alphabets
    too large to enumerate stay cheap, and its factor is 1.0 to double
    precision once t > 745.
    """
    if rho < 0.0 or not math.isfinite(rho):
        raise ValueError(f"rho must be finite and nonnegative, got {rho!r}")
    if rho == 0.0:
        return 0.0
    prod = 1.0
    value = 1.0
    for base, size, letters in levels:
        prod *= base
        t = rho / prod
        if t <= 0.0:
            value *= size
        elif letters is not None:
            value *= math.fsum(math.exp(-a * t) for a in letters)
        elif t <= 745.0:
            value *= math.expm1(-size * t) / math.expm1(-t)
    return value * -math.expm1(-rho / prod)


def lambda0_closed_form(spec: AnySpec, n: int, rho: float) -> float:
    """lambda_0 of the n-th iterate at scale rho:

    (1 - e^(-rho M^-n)) * prod_{j=1..n} sum_{a in A} e^(-a rho M^-j),

    with level j's base and alphabet in place of M and A for an indexed
    spec, whose first n stored levels are used.
    """
    if n < 0:
        raise ValueError("iterate depth must be nonnegative")
    return _lambda0([(lv.base, lv.size, None if lv.is_canonical else lv.alphabet)
                     for lv in _levels_of(spec, n)], rho)


def lambda0_canonical_levels(bases: Sequence[int], sizes: Sequence[int],
                             rho: float) -> float:
    """lambda_0 for canonical per-level alphabets given as (base, size) pairs.

    For the doubly-exponential constructions, whose alphabets are too large
    to store as letter tuples.
    """
    if len(bases) != len(sizes):
        raise ValueError("bases and sizes must have equal length")
    levels = []
    for b, a in zip(bases, sizes):
        b = int(b)
        a = int(a)
        if b < 2 or not (1 <= a <= b):
            raise ValueError(f"invalid canonical level (base={b}, size={a})")
        levels.append((b, a, None))
    return _lambda0(levels, rho)


# ----------------------------------------------------------------------
# Relative areas
# ----------------------------------------------------------------------

def relative_area(spec: CantorSpec, k: int, s: float, T: float) -> float:
    """Alphabet-weighted share of the f_k mass of [s, s+T]:

    sum_{a in A} mass over [s + aT/M, s + (a+1)T/M]  /  mass over [s, s+T].

    Far-tail segments whose masses underflow the double range are weighed
    relative to f_k at the densest point of [s, s+T]; a denominator with no
    representable mass even then raises DegenerateMassError.
    """
    if T <= 0.0 or not math.isfinite(T):
        raise ValueError(f"segment length T must be positive, got {T!r}")
    if s < 0.0:
        raise ValueError(f"segment start must be nonnegative, got {s!r}")
    M = spec.base
    lows = np.array([s] + [s + a * T / M for a in spec.alphabet])
    highs = np.array([s + T] + [s + (a + 1) * T / M for a in spec.alphabet])
    masses, _ = segment_mass_batch(k, lows, highs)
    if masses[0] <= 1e-250:
        ref = np.full(lows.size, min(max(float(k), s), s + T))
        masses, _ = _quadrature(k, ref, log_density(k, ref), lows - ref, highs - lows)
        if masses[0] == 0.0:
            raise DegenerateMassError(
                f"segment [s, s+T] = [{s}, {s + T}] carries no representable mass "
                f"for k={k}")
    return min(math.fsum(masses[1:]) / float(masses[0]), 1.0)


def limit_relative_area(theta: float, a: float, T: float) -> float:
    """Large-k limit of the canonical relative area at start s = a k:

    (1 - e^(-theta T (1 - 1/a))) / (1 - e^(-T (1 - 1/a))),  and theta at a = 1.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta!r}")
    if a < 1.0:
        raise ValueError(f"start multiplier a must be >= 1, got {a!r}")
    if T <= 0.0 or not math.isfinite(T):
        raise ValueError(f"segment length T must be positive, got {T!r}")
    if a == 1.0:
        return theta
    c = T * (1.0 - 1.0 / a)
    return math.expm1(-theta * c) / math.expm1(-c)


# ----------------------------------------------------------------------
# Operator norm
# ----------------------------------------------------------------------

# Truncation policy of the norm scan: it stops at the first k > rho whose
# tail P(k+2, rho) is below max(TAIL_ABSOLUTE, TAIL_RELATIVE * best so far).
TAIL_ABSOLUTE = 1e-12
TAIL_RELATIVE = 1e-9
# Scan window: outside [k - sqrt(2kT), k + T + sqrt(T^2 + 2kT)] the density
# f_k is at most e^-T f_k(k) <= e^-T / sqrt(2 pi k).
WINDOW_T = 40.0
# The scan reseeds its density vector from log space every _RESEED indices.
_RESEED = 64


def scan_window(k_first: int, k_last: int) -> tuple[float, float]:
    """Union of the windows of k_first .. k_last, as (low, high).

    k - sqrt(2kT) is least at k = T/2 and increasing above it; the upper end
    k + T + sqrt(T^2 + 2kT) is increasing everywhere.
    """
    t = WINDOW_T
    k_low = max(float(k_first), t / 2.0)
    return (k_low - math.sqrt(2.0 * t * k_low),
            k_last + t + math.sqrt(t * t + 2.0 * t * k_last))


@dataclass(frozen=True)
class NormResult:
    """Certified operator norm: max eigenvalue over k <= k_truncation.

    tail_bound = P(k_truncation + 2, rho), i.e.
    regularized_lower_gamma(k_truncation + 1, rho), dominates every
    eigenvalue past the truncation and satisfies
    tail_bound < max(TAIL_ABSOLUTE, TAIL_RELATIVE * value).
    """

    value: float
    argmax_k: int
    k_truncation: int
    tail_bound: float
    value_err: float


def operator_norm(problem: LocalizationProblem) -> NormResult:
    """Scan lambda_k upward until the remaining tail is certified negligible.

    The scan advances with the exact finite identity
    P(k+1, x) = P(k, x) - x^k e^(-x) / k!, so
    lambda_k - lambda_{k-1} = sum over blocks of f_k(lo) - f_k(hi).  The
    endpoints are kept interleaved (lo_0, hi_0, lo_1, ...), which is sorted
    because the blocks are merged, and the density vector carries the signs
    +, -, +, ...; it steps multiplicatively, f_k(x) = f_{k-1}(x) x / k, and
    the density f_k(rho) of the running tail steps the same way.  Both are
    reseeded from log space every 64 indices so rounding drift and
    underflow cannot accumulate across the scan.

    Each reseed keeps only the endpoints inside the union of the next 64
    windows [k - sqrt(2kT), k + T + sqrt(T^2 + 2kT)], T = WINDOW_T = 40
    (see scan_window).  f_k is monotone on either side of its mode k and at
    most e^-T f_k(k) <= e^-T / sqrt(2 pi k) outside the window, so the
    skipped endpoints on each side form an alternating series bounded by
    its largest term: each increment is off by at most
    2 e^-T / sqrt(2 pi k), about 5.7e-16 summed over the 7,100 indices
    of a scan at rho = 3^8.  The reduction is np.sum, not a BLAS dot, so
    it runs on one thread.

    The truncation is refreshed exactly at the stopping index, and the
    winning eigenvalue is recomputed through the full segment-mass path.
    """
    rho = problem.rho
    ivals = problem.intervals
    if rho == 0.0 or ivals.measure == 0.0:
        return NormResult(0.0, 0, 1, 0.0, 0.0)

    endpoints = np.column_stack([ivals.lows, ivals.highs]).ravel()
    signs = np.tile([1.0, -1.0], ivals.lows.size)
    with np.errstate(divide="ignore"):
        log_ep = np.log(endpoints)

    at_start = eigenvalue(problem, 0)
    lam = at_start.value
    best = lam
    best_k = 0
    # Running P(k+1, rho), updated by the same identity; the certificate is
    # refreshed exactly at the stopping index before being reported.
    p_tail = regularized_lower_gamma(0, rho)
    # A generous hard stop: the certificate fires within O(sqrt(rho))
    # indices past rho even at the absolute threshold.
    k_hard = int(rho + 60.0 * math.sqrt(rho + 1.0) + 400.0)
    k = 0
    g = None
    k_seed = 0
    while True:
        if k > rho and p_tail < max(TAIL_ABSOLUTE, TAIL_RELATIVE * best):
            exact_tail = regularized_lower_gamma(k + 1, rho)
            if exact_tail < max(TAIL_ABSOLUTE, TAIL_RELATIVE * best):
                k_trunc = k
                tail = exact_tail
                break
            p_tail = exact_tail
        if k >= k_hard:
            raise ArithmeticError(
                f"norm scan failed to certify truncation by k={k} (rho={rho})")
        k += 1
        if g is None or k - k_seed >= _RESEED:
            low, high = scan_window(k, k + _RESEED - 1)
            first = int(np.searchsorted(endpoints, low, side="left"))
            stop = int(np.searchsorted(endpoints, high, side="right"))
            x = endpoints[first:stop]
            g = signs[first:stop] * np.exp(
                k * log_ep[first:stop] - x - math.lgamma(k + 1))
            tail_density = math.exp(log_density(k, rho))
            k_seed = k
        else:
            g *= x
            g *= 1.0 / k
            tail_density *= rho / k
        lam += float(np.sum(g))
        p_tail -= tail_density
        if lam > best:
            best = lam
            best_k = k
    final = at_start if best_k == 0 else eigenvalue(problem, best_k)
    return NormResult(value=final.value, argmax_k=best_k, k_truncation=k_trunc,
                      tail_bound=tail, value_err=final.err)
