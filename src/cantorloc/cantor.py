"""Cantor-type sets: alphabets, iterates, and the associated staircase.

A spec is a base M >= 2 together with an alphabet A, a nonempty subset of
{0, ..., M-1} of allowed digits.  The n-th discrete iterate is the integer
set { sum_j a_j M^j : a_j in A, j < n }; the continuous iterate scales it
into [0, L] and attaches a block of width L M^-n to every point.  Indexed
variants let every level use its own base and alphabet.

Enumeration happens in exact integer arithmetic, so blocks that share an
endpoint (consecutive digits, or carries like ...x,M-1 followed by x+1,0)
are recognized and merged without any float tolerance.  The measure of the
n-th iterate is L (|A|/M)^n by construction.

cantor_function walks digits of x and accumulates normalized mass, giving
the distribution function of the iterate in O(n) per evaluation.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

DEFAULT_MAX_INTERVALS = 10_000_000
MAX_INTERVALS_ENV = "CTFL_MAX_INTERVALS"


class CapExceededError(Exception):
    """Raised when an enumeration would produce more intervals than allowed."""


def resolve_max_intervals(explicit: int | None = None) -> int:
    """Effective interval cap: explicit argument, else the environment
    override, else the default."""
    if explicit is not None:
        cap = int(explicit)
    else:
        raw = os.environ.get(MAX_INTERVALS_ENV)
        cap = int(raw) if raw else DEFAULT_MAX_INTERVALS
    if cap < 1:
        raise ValueError(f"interval cap must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class CantorSpec:
    """Base and digit alphabet of a Cantor-type construction.

    The alphabet may equal the full digit set {0, ..., base-1}; the helper
    paths that compare against full-interval masses rely on that degenerate
    case, while the constructions that need a genuine gap validate
    properness at their own entry points.
    """

    base: int
    alphabet: tuple[int, ...]

    def __post_init__(self):
        base = int(self.base)
        if base < 2:
            raise ValueError(f"base must be at least 2, got {self.base!r}")
        letters = tuple(int(a) for a in self.alphabet)
        if not letters:
            raise ValueError("alphabet must be nonempty")
        if sorted(set(letters)) != list(letters):
            raise ValueError(f"alphabet must be strictly increasing, got {letters}")
        if letters[0] < 0 or letters[-1] >= base:
            raise ValueError(f"alphabet letters must lie in [0, {base - 1}], got {letters}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "alphabet", letters)

    @property
    def size(self) -> int:
        return len(self.alphabet)

    @property
    def ratio(self) -> float:
        """Per-level measure ratio |A| / M."""
        return self.size / self.base

    @property
    def dimension(self) -> float:
        """ln|A| / ln M, the similarity dimension of the limit set."""
        return math.log(self.size) / math.log(self.base)

    @property
    def is_proper(self) -> bool:
        return self.size < self.base

    @property
    def is_canonical(self) -> bool:
        return self.alphabet == tuple(range(self.size))

    @property
    def is_reverse_canonical(self) -> bool:
        return self.alphabet == tuple(range(self.base - self.size, self.base))


def canonical_of(spec: CantorSpec) -> CantorSpec:
    """Same base and size, letters packed against 0."""
    return CantorSpec(spec.base, tuple(range(spec.size)))


def reverse_canonical_of(spec: CantorSpec) -> CantorSpec:
    """Same base and size, letters packed against M-1."""
    return CantorSpec(spec.base, tuple(range(spec.base - spec.size, spec.base)))


@dataclass(frozen=True)
class IndexedCantorSpec:
    """Per-level bases and alphabets; level j of an n-iterate uses levels[j]."""

    levels: tuple[CantorSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        for lv in self.levels:
            if not isinstance(lv, CantorSpec):
                raise ValueError("levels must be CantorSpec instances")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def base_product(self, n: int) -> int:
        return math.prod(lv.base for lv in self.levels[:n])

    def size_product(self, n: int) -> int:
        return math.prod(lv.size for lv in self.levels[:n])


@dataclass(frozen=True, eq=False)
class IterateIntervals:
    """Merged closed intervals of one continuous iterate, scaled to [0, scale]."""

    depth: int
    scale: float
    # block quantum times block count, exact in integer arithmetic; summing
    # float endpoint differences instead cancels catastrophically at depth
    measure: float
    lows: np.ndarray = field(repr=False)
    highs: np.ndarray = field(repr=False)
    # Block count times block quantum for each interval; highs - lows loses
    # the width to the rounding of both endpoints.
    widths: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.lows.size)


def _levels_of(spec: Union[CantorSpec, IndexedCantorSpec], n: int) -> list[CantorSpec]:
    if isinstance(spec, IndexedCantorSpec):
        if n > spec.depth:
            raise ValueError(f"iterate depth {n} exceeds the {spec.depth} stored levels")
        return list(spec.levels[:n])
    return [spec] * n


def _enumerate_points(levels: Sequence[CantorSpec], cap: int) -> np.ndarray:
    """Sorted discrete points of the iterate: int64 when the base product
    fits, exact Python ints in an object array otherwise."""
    total = math.prod(lv.size for lv in levels)
    if total > cap:
        raise CapExceededError(
            f"iterate would enumerate {total} intervals, above the cap of {cap} "
            f"(override with {MAX_INTERVALS_ENV} or max_intervals)")
    dtype = np.int64 if math.prod(lv.base for lv in levels) <= 2 ** 62 else object
    pts = np.zeros(1, dtype=dtype)
    for lv in levels:
        letters = np.asarray(lv.alphabet, dtype=dtype)
        pts = (pts[:, None] * lv.base + letters[None, :]).reshape(-1)
    return pts


def discrete_iterate(spec: CantorSpec, n: int,
                     max_intervals: int | None = None) -> np.ndarray:
    """Sorted integer points sum_j a_j M^j of the n-th discrete iterate."""
    if n < 0:
        raise ValueError(f"iterate depth must be nonnegative, got {n}")
    return _enumerate_points(_levels_of(spec, n), resolve_max_intervals(max_intervals))


def _merged_intervals(levels: Sequence[CantorSpec], n: int, scale: float,
                      cap: int) -> IterateIntervals:
    scale = float(scale)
    if not (scale > 0.0) or not math.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    base_product = math.prod(lv.base for lv in levels)
    log_width = math.log(scale) - math.log(base_product) if n else math.log(scale)
    if log_width < -708.0:
        raise ValueError("iterate blocks are narrower than the smallest "
                         "representable double; reduce the depth")
    pts = _enumerate_points(levels, cap)
    width = scale / base_product
    gaps = np.nonzero(np.diff(pts) > 1)[0]
    starts = np.concatenate(([0], gaps + 1))
    ends = np.concatenate((gaps, [pts.size - 1]))
    lows = pts[starts].astype(float) * width
    # The exact integer endpoint, rounded once.
    highs = (pts[ends] + 1).astype(float) * width
    counts = (ends - starts + 1).astype(float)
    measure = width * float(math.prod(lv.size for lv in levels))
    return IterateIntervals(depth=n, scale=scale, measure=measure,
                            lows=lows, highs=highs, widths=counts * width)


def continuous_iterate(spec: Union[CantorSpec, IndexedCantorSpec], n: int,
                       scale: float,
                       max_intervals: int | None = None) -> IterateIntervals:
    """Merged closed intervals of the n-th iterate scaled to [0, scale]; an
    indexed spec uses its first n levels."""
    if n < 0:
        raise ValueError(f"iterate depth must be nonnegative, got {n}")
    cap = resolve_max_intervals(max_intervals)
    return _merged_intervals(_levels_of(spec, n), n, scale, cap)


def indexed_intervals(spec: IndexedCantorSpec, n: int, scale: float,
                      max_intervals: int | None = None) -> IterateIntervals:
    """continuous_iterate for per-level bases and alphabets."""
    return continuous_iterate(spec, n, scale, max_intervals)


def cantor_function(spec: CantorSpec, n: int, x: float) -> float:
    """Distribution function of the n-th iterate on the unit scale.

    Fraction of the iterate's measure lying in [0, x], by digit recursion;
    a point exactly on a block boundary belongs to the block on its right,
    which does not change the value.
    """
    if n < 0:
        raise ValueError(f"iterate depth must be nonnegative, got {n}")
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    letters = spec.alphabet
    size = spec.size
    base = spec.base
    member = [False] * base
    for a in letters:
        member[a] = True
    # The walk steps through the exact ratio num / den = x, so the rank of
    # the block reached and the remainder are exact and the value is divided
    # once: it is the correctly rounded (rank + remainder) / |A|^j, and
    # rounding cannot break monotonicity.
    num, den = x.as_integer_ratio()
    rank = 0
    for depth in range(1, n + 1):
        digit, num = divmod(num * base, den)
        rank = rank * size + bisect_left(letters, digit)
        if not member[digit]:
            return rank / size ** depth
    return (rank * den + num) / (size ** n * den)


def inner_rho(spec: CantorSpec, n: int, rho: float) -> float:
    """Radial-squared inner shift rho (M - |A|) sum_{j=1..n} M^-j.

    For reverse-canonical alphabets this is where the n-th iterate starts;
    the largest eigenvalue then has index at least floor(inner_rho).
    """
    if n < 0:
        raise ValueError(f"iterate depth must be nonnegative, got {n}")
    geom = (1.0 - float(spec.base) ** -n) / (spec.base - 1)
    return float(rho) * (spec.base - spec.size) * geom


def shift_decomposition(spec: CantorSpec, n: int, scale: float,
                        max_intervals: int | None = None
                        ) -> tuple[float, IterateIntervals]:
    """Reverse-canonical iterate as a rigid shift of the canonical one.

    Returns (inner_rho(spec, n, scale), canonical iterate); translating the
    canonical intervals by that shift reproduces the reverse-canonical
    iterate.
    """
    if not spec.is_reverse_canonical:
        raise ValueError("shift decomposition applies to reverse-canonical alphabets")
    if not spec.is_proper:
        raise ValueError("shift decomposition needs a proper alphabet")
    shift = inner_rho(spec, n, scale)
    return shift, continuous_iterate(canonical_of(spec), n, scale, max_intervals)
