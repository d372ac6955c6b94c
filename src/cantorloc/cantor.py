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

import functools
import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

DEFAULT_MAX_INTERVALS = 10_000_000
# Unit roundoff of a double.
_UNIT = 2.0 ** -53
MAX_INTERVALS_ENV = "CTFL_MAX_INTERVALS"


class CapExceededError(Exception):
    """Raised when a computation would size its arrays past the cap."""


def resolve_max_intervals() -> int:
    """The cap: the environment override if set, else the default."""
    raw = os.environ.get(MAX_INTERVALS_ENV)
    cap = int(raw) if raw else DEFAULT_MAX_INTERVALS
    if cap < 1:
        raise ValueError(f"interval cap must be positive, got {cap}")
    return cap


def check_cap(count: int, what: str) -> None:
    """The package's one cap on work, checked before anything is allocated:
    raise CapExceededError when count (iterate intervals, eigenvalue-table
    rows or norm indices) passes it."""
    cap = resolve_max_intervals()
    if count > cap:
        raise CapExceededError(f"{count} {what} would pass the cap of {cap} "
                               f"(set {MAX_INTERVALS_ENV} to move it)")


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
    """The levels of the n-th iterate; the one check of an iterate depth."""
    if n < 0:
        raise ValueError(f"iterate depth must be nonnegative, got {n}")
    if isinstance(spec, IndexedCantorSpec):
        if n > spec.depth:
            raise ValueError(f"iterate depth {n} exceeds the {spec.depth} stored levels")
        return list(spec.levels[:n])
    return [spec] * n


def _root_prefix(levels: Sequence[CantorSpec]) -> np.ndarray:
    """The empty digit prefix: int64 when the base product fits, exact
    Python ints in an object array otherwise."""
    dtype = np.int64 if math.prod(lv.base for lv in levels) <= 2 ** 62 else object
    return np.zeros(1, dtype=dtype)


def _child_prefixes(level: CantorSpec, prefixes: np.ndarray) -> np.ndarray:
    """Digit prefixes one level down, N M + a for a in the level's
    alphabet, in order."""
    letters = np.asarray(level.alphabet, dtype=prefixes.dtype)
    return (prefixes[:, None] * level.base + letters[None, :]).reshape(-1)


def _enumerate_points(levels: Sequence[CantorSpec]) -> np.ndarray:
    """Sorted discrete points of the iterate, the digit prefixes of its
    last level."""
    check_cap(math.prod(lv.size for lv in levels), "iterate intervals")
    pts = _root_prefix(levels)
    for lv in levels:
        pts = _child_prefixes(lv, pts)
    return pts


def discrete_iterate(spec: CantorSpec, n: int) -> np.ndarray:
    """Sorted integer points sum_j a_j M^j of the n-th discrete iterate."""
    return _enumerate_points(_levels_of(spec, n))


def check_scale(levels: Sequence[CantorSpec], scale: float) -> float:
    """scale as a float, checked to be positive and finite with blocks of
    the iterate of these levels still representable."""
    scale = float(scale)
    if not (scale > 0.0) or not math.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    log_width = math.log(scale)
    if levels:
        log_width -= math.log(math.prod(lv.base for lv in levels))
    if log_width < -708.0:
        raise ValueError("iterate blocks are narrower than the smallest "
                         "representable double; reduce the depth")
    return scale


def _merged_intervals(levels: Sequence[CantorSpec], n: int, scale: float) -> IterateIntervals:
    scale = check_scale(levels, scale)
    base_product = math.prod(lv.base for lv in levels)
    pts = _enumerate_points(levels)
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
                       scale: float) -> IterateIntervals:
    """Merged closed intervals of the n-th iterate scaled to [0, scale]; an
    indexed spec uses its first n levels."""
    return _merged_intervals(_levels_of(spec, n), n, scale)


def indexed_intervals(spec: IndexedCantorSpec, n: int, scale: float) -> IterateIntervals:
    """continuous_iterate for per-level bases and alphabets."""
    return continuous_iterate(spec, n, scale)


@dataclass(frozen=True, eq=False)
class BlockTree:
    """The n-th iterate scaled to [0, scale] as a tree of self-similar blocks.

    A depth-m block is N W_m + W_m S_m: N = sum_{j<=m} a_j M_{j+1}...M_m is
    its digit prefix, W_m = scale / (M_1...M_m) its width, and S_m the unit
    iterate of levels m+1..n, the same set for every block of the depth.
    moments[m, p] is the centred moment mu_p = integral over S_m of
    (y - 1/2)^p dy, and moment_err[m, p] bounds its rounding.
    """

    levels: tuple[CantorSpec, ...]
    widths: np.ndarray = field(repr=False)
    moments: np.ndarray = field(repr=False)
    moment_err: np.ndarray = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def root(self) -> np.ndarray:
        """Digit prefix of the one depth-0 block."""
        return _root_prefix(self.levels)

    def children(self, m: int, prefixes: np.ndarray) -> np.ndarray:
        """Digit prefixes of the depth-(m+1) blocks inside the given depth-m
        blocks, in order."""
        return _child_prefixes(self.levels[m], prefixes)

    def centres(self, m: int, prefixes: np.ndarray) -> np.ndarray:
        """(N + 1/2) W_m for each digit prefix N."""
        return (2 * prefixes + 1).astype(float) * (0.5 * self.widths[m])


@functools.lru_cache(maxsize=64)
def _level_step(level: CantorSpec, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level of the moment recursion: S = union over a in A of
    (a + S') / M gives mu_p(S) = sum_i C(p, i) s_{p-i} M^(-i-1) mu_i(S'),
    with s_q = sum_a c_a^q and c_a = (2a + 1 - M) / (2M) the letter's
    offset from the centre.  Returns that matrix and two bounds, the same
    recursion in |c_a| widened by the rounding of its entries (1 + gamma)
    and the rounding alone (gamma)."""
    p = np.arange(order + 1)
    lag = p[:, None] - p[None, :]
    lower = lag >= 0
    lag = np.where(lower, lag, 0)
    binom = np.zeros((order + 1, order + 1))
    binom[:, 0] = 1.0
    for i in range(1, order + 1):
        binom[i, 1:] = binom[i - 1, 1:] + binom[i - 1, :-1]
    letters = np.asarray(level.alphabet, dtype=float)
    offsets = (2.0 * letters + 1.0 - level.base) / (2.0 * level.base)
    powers = offsets[None, :] ** p[:, None]
    shrink = float(level.base) ** -(p + 1.0)
    step = np.where(lower, binom * powers.sum(axis=1)[lag] * shrink[None, :], 0.0)
    bound = np.where(lower, binom * np.abs(powers).sum(axis=1)[lag] * shrink[None, :], 0.0)
    # Entry (p, i) carries q + |A| + 3 roundings (q = p - i) from the powers,
    # the letter sum and the scaling; row p's sum p more.
    gamma = (lag + p[:, None] + level.size + 3) * _UNIT
    return step, bound * (1.0 + gamma), bound * gamma


@functools.lru_cache(maxsize=64)
def _block_moments(levels: tuple[CantorSpec, ...], order: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Centred moments of the unit iterates of levels m+1..n for m = 0..n,
    with rounding bounds, from the bottom level up (_level_step); each
    level's bound also carries the error of the level below."""
    p = np.arange(order + 1)
    # Integral of (y - 1/2)^p over [0, 1].
    mu = np.where(p % 2 == 0, 0.5 ** p / (p + 1.0), 0.0)
    err = np.zeros(order + 1)
    rows = [(mu, err)]
    for lv in reversed(levels):
        step, carry, rounding = _level_step(lv, order)
        mu, err = step @ mu, carry @ err + rounding @ np.abs(mu)
        rows.append((mu, err))
    moments = np.array([r[0] for r in reversed(rows)])
    moment_err = np.array([r[1] for r in reversed(rows)])
    moments.flags.writeable = False
    moment_err.flags.writeable = False
    return moments, moment_err


def block_tree(spec: Union[CantorSpec, IndexedCantorSpec], n: int, scale: float,
               order: int) -> BlockTree:
    """Block tree of the n-th iterate scaled to [0, scale], with centred
    moments to the given order; nothing is enumerated."""
    levels = tuple(_levels_of(spec, n))
    scale = check_scale(levels, scale)
    products = [1]
    for lv in levels:
        products.append(products[-1] * lv.base)
    widths = np.array([scale / b for b in products])
    moments, moment_err = _block_moments(levels, order)
    return BlockTree(levels=levels, widths=widths, moments=moments,
                     moment_err=moment_err)


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


def shift_decomposition(spec: CantorSpec, n: int, scale: float) -> tuple[float, IterateIntervals]:
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
    return shift, continuous_iterate(canonical_of(spec), n, scale)
