"""Localization-operator spectra over Cantor-type sets.

With a Gaussian window, the localization operator over a spherically
symmetric set is diagonal in the Hermite basis and its k-th eigenvalue is
the mass of the gamma density f_k over the radial-squared profile of the
set.  Here the profile is the n-th Cantor iterate scaled to [0, rho] with
rho = pi R^2, so lambda_k is the integral of f_k over the iterate.

eigenvalue and eigenvalue_table integrate over the iterate's
self-similarity rather than its |A|^n intervals: special._tree_masses, the
package's one quadrature, walks the iterate's block tree, expands f_k over
each block in a Taylor series against the block's centred moments, and
bounds the error (err).  Nothing is enumerated, so the cap
(cantor.check_cap) limits the rows and rho, not the depth.

The first eigenvalue has a closed product form built from per-level
relative areas.  The operator norm is the supremum over k, certified by
branch and bound over the same tree: a group of consecutive k is bounded
on each block by sup f_k times the block's measure (Part I's estimate),
groups whose summed bound stays below an exact eigenvalue are dropped, and
the rest get exact rows.  The walk covers every k up to _last_index, past
which lambda_k <= P(k+1, rho) is far below the least subnormal; the
truncation that operator_norm reports is the first k > rho with a tail
under the policy's threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .cantor import (
    BlockTree,
    CantorSpec,
    IndexedCantorSpec,
    IterateIntervals,
    _levels_of,
    block_tree,
    check_cap,
    check_scale,
    continuous_iterate,
)
from .special import (
    _EPS,
    TAYLOR_ORDER,
    _log_density,
    _log_orders,
    _prefactor_error,
    _scaled_masses,
    _tree_masses,
    _validate_k,
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
    """The n-th iterate of *spec* scaled to [0, rho], rho = pi R^2.

    Construction checks the depth (cantor._levels_of) and the scale
    (cantor.check_scale), so rho is a positive float.  Eigenvalues and the
    norm work on the iterate's block tree (`tree`), which enumerates
    nothing.  The merged intervals (`intervals`) are enumerated on first
    use, up to the cap (cantor.check_cap), and kept; nothing in this module
    reads them.
    """

    spec: AnySpec
    n: int
    rho: float

    def __post_init__(self):
        levels = _levels_of(self.spec, self.n)
        object.__setattr__(self, "rho", check_scale(levels, self.rho))

    @functools.cached_property
    def intervals(self) -> IterateIntervals:
        return continuous_iterate(self.spec, self.n, self.rho)

    @functools.cached_property
    def tree(self) -> BlockTree:
        return block_tree(self.spec, self.n, self.rho, TAYLOR_ORDER)


def localization_problem(spec: AnySpec, n: int, rho: float) -> LocalizationProblem:
    """Problem whose set is the n-th iterate of *spec* scaled to [0, rho]."""
    return LocalizationProblem(spec=spec, n=int(n), rho=rho)


@dataclass(frozen=True)
class EigenvalueResult:
    k: int
    value: float
    err: float


def eigenvalue(problem: LocalizationProblem, k: int) -> EigenvalueResult:
    """lambda_k, the mass of f_k over the iterate, with an error bound; see
    special._tree_masses."""
    return _rows(problem.tree, np.array([_validate_k(k)]))[0]


def eigenvalue_table(problem: LocalizationProblem, k_max: int) -> list[EigenvalueResult]:
    """lambda_0 .. lambda_{k_max}; each row equals eigenvalue(problem, k).
    More rows than the cap raise CapExceededError."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    check_cap(k_max + 1, "eigenvalue table rows")
    return _rows(problem.tree, np.arange(k_max + 1))


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
        masses, _ = _scaled_masses(k, lows, highs - lows, ref)
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

# Truncation policy of the norm: it stops at the first k > rho whose tail
# P(k+1, rho) is below max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm).
TAIL_ABSOLUTE = 1e-12
TAIL_RELATIVE = 1e-9
# Indices bounded together, as one group, on each block.  Below SINGLES the
# width sqrt(k) of f_k is under GROUP, so the envelope of a group would be
# wider than each member; those indices are bounded one by one.
GROUP = 8
SINGLES = GROUP * GROUP
# A block whose bound is below this share of the target joins its group's
# fixed sum instead of splitting.
PRUNE_SHARE = 1e-6
# One exact row costs about as much as this many (group, block) bounds.
ROW_COST = 50
# While the next depth would hold more (group, block) pairs than this, the
# target is raised by the exact rows of the group of largest bound.
RAISE_PAIRS = 3000


@dataclass(frozen=True)
class NormResult:
    """Certified operator norm: sup of lambda_k over all k >= 0.

    value is the eigenvalue at argmax_k, certified by the walk alone
    (_norm_walk); k_truncation and tail_bound are a report of where the
    spectrum's tail falls below the truncation policy and play no part in
    the value.  value_err bounds |norm - value|: it is that row's err,
    widened to cover the runner-up's value + err when that reaches the
    winner's value - err, so an argmax closer to another index than their
    errors still gives a certified value.  tail_bound =
    P(k_truncation + 2, rho), i.e. regularized_lower_gamma(k_truncation + 1,
    rho), dominates every eigenvalue past the truncation and satisfies
    tail_bound < max(TAIL_ABSOLUTE, TAIL_RELATIVE * value).
    """

    value: float
    argmax_k: int
    k_truncation: int
    tail_bound: float
    value_err: float


def group_bound(tree: BlockTree, m: int, prefixes: np.ndarray, first: np.ndarray,
                last: np.ndarray) -> np.ndarray:
    """Upper bound on the mass of f_k over the depth-m block of each digit
    prefix, for every k in first .. last (broadcast against the prefixes).

    The mass is at most sup f_k on the block [L, L + W] times its measure
    W mu_0.  With j = floor(L), the sup over the block and the group is
    f_k(clip(k, L, L + W)) at k = clip(j, first, last): up to j it is
    f_k(L), which rises with k since f_(k+1)(L) / f_k(L) = L / (k+1); past
    j no f_k exceeds f_k(k), which falls with k, and f_(j+1)(j+1) =
    f_j(j+1) <= f_j(L).  A rounded L on the other side of an integer i
    moves j by one, which changes the sup by a factor L / i within 3 eps
    of 1.  Rounding goes outward: f_k's prefactor error, the ends' 3 eps
    through d log f_k / dx = k/x - 1 and that factor, the sums in log
    space, mu_0's moment_err and the last products.
    """
    w = float(tree.widths[m])
    low = prefixes.astype(float) * w
    k = np.clip(np.floor(low), first, last)
    x = np.clip(k, low, (prefixes + 1).astype(float) * w)
    log_m = _log_orders(k + 1.0)
    log_f = _log_density(k, x, log_m)
    log_sup = (log_f + np.log1p(_prefactor_error(k, x, log_f, log_m))
               + _EPS * (4.0 * np.abs(k - x) + 2.0 * np.abs(log_f) + 8.0))
    measure = w * (tree.moments[m, 0] + tree.moment_err[m, 0]) * (1.0 + 8.0 * _EPS)
    # An exp that underflows is off by at most the least subnormal.
    return np.exp(log_sup) * measure + 5e-324


def _rows(tree: BlockTree, ks: np.ndarray) -> list[EigenvalueResult]:
    """lambda_k for each k in ks from the walk over the block tree
    (special._tree_masses)."""
    values, errs = _tree_masses(tree, ks)
    return [EigenvalueResult(k=int(k), value=float(v), err=float(e) + 1e-300)
            for k, v, e in zip(ks, values, errs)]


def _select(rows: Sequence[EigenvalueResult]) -> tuple[EigenvalueResult, float]:
    """The row of largest value (the least k among equal values) and the
    error bound of the norm when every index outside rows is certified below
    some row's value - err: the winner's err, or the distance to the highest
    value + err among the other rows where that is larger."""
    best = max(rows, key=lambda r: (r.value, -r.k))
    reach = max((r.value + r.err for r in rows if r is not best), default=-math.inf)
    return best, max(best.err, reach - best.value)


def _last_index(rho: float) -> int:
    """An index past every truncation: P(k+1, rho) falls below even
    TAIL_ABSOLUTE within O(sqrt(rho)) indices past rho.

    Past it, lambda_k <= P(k+1, rho) <= P(K, rho) with K = _last_index + 1,
    and the Poisson Chernoff bound P(K, rho) <= e^(-rho) (e rho / K)^K is
    below 10^-703 for every rho (largest near rho = 305), far below the
    least subnormal; so a walk over k <= _last_index bounds the sup over
    all k."""
    return int(rho + 60.0 * math.sqrt(rho + 1.0) + 400.0)


def _truncation(rho: float, norm: float) -> int:
    """First k > rho with P(k+1, rho) < max(TAIL_ABSOLUTE, TAIL_RELATIVE *
    norm).  The sum of f_j(rho) over j > k, added from the top, gives a
    start: log f_j(rho) follows from log f_first(rho) by the ratios rho / j.
    P(k+1, rho) falls with k, so regularized_lower_gamma settles k from the
    start in either direction: up while P(k+1, rho) is not below the
    threshold, then down while P(k, rho) is.  A start that rounding puts
    off by a few indices either way gives the same k."""
    threshold = max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm)
    first = math.floor(rho) + 1
    last = _last_index(rho)
    ratios = np.log(rho / np.arange(first + 1.0, last + 1.0))
    tails = np.cumsum(np.exp(log_density(first, rho) + np.cumsum(ratios))[::-1])[::-1]
    k = first + int(np.argmax(np.append(tails, 0.0) < threshold))
    while regularized_lower_gamma(k, rho) >= threshold:
        k += 1
        if k > last:
            raise ArithmeticError(f"norm failed to certify truncation by k={last} (rho={rho})")
    while k - 1 > rho and regularized_lower_gamma(k - 1, rho) < threshold:
        k -= 1
    return k


def _norm_walk(problem: LocalizationProblem) -> tuple[EigenvalueResult, float]:
    """The row of sup_k lambda_k and its value_err (_select), certified by
    branch and bound over the block tree.

    The indices 1 .. _last_index are split into groups (GROUP, SINGLES),
    and the tree is walked from the root with, per group, the blocks still
    in play, each bounded by group_bound.  Blocks below PRUNE_SHARE of the
    target move into their group's fixed sum, and a group whose fixed sum
    plus block bounds is at most the target is certified: none of its
    eigenvalues exceeds the target, the largest value - err of the exact
    rows so far, starting with k = 0.  Exact rows come from _tree_masses,
    one walk per set of rows: at each depth for the uncertified group of
    largest bound while the next depth would hold more than RAISE_PAIRS
    (group, block) pairs, which raises the target before the pairs
    multiply; for any group whose blocks at the next depth would cost more
    than its rows (ROW_COST); and at depth n, where blocks cannot split,
    for every group left.  The norm is the largest exact row, and no
    index past _last_index can exceed it.  Nothing is enumerated, but the
    arrays grow with rho: floor(rho) + 2 indices are held to the cap, so a
    larger rho raises CapExceededError.
    """
    rho = problem.rho
    check_cap(math.floor(rho) + 2, "norm indices")
    tree = problem.tree
    k_last = _last_index(rho)
    rows = _rows(tree, np.zeros(1, dtype=int))
    target = rows[0].value - rows[0].err
    first = np.append(np.arange(1.0, SINGLES), np.arange(SINGLES, k_last + 1.0, GROUP))
    last = np.append(first[1:] - 1.0, k_last)
    count = first.size
    fixed = np.zeros(count)
    group = np.arange(count)
    prefixes = np.repeat(tree.root(), count)
    for m in range(tree.depth + 1):
        bound = group_bound(tree, m, prefixes, first[group], last[group])
        prune = bound <= PRUNE_SHARE * target
        fixed += np.bincount(group[prune], bound[prune], minlength=count)
        live = np.bincount(group[~prune], minlength=count)
        total = fixed + np.bincount(group[~prune], bound[~prune], minlength=count)
        alive = np.zeros(count, dtype=bool)
        alive[group] = total[group] > target
        if m == tree.depth:
            exact = alive
        else:
            pairs = live * tree.levels[m].size
            exact = alive & ((live == 0) | (pairs > ROW_COST * (last - first + 1)))
            if pairs[alive].sum() > RAISE_PAIRS:
                exact[np.argmax(np.where(alive, total, -np.inf))] = True
        if exact.any():
            ks = np.concatenate([np.arange(a, b + 1) for a, b in
                                 zip(first[exact].astype(int), last[exact].astype(int))])
            rows += _rows(tree, ks)
            target = max(r.value - r.err for r in rows)
            alive &= ~exact & (total > target)
        keep = alive[group] & ~prune
        if not keep.any():
            break
        prefixes = tree.children(m, prefixes[keep])
        group = np.repeat(group[keep], tree.levels[m].size)
    return _select(rows)


def operator_norm(problem: LocalizationProblem) -> NormResult:
    """sup_k lambda_k from _norm_walk, with the truncation past rho
    (_truncation) and its tail bound P(k_truncation + 2, rho) reported."""
    best, value_err = _norm_walk(problem)
    k_trunc = _truncation(problem.rho, best.value)
    return NormResult(value=best.value, argmax_k=best.k, k_truncation=k_trunc,
                      tail_bound=regularized_lower_gamma(k_trunc + 1, problem.rho),
                      value_err=value_err)
