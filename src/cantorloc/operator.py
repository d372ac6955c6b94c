"""Localization-operator spectra over Cantor-type sets.

With a Gaussian window, the localization operator over a spherically
symmetric set is diagonal in the Hermite basis and its k-th eigenvalue is
the mass of the gamma density f_k over the radial-squared profile of the
set.  Here the profile is the n-th Cantor iterate scaled to [0, rho] with
rho = pi R^2, so lambda_k is the integral of f_k over the iterate.

eigenvalue and eigenvalue_table integrate over the iterate's
self-similarity rather than its |A|^n intervals (quadrature by
self-similarity; Strichartz 2000, Amer. Math. Monthly 107:316).  A depth-m
block is a copy of the unit (n-m)-iterate scaled by its width W and
centred at c, so its mass is W f_k(c) sum_p a_p mu_p, from the Taylor
coefficients a_p of f_k(c + W u) / f_k(c) and the block's centred moments
mu_p, which one recursion over the levels gives for every depth.  Blocks
are expanded where the Cauchy bound of the remainder is negligible, pruned
where sup f_k times their measure is, and split otherwise; at depth n a
block is an exact interval and goes to segment_mass_batch.  The error
bound err covers the remainders, the pruned masses, and the rounding of
the coefficients, the moments, the prefactor f_k(c) and the blocks'
centres and widths.  Nothing is enumerated, so the depth is not limited
by the interval cap.

The first eigenvalue has a closed product form built from per-level
relative areas.  The operator norm is the supremum over k, certified by
branch and bound over the same tree: a group of consecutive k is bounded
on each block by sup f_k times the block's measure (Part I's estimate),
groups whose summed bound stays below an exact eigenvalue are dropped, and
the rest get exact rows.  Its truncation is certified by lambda_k <=
P(k+1, rho).
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
    check_scale,
    continuous_iterate,
)
from .special import (
    _EPS,
    _prefactor_error,
    _quadrature,
    _validate_k,
    expansion_range,
    expansion_tails,
    expansion_sums,
    log_density,
    regularized_lower_gamma,
    segment_mass_batch,
)

AnySpec = Union[CantorSpec, IndexedCantorSpec]

# Quadrature by self-similarity.  The order P of the Taylor expansion of f_k
# around a block's centre.
TAYLOR_ORDER = 40
# Refinement ratio: for k > 0 a block is expanded only where its width is at
# most this share of its centre's radius (log f_k's series in the offset
# converges within the radius); nearer the origin it is split.
MAX_STEP = 0.5
# Each block's Taylor remainder, or its whole mass where it is pruned, stays
# below this share of a lower bound on the eigenvalue.
BLOCK_TOL = 1e-18
# Blocks below this mass are pruned even where the eigenvalue is as small.
_MASS_FLOOR = 1e-305
# Radii of the circles |u| = R that bound the Taylor remainder.
_CAUCHY_RADII = (2.0, 4.0, 8.0)
_LOG_DIAMETERS = np.log(2.0 * np.array(_CAUCHY_RADII))[:, None, None]
# Indices whose block trees are refined together.
_ROWS = 64
_UNIT = 2.0 ** -53


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

    Eigenvalues and the norm work on the iterate's block tree (`tree`),
    which enumerates nothing.  The merged intervals (`intervals`) are
    enumerated on first use, up to the interval cap, and kept; nothing in
    this module reads them.
    """

    spec: AnySpec
    n: int
    rho: float
    max_intervals: int | None = None

    def __post_init__(self):
        if not (self.rho >= 0.0) or not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho!r}")
        if self.n < 0:
            raise ValueError(f"iterate depth must be nonnegative, got {self.n}")
        _levels_of(self.spec, self.n)

    @functools.cached_property
    def intervals(self) -> IterateIntervals:
        return continuous_iterate(self.spec, self.n, self.rho, self.max_intervals)

    @functools.cached_property
    def tree(self) -> BlockTree:
        return block_tree(self.spec, self.n, self.rho, TAYLOR_ORDER)


def localization_problem(spec: AnySpec, n: int, rho: float,
                         max_intervals: int | None = None) -> LocalizationProblem:
    """Problem whose set is the n-th iterate of *spec* scaled to [0, rho]."""
    rho = check_scale(_levels_of(spec, n), rho)
    return LocalizationProblem(spec=spec, n=int(n), rho=rho, max_intervals=max_intervals)


@dataclass(frozen=True)
class EigenvalueResult:
    k: int
    value: float
    err: float


def eigenvalue(problem: LocalizationProblem, k: int) -> EigenvalueResult:
    """lambda_k, the mass of f_k over the iterate, with an error bound; see
    _tree_masses."""
    return _tree_masses(problem.tree, np.array([_validate_k(k)]))[0]


def eigenvalue_table(problem: LocalizationProblem, k_max: int) -> list[EigenvalueResult]:
    """lambda_0 .. lambda_{k_max}; each row equals eigenvalue(problem, k)."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    return _rows(problem.tree, np.arange(k_max + 1))


def _row_sums(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum of x over each row's entries in mask, added in column order, so a
    row's sum does not depend on the other rows."""
    rows, cols = np.nonzero(mask)
    return np.bincount(rows, x[rows, cols], minlength=x.shape[0])


def _log_sum(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log of the sum of exp(x) over each row's entries in mask, as
    _row_sums adds them; -inf for a row with none."""
    top = np.where(mask, x, -np.inf).max(axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return top + np.log(_row_sums(mask, np.exp(x - top[:, None])))


def _tree_masses(tree: BlockTree, ks: np.ndarray) -> list[EigenvalueResult]:
    """lambda_k for each k in ks by quadrature over the block tree.

    Each depth-m block B = c + W (S_m - 1/2) carries the mass W f_k(c) sum_p
    a_p mu_p, with a_p the Taylor coefficients of f_k(c + W u) / f_k(c)
    (special.expansion_sums) and mu_p the block's centred moments.  The tree
    is walked from the root.  At each depth, for each k, a block is
    expanded where W <= MAX_STEP c (any W at k = 0) and its Cauchy
    remainder is below BLOCK_TOL of a lower bound on lambda_k (the blocks so
    far, each at the minimum of f_k on it); it is pruned where sup f_k times
    its measure is below that; otherwise it is split.  A depth-n block that
    is still split is an exact interval and goes to segment_mass_batch.
    Which blocks a k uses depends on k alone, and every sum over a row's
    blocks adds that row's own terms in order (_row_sums, expansion_sums),
    so a row is the same in any batch.

    err adds, per block: the remainder or the pruned mass; the rounding of
    the coefficients (a running bound), of the moments and of the sum;
    f_k(c)'s prefactor error; and the rounding of the block's centre and
    width (2 eps c and eps W), through the derivatives of the mass in c and
    W.  For the interval blocks it adds segment_mass_batch's bound and
    3 eps of the right end times sup f_k for the endpoints.
    """
    count = ks.size
    kcol = ks.astype(float)[:, None]
    n = tree.depth
    log_acc = np.full(count, -np.inf)
    err = np.zeros(count)
    parts = [(ks[:0], np.zeros(0))]  # (rows, values) of the summed blocks
    expanded = []  # (rows, centres, widths, depths, g0) to expand
    prefixes = tree.root()
    need = np.ones((count, 1), dtype=bool)
    for m in range(n + 1):
        w = float(tree.widths[m])
        c = tree.centres(m, prefixes)
        g0 = log_density(kcol, c)
        log_scale = g0 + (math.log(w) + math.log(tree.moments[m, 0]))
        low, high = expansion_range(kcol, c, w)
        lower = log_scale + low
        upper = log_scale + high
        log_lower = np.logaddexp(log_acc, _log_sum(need, lower))
        tol = np.maximum(log_lower + math.log(BLOCK_TOL), math.log(_MASS_FLOOR))[:, None]
        tails = log_scale + expansion_tails(kcol, c, w, _CAUCHY_RADII)
        rem = (tails - (TAYLOR_ORDER + 1) * _LOG_DIAMETERS).min(axis=0)
        expand = need & ((w <= MAX_STEP * c) | (kcol == 0.0)) & (rem <= tol)
        prune = need & ~expand & (upper <= tol)
        split = need & ~(expand | prune)
        log_acc = np.logaddexp(log_acc, _log_sum(expand, lower))
        err += _row_sums(prune, np.exp(upper))
        rows, cols = np.nonzero(expand)
        if rows.size:
            err += np.bincount(rows, np.exp(rem[rows, cols]), minlength=count)
            expanded.append((rows, c[cols], np.full(rows.size, w),
                             np.full(rows.size, m), g0[rows, cols]))
        if m == n:
            rows, cols = np.nonzero(split)
            for row in np.unique(rows):
                sel = cols[rows == row]
                lo = prefixes[sel].astype(float) * w
                hi = (prefixes[sel] + 1).astype(float) * w
                vals, rels = segment_mass_batch(int(ks[row]), lo, hi, np.full(sel.size, w))
                endpoints = 3.0 * _EPS * hi / w * np.exp(upper[row, sel])
                err[row] += float(np.sum(vals * rels + endpoints))
                parts.append((np.full(sel.size, row), vals))
            break
        keep = split.any(axis=0)
        if not keep.any():
            break
        prefixes = tree.children(m, prefixes[keep])
        need = np.repeat(split[:, keep], tree.levels[m].size, axis=1)
    if expanded:
        rows, c, w, depth, g0 = (np.concatenate(v) for v in zip(*expanded))
        kp = ks[rows].astype(float)
        mu = tree.moments[depth]
        weight = tree.moment_err[depth] + (TAYLOR_ORDER + 2) * _UNIT * np.abs(mu)
        sums, sums_err, d_centre, d_width = expansion_sums(kp, c, w, mu, weight)
        front = np.exp(g0)
        vals = front * (w * sums)
        # The mass moves by D_c per unit shift of the centre and by S + D_w
        # per unit stretch of the width, with f_k(c) factored out.
        geometry = 1.01 * _EPS * (2.0 * c * np.abs(d_centre) + w * np.abs(sums + d_width))
        # The last term covers a prefactor below the normal range.
        err += np.bincount(rows, front * (w * sums_err + geometry)
                           + np.abs(vals) * (_prefactor_error(kp, c, g0) + 2.0 * _EPS)
                           + 5e-324 * w * np.abs(sums), minlength=count)
        parts.append((rows, vals))
    rows, vals = (np.concatenate(v) for v in zip(*parts))
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(count + 1))
    vals = vals[order].tolist()
    out = []
    for row in range(count):
        value = math.fsum(vals[bounds[row]:bounds[row + 1]])
        out.append(EigenvalueResult(k=int(ks[row]), value=value,
                                    err=float(err[row]) + _UNIT * abs(value) + 1e-300))
    return out


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
    """Certified operator norm: max eigenvalue over k <= k_truncation.

    value is the eigenvalue at argmax_k.  value_err bounds |norm - value|:
    it is that row's err, widened to cover the runner-up's value + err when
    that reaches the winner's value - err, so an argmax closer to another
    index than their errors still gives a certified value.  tail_bound =
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
    log_f = log_density(k, x)
    log_sup = (log_f + np.log1p(_prefactor_error(k, x, log_f))
               + _EPS * (4.0 * np.abs(k - x) + 2.0 * np.abs(log_f) + 8.0))
    measure = w * (tree.moments[m, 0] + tree.moment_err[m, 0]) * (1.0 + 8.0 * _EPS)
    # An exp that underflows is off by at most the least subnormal.
    return np.exp(log_sup) * measure + 5e-324


def _rows(tree: BlockTree, ks: np.ndarray) -> list[EigenvalueResult]:
    """_tree_masses over ks in batches of _ROWS indices."""
    rows = []
    for first in range(0, ks.size, _ROWS):
        rows += _tree_masses(tree, ks[first:first + _ROWS])
    return rows


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
    TAIL_ABSOLUTE within O(sqrt(rho)) indices past rho."""
    return int(rho + 60.0 * math.sqrt(rho + 1.0) + 400.0)


def _truncation(rho: float, norm: float) -> int:
    """First k > rho with P(k+1, rho) < max(TAIL_ABSOLUTE, TAIL_RELATIVE *
    norm).  The sum of f_j(rho) over j > k, added from the top, locates it
    to within rounding; regularized_lower_gamma then settles it, since
    P(k+1, rho) falls with k."""
    threshold = max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm)
    first = math.floor(rho) + 1
    last = _last_index(rho)
    tails = np.cumsum(np.exp(log_density(np.arange(last, first - 1, -1.0), rho)))[::-1]
    k = first + int(np.argmax(np.append(tails[1:], 0.0) < threshold))
    while regularized_lower_gamma(k, rho) >= threshold:
        k += 1
        if k > last:
            raise ArithmeticError(f"norm failed to certify truncation by k={last} (rho={rho})")
    while k - 1 > rho and regularized_lower_gamma(k - 1, rho) < threshold:
        k -= 1
    return k


def operator_norm(problem: LocalizationProblem) -> NormResult:
    """sup_k lambda_k, certified by branch and bound over the block tree.

    The indices 1 .. _last_index are split into groups (GROUP, SINGLES),
    and the tree is walked from the root with, per group, the blocks still
    in play, each bounded by group_bound.  Blocks below PRUNE_SHARE of the
    target move into their group's fixed sum, and a group whose fixed sum
    plus block bounds is at most the target is certified: none of its
    eigenvalues exceeds the target, the largest value - err of the exact
    rows so far, starting with k = 0.  Exact rows come from _tree_masses in
    batches of _ROWS: at each depth for the uncertified group of largest
    bound while the next depth would hold more than RAISE_PAIRS (group,
    block) pairs, which raises the target before the pairs multiply; for
    any group whose blocks at the next depth would cost more than its rows
    (ROW_COST); and at depth n, where blocks cannot split, for every group
    left.  The norm is the largest exact row (see _select for value_err),
    and k_truncation follows from it.  Nothing is enumerated.
    """
    rho = problem.rho
    if rho == 0.0:
        return NormResult(0.0, 0, 1, 0.0, 0.0)
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
    best, value_err = _select(rows)
    k_trunc = _truncation(rho, best.value)
    return NormResult(value=best.value, argmax_k=best.k, k_truncation=k_trunc,
                      tail_bound=regularized_lower_gamma(k_trunc + 1, rho),
                      value_err=value_err)
