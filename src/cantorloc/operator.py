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
(cantor.check_cap) limits a table's rows, not the depth.

The first eigenvalue has a closed product form built from per-level
relative areas.  The operator norm is the supremum over k, certified by
branch and bound over the same tree: a range of consecutive k is bounded
on each block by sup f_k times the block's measure (Part I's estimate),
and one of its indices from below by inf f_k times it; ranges whose bound
stays below an exact eigenvalue or such a floor are dropped, and the rest
split, in k and in blocks, down to groups that get exact rows.
The walk covers every k up to _last_index, past which lambda_k <=
P(k+1, rho) is far below the least subnormal; the truncation that the norm
reports, computed only when read, is the first k > rho with a tail under
the policy's threshold, found from a closed-form Poisson quantile.  No
array of the norm grows with rho: the cap limits the walk's live (range,
block) pairs alone.  Norms of one spec at several depths and radii
(operator_norms, for the sweeps) share one walk, each certified as it
would be alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Collection, Sequence, Union

import numpy as np

from .cantor import (
    BlockTree,
    CantorSpec,
    IndexedCantorSpec,
    IterateIntervals,
    _levels_of,
    block_tree,
    check_cap,
    check_depth,
    check_scale,
    continuous_iterate,
    frexp_quotient,
    level_products,
)
from .special import (
    INDEX_LIMIT,
    TAYLOR_ORDER,
    _EPS,
    _scaled_masses,
    _tree_masses,
    _validate_k,
    block_floor,
    block_measures,
    group_bound,
    regularized_lower_gamma,
    segment_mass_batch,
)

AnySpec = Union[CantorSpec, IndexedCantorSpec]


class DegenerateMassError(ArithmeticError):
    """A reference mass underflowed to zero, so a ratio is undefined."""


@dataclass(frozen=True, eq=False)
class LocalizationProblem:
    """The n-th iterate of *spec* scaled to [0, rho], rho = pi R^2.

    Construction checks the depth (cantor.check_depth) and the scale
    (cantor.check_scale), so n is an int and rho a positive float.
    Eigenvalues and the norm work on the iterate's block tree (`tree`),
    which enumerates nothing.  The merged intervals (`intervals`) are
    enumerated on first use, up to the cap (cantor.check_cap), and kept;
    nothing in this module reads them.
    """

    spec: AnySpec
    n: int
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_depth(self.n))
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
    return LocalizationProblem(spec=spec, n=n, rho=rho)


@dataclass(frozen=True)
class EigenvalueResult:
    k: int
    value: float
    err: float


def eigenvalue(problem: LocalizationProblem, k: int) -> EigenvalueResult:
    """lambda_k, the mass of f_k over the iterate, with an error bound; see
    special._tree_masses."""
    return _rows([problem.tree], np.zeros(1, dtype=int), np.array([_validate_k(k)]))[0]


def eigenvalue_table(problem: LocalizationProblem, k_max: int) -> list[EigenvalueResult]:
    """lambda_0 .. lambda_{k_max}; each row equals eigenvalue(problem, k).
    More rows than the cap raise CapExceededError."""
    k_max = _validate_k(k_max)
    check_cap(k_max + 1, "eigenvalue table rows")
    return _rows([problem.tree], np.zeros(k_max + 1, dtype=int), np.arange(k_max + 1))


# ----------------------------------------------------------------------
# First eigenvalue in closed form
# ----------------------------------------------------------------------

def _lambda0_depths(levels, rho: float) -> list[float]:
    """lambda_0 at depths 0 .. n of a level list, from one pass over the
    levels; each level is (base, size, letters), with letters None for a
    canonical alphabet {0, ..., size-1}.

    Depth n's value is (1 - e^(-t_n)) prod_{j<=n} (level j's factor), where
    a level's factor is sum_{a in A} e^(-a t), t = rho / (M_1 ... M_j); a
    canonical alphabet uses (1 - e^(-|A| t)) / (1 - e^(-t)), so alphabets
    too large to enumerate stay cheap, and its factor is 1.0 to double
    precision once t > 745.  Each t comes from the exact product
    (cantor.level_products, frexp_quotient) and the product keeps its binary
    exponent apart, so products past 2^1024 give neither 0 nor nan.  Depth
    n's running product is the prefix of depth n + 1's, so every entry is
    bit for bit the value of its own prefix of the levels.
    """
    if rho < 0.0 or not math.isfinite(rho):
        raise ValueError(f"rho must be finite and nonnegative, got {rho!r}")
    rho = float(rho)
    value, exponent = 1.0, 0  # the level product = value 2^exponent
    depths = []
    for j, product in enumerate(level_products(base for base, _, _ in levels)):
        mantissa, shift = frexp_quotient(rho, product)  # t_j = mantissa 2^shift
        if j:
            _, size, letters = levels[j - 1]
            t = math.ldexp(mantissa, shift)
            if t <= 0.0:
                mantissa_a, shift_a = frexp_quotient(size, 1)  # sizes past 2^1024 too
                value *= mantissa_a
                exponent += shift_a
            elif letters is not None:
                value *= math.fsum(math.exp(-a * t) for a in letters)
            elif t <= 745.0:
                value *= math.expm1(-size * t) / math.expm1(-t)
            value, scale = math.frexp(value)
            exponent += scale
        if shift < -60:  # 1 - e^(-t_j) = t_j to double precision below 2^-61
            depths.append(math.ldexp(value * mantissa, exponent + shift))
        else:
            depths.append(math.ldexp(value * -math.expm1(-math.ldexp(mantissa, shift)),
                                     exponent))
    return depths


def lambda0_closed_form(spec: AnySpec, n: int, rho: float) -> float:
    """lambda_0 of the n-th iterate at scale rho:

    (1 - e^(-rho M^-n)) * prod_{j=1..n} sum_{a in A} e^(-a rho M^-j),

    with level j's base and alphabet in place of M and A for an indexed
    spec, whose first n stored levels are used; _lambda0_depths forms the
    level products exactly, so depths with M^n past 2^1024 hold too.
    """
    return _lambda0_depths([(lv.base, lv.size, None if lv.is_canonical else lv.alphabet)
                            for lv in _levels_of(spec, n)], rho)[-1]


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
    if not a >= 1.0:
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
# Indices that the norm's ranges stop halving at, as one group.  Below
# SINGLES the width sqrt(k) of f_k is under GROUP, so the envelope of a
# group would be wider than each member; those indices are one group each.
GROUP = 8
SINGLES = GROUP * GROUP
# A block whose bound is below this share of the floor joins its range's
# fixed sum instead of splitting.
PRUNE_SHARE = 1e-6
# One exact row costs about as much as this many (range, block) bounds.
ROW_COST = 50
# Rows per walk over the block tree.  A walk holds the live (row, block)
# pairs of all its rows, and rows are independent, so this bounds its
# memory without changing a row.
WALK_ROWS = 2048


@dataclass(frozen=True)
class NormResult:
    """Certified operator norm: sup of lambda_k over all k >= 0.

    value is the eigenvalue at argmax_k, certified by operator_norm's walk
    alone.  value_err bounds |norm - value|: it is that row's err, widened
    to cover the runner-up's value + err when that reaches the winner's
    value - err, so an argmax closer to another index than their errors
    still gives a certified value.  k_truncation and tail_bound report where
    the spectrum's tail falls below the truncation policy, play no part in
    the value, and are computed when first read: k_truncation is
    _truncation(rho, value), and tail_bound = P(k_truncation + 2, rho), i.e.
    regularized_lower_gamma(k_truncation + 1, rho), dominates every
    eigenvalue past the truncation and satisfies tail_bound <
    max(TAIL_ABSOLUTE, TAIL_RELATIVE * value).
    """

    value: float
    argmax_k: int
    value_err: float
    rho: float

    @functools.cached_property
    def k_truncation(self) -> int:
        return _truncation(self.rho, self.value)

    @functools.cached_property
    def tail_bound(self) -> float:
        return regularized_lower_gamma(self.k_truncation + 1, self.rho)


def _rows(trees: Sequence[BlockTree], owner: np.ndarray, ks: np.ndarray
          ) -> list[EigenvalueResult]:
    """lambda_k for each k in ks over trees[owner[i]], from walks over the
    block trees (special._tree_masses), WALK_ROWS rows at a time.  A value
    that rounds above 1 is set to 1: lambda_k <= 1, as f_k is a probability
    density, so err still bounds the error.  A value or err that is not
    finite, as the expansion's error bound overflows on blocks as wide as
    rho = 2*10^9, raises ArithmeticError rather than pass as a row."""
    rows = []
    for start in range(0, ks.size, WALK_ROWS):
        part = ks[start:start + WALK_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):
            values, errs = _tree_masses(trees, owner[start:start + WALK_ROWS], part)
        bad = ~(np.isfinite(values) & np.isfinite(errs))
        if bad.any():
            i = np.argmax(bad)
            raise ArithmeticError(f"lambda_{part[i]} has no finite error bound "
                                  f"(value {float(values[i])!r}, err {float(errs[i])!r})")
        rows += [EigenvalueResult(k=int(k), value=min(float(v), 1.0), err=float(e) + 1e-300)
                 for k, v, e in zip(part, values, errs)]
    return rows


def _select(rows: Collection[EigenvalueResult]) -> tuple[EigenvalueResult, float]:
    """The row of largest value (the least k among equal values) and the
    error bound of the norm when every index outside rows is certified at
    most some row's value + err: the winner's err, or the distance to the
    highest value + err among the other rows where that is larger."""
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


def _poisson_quantile(rho: float, tail: float) -> int:
    """The Cornish-Fisher (1 - tail) quantile of a Poisson(rho) variable,
    floor(rho + z sqrt(rho) + (z^2 - 1) / 6) with erfc(z / sqrt 2) / 2 =
    tail, 0 < tail < 1/2.  z comes from Newton's method on log erfc, which
    is concave: from z = sqrt(-2 ln(2 tail)), at or right of the root, its
    steps fall monotonically to the root and stop where rounding ends them."""
    def step(z):
        q = 0.5 * math.erfc(z / math.sqrt(2.0))
        return z + math.log(q / tail) * q * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)

    z = math.sqrt(-2.0 * math.log(2.0 * tail))
    while (nxt := step(z)) < z:
        z = nxt
    return math.floor(rho + z * math.sqrt(rho) + (z * z - 1.0) / 6.0)


def _truncation(rho: float, norm: float) -> int:
    """First k > rho with P(k+1, rho) < max(TAIL_ABSOLUTE, TAIL_RELATIVE *
    norm), i.e. the (1 - threshold) quantile of a Poisson(rho) variable.
    The search starts at _poisson_quantile, clamped to floor(rho) + 1 ..
    _last_index, and, as P(k+1, rho) falls with k, settles k in one
    direction, with one regularized_lower_gamma per index: up while P(k+1,
    rho) is not below the threshold, else down while P(k, rho) is.  At
    every rho from 50 to 10^10 tried the start is the answer or one below
    it, so a call takes two evaluations; a start further off either way
    gives the same k."""
    threshold = max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm)
    last = _last_index(rho)
    k = min(max(_poisson_quantile(rho, threshold), math.floor(rho) + 1), last)
    if regularized_lower_gamma(k, rho) < threshold:
        while k - 1 > rho and regularized_lower_gamma(k - 1, rho) < threshold:
            k -= 1
        return k
    while k < last:
        k += 1
        if regularized_lower_gamma(k, rho) < threshold:
            return k
    raise ArithmeticError(f"norm failed to certify truncation by k={last} (rho={rho})")


def operator_norm(problem: LocalizationProblem) -> NormResult:
    """sup_k lambda_k at argmax_k with its value_err (_select), certified
    by branch and bound over the block tree (_walk, on this problem alone);
    the truncation report (NormResult.k_truncation, tail_bound) is left to
    the caller's first read."""
    return operator_norms([problem])[0]


def operator_norms(problems: Sequence[LocalizationProblem]) -> list[NormResult]:
    """operator_norm of each of several problems of one spec, from one walk
    (_walk); each result equals operator_norm's.  The cap holds the pairs
    of all problems in the walk together.  A rho whose _last_index reaches
    INDEX_LIMIT = 2^53 is refused before the walk, which holds indices as
    doubles (its ranges' ends and the exact rows' k), exact below 2^53.
    The walk's floor (_walk) keeps its pairs few where the norm lies far
    from k = 0: on {1, 2} at n = 16 and rho = 3^16 they peak at 173,016,
    1.76*10^6 when only exact rows lifted the prune threshold, and n = 18 at
    rho = 3^18 (549,888 pairs) certifies under the default cap.
    """
    if any(p.spec != problems[0].spec for p in problems):
        raise ValueError("the problems of operator_norms must share one spec")
    for problem in problems:
        if _last_index(problem.rho) >= INDEX_LIMIT:
            raise ValueError(f"rho = {problem.rho!r} puts the norm's indices past 2^53, "
                             "where doubles no longer hold every index")
    return _walk(problems)


def _group_first(g):
    """First index of group g on the norm's grid: one index per group below
    SINGLES, GROUP per group from there."""
    return np.where(g < SINGLES - 1, g + 1, SINGLES + GROUP * (g - (SINGLES - 1)))


def _walk(problems: Sequence[LocalizationProblem]) -> list[NormResult]:
    """The norm of each problem, all certified by one branch-and-bound walk
    over their block trees; each problem's result is what it gives alone.

    A problem's indices 1 .. _last_index lie on a grid of groups (GROUP,
    SINGLES), held as ranges of consecutive groups, each with its blocks
    still in play, bounded by group_bound.  Every problem enters at step 0
    with one range on its root block.  At each step a range of several
    groups halves, both halves keeping its blocks and fixed sum, and the
    problem's blocks split by its next level, except at its depth n and
    while one of its ranges of several groups spans more indices than a
    block is wide.  As f_k lives near x = k, a pair then spans about as
    much in k as in x, and the pairs follow the set, not rho.

    A problem's floor is a certified lower bound on some lambda_k: the
    largest of its exact rows' value - err, k = 0 first, and of each
    range's live blocks at its middle index, summed (block_floor).  Blocks
    below PRUNE_SHARE of the floor move into their range's fixed sum.  A
    range whose fixed sum plus block bounds, clamped at 1 (lambda_k <= 1),
    is at most the fold, value + err of _select's row, is certified within
    value_err, and one whose sum is below the floor is dropped: the range
    that holds the floor's index sums to at least the floor at every step,
    so it is never dropped, and ends by taking that row or by a fold that
    covers it.  Only a range of one group takes exact rows, to be done
    with: at depth n, when no block is left, or when its blocks at the next
    depth would cost more than its rows (ROW_COST).  Best first: of these,
    the range of largest bound takes its rows first, and the rest are held
    to the fold its rows give, so near-tie sets, where hundreds of groups
    bound within a rounding of 1, take one group's rows, not all of them.

    The problems share their first levels, so their blocks split alike;
    every decision above is taken per problem from its own floor, fold,
    pairs and depth, and the exact rows of all problems at a step take one
    walk of _rows, whose rows depend on their own problem alone.
    """
    trees = [p.tree for p in problems]
    measures = [np.stack([block_measures(t, 1.0), block_measures(t, -1.0)], 1) for t in trees]
    rows = [[row] for row in _rows(trees, np.arange(len(trees)), np.zeros(len(trees), dtype=int))]
    floor = np.array([r[0].value - r[0].err for r in rows])
    fold = np.array([r[0].value + r[0].err for r in rows])
    depths = np.array([t.depth for t in trees], dtype=int)
    k_last = np.array([_last_index(p.rho) for p in problems], dtype=np.int64)
    # Per problem, its block depth; per range in play, in problem order: its
    # first and last group (k_last > SINGLES is in the last), fixed sum and
    # problem; per pair, in range order: its range and block prefix.
    m = np.zeros(len(trees), dtype=int)
    owner = pair_range = np.arange(len(trees))
    lo, hi = np.zeros(len(trees), dtype=np.int64), SINGLES - 1 + (k_last - SINGLES) // GROUP
    fixed = np.zeros(len(trees))
    prefixes = np.concatenate([t.root() for t in trees] or [np.zeros(0, dtype=np.int64)])
    while lo.size:
        leaf = depths == m
        width = np.array([t.widths[d] for t, d in zip(trees, m)])
        measure, least_measure = np.array([mu[d] for mu, d in zip(measures, m)]).T
        count = lo.size
        first = _group_first(lo).astype(float)
        last = np.minimum(_group_first(hi + 1) - 1, k_last[owner]).astype(float)
        pair_owner = owner[pair_range]
        bound = group_bound(width[pair_owner], measure[pair_owner], prefixes,
                            first[pair_range], last[pair_range])
        prune = bound <= PRUNE_SHARE * floor[pair_owner]
        fixed += np.bincount(pair_range[prune], bound[prune], minlength=count)
        held = pair_range[~prune]
        live = np.bincount(held, minlength=count)
        total = fixed + np.bincount(held, bound[~prune], minlength=count)
        least = np.bincount(held, block_floor(width[owner[held]], least_measure[owner[held]],
                            prefixes[~prune], np.floor(0.5 * (first + last))[held]), minlength=count)
        np.maximum.at(floor, owner, least * (1.0 - (live + 1.0) * _EPS))
        alive = (np.minimum(total, 1.0) > fold[owner]) & (total >= floor[owner])
        multi = lo < hi
        # A problem's blocks split by its next level, except at its depth n
        # and while one of its ranges of several groups spans more indices
        # than a block is wide: those ranges halve first.
        wide = np.bincount(owner[alive & multi & (last - first + 1 > width[owner])],
                           minlength=len(trees)) > 0
        split = ~leaf & ~wide
        fan = np.array([t.levels[d].size if s else 1 for t, d, s in zip(trees, m, split)])
        pairs = live * fan[owner] * (1 + multi)
        exact = alive & ~multi & (leaf[owner] | (live == 0) | (pairs > ROW_COST * (last - first + 1)))
        # Best first: each problem's first exact range of largest bound takes
        # its rows, and the rest are held to the fold they give before theirs.
        pick = np.flatnonzero(exact)
        pick = pick[np.lexsort((-total[pick], owner[pick]))]
        head = np.zeros(count, dtype=bool)
        head[pick[np.diff(owner[pick], prepend=-1) != 0]] = True
        for take in (head, exact & ~head):
            take &= alive
            if not take.any():
                continue
            ks = np.concatenate([np.arange(x, y + 1) for x, y in zip(first[take], last[take])])
            whose = np.repeat(owner[take], (last - first + 1)[take].astype(int))
            for i, row in zip(whose, _rows(trees, whose, ks.astype(int))):
                rows[i].append(row)
            for i in set(owner[take].tolist()):
                floor[i] = max(floor[i], max(r.value - r.err for r in rows[i]))
                best = _select(rows[i])[0]
                fold[i] = best.value + best.err
            alive &= ~take & (np.minimum(total, 1.0) > fold[owner]) & (total >= floor[owner])
        check_cap(int(pairs[alive].sum()), "live (range, block) pairs of the norm's walk")
        keep = alive[pair_range] & ~prune
        pair_range, prefixes = pair_range[keep], prefixes[keep]
        parts = np.split(prefixes, np.cumsum(np.bincount(owner[pair_range],
                                                         minlength=len(trees)))[:-1])
        prefixes = np.concatenate([trees[i].children(m[i], part) if split[i] else part
                                   for i, part in enumerate(parts)])
        pair_range = np.repeat(pair_range, fan[owner[pair_range]])
        m += split
        # Ranges of several groups halve, each half with the range's blocks
        # and fixed sum; the rest are certified or have their rows.
        copies = alive * (1 + multi)
        start = np.cumsum(copies) - copies
        halved = multi[pair_range]
        ids = np.concatenate([start[pair_range], start[pair_range[halved]] + 1])
        order = np.argsort(ids, kind="stable")
        pair_range, prefixes = ids[order], np.concatenate([prefixes, prefixes[halved]])[order]
        src = np.repeat(np.arange(count), copies)
        upper = np.zeros(src.size, dtype=bool)
        upper[start[alive & multi] + 1] = True
        mid = (lo + hi) // 2
        lo, hi = (np.where(upper, mid[src] + 1, lo[src]),
                  np.where(multi[src] & ~upper, mid[src], hi[src]))
        fixed, owner = fixed[src], owner[src]
    return [NormResult(value=best.value, argmax_k=best.k, value_err=value_err, rho=p.rho)
            for p, (best, value_err) in zip(problems, map(_select, rows))]
