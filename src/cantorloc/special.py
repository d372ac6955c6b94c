"""Gamma-density mass kernel.

Everything downstream reduces to integrals of the unit-scale gamma density

    f_k(r) = r^k e^(-r) / k!,   r >= 0,  integer k >= 0,

over finite unions of intervals.  The cumulative mass from the origin is the
regularized lower incomplete gamma function P(k+1, x); the complementary tail
has the finite closed form

    Q(k+1, x) = e^(-x) * sum_{n=0..k} x^n / n!,

which this module evaluates in log space so it survives x far beyond the
range where e^(-x) is representable.  One engine, lower_tail_batch, takes
an array of x at fixed k and computes each entry on the side where it is
small: the lower series for P below the crossover x = k + 1, the Poisson
sum for Q above it, and the other one as the complement.  The one scalar,
regularized_lower_gamma, is a one-element call of it.

Segment masses over [a, b] (segment_mass_batch) are formed from whichever
cumulative difference (lower masses or tail masses) cancels less.  Where
both would lose more than ~40 bits, and for log_segment_mass and the far
tail of relative_area, they come from the package's one quadrature: the
walk over a block tree (_tree_masses), which takes all rows of a call
down the tree together, expands each block's density in a Taylor series
around its centre, splits the blocks where that does not converge and
prunes the negligible ones, with a certified bound.
Eigenvalues walk the Cantor iterate's tree (operator.py); a segment walks
the tree of the full alphabet {0, 1} in base 2 stretched onto [a, b],
relative to f_k at its maximum there, so masses below the double range
keep their digits.  log_density takes an array of k as well as one k.
group_bound bounds a block's mass over a range of k from above, and
block_floor its mass at one k from below, for the norm's walk.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .cantor import _UNIT, BlockTree, CantorSpec, block_tree

_EPS = 2.220446049250313e-16
_LOG_SQRT_2PI = 0.9189385332046727
# Indices from 2^53 on are not all exact as doubles: 2^53 + 1 rounds to 2^53.
INDEX_LIMIT = 2 ** 53
# Cancellation guard for cumulative differences: below this ratio of the
# larger operand the difference has lost ~41 bits and the walk takes over.
_CANCEL_SWITCH = 2.0 ** -12
# Series iteration guard; generous because convergence near x ~ k needs
# O(sqrt(k)) terms.
_MAX_ITER = 2_000_000
# The engine loops test convergence once per this many terms.  Terms keep
# shrinking past convergence and each is below half an ulp of its running
# total (1e-17 * total for the series, 1e-18 against a total >= 1 for the
# Poisson sum), so the extra terms leave every element unchanged.
_CHECK_EVERY = 16
# Offsets 0 .. 15 as a column: one division gives the factors of 16 terms.
_STEPS = np.arange(float(_CHECK_EVERY))[:, None]


def _validate_orders(k) -> np.ndarray:
    """One index or an array of indices k as floats, checked to be
    nonnegative integers below INDEX_LIMIT, so that each float is the index
    given."""
    kf = np.asarray(k, dtype=float)
    if kf.ndim == 0:
        valid = float(kf).is_integer() and 0.0 <= kf < INDEX_LIMIT
    else:
        valid = np.all((kf >= 0.0) & (kf < INDEX_LIMIT)) and np.all(np.floor(kf) == kf)
    if not valid:
        raise ValueError(f"index k must be a nonnegative integer below 2^53, got {k!r}")
    return kf


def _validate_k(k) -> int:
    """One index k as an int, checked as _validate_orders does."""
    return int(_validate_orders(k))


def _stirling_corr(m):
    """Stirling-series remainder: lgamma(m) - (m-1/2)ln m + m - ln sqrt(2pi)."""
    w = 1.0 / (m * m)
    return ((((w / 1188.0 - 1.0 / 1680.0) * w + 1.0 / 1260.0) * w
             - 1.0 / 360.0) * w + 1.0 / 12.0) / m


def _phi(d):
    """phi(1 + d) = d - log(1 + d) >= 0, accurate near d = 0."""
    d = np.asarray(d, dtype=float)
    out = np.empty_like(d)
    near = np.abs(d) < 0.5
    dn = d[near]
    # The m-th term is (-dn)^m / m and the sum exceeds dn^2 / 3.  From the
    # first m with t^(m-2) / m <= 1e-19, t = max |dn|, on, every term is
    # below 1e-18 of its sum, under a quarter ulp, so the terms left out
    # could not change it.
    t = float(np.max(np.abs(dn), initial=0.0))
    m_stop = 3
    while m_stop < 200 and t ** (m_stop - 2) > 1e-19 * m_stop:
        m_stop += 1
    neg = -dn
    term = dn * dn
    acc = term / 2.0
    for m in range(3, m_stop + 1):
        term = term * neg
        acc += term / m
    out[near] = acc
    df = d[~near]
    # df = -1 (subnormal r / large mode) wants the +inf limit, not a warning.
    with np.errstate(divide="ignore"):
        out[~near] = df - np.log1p(df)
    return out


# lgamma(k + 1) for the orders that take the direct form.
_LGAMMA_SMALL = np.array([math.lgamma(j + 1.0) for j in range(21)])


def _recentred(k, r, m, log_m):
    """log f_k(r) for k > 20 in the recentered Stirling form, m = k + 1:
    -k phi(r / m) - (r / m - 1) - log(2 pi m) / 2 - (Stirling remainder),
    phi(u) = u - 1 - log u, built from the distance to the mode so that its
    rounding error stays ~eps * |result| instead of ~eps * lgamma(k+1)."""
    # d = r / m - 1 from the difference r - m, which is exact near the
    # mode; the rounded quotient r / m would cost k |d| eps / 2.
    d = (r - m) / m
    phi = _phi(d)
    # Below r = m / 2, 1 + d would cost k eps m / r; log u does not, and
    # phi(u) at the rounded u = r / m costs k eps / 2.
    far = d < -0.5
    if far.any():
        u = r[far] / m[far]
        with np.errstate(divide="ignore"):
            phi[far] = (u - 1.0) - np.log(u)
        d[far] = u - 1.0
    return -k * phi - d - 0.5 * log_m - _LOG_SQRT_2PI - _stirling_corr(m)


def log_density(k, r):
    """log f_k(r) = k ln r - r - lgamma(k+1), elementwise; -inf where f_k = 0.

    k is one index or an array of indices, broadcast against r; above k = 20
    the recentered form (_recentred) is used.  Two scalars give a float."""
    kf = _validate_orders(k)
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0.0):
        raise ValueError("radial argument must be a nonnegative number")
    # log(k + 1) on the indices as given, before broadcasting repeats them.
    out = _log_density(kf, r, _log_orders(kf + 1.0))
    return float(out[0]) if kf.ndim == 0 and r.ndim == 0 else out


def _log_density(kf: np.ndarray, r: np.ndarray, log_m) -> np.ndarray:
    """log_density of checked float arrays, given log(k + 1) on kf; an
    array of at least one dimension."""
    shape = np.broadcast(kf, r).shape or (1,)
    # Nothing below writes to these, so arrays of the full shape, as the
    # walks pass, are read as they are.
    kf, log_m, r = (v if np.shape(v) == shape else np.full(shape, v) for v in (kf, log_m, r))
    out = np.full(shape, -np.inf)
    pos = r > 0.0
    direct = pos & (kf <= 20.0)
    kd = kf[direct]
    if kd.size:
        rd = r[direct]
        out[direct] = kd * np.log(rd) - rd - _LGAMMA_SMALL[kd.astype(int)]
    centred = pos & (kf > 20.0)
    kc = kf[centred]
    if kc.size:
        out[centred] = _recentred(kc, r[centred], kc + 1.0, log_m[centred])
    out[(kf == 0.0) & ~pos] = 0.0
    return out


def _log_orders(m):
    """log m for integer-valued m, by math.log once per distinct value."""
    if np.ndim(m) == 0:
        return math.log(m)
    values, inverse = np.unique(m, return_inverse=True)
    logs = np.fromiter(map(math.log, values.tolist()), float, values.size)
    return logs[inverse.reshape(np.shape(m))]


def _prefactor_error(k, r, log_f, log_m=None):
    """Relative error bound of exp(log_f), log_f = log_density(k, r): eps
    times the terms log_f is summed from and, in the recentered form, the
    rounding of phi's series: with n terms (the first one d^2 / 2) its sum
    is off by at most (n/2 + 2) d^2 / 2 units, k times that in log_f; below
    r = m / 2, k / 2 units from log(r / m).  log_m is log(k + 1), if the
    caller has it."""
    m = np.asarray(k, dtype=float) + 1.0
    if log_m is None:
        log_m = _log_orders(m)
    d = np.abs(r - m) / m
    count = 2.0 + math.log(1e-19) / np.log(np.minimum(np.maximum(d, 1e-300), 0.5))
    series = np.where(d < 0.5, (0.25 * count + 1.0) * (m - 1.0) * d * d,
                      np.where(r < 0.5 * m, 0.5 * (m - 1.0), 0.0))
    lg = _LGAMMA_SMALL[np.minimum(m, 21.0).astype(int) - 1]
    terms = np.where(m <= 21.0, 2.0 * (r + lg), 2.0 * log_m + series)
    return _EPS * (2.0 + 4.0 * np.abs(log_f) + terms)


def regularized_lower_gamma(k: int, x: float) -> float:
    """P(k+1, x): mass of f_k on [0, x]; one element of lower_tail_batch."""
    return float(lower_tail_batch(k, [x])[0][0])


# ----------------------------------------------------------------------
# Taylor expansion of the density over a block
# ----------------------------------------------------------------------
#
# Around a centre c, with u in [-1/2, 1/2] the position in a block of width
# w, f_k(c + w u) = f_k(c) h(u) with h(u) = (1 + t u)^k e^(-w u), t = w / c.
# For integer k, h is entire.  At k = 0, h = e^(-w u) whatever t, and the
# functions below take t = 0 there.  They take k, c and w as arrays
# broadcast together.

def _step(k, c, w):
    """t = w / c, or 0 where k = 0."""
    return np.where(k > 0.0, w / c, 0.0)


def expansion_range(k, c, w):
    """(min, max) of log h on [-1/2, 1/2].

    log h = k log1p(t u) - w u is concave, so its minimum sits at an end and
    its maximum at the stationary point u = (k - c) / w, clipped."""
    t = _step(k, c, w)
    u = np.clip((k - c) / w, -0.5, 0.5)
    with np.errstate(divide="ignore"):
        low = np.minimum(k * np.log1p(-0.5 * t) + 0.5 * w, k * np.log1p(0.5 * t) - 0.5 * w)
        return low, k * np.log1p(t * u) - w * u


def expansion_tails(k, c, w, radii) -> np.ndarray:
    """log B_R for each radius R (first axis): for every order q, the sum
    over p > q of |a_p| 2^-p is at most B_R (2R)^-(q+1), a_p the Taylor
    coefficients of h at 0.

    Cauchy's estimate on |u| = R gives |a_p| <= max |h| R^-p, so B_R = max
    |h| / (1 - 1/(2R)).  On the circle |h|^2 = |1 + t u|^(2k) e^(-2 w Re u)
    depends on x = cos(arg u) alone, and its log is concave in x, so the
    maximum is at the clipped stationary point."""
    t = _step(k, c, w)
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for radius in radii:
            tr = t * radius
            x = np.clip((k / c - 1.0 - tr * tr) / (2.0 * tr), -1.0, 1.0)
            x = np.where(tr > 0.0, x, -1.0)
            # |1 + t u|^2 = (1 + t R x)^2 + (t R)^2 (1 - x^2), free of cancellation.
            modulus = 0.5 * k * np.log((1.0 + tr * x) ** 2 + tr * tr * (1.0 - x * x))
            out.append(modulus - w * radius * x - math.log1p(-0.5 / radius))
    return np.array(out)


def expansion_sums(k, c, w, mu: np.ndarray, weight: np.ndarray):
    """(S, rounding bound of S, D_c, D_w), one per element of k, c and w:
    S = sum over p <= P of a_p mu[p], a_p the Taylor coefficients of h at 0
    and P + 1 the length of mu's last axis, and the sums of h' and of u h'
    over the same measure, D_c = sum p a_p mu[p-1] and D_w = sum p a_p mu[p].

    mu[..., p] is the moment paired with a_p and weight[..., p] the absolute
    error each unit of |a_p| brings to S (the moment's own bound and the
    sum's rounding).  From g = log h, (1 + t u) g' = g_1 - w t u with g_1 =
    (k - c) w / c, so (1 + t u) h' = (g_1 - w t u) h gives a_0 = 1, a_1 =
    g_1 and a_{p+1} = ((g_1 - p t) a_p - w t a_{p-1}) / (p + 1).  A running
    bound e_p follows each coefficient's rounding through it, in units of
    eps: alpha = g_1 - p t and w t carry eps (2 |g_1| + p t + |alpha| / 2)
    and eps w t, each product and the difference half an eps of their
    operands, and the division half an eps of the result."""
    t = _step(k, c, w)
    g1 = (k - c) / c * w
    wt = w * t
    size = 2.0 * np.abs(g1)
    order = mu.shape[-1] - 1
    # Element by element along the first axes, order by order along the
    # last: each sum below runs along one element's contiguous row of terms,
    # so it adds them in the same order however many elements are passed.
    a = np.zeros(np.shape(g1) + (order + 1,))
    e = np.zeros_like(a)
    a[..., 0] = 1.0
    # a_(-1) = 0, exact.
    prev = prev_err = prev_abs = np.zeros_like(g1)
    for p in range(order):
        cur, cur_err, cur_abs = a[..., p], e[..., p], np.abs(a[..., p])
        pt = p * t
        alpha = g1 - pt
        a[..., p + 1] = (alpha * cur - wt * prev) / (p + 1.0)
        e[..., p + 1] = ((np.abs(alpha) * (cur_err + 1.5 * cur_abs)
                          + wt * (prev_err + 2.0 * prev_abs) + (size + pt) * cur_abs)
                         / (p + 1.0) + 0.5 * np.abs(a[..., p + 1]))
        prev, prev_err, prev_abs = cur, cur_err, cur_abs
    total = (a * mu).sum(axis=-1)
    carried = (e * np.abs(mu)).sum(axis=-1)
    spread = (np.abs(a, out=e) * weight).sum(axis=-1)
    # a_p becomes p a_p, the coefficients of h'.
    a[..., 1:] *= np.arange(1.0, order + 1.0)
    d_centre = (a[..., 1:] * mu[..., :-1]).sum(axis=-1)
    d_width = (a[..., 1:] * mu[..., 1:]).sum(axis=-1)
    return total, spread + 1.01 * _EPS * carried, d_centre, d_width


# ----------------------------------------------------------------------
# Quadrature by self-similarity: the walk over a block tree
# ----------------------------------------------------------------------

# The order P of the Taylor expansion of f_k around a block's centre.
TAYLOR_ORDER = 40
# Refinement ratio: for k > 0 a block is expanded only where its width is at
# most this share of its centre's radius (log f_k's series in the offset
# converges within the radius); nearer the origin it is split.
MAX_STEP = 0.5
# Each block's Taylor remainder, or its whole mass where it is pruned, stays
# below this share of a lower bound on the row's mass.
BLOCK_TOL = 1e-18
# Blocks below this mass are pruned even where the row's mass is as small.
_MASS_FLOOR = 1e-305
# Radii of the circles |u| = R that bound the Taylor remainder.
_CAUCHY_RADII = (2.0, 4.0, 8.0)
_LOG_DIAMETERS = np.log(2.0 * np.array(_CAUCHY_RADII))[:, None]
# Expanded (row, block) pairs per call of expansion_sums, whose (pairs,
# TAYLOR_ORDER + 1) arrays are the walk's largest.
_SUM_PAIRS = 512


@functools.lru_cache(maxsize=1)
def _segment_tree() -> BlockTree:
    """[0, 1] as the tree of {0, 1} in base 2, 62 levels (int64 prefixes)."""
    return block_tree(CantorSpec(2, (0, 1)), 62, 1.0, TAYLOR_ORDER)


def _log_sum(rows: np.ndarray, x: np.ndarray, count: int) -> np.ndarray:
    """log of the sum of exp(x) over each row's pairs, added in pair order by
    np.bincount, so a row's sum does not depend on the other rows; -inf for
    a row with none."""
    top = np.full(count, -np.inf)
    np.maximum.at(top, rows, x)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return top + np.log(np.bincount(rows, np.exp(x - top[rows]), minlength=count))


def _tree_masses(trees: Sequence[BlockTree], owner: np.ndarray, ks: np.ndarray,
                 place=None) -> tuple[np.ndarray, np.ndarray]:
    """Masses of f_k over the set of a block tree, one row per k in ks, row i
    over the set of trees[owner[i]]: (values, absolute error bounds).
    Quadrature by self-similarity (Strichartz 2000, Amer. Math. Monthly
    107:316).  The trees are iterates of one spec at several depths and
    scales: each one's levels are the first levels of the deepest's, so
    their blocks split alike and a row takes its own tree's unit width and
    moments at each depth, and stops at its own tree's depth.

    A depth-m block B = c + W (S_m - 1/2) carries the mass W f_k(c) sum_p
    a_p mu_p, with a_p the Taylor coefficients of f_k(c + W u) / f_k(c)
    (expansion_sums) and mu_p the block's centred moments.  All rows go
    through one walk over the live (row, block) pairs, kept in (row, digit
    prefix) order.  From the root, at each depth and for each row, a block
    is expanded where W <= MAX_STEP c (any W at k = 0) and its Cauchy
    remainder is below BLOCK_TOL of a lower bound on the row's mass (the
    blocks so far, each at the minimum of f_k on it), pruned where sup f_k
    times its measure is below that, and split otherwise.  A row's blocks
    and sums depend on that row and its tree alone, so a row is the same in
    any call, beside any other rows and trees.  err adds each block's
    remainder or pruned mass and the rounding of its coefficients, moments,
    sum, prefactor, centre and width (through the mass's derivatives in c,
    W).

    With place None the rows are eigenvalues over their trees' own sets,
    and a block at its tree's depth that still splits is an exact interval:
    err adds segment_mass_batch's bound on it and 3 eps of its right end
    times sup f_k for the endpoints.  place = (origin, scale, ref), one
    entry of each per row, moves a row's set to origin + scale x and
    divides its f_k by f_k(ref), in offsets d = c - ref: exp(k log1p(d /
    ref) - d) carries a few eps of each term, where a difference of
    log-densities would carry eps |log f_k|.  There a block at its tree's
    depth that still splits is bounded like a pruned one, so the walk
    always ends.
    """
    count = ks.size
    kf = ks.astype(float)
    leaves = place is None
    log_m = _log_orders(kf + 1.0) if leaves else None
    origin, scale, ref = (np.broadcast_to(np.asarray(v, dtype=float), (count,))
                          for v in place or (0.0, 1.0, 0.0))
    deepest = max(trees, key=lambda t: t.depth)
    # Row i stops at its tree's depth.
    stop = np.array([t.depth for t in trees])[owner]
    log_acc = np.full(count, -np.inf)
    err = np.zeros(count)
    parts = [(ks[:0], np.zeros(0))]  # (rows, values) of the summed blocks
    expanded = []  # (rows, centres, widths, depths, g0, its error, centre errors / eps)
    rows = np.arange(count)
    prefixes = np.repeat(deepest.root(), count)
    for m in range(deepest.depth + 1):
        # Each row's unit width and log(width mu_0) at this depth, taken at
        # its tree's own depth for trees that end above m (none of their
        # rows are left).
        at = [t.widths[min(m, t.depth)] for t in trees]
        log_front = np.array([math.log(w) + math.log(t.moments[min(m, t.depth), 0])
                              for w, t in zip(at, trees)])[owner]
        unit = np.array(at)[owner][rows]
        k, s = kf[rows], scale[rows]
        w = unit * s
        # The block's centre (N + 1/2) W, N its digit prefix.
        p = s * ((2 * prefixes + 1).astype(float) * (0.5 * unit))
        c = origin[rows] + p
        if leaves:
            g0 = _log_density(k, c, log_m[rows])
        else:
            d = (origin - ref)[rows] + p
            with np.errstate(divide="ignore", invalid="ignore"):
                g0 = np.where(k > 0.0, k * np.log1p(d / ref[rows]), 0.0) - d
        log_scale = g0 + (log_front[rows] + np.log(s))
        low, high = expansion_range(k, c, w)
        lower = log_scale + low
        upper = log_scale + high
        log_lower = np.logaddexp(log_acc, _log_sum(rows, lower, count))
        tol = np.maximum(log_lower + math.log(BLOCK_TOL), math.log(_MASS_FLOOR))[rows]
        tails = log_scale + expansion_tails(k, c, w, _CAUCHY_RADII)
        rem = (tails - (TAYLOR_ORDER + 1) * _LOG_DIAMETERS).min(axis=0)
        stopping = stop[rows] == m
        expand = ((w <= MAX_STEP * c) | (k == 0.0)) & (rem <= tol)
        prune = ~expand & ((upper <= tol) | (stopping & (not leaves)))
        split = ~(expand | prune)
        log_acc = np.logaddexp(log_acc, _log_sum(rows[expand], lower[expand], count))
        err += np.bincount(rows[prune], np.exp(upper[prune]), minlength=count)
        if expand.any():
            er = rows[expand]
            err += np.bincount(er, np.exp(rem[expand]), minlength=count)
            kr, cr, gr = k[expand], c[expand], g0[expand]
            if leaves:
                rounding = _prefactor_error(kr, cr, gr, log_m[er])
                reach, slack = 2.0 * cr, 0.0 * cr
            else:
                # k log1p(d / ref), the quotient's rounding (k |d| / c) and the
                # subtraction; d is off by eps (|origin - ref| + 3 p + |d|) / 2
                # and c by eps (c + 2 p) / 2.
                dr, pr = d[expand], p[expand]
                rounding = _EPS * (2.0 * np.abs(gr + dr) + kr * np.abs(dr) / cr + np.abs(gr))
                reach = np.abs(origin - ref)[er] + 2.0 * pr + np.abs(dr)
                slack = reach + cr + pr
            expanded.append((er, cr, w[expand], np.full(er.size, m), gr, rounding,
                             reach, slack))
        ends = split & stopping
        if ends.any():
            sr, sp, su, sw = rows[ends], prefixes[ends], upper[ends], unit[ends]
            starts = np.flatnonzero(np.diff(sr, prepend=-1))
            for row, width, sel, top in zip(sr[starts], sw[starts], np.split(sp, starts[1:]),
                                            np.split(su, starts[1:])):
                lo = sel.astype(float) * width
                hi = (sel + 1).astype(float) * width
                vals, rels = segment_mass_batch(int(ks[row]), lo, hi, np.full(sel.size, width))
                endpoints = 3.0 * _EPS * hi / width * np.exp(top)
                err[row] += float(np.sum(vals * rels + endpoints))
                parts.append((np.full(sel.size, row), vals))
        split &= ~stopping
        if not split.any():
            break
        prefixes = deepest.children(m, prefixes[split])
        rows = np.repeat(rows[split], deepest.levels[m].size)
    if expanded:
        rows, c, w, depth, g0, rounding, reach, slack = map(np.concatenate, zip(*expanded))
        kp = kf[rows]
        sums = np.empty((4, rows.size))
        for i in range(0, rows.size, _SUM_PAIRS):
            part = slice(i, i + _SUM_PAIRS)
            # Each pair's moments at its depth, from its own row's tree.
            tree, at = owner[rows[part]], depth[part]
            mu = np.empty((at.size, TAYLOR_ORDER + 1))
            weight = np.empty_like(mu)
            for j in set(tree.tolist()):
                here = tree == j
                mu[here], weight[here] = trees[j].moments[at[here]], trees[j].moment_err[at[here]]
            weight += (TAYLOR_ORDER + 2) * _UNIT * np.abs(mu)
            sums[:, part] = expansion_sums(kp[part], c[part], w[part], mu, weight)
        sums, sums_err, d_centre, d_width = sums
        front = np.exp(g0)
        vals = front * (w * sums)
        # The mass moves by D_c per unit shift of the centre and by S + D_w
        # per unit stretch of the width, with f_k(c) factored out; the sum S
        # alone moves by D_c - g_1 S, which covers an offset d that is off
        # from c.
        skew = slack * np.abs(d_centre - (kp - c) / c * w * sums)
        geometry = 1.01 * _EPS * (reach * np.abs(d_centre) + skew + w * np.abs(sums + d_width))
        # The last term covers a prefactor below the normal range.
        err += np.bincount(rows, front * (w * sums_err + geometry)
                           + np.abs(vals) * (rounding + 2.0 * _EPS)
                           + 5e-324 * w * np.abs(sums), minlength=count)
        parts.append((rows, vals))
    rows, vals = (np.concatenate(v) for v in zip(*parts))
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(count + 1))
    vals = vals[order].tolist()
    values = np.array([math.fsum(vals[bounds[row]:bounds[row + 1]]) for row in range(count)])
    return values, err + _UNIT * np.abs(values)


def block_measures(tree: BlockTree, side: float) -> np.ndarray:
    """Measure W mu_0 of a block at each depth of a tree, moved by mu_0's
    moment_err and the rounding: up for side 1, down for side -1."""
    return tree.widths * (tree.moments[:, 0] + side * tree.moment_err[:, 0]) * (1 + side * 8 * _EPS)


def _density_bound(k: np.ndarray, x: np.ndarray, measure, side: float) -> np.ndarray:
    """f_k(x) times measure, moved up for side 1 and down for side -1 by f_k's
    prefactor error, 3 eps of x through d log f_k / dx = k/x - 1, a factor
    within 3 eps of 1, the exp and the product, and the least subnormal."""
    log_m = _log_orders(k + 1.0)
    log_f = _log_density(k, x, log_m)
    log_b = (log_f + side * np.log1p(_prefactor_error(k, x, log_f, log_m))
             + side * _EPS * (4.0 * np.abs(k - x) + 2.0 * np.abs(log_f) + 8.0))
    return np.maximum(np.exp(log_b) * measure + side * 5e-324, 0.0)


def group_bound(width, measure, prefixes: np.ndarray, first: np.ndarray,
                last: np.ndarray) -> np.ndarray:
    """Upper bound on the mass of f_k over the block [L, L + W] = [N W,
    (N + 1) W] of each digit prefix N, of measure at most `measure`, for
    every k in first .. last; the arguments broadcast against the prefixes.
    The mass is at most sup f_k on the block times its measure.  With
    j = floor(L), the sup over the block and the group is f_k(clip(k, L,
    L + W)) at k = clip(j, first, last): up to j it is f_k(L), which rises
    with k since f_(k+1)(L) / f_k(L) = L / (k+1); past j no f_k exceeds
    f_k(k), which falls with k, and f_(j+1)(j+1) = f_j(j+1) <= f_j(L).  A
    rounded L on the other side of an integer i moves j by one, which
    changes the sup by a factor L / i within 3 eps of 1."""
    low = prefixes.astype(float) * width
    k = np.clip(np.floor(low), first, last)
    return _density_bound(k, np.clip(k, low, (prefixes + 1).astype(float) * width), measure, 1.0)


def block_floor(width, measure, prefixes: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Lower bound on the mass of f_k over each block, the arguments as in
    group_bound: inf f_k on the block [L, L + W] times its measure.  f_k
    rises up to its mode x = k and falls past it, so that inf is f_k(L)
    left of k, f_k(L + W) right of it, and the lesser on a block that holds
    k; an end rounded to the wrong side lies where f_k is flat to eps^2 k."""
    k, low, high, measure = np.broadcast_arrays(k, prefixes.astype(float) * width,
                                                (prefixes + 1).astype(float) * width, measure)
    least = _density_bound(k, np.where(high <= k, low, high), measure, -1.0)
    mode = (low < k) & (k < high)
    least[mode] = np.minimum(least[mode], _density_bound(k[mode], low[mode], measure[mode], -1.0))
    return least


def _scaled_masses(k: int, lo: np.ndarray, width: np.ndarray, ref: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Masses of f_k / f_k(ref) over [lo, lo + width], one per element, from
    the walk over the segment tree: (values, absolute error bounds).  Zero
    widths carry no mass."""
    value, err = np.zeros((2, lo.size))
    live = width > 0.0
    if live.any():
        count = int(live.sum())
        value[live], err[live] = _tree_masses([_segment_tree()], np.zeros(count, dtype=int),
                                              np.full(count, k), (lo[live], width[live], ref[live]))
    return value, err


def log_segment_mass(k: int, a: float, b: float) -> tuple[float, float]:
    """(log of integral of f_k over [a, b], relative error bound).

    The walk relative to f_k at its maximum on [a, b] (_scaled_masses), so
    masses far below the smallest normal double keep their digits; the
    bound adds the rounding of that maximum, of the log and of the sum."""
    a, b = float(a), float(b)
    if not (0.0 <= a <= b) or not math.isfinite(b):
        raise ValueError(f"segment must satisfy 0 <= a <= b, got [{a!r}, {b!r}]")
    ref = min(max(float(k), a), b)
    shift = log_density(k, ref)
    [v], [err] = _scaled_masses(k, np.array([a]), np.array([b - a]), np.array([ref]))
    if v <= 0.0:
        return -math.inf, 0.0
    log_v = math.log(v)
    return shift + log_v, float(err / v + _prefactor_error(k, ref, shift)
                                 + _EPS * (abs(shift) + 2.0 * abs(log_v)))


# ----------------------------------------------------------------------
# Vectorized batch engines (fixed k, array arguments)
# ----------------------------------------------------------------------

def lower_tail_batch(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(k+1, x), Q(k+1, x)) for an array of nonnegative x at fixed k.

    Each entry is computed on the side where it is small (series below the
    crossover, Poisson tail above), so both returned arrays are relatively
    accurate wherever they are meaningfully nonzero.
    """
    k = _validate_k(k)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("arguments must be finite and nonnegative")
    p = np.zeros_like(x)
    q = np.ones_like(x)
    a = k + 1.0

    low = (x > 0.0) & (x < a)
    if np.any(low):
        xs = x[low]
        total = np.full_like(xs, 1.0 / a)
        term = total.copy()
        for first in range(k + 2, k + 2 + _MAX_ITER, _CHECK_EVERY):
            for factor in xs / (first + _STEPS):
                term = term * factor
                total = total + term
            if not np.any(term > total * 1e-17):
                break
        else:
            raise ArithmeticError(f"batch lower series stalled at k={k}")
        pv = np.minimum(total * np.exp(log_density(k, xs) + np.log(xs)), 1.0)
        p[low] = pv
        q[low] = 1.0 - pv

    high = x >= a
    if np.any(high):
        xt = x[high]
        # x >= k+1 puts the largest Poisson term at n = k; recurse downward.
        total = np.ones_like(xt)
        term = np.ones_like(xt)
        for n in range(k, 0, -_CHECK_EVERY):
            for factor in (n - _STEPS[:n]) / xt:
                term = term * factor
                total = total + term
            if not np.any(term > 1e-18):
                break
        log_q = log_density(k, xt) + np.log(total)
        qv = np.exp(np.minimum(log_q, 0.0))
        q[high] = qv
        p[high] = 1.0 - qv
    return p, q


def segment_mass_batch(k: int, lo: np.ndarray, hi: np.ndarray,
                       width: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Masses of f_k over many segments: (values, relative error bounds).
    Exact widths, if given, replace hi - lo on the walk's route."""
    k = _validate_k(k)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = hi - lo if width is None else np.asarray(width, dtype=float)
    if lo.shape != hi.shape or width.shape != lo.shape:
        raise ValueError("segment bound arrays must have matching shapes")
    if np.any(lo < 0.0) or np.any(hi < lo):
        raise ValueError("segments must satisfy 0 <= lo <= hi")
    x = np.stack((lo, hi))
    (p_lo, p_hi), (q_lo, q_hi) = lower_tail_batch(k, x)
    d_p = p_hi - p_lo
    d_q = q_lo - q_hi
    use_q = d_q * p_hi > d_p * q_lo
    value = np.where(use_q, d_q, d_p)
    ref = np.where(use_q, q_lo, p_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ref > 0.0, value / ref, 0.0)
        # Each endpoint's P or Q carries 4 eps from its sum, the rounding of
        # its prefactor, whose exponent takes log x at k = 0 below x = 1 (the
        # bound's k log x and lgamma terms cover it for k > 0), and two least
        # subnormals from its exp and product; at x = 0 both are exact.
        log_f = k * np.log(x) - x - math.lgamma(k + 1) if k else np.minimum(np.log(x), 0.0) - x
        ends = np.where(use_q, (q_lo, q_hi), (p_lo, p_hi))
        err = np.where(x > 0.0, (4.0 * _EPS + _prefactor_error(k, x, log_f)) * ends + 1e-323, 0.0)
        rel = np.where(value > 0.0, (err[0] + err[1]) / value, 0.0)
    # A degenerate segment (hi == lo) has value 0 from identical endpoints.
    walk = np.nonzero(((ratio < _CANCEL_SWITCH) | (value <= 0.0)) & (hi > lo))[0]
    if walk.size:
        ref = np.clip(float(k), lo[walk], hi[walk])
        shift = log_density(k, ref)
        value[walk] = rel[walk] = 0.0
        # Max f_k times the width below half the least subnormal: the mass
        # rounds to an exact 0.
        live = shift + np.log(width[walk]) >= -746.0
        ref, shift, walk = ref[live], shift[live], walk[live]
        scaled, err = _scaled_masses(k, lo[walk], width[walk], ref)
        value[walk] = scaled * np.exp(shift)
        # e^shift carries its prefactor error, and it and the product round,
        # each by up to the least subnormal below the normal range.
        with np.errstate(divide="ignore", invalid="ignore"):
            rel[walk] = (np.where(scaled > 0.0, err / scaled, 0.0) + 4.0 * _EPS
                         + _prefactor_error(k, ref, shift)
                         + np.where(value[walk] > 0.0, 5e-324 * (scaled + 1.0) / value[walk], 0.0))
    return value, rel
