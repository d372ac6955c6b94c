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
sum for Q above it, and the other one as the complement.  The scalar
functions regularized_lower_gamma, gamma_tail_mass and segment_mass are
one-element calls of the batch engines.

Segment masses over [a, b] (segment_mass_batch) are formed from whichever
cumulative difference (lower masses or tail masses) cancels less.  Where
both would lose more than ~40 bits, 32-point Gauss-Legendre panels work in
offsets from s = clip(k, a, b): the node r = s + d carries f_k(r) / f_k(s)
= exp(k log1p(d / s) - d), exact to about eps relative, and the prefactor
f_k(s) is applied once per segment.  (A difference of two log-densities
would carry their rounding, eps |log f_k|, and the node's, |k/r - 1|
ulp(r).)  An exact width, if given, replaces the rounded b - a.  One batch
engine, _quadrature, checks every segment's panel against its two halves
and bisects all the panels this does not certify together; it also serves
log_segment_mass (one element) and the far tail of relative_area.  Both
routes' bounds count the rounding of the log-space prefactors.

Eigenvalues use the quadrature only for the exact intervals at the bottom
of the block tree (operator.py).  Everywhere else they expand the density
around a block centre c: f_k(c + w u) = f_k(c) h(u), h(u) = (1 + t u)^k
e^(-w u) with t = w / c, whose Taylor coefficients follow a three-term
recurrence (expansion_sums) with a running rounding bound; expansion_tails
bounds the remainder by Cauchy's estimate and expansion_range the range of
h on the block.  log_density takes an array of k as well as one k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 2.220446049250313e-16
_LOG_SQRT_2PI = 0.9189385332046727
# Cancellation guard for cumulative differences: below this ratio of the
# larger operand the difference has lost ~41 bits and quadrature takes over.
_CANCEL_SWITCH = 2.0 ** -12
# Series iteration guard; generous because convergence near x ~ k needs
# O(sqrt(k)) terms.
_MAX_ITER = 2_000_000
# A panel is accepted once it and its two halves agree to this fraction of
# its segment's first estimate.
_PANEL_TOL = 1e-13
# Bisection stops at panels 2^-49 of their segment's width.
_MAX_DEPTH = 48
# The engine loops test convergence once per this many terms.  Terms keep
# shrinking past convergence and each is below half an ulp of its running
# total (1e-17 * total for the series, 1e-18 against a total >= 1 for the
# Poisson sum), so the extra terms leave every element unchanged.
_CHECK_EVERY = 16
# Offsets 0 .. 15 as a column: one division gives the factors of 16 terms.
_STEPS = np.arange(float(_CHECK_EVERY))[:, None]


def _validate_orders(k) -> np.ndarray:
    """One index or an array of indices k as floats, checked to be
    nonnegative integers."""
    kf = np.asarray(k, dtype=float)
    if kf.ndim == 0:
        valid = float(kf).is_integer() and kf >= 0.0
    else:
        valid = np.all(kf >= 0.0) and np.all(np.floor(kf) == kf)
    if not valid:
        raise ValueError(f"index k must be a nonnegative integer, got {k!r}")
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
    if np.any(r < 0.0):
        raise ValueError("radial argument must be nonnegative")
    scalar = kf.ndim == 0 and r.ndim == 0
    # log(k + 1) on the indices as given, before broadcasting repeats them.
    log_m = _log_orders(kf + 1.0)
    shape = np.broadcast(kf, r).shape or (1,)
    kf, log_m, r = (np.full(shape, v) for v in (kf, log_m, r))
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
    return float(out[0]) if scalar else out


def _log_orders(m):
    """log m for integer-valued m, by math.log once per distinct value."""
    if np.ndim(m) == 0:
        return math.log(m)
    values, inverse = np.unique(m, return_inverse=True)
    return np.array([math.log(v) for v in values.tolist()])[inverse.reshape(np.shape(m))]


def _prefactor_error(k, r, log_f):
    """Relative error bound of exp(log_f), log_f = log_density(k, r): eps
    times the terms log_f is summed from and, in the recentered form, the
    rounding of phi's series: with n terms (the first one d^2 / 2) its sum
    is off by at most (n/2 + 2) d^2 / 2 units, k times that in log_f; below
    r = m / 2, k / 2 units from log(r / m)."""
    m = np.asarray(k, dtype=float) + 1.0
    d = np.abs(r - m) / m
    count = 2.0 + math.log(1e-19) / np.log(np.minimum(np.maximum(d, 1e-300), 0.5))
    series = np.where(d < 0.5, (0.25 * count + 1.0) * (m - 1.0) * d * d,
                      np.where(r < 0.5 * m, 0.5 * (m - 1.0), 0.0))
    lg = _LGAMMA_SMALL[np.minimum(m, 21.0).astype(int) - 1]
    terms = np.where(m <= 21.0, 2.0 * (r + lg), 2.0 * _log_orders(m) + series)
    return _EPS * (2.0 + 4.0 * np.abs(log_f) + terms)


def _point(x, which: str) -> np.ndarray:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"{which} limit must be finite and nonnegative, got {x!r}")
    return np.array([x])


def regularized_lower_gamma(k: int, x: float) -> float:
    """P(k+1, x): mass of f_k on [0, x]; one element of lower_tail_batch."""
    return float(lower_tail_batch(k, _point(x, "upper"))[0][0])


def gamma_tail_mass(k: int, x: float) -> float:
    """Q(k+1, x): mass of f_k on [x, inf); one element of lower_tail_batch."""
    return float(lower_tail_batch(k, _point(x, "lower"))[1][0])


# ----------------------------------------------------------------------
# Gauss-Legendre panels of the density in offsets from a reference point
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# Node positions as fractions of a panel's width.
_GL_FRACTIONS = 0.5 * (1.0 + _GL_NODES)


def _panels(k: int, s, start: np.ndarray, width: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """32-point panels of f_k(r) / f_k(s) over r in [s + start, s + start +
    width], one per element of start and width (and of s, if an array):
    (panel masses, each panel's largest k |log1p(d / s)| + |d| over the
    offsets d it spans, which sets the rounding of its exponents)."""
    size = np.maximum(np.abs(start), np.abs(start + width))
    d = start[:, None] + width[:, None] * _GL_FRACTIONS
    if k:
        g = np.log1p(d / np.reshape(s, (-1, 1)))
        g *= k
        size += np.abs(g).max(axis=1)
        g -= d
    else:
        g = np.negative(d, out=d)
    np.exp(g, out=g)
    return (g @ _GL_WEIGHTS) * (0.5 * width), size


def _quadrature(k: int, s: np.ndarray, shift: np.ndarray, start: np.ndarray,
                width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masses of f_k / f_k(s) over [s + start, s + start + width], one per
    element, shift = log_density(k, s): (scaled masses, relative error
    bounds).  A panel is accepted once its two halves agree with it to
    _PANEL_TOL of its segment's first estimate, so panels that cannot move
    their segment's sum are not split; the others are bisected together,
    to at most 2^-49 of their segment's width, and each segment sums its
    accepted halves.  Each panel's exponents k log1p(d / s) - d carry eps
    times their size in rounding, and its sum 4 eps."""
    n = start.size
    mass, gap, rounding = np.zeros((3, n))
    node = np.arange(n)
    ref, half = s, width
    whole, _ = _panels(k, s, start, width)
    floor = _PANEL_TOL * whole
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * half
        left, left_size = _panels(k, ref, start, half)
        right, right_size = _panels(k, ref, start + half, half)
        refined = left + right
        err = np.abs(whole - refined)
        split = (err > floor[node]) & (depth < _MAX_DEPTH)
        done = ~split
        mass += np.bincount(node[done], refined[done], minlength=n)
        gap += np.bincount(node[done], err[done], minlength=n)
        size = (left * left_size + right * right_size)[done]
        rounding += np.bincount(node[done], size, minlength=n)
        if not split.any():
            break
        start, half = start[split], half[split]
        start = np.concatenate((start, start + half))
        node, ref, half = (np.tile(v, 2) for v in (node[split], ref[split], half))
        whole = np.concatenate((left[split], right[split]))
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = np.where(mass > 0.0, (gap + _EPS * rounding) / mass, 0.0)
    return mass, quad + 4.0 * _EPS + _prefactor_error(k, s, shift)


def log_segment_mass(k: int, a: float, b: float) -> tuple[float, float]:
    """(log of integral of f_k over [a, b], relative error estimate).

    Panel quadrature scaled by f_k(clip(k, a, b)); valid for masses far
    below the smallest normal double, where the plain value would flush to
    zero.  One element of the batch quadrature.
    """
    k = _validate_k(k)
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= b) or not math.isfinite(b):
        raise ValueError(f"segment must satisfy 0 <= a <= b, got [{a!r}, {b!r}]")
    if a == b:
        return -math.inf, 0.0
    s = np.array([min(max(float(k), a), b)])
    shift = log_density(k, s)
    v, rel = _quadrature(k, s, shift, a - s, np.array([b - a]))
    if v[0] <= 0.0:
        return -math.inf, 0.0
    return float(shift[0]) + math.log(v[0]), float(rel[0])


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


@dataclass(frozen=True)
class SegmentMass:
    """Integral of f_k over one segment with a relative error bound."""

    value: float
    rel_err_bound: float


def segment_mass(k: int, a: float, b: float) -> SegmentMass:
    """Mass of f_k on [a, b] with a relative error bound; one element of
    segment_mass_batch."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= b) or not math.isfinite(b):
        raise ValueError(f"segment must satisfy 0 <= a <= b, got [{a!r}, {b!r}]")
    value, rel = segment_mass_batch(k, np.array([a]), np.array([b]))
    return SegmentMass(float(value[0]), float(rel[0]))


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
    Exact widths, if given, replace hi - lo on the quadrature route."""
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
        # Each endpoint's P or Q carries 4 eps from its sum and the rounding
        # of its prefactor; at x = 0 both are exact.
        log_f = k * np.log(x) - x - math.lgamma(k + 1) if k else -x
        ends = np.where(use_q, (q_lo, q_hi), (p_lo, p_hi))
        err = np.where(x > 0.0, 4.0 * _EPS + _prefactor_error(k, x, log_f), 0.0) * ends
        rel = np.where(value > 0.0, (err[0] + err[1]) / value, 0.0)
    # A degenerate segment (hi == lo) has value 0 from identical endpoints.
    quad = np.nonzero(((ratio < _CANCEL_SWITCH) | (value <= 0.0)) & (hi > lo))[0]
    if quad.size:
        s = np.clip(float(k), lo[quad], hi[quad])
        shift = log_density(k, s)
        value[quad] = rel[quad] = 0.0
        # Max f_k times the width below the double range: the mass is an exact 0.
        live = shift + np.log(width[quad]) >= -708.0
        s, shift, quad = s[live], shift[live], quad[live]
        scaled, rel[quad] = _quadrature(k, s, shift, lo[quad] - s, width[quad])
        value[quad] = scaled * np.exp(np.minimum(shift, 0.0))
    return value, rel
