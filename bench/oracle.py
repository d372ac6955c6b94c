"""Reference values for the benchmark's output checks, computed apart from cantorloc.

Nothing here imports the package under test or its test oracles, so a change
to either cannot move a check.  The set is enumerated from integer digit
sums; eigenvalues are block sums of scipy's regularized incomplete gamma
functions, and the first eigenvalue is an exponential sum.

Error model.  lambda_k = sum over blocks [a, b] of F(b) - F(a), where F is
whichever of P(k+1, .) and Q(k+1, .) is smaller on the block, so no block
difference cancels more than its two endpoint values.  Against mpmath at 40
digits (k < 8000, |x - k| < 16 sqrt(k) + 60), scipy's error on the smaller
side is close to absolute: up to 3.6 ulp of 1 at F = 0.49 for k = 14, and
0.66 ulp at F = 0.098 for k = 7183, falling off below F = 1e-3.  Each
endpoint is charged endpoint_error(k, F), which those samples stay under by
a factor of at least 2.5 (see README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

EPS = 2.220446049250313e-16
# Blocks farther than this many standard deviations (plus a constant) from
# the mode of f_k are left out; their mass is bounded by the tails below.
WINDOW_SIGMAS = 16.0
WINDOW_PAD = 60.0
# Truncation rule of a certified norm: stop at the first k > rho with
# P(k+1, rho) < max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm).
TAIL_ABSOLUTE = 1e-12
TAIL_RELATIVE = 1e-9


@dataclass(frozen=True)
class Blocks:
    """Merged blocks [lows[i], highs[i]] of an iterate scaled to [0, rho]."""

    base: int
    depth: int
    rho: float
    lows: np.ndarray
    highs: np.ndarray
    count: int  # |A|^n, the number of unmerged blocks

    @property
    def measure(self) -> float:
        # exact block count times the block width
        return self.count * (self.rho / self.base ** self.depth)


def blocks(base: int, alphabet, depth: int, rho: float) -> Blocks:
    """Blocks of the depth-n iterate: digit sums sum_j a_j base^j, merged
    where consecutive integers touch, each spanning one width rho / base^n."""
    points = np.zeros(1, dtype=np.int64)
    digits = np.asarray(sorted(alphabet), dtype=np.int64)
    for _ in range(depth):
        points = (points[:, None] * base + digits[None, :]).ravel()
    points.sort()
    breaks = np.flatnonzero(np.diff(points) != 1)
    first = points[np.concatenate(([0], breaks + 1))]
    last = points[np.concatenate((breaks, [points.size - 1]))]
    width = rho / base ** depth
    return Blocks(base, depth, float(rho),
                  first.astype(float) * width, (last + 1).astype(float) * width,
                  int(points.size))


def lambda0(b: Blocks) -> float:
    """lambda_0 = sum of e^(-a) - e^(-b) = sum of -e^(-a) expm1(a - b)."""
    terms = -np.exp(-b.lows) * np.expm1(b.lows - b.highs)
    return math.fsum(terms)


def endpoint_error(k: int, f: np.ndarray) -> np.ndarray:
    """Error bound of scipy's smaller-side P or Q(k+1, x) whose value is f."""
    floor = (8.0 if k < 200 else 2.0) * EPS
    return 4.0 * EPS * f + floor * np.minimum(1.0, 256.0 * f) + 2e-17


@dataclass(frozen=True)
class Eig:
    k: int
    value: float
    tol: float  # absolute error bound of value under the error model


def eigenvalue(b: Blocks, k: int) -> Eig:
    """lambda_k as a gamma block sum, with its absolute error bound."""
    a = k + 1.0
    half = WINDOW_SIGMAS * math.sqrt(a) + WINDOW_PAD
    lo_cut, hi_cut = max(a - half, 0.0), a + half
    first = int(np.searchsorted(b.highs, lo_cut, side="left"))
    last = int(np.searchsorted(b.lows, hi_cut, side="right"))
    lo = b.lows[first:last]
    hi = b.highs[first:last]
    # blocks left out lie wholly below lo_cut or above hi_cut
    left_out = 0.0
    if first > 0:
        left_out += float(gammainc(a, b.highs[first - 1]))
    if last < b.lows.size:
        left_out += float(gammaincc(a, b.lows[last]))
    p_lo, p_hi = gammainc(a, lo), gammainc(a, hi)
    q_lo, q_hi = gammaincc(a, lo), gammaincc(a, hi)
    use_p = p_lo + p_hi <= q_lo + q_hi
    diff = np.where(use_p, p_hi - p_lo, q_lo - q_hi)
    f_lo = np.where(use_p, p_lo, q_lo)
    f_hi = np.where(use_p, p_hi, q_hi)
    value = math.fsum(diff)
    tol = (float(np.sum(endpoint_error(k, f_lo) + endpoint_error(k, f_hi)))
           + EPS * abs(value) + left_out)
    return Eig(k, value, tol)


def tail_p(k: int, rho: float) -> float:
    """P(k+1, rho), which bounds lambda_k for any set inside [0, rho]."""
    return float(gammainc(k + 1.0, rho))


def tail_threshold(norm: float) -> float:
    return max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm)


def truncation_index(rho: float, norm: float) -> int:
    """First k > rho whose bound P(k+1, rho) is below the tail threshold."""
    thr = tail_threshold(norm)
    k = int(math.floor(rho)) + 1
    while tail_p(k, rho) >= thr:
        k += 1
    return k


def tail_sum(k_last: int, rho: float) -> float:
    """sum over k > k_last of P(k+1, rho), which bounds sum of lambda_k."""
    total = 0.0
    k = k_last + 1
    while True:
        term = tail_p(k, rho)
        total += term
        if term < 1e-30 * max(total, 1e-300) or term == 0.0:
            return total
        k += 1


def stride(k_hi: int, count: int) -> list:
    """About *count* indices spread evenly over 0..k_hi."""
    return sorted({int(round(x)) for x in np.linspace(0, k_hi, count)})
