"""Independent reference implementations backing the test suite.

Nothing here calls into cantorloc's own series or merged-interval
enumeration: gamma tails come from scipy, segment masses from scipy
adaptive quadrature on a peak-shifted integrand or from mpmath's
incomplete gamma function, Cantor iterates from direct recursive
subdivision in plain floats, the distribution function from a digit walk
in rational arithmetic, the first eigenvalue from exponential sums over
those blocks or, past the double range, from its level product with
exact integer level products in mpmath, and any eigenvalue from mpmath's incomplete gamma function
over the exact blocks around the mode.  The one exception is
lower_tail_loop, the term-by-term form of cantorloc's own series, which
lower_tail_batch must match bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate, special


# ----------------------------------------------------------------------
# Gamma-kernel references
# ----------------------------------------------------------------------

def lower_tail(k: int, x: float) -> float:
    """Integral of r^k e^-r / k! over [0, x]."""
    return float(special.gammainc(k + 1, x))


def upper_tail(k: int, x: float) -> float:
    return float(special.gammaincc(k + 1, x))


def lower_tail_loop(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(k+1, x), Q(k+1, x)) as cantorloc.special.lower_tail_batch forms
    them, one term at a time: the lower series below x = k + 1 and the
    Poisson sum, from its largest term down, above it, each tested for
    convergence every 16 terms, with the package's log_density for the
    prefactor.  Not independent of the package: it pins the order of the
    products and sums, so lower_tail_batch must return the same bits."""
    from cantorloc.special import log_density

    x = np.asarray(x, dtype=float)
    p = np.zeros_like(x)
    q = np.ones_like(x)
    a = k + 1.0
    low = (x > 0.0) & (x < a)
    if np.any(low):
        xs = x[low]
        total = np.full_like(xs, 1.0 / a)
        term = total.copy()
        first = k + 2
        while True:
            for j in range(16):
                term = term * (xs / (first + j))
                total = total + term
            first += 16
            if not np.any(term > total * 1e-17):
                break
        pv = np.minimum(total * np.exp(log_density(k, xs) + np.log(xs)), 1.0)
        p[low] = pv
        q[low] = 1.0 - pv
    high = x >= a
    if np.any(high):
        xt = x[high]
        total = np.ones_like(xt)
        term = np.ones_like(xt)
        for n in range(k, 0, -16):
            for j in range(min(16, n)):
                term = term * ((n - j) / xt)
                total = total + term
            if not np.any(term > 1e-18):
                break
        qv = np.exp(np.minimum(log_density(k, xt) + np.log(total), 0.0))
        q[high] = qv
        p[high] = 1.0 - qv
    return p, q


def segment_mass_quad(k: int, a: float, b: float) -> float:
    """Adaptive quadrature of the shifted integrand.  Returns an exact zero
    when the peak-times-width bound already sits below the double range."""
    if a == b:
        return 0.0
    mode = min(max(float(k), a), b)
    if k == 0:
        shift = -mode

        def f(r):
            return math.exp(-r - shift)
    else:
        shift = k * math.log(mode) - mode - math.lgamma(k + 1)

        def f(r):
            if r == 0.0:
                return 0.0
            return math.exp(k * math.log(r) - r - math.lgamma(k + 1) - shift)

    if shift + math.log(b - a) < -745.0:
        return 0.0
    points = [mode] if a < mode < b else None
    val, _ = integrate.quad(f, a, b, limit=500, points=points,
                            epsabs=1e-290, epsrel=1e-12)
    return val * math.exp(shift)


def segment_mass_mp(k: int, a: float, b: float, dps: int = 60) -> float:
    """Integral of r^k e^-r / k! over [a, b] as a float, from
    segment_mass_tails_mp at dps digits.  Thin segments cancel in the
    difference of the two tails; 60 digits leave well over 30 after a width
    of 1e-8 relative."""
    return float(segment_mass_tails_mp(k, a, b, dps))


def segment_mass_tails_mp(k: int, a: float, b: float, dps: int = 150):
    """Integral of r^k e^-r / k! over [a, b] as an mpf, with a and b taken
    as the exact binary values they hold, from the difference of two
    one-sided regularized tails at dps digits: the lower ones, x^(k+1) e^-x
    / (k+1)! 1F1(1; k+2; x), where b is below k + 1, the upper ones
    otherwise.  mpmath's two-sided form can return 0 for thin segments near
    e^-740, and a mass below the normal double range needs more digits than
    a float holds.  Compare it under mpmath.workdps."""
    with mpmath.workdps(dps):
        def lower(x):
            x = mpmath.mpf(x)
            return (x ** (k + 1) * mpmath.exp(-x) / mpmath.factorial(k + 1)
                    * mpmath.hyp1f1(1, k + 2, x))

        if b < k + 1:
            return lower(b) - lower(a)
        return (mpmath.gammainc(k + 1, mpmath.mpf(a), regularized=True)
                - mpmath.gammainc(k + 1, mpmath.mpf(b), regularized=True))


def log_segment_mass_mp(k: int, a: float, b: float, dps: int = 60) -> float:
    """log of segment_mass_mp, for masses below the double range."""
    with mpmath.workdps(dps):
        return float(mpmath.log(segment_mass_tails_mp(k, a, b, dps)))


def relative_area_mp(k: int, s: float, T: float, base: int, alphabet,
                     dps: int = 60) -> float:
    """Sum over a in alphabet of the mass over [s + aT/M, s + (a+1)T/M],
    over the mass over [s, s+T], each from segment_mass_tails_mp at dps
    digits; the endpoints are the doubles that float arithmetic forms from
    s, T and M."""
    with mpmath.workdps(dps):
        parts = [segment_mass_tails_mp(k, s + a * T / base, s + (a + 1) * T / base, dps)
                 for a in alphabet]
        return float(mpmath.fsum(parts) / segment_mass_tails_mp(k, s, s + T, dps))


def log_density_mp(k: int, r: float, dps: int = 50) -> float:
    """k ln r - r - lgamma(k+1) at dps digits, r taken as its exact value."""
    with mpmath.workdps(dps):
        r = mpmath.mpf(r)
        return float(k * mpmath.log(r) - r - mpmath.loggamma(k + 1))


def eigenvalue_mp(levels, k: int, rho: float, depth: float = 50.0,
                  dps: int = 40) -> tuple[float, float]:
    """lambda_k over the exact iterate: (sum of mpmath gammainc(k + 1, a, b)
    over the depth-n blocks [a, b] that meet the window around the mode,
    bound on the mass of the iterate left out).

    levels is a list of (base, alphabet) pairs, top level first.  Block ends
    are N rho / B and (N + 1) rho / B for the digit prefix N and B the base
    product, at dps digits, with rho taken as its exact binary value.  The
    window [k - sqrt(2 k T), k + T + sqrt(T^2 + 2 k T)], T = depth, is where
    f_k exceeds e^-T f_k(k); the mass left out is at most P(k+1, low) plus
    Q(k+1, high) - Q(k+1, rho)."""
    low = max(k - math.sqrt(2.0 * k * depth), 0.0)
    high = k + depth + math.sqrt(depth * depth + 2.0 * k * depth)
    base_product = math.prod(b for b, _ in levels)
    prefixes = [0]
    for b, letters in levels:
        prefixes = [p * b + a for p in prefixes for a in letters]
    with mpmath.workdps(dps):
        scale = mpmath.mpf(rho) / base_product
        inside = []
        for p in prefixes:
            a, b = p * scale, (p + 1) * scale
            if b >= low and a <= high:
                inside.append(mpmath.gammainc(k + 1, a, b, regularized=True))
        left_out = mpmath.gammainc(k + 1, 0, low, regularized=True)
        if high < rho:
            left_out += mpmath.gammainc(k + 1, high, rho, regularized=True)
        return float(mpmath.fsum(inside)), float(left_out)


# ----------------------------------------------------------------------
# Cantor-iterate references
# ----------------------------------------------------------------------

def iterate_blocks(base: int, alphabet, n: int, scale: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Unmerged closed blocks of the n-th iterate scaled to [0, scale],
    sorted by start.  Block starts are digit sums held as integers until a
    single final division, so endpoint rounding stays at a couple of ulps."""
    assert base ** n < 2 ** 62, "oracle block enumeration overflows int64"
    letters = np.asarray(sorted(alphabet), dtype=np.int64)
    ints = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        ints = (ints[:, None] * base + letters[None, :]).reshape(-1)
    denom = float(base) ** n
    return ints / denom * scale, (ints + 1) / denom * scale


def lambda0_iterate(base: int, alphabet, n: int, rho: float) -> float:
    """Integral of e^-r over the n-th iterate scaled to [0, rho]: every
    block is one quantum wide, so sum e^-lo (1 - e^-q) with q exact."""
    assert base ** n < 2 ** 62, "oracle block enumeration overflows int64"
    letters = np.asarray(sorted(alphabet), dtype=np.int64)
    ints = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        ints = (ints[:, None] * base + letters[None, :]).reshape(-1)
    q = rho / float(base) ** n
    terms = np.exp(-(ints * q)) * -math.expm1(-q)
    return float(math.fsum(terms.tolist()))


def lambda0_mp(levels, rho: float, dps: int = 40) -> float:
    """(1 - e^(-t_n)) prod_j sum_{a in A_j} e^(-a t_j), t_j = rho / (M_1 ... M_j),
    at dps digits with the level products exact integers, so no depth
    overflows.  levels is a list of (base, alphabet) pairs, top level first;
    an alphabet range(size) is summed as (1 - e^(-size t)) / (1 - e^(-t))."""
    with mpmath.workdps(dps):
        rho = mpmath.mpf(rho)
        value = mpmath.mpf(1)
        product = 1
        for base, alphabet in levels:
            product *= base
            t = rho / product
            if isinstance(alphabet, range) and alphabet == range(alphabet.stop):
                # stop, not len(): a range past 2^63 letters has no len()
                value *= mpmath.expm1(-alphabet.stop * t) / mpmath.expm1(-t)
            else:
                value *= mpmath.fsum(mpmath.exp(-a * t) for a in alphabet)
        return float(value * -mpmath.expm1(-rho / product))


def inner_rho(base: int, size: int, n: int, rho: float) -> float:
    """rho (M - |A|) sum_{j=1..n} M^-j, exact until one rounding: where the
    n-th reverse-canonical iterate scaled to [0, rho] starts."""
    return float(Fraction(rho) * (base - size) * sum(Fraction(1, base ** j)
                                                     for j in range(1, n + 1)))


def ball_bound(measure: float) -> float:
    """1 - e^(-m), the mass of f_0 over [0, m]: no eigenvalue of a set of
    measure m exceeds it."""
    return -math.expm1(-measure)


def eigenvalue_blocks(k: int, lows: np.ndarray, highs: np.ndarray) -> float:
    """Integral of r^k e^-r / k! over the blocks via scipy tails."""
    terms = special.gammainc(k + 1, highs) - special.gammainc(k + 1, lows)
    return float(math.fsum(terms.tolist()))


def cantor_function_exact(base: int, alphabet, n: int, x: float) -> Fraction:
    """Distribution function of the n-th unit iterate at the exact binary
    value of x: a digit walk in rational arithmetic that adds each level's
    share of the letters below the digit."""
    t = Fraction(x)
    if t <= 0:
        return Fraction(0)
    if t >= 1:
        return Fraction(1)
    size = len(alphabet)
    value = Fraction(0)
    for depth in range(1, n + 1):
        t *= base
        digit = math.floor(t)
        t -= digit
        value += Fraction(sum(1 for a in alphabet if a < digit), size ** depth)
        if digit not in alphabet:
            return value
    return value + t / size ** n


def cantor_cdf(base: int, alphabet, n: int, xs: np.ndarray) -> np.ndarray:
    """Normalized iterate mass below each x, from the unmerged block list."""
    lows, highs = iterate_blocks(base, alphabet, n, 1.0)
    width = float(base) ** -n
    total = width * len(lows)
    xs = np.asarray(xs, dtype=float)
    idx = np.searchsorted(lows, xs, side="right")
    full = np.maximum(idx - 1, 0).astype(float) * width
    inside = np.where(idx > 0,
                      np.clip(xs - lows[np.maximum(idx - 1, 0)], 0.0, width),
                      0.0)
    return (full + inside) / total


# ----------------------------------------------------------------------
# Shared seeded case grid
# ----------------------------------------------------------------------

def seeded_problem_grid(seed: int, count: int):
    """(base, alphabet, n, rho) draws with M in {3,4,5,7}, n <= 8, and
    rho from {0.5, 3, 10, M^(n/2)}."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        base = int(rng.choice((3, 4, 5, 7)))
        size = int(rng.integers(1, base))
        alphabet = tuple(int(a) for a in
                         np.sort(rng.choice(base, size=size, replace=False)))
        n = int(rng.integers(0, 9))
        rho = float(rng.choice((0.5, 3.0, 10.0, float(base) ** (n / 2.0))))
        cases.append((base, alphabet, n, rho))
    return cases
