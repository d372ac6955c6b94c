"""Kernel tests: frozen high-precision references, closed-form identities,
batch/scalar agreement, and seeded invariant loops."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import oracles
from cantorloc import (
    CantorSpec,
    eigenvalue_table,
    localization_problem,
    log_density,
    log_segment_mass,
    lower_tail_batch,
    regularized_lower_gamma,
    relative_area,
    segment_mass_batch,
    special,
)
from cantorloc.special import _phi, _prefactor_error

# mpmath at 40 significant digits, rounded to nearest double.
FROZEN_LOWER = [
    (5, 2.5, 0.042021038195306118),
    (17, 9.25, 0.0069358047833518039),
    (5, 5.0, 0.38403934516693688),
]
FROZEN_UPPER = [
    (100, 120.0, 0.034668034694424962),
    (1000, 900.0, 0.99950936726714241),
    (2, 0.03125, 0.99999503146900149),
]
FROZEN_SEGMENT = [
    (3, 1.0, 2.0, 0.12388838262529914),
    (50, 30.0, 40.0, 0.052330036124931939),
    (10, 50.0, 60.0, 6.4484086828430828e-12),
    (0, 0.0, 0.7, 0.50341469620859049),
    (200, 190.0, 190.1, 0.0021828271961186399),
]
FROZEN_LOG_SEGMENT = [
    (200, 400.0, 401.0, -65.178865312505273),
    (5, 800.0, 820.0, -771.35817138485752),
]
FROZEN_LOG_DENSITY = [
    (1000, 1000.0, -4.3728995060262968),
    (7, 2.5, -4.6111262379463288),
]


def test_lower_gamma_halves_at_log_two():
    assert regularized_lower_gamma(0, math.log(2.0)) == pytest.approx(0.5, rel=1e-15)


def test_lower_gamma_zero_argument():
    for k in (0, 1, 7, 100, 10_000):
        assert regularized_lower_gamma(k, 0.0) == 0.0


def test_tail_mass_zero_argument():
    for k in (0, 1, 7, 100, 10_000):
        _, [q] = lower_tail_batch(k, [0.0])
        assert q == 1.0


def test_tail_mass_is_exponential_at_order_zero():
    for t in (0.01, 0.5, 3.0, 40.0, 700.0):
        _, [q] = lower_tail_batch(0, [t])
        assert q == pytest.approx(math.exp(-t), rel=1e-14)


def test_lower_gamma_frozen_references():
    for k, x, ref in FROZEN_LOWER:
        assert regularized_lower_gamma(k, x) == pytest.approx(ref, rel=5e-14)


def test_tail_mass_frozen_references():
    for k, x, ref in FROZEN_UPPER:
        _, [q] = lower_tail_batch(k, [x])
        assert q == pytest.approx(ref, rel=5e-14)


def test_lower_gamma_matches_quadrature_at_five_five():
    quad = oracles.segment_mass_quad(5, 0.0, 5.0)
    assert regularized_lower_gamma(5, 5.0) == pytest.approx(quad, rel=1e-12)


def test_complement_pair_at_fifty_seventyfive():
    [p], [q] = lower_tail_batch(50, [75.0])
    assert abs(q - (1.0 - p)) <= 1e-13


def test_segment_degenerate_interval_is_zero():
    for k in (0, 3, 250):
        [v], [rel] = segment_mass_batch(k, [4.0], [4.0])
        assert v == 0.0
        assert rel == 0.0


def test_segment_frozen_references():
    for k, a, b, ref in FROZEN_SEGMENT:
        [v], [rel] = segment_mass_batch(k, [a], [b])
        assert v == pytest.approx(ref, rel=1e-12)
        assert rel < 1e-10


def test_segment_far_tail_matches_quadrature():
    [v], _ = segment_mass_batch(200, [190.0], [190.1])
    quad = oracles.segment_mass_quad(200, 190.0, 190.1)
    assert v == pytest.approx(quad, rel=1e-10)


def test_log_segment_frozen_references():
    for k, a, b, ref in FROZEN_LOG_SEGMENT:
        log_v, rel = log_segment_mass(k, a, b)
        assert log_v == pytest.approx(ref, abs=1e-10)
        assert rel < 1e-10


def test_log_segment_reaches_below_double_range():
    # The plain mass flushes to zero here; the log path must not.
    log_v, _ = log_segment_mass(5, 800.0, 820.0)
    assert log_v < -745.0
    assert math.isfinite(log_v)
    [v], _ = segment_mass_batch(5, [800.0], [820.0])
    assert v == 0.0


def test_log_density_frozen_references():
    for k, r, ref in FROZEN_LOG_DENSITY:
        assert log_density(k, r) == pytest.approx(ref, abs=1e-12)


def test_log_density_batch_matches_scalar():
    r = np.array([0.5, 2.5, 40.0, 1000.0])
    batch = log_density(7, r)
    for i, ri in enumerate(r):
        assert batch[i] == log_density(7, float(ri))


def test_log_density_over_an_array_of_orders():
    # A batch over k rounds each element as the one-element call does.
    rng = np.random.default_rng(19)
    k = np.concatenate([np.arange(30), (10.0 ** rng.uniform(1.0, 8.0, 70)).round()])
    r = (k + 1.0) * 10.0 ** rng.uniform(-3.0, 0.4, k.size)
    batch = log_density(k[:, None], np.stack([r, 0.5 * r], axis=1))
    for i in range(k.size):
        for j, x in enumerate((r[i], 0.5 * r[i])):
            assert batch[i, j] == log_density(int(k[i]), float(x))
    assert np.array_equal(_prefactor_error(k, r, batch[:, 0]),
                          [_prefactor_error(int(ki), ri, li)
                           for ki, ri, li in zip(k, r, batch[:, 0])])
    with pytest.raises(ValueError):
        log_density(np.array([1.0, 2.5]), 1.0)


def test_log_density_matches_mpmath_within_its_bound():
    # Far below the mode, 1 + (u - 1) must not stand in for u = r / (k+1):
    # at (40, 1.78e-5) that cost 4.6e-9 and at (1000, 1.0) 3.4e-11.
    points = [(40, 1.78e-5), (1000, 1.0), (21, 1e-3), (25, 3.0), (10, 0.3),
              (5000, 1200.0), (5000, 5000.0), (5000, 9000.0)]
    rng = np.random.default_rng(17)
    for _ in range(200):
        k = int(10.0 ** rng.uniform(0.0, 5.0))
        points.append((k, (k + 1) * 10.0 ** rng.uniform(-6.0, 0.5)))
    for k, r in points:
        ld = log_density(k, r)
        assert abs(ld - oracles.log_density_mp(k, r)) <= _prefactor_error(k, r, ld)


@pytest.mark.parametrize("seed, k_min, k_max", [(7, 10.0, 2.0e4), (8, 0.5, 20.0)])
def test_segment_bound_holds_against_mpmath(seed, k_min, k_max):
    # lo within a few standard deviations of the mode, widths 1e-8 to 1; at
    # seed 7, 61 segments take a cumulative difference and 139 the walk.
    rng = np.random.default_rng(seed)
    for _ in range(200):
        k = int(round(10.0 ** rng.uniform(math.log10(k_min), math.log10(k_max))))
        a = max(0.0, k + rng.normal(0.0, 4.0 * math.sqrt(k)))
        b = a + 10.0 ** rng.uniform(-8.0, 0.0)
        [v], [rel] = segment_mass_batch(k, [a], [b])
        ref = oracles.segment_mass_mp(k, a, b)
        assert abs(v - ref) <= v * rel


@pytest.mark.parametrize("k, a, b", [
    # The lower series at k = 0 exponentiates log x - x, and |log x| = 20
    # here; a bound on -x alone claimed 1.33e-15 against 3.18e-15.
    (0, 0.0, 1.5020572613724892e-09),
    # Masses below the normal range, from a cumulative difference whose
    # endpoint errors once flushed to zero and claimed rel 0 (4.6e-12 and
    # 7.1e-12 off), and from the walk: the thin segment's 7e-316 was once
    # returned as an exact 0.
    (5, 750.0, 760.0),
    (5, 750.0, 1.0e7),
    (5, 745.0, 745.0001),
])
def test_segment_bound_holds_at_the_ends_of_the_double_range(k, a, b):
    [v], [rel] = segment_mass_batch(k, [a], [b])
    assert v > 0.0
    with mpmath.workdps(40):
        ref = oracles.segment_mass_tails_mp(k, a, b)
        assert abs(mpmath.mpf(v) - ref) <= mpmath.mpf(v) * rel


def _record_depths(monkeypatch):
    # The (row, block) pairs in play at each depth of each walk: the size
    # of the array the walk bounds the Taylor remainders of.
    pairs = []
    real = special.expansion_tails

    def recorded(k, c, w, radii):
        pairs.append(np.size(c))
        return real(k, c, w, radii)

    monkeypatch.setattr(special, "expansion_tails", recorded)
    return pairs


def _record_rows(monkeypatch):
    # The rows of each walk.
    rows = []
    real = special._tree_masses

    def recorded(trees, owner, ks, place=None):
        rows.append(ks.size)
        return real(trees, owner, ks, place)

    monkeypatch.setattr(special, "_tree_masses", recorded)
    return rows


@pytest.mark.parametrize("rho, k", [(3856.1790282438915, 1967),
                                    (3674.3552626685405, 1875)])
def test_reverse_argmax_needs_no_adaptive_fallback(monkeypatch, rho, k):
    # k is the argmax of `norm --base 3 --alphabet 1,2 --iterate 15 --rho
    # <rho>`, and the segments are that iterate's merged intervals.  The
    # thin ones cancel in the cumulative difference and take the walk,
    # which expands every one of them at its root: one walk of one depth,
    # one block per row.
    ivals = localization_problem(CantorSpec(3, (1, 2)), 15, rho).intervals
    pairs = _record_depths(monkeypatch)
    rows = _record_rows(monkeypatch)
    segment_mass_batch(k, ivals.lows, ivals.highs, ivals.widths)
    assert len(rows) == 1 and rows[0] > 1000
    assert pairs == rows


def test_thin_segments_below_mode_need_no_fallback(monkeypatch):
    # Masses near 1e-240: the log-density rounding (~1e-13) once sent these
    # to seconds of bisection on noise.  Each is expanded at its root.
    pairs = _record_depths(monkeypatch)
    for a in (0.1753561, 0.18284164):
        [v], [rel] = segment_mass_batch(100, [a], [a + 1e-8])
        ref = oracles.segment_mass_mp(100, a, a + 1e-8)
        assert abs(v - ref) <= v * rel
    assert pairs == [1, 1]


@pytest.mark.parametrize("k, a, b", [(5000, 0.0, 1.0e4), (2000, 1500.0, 2600.0),
                                     (0, 100.0, 1.0e12), (5, 800.0, 1.0e6)])
def test_wide_segments_bisect_to_mpmath(monkeypatch, k, a, b):
    # No expansion converges over these whole segments, so the tree walk
    # splits them over more than one depth; the log mass, down to e^-100
    # and e^-771 in the last two, must lie within its bound of mpmath.
    pairs = _record_depths(monkeypatch)
    log_v, rel = log_segment_mass(k, a, b)
    assert len(pairs) > 1
    ref = oracles.log_segment_mass_mp(k, a, b)
    assert abs(math.expm1(log_v - ref)) <= rel


def test_negligible_blocks_are_pruned(monkeypatch):
    # Blocks whose whole mass is below 1e-18 of the segment's are pruned,
    # so the far tails of f_5000 on [0, 1e4] stop being split: seven
    # depths with at most 12 blocks in play, where the whole tree holds 64
    # blocks at depth 6.
    pairs = _record_depths(monkeypatch)
    log_segment_mass(5000, 0.0, 1.0e4)
    assert 1 < len(pairs) <= 8
    assert max(pairs) <= 16


@pytest.mark.parametrize("b", [40.0, 800.0])
def test_wide_segment_bound_holds_at_order_zero(b):
    # The density falls by e^-b over the segment, which the tree walk
    # splits; its certified relative bound must cover the error against
    # 40-digit mpmath on both lengths.
    log_v, rel = log_segment_mass(0, 0.0, b)
    ref = oracles.segment_mass_mp(0, 0.0, b)
    assert abs(math.expm1(log_v - math.log(ref))) <= rel


@pytest.mark.parametrize("k, s, T, base, alphabet", [
    (300, 2000.0, 300.0, 5, (1, 3)),
    (10, 1000.0, 2000.0, 3, (0, 2)),
])
def test_far_tail_relative_area_bisects_to_mpmath(monkeypatch, k, s, T, base,
                                                  alphabet):
    # Every mass here is below 1e-250, so the area comes from the tree
    # walk, scaled by f_k at s; the walk splits the blocks over [s, s+T]
    # over more than one depth, and the area must be within 1e-13 of mpmath.
    pairs = _record_depths(monkeypatch)
    area = relative_area(CantorSpec(base, alphabet), k, s, T)
    assert len(pairs) > 1
    ref = oracles.relative_area_mp(k, s, T, base, alphabet)
    assert abs(area - ref) <= 1e-13 * ref


def test_relative_area_of_a_thin_far_tail_segment_matches_mpmath():
    # Masses near e^-740: mpmath's two-sided gammainc returns 0 for them,
    # which once made the oracle divide by zero.
    k, s, T = 15, 741.3467823271025, 1.34492064e-5
    area = relative_area(CantorSpec(3, (0, 2)), k, s, T)
    assert area == 0.6666666694864756
    assert abs(area - oracles.relative_area_mp(k, s, T, 3, (0, 2))) <= 1e-13 * area


def _log_coefficients_mp(k, c, w, order):
    """Taylor coefficients of f_k(c + w u) / f_k(c) at 40 digits from those
    of its log: g_1 = (k/c - 1) w, g_p = k (-1)^(p+1) (w/c)^p / p, and
    p a_p = sum_j j g_j a_(p-j)."""
    with mpmath.workdps(40):
        c, w = mpmath.mpf(c), mpmath.mpf(w)
        g = [0, (k / c - 1) * w] + [k * (-1) ** (p + 1) * (w / c) ** p / p
                                    for p in range(2, order + 1)]
        a = [mpmath.mpf(1)]
        for p in range(1, order + 1):
            a.append(mpmath.fsum(j * g[j] * a[p - j] for j in range(1, p + 1)) / p)
        return a


@pytest.mark.parametrize("k, c, w", [(0, 3.0, 9.0), (5, 1.5, 0.7), (506, 480.0, 47.0),
                                     (6561, 6800.0, 243.0), (40, 300.0, 30.0)])
def test_expansion_matches_log_coefficient_recurrence(k, c, w):
    # The three-term recurrence against the log-coefficient convolution, on
    # the moments of [0, 1] (mu_p = 2^-p / (p+1), p even): the sum within
    # its rounding bound, the coefficients past the order within the
    # Cauchy remainder.
    order = 40
    p = np.arange(order + 1)
    mu = np.where(p % 2 == 0, 0.5 ** p / (p + 1.0), 0.0)
    weight = (order + 2) * 2.0 ** -53 * mu
    total, bound, _, _ = special.expansion_sums(
        np.array([float(k)]), np.array([c]), np.array([w]), mu[None, :], weight[None, :])
    a = _log_coefficients_mp(k, c, w, 3 * order)
    with mpmath.workdps(40):
        ref = mpmath.fsum(a[q] * mu[q] for q in range(order + 1))
        tail = mpmath.fsum(abs(a[q]) * mpmath.mpf(2) ** -q
                           for q in range(order + 1, 3 * order + 1))
        assert abs(total[0] - ref) <= bound[0]
    radii = np.array([2.0, 4.0, 8.0])
    tails = special.expansion_tails(float(k), c, w, radii)
    assert float(tail) <= np.exp(tails - (order + 1) * np.log(2.0 * radii)).min()


def test_validation_rejects_bad_orders_and_arguments():
    with pytest.raises(ValueError):
        regularized_lower_gamma(-1, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(2.5, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(2, -0.5)
    with pytest.raises(ValueError):
        lower_tail_batch(3, [math.inf])
    with pytest.raises(ValueError):
        segment_mass_batch(3, [2.0], [1.0])
    with pytest.raises(ValueError):
        segment_mass_batch(3, [-1.0], [1.0])
    with pytest.raises(ValueError):
        log_segment_mass(3, 1.0, math.inf)
    with pytest.raises(ValueError):
        segment_mass_batch(3, np.array([0.0, 2.0]), np.array([1.0]))
    # nan once passed the sign check: log_density(0, nan) gave 0.0 and
    # log_density(3, nan) -inf.
    for k, r in ((0, math.nan), (3, math.nan), (3, np.array([1.0, math.nan]))):
        with pytest.raises(ValueError):
            log_density(k, r)


def test_segment_additivity_property():
    # Masses over [a, b] and [b, c] add up to the mass over [a, c] within
    # their bounds: 300 seeded draws of k in 0..500 and cuts in [0, 1200],
    # far tails included, and the ends k = 0 and 500 with every sorted
    # choice of cuts from 0 and 1200.  The special_fn verify suite draws
    # cuts near the mode only.
    rng = np.random.default_rng(64)
    cases = [(int(rng.integers(0, 501)), *rng.uniform(0.0, 1200.0, 3)) for _ in range(300)]
    cases += [(k, *cuts) for k in (0, 500) for cuts in itertools.combinations_with_replacement(
        (0.0, 1200.0), 3)]
    for k, *cuts in cases:
        a, b, c = sorted(float(v) for v in cuts)
        [left], [left_rel] = segment_mass_batch(k, [a], [b])
        [right], [right_rel] = segment_mass_batch(k, [b], [c])
        [whole], [whole_rel] = segment_mass_batch(k, [a], [c])
        bound = left * left_rel + right * right_rel + whole * whole_rel
        assert abs(left + right - whole) <= bound + 1e-11 * whole + 1e-295, (k, a, b, c)


def test_lower_gamma_monotone_property():
    # P(k+1, x) does not decrease in x, within 2e-16: 300 seeded draws of k
    # in 0..2000 and x1, x2 in [0, 4000], and the ends k = 0 and 2000 with
    # each pair of 0, the least subnormal and 4000.
    rng = np.random.default_rng(65)
    cases = [(int(rng.integers(0, 2001)), *rng.uniform(0.0, 4000.0, 2)) for _ in range(300)]
    cases += [(k, *ends) for k in (0, 2000)
              for ends in itertools.combinations_with_replacement((0.0, 5e-324, 4000.0), 2)]
    for k, x1, x2 in cases:
        lo, hi = float(min(x1, x2)), float(max(x1, x2))
        assert regularized_lower_gamma(k, lo) <= regularized_lower_gamma(k, hi) + 2e-16, (
            k, lo, hi)


def test_batch_lower_tail_matches_scalar():
    # Each element is independent of the batch around it, so one-element
    # calls reproduce the batch bit for bit.
    rng = np.random.default_rng(11)
    for k in (0, 1, 19, 400, 9000):
        x = rng.uniform(0.0, 3.0 * (k + 1), size=64)
        p, q = lower_tail_batch(k, x)
        for i, xi in enumerate(x):
            [pi], [qi] = lower_tail_batch(k, [xi])
            assert pi == p[i] and qi == q[i]


@pytest.mark.parametrize("k", [0, 1, 15, 16, 17, 20, 21, 200, 1967, 6561, 20000])
def test_lower_tail_blocks_match_the_term_by_term_loop(k):
    # The kernel divides a block of 16 factors at once; it must give the
    # bits of a loop that forms, multiplies and adds one term at a time, at
    # x = 0, at the crossover x = k + 1 and on both sides of it.
    rng = np.random.default_rng(k)
    x = np.concatenate(([0.0, k + 1.0, float(k), k + 2.0, 0.5 * k],
                        rng.uniform(0.0, 2.0 * k + 40.0, 384),
                        10.0 ** rng.uniform(-12.0, 0.0, 8)))
    for part in (x[:1], x[1:2], x[:5], x[5:40], x):
        p, q = lower_tail_batch(k, part)
        p_ref, q_ref = oracles.lower_tail_loop(k, part)
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)


def test_batch_segment_mass_matches_scalar(monkeypatch):
    rng = np.random.default_rng(12)
    thin = np.random.default_rng(14)
    pairs = _record_depths(monkeypatch)
    for k in (0, 6, 120, 1500):
        lo = rng.uniform(0.0, 2.0 * (k + 1), size=48)
        hi = lo + rng.uniform(0.0, 0.3 * (k + 1), size=48)
        # Thin segments 3 to 8 standard deviations off the mode cancel in
        # the cumulative difference and take the walk.
        sigma = math.sqrt(k + 1.0)
        off = k + 1.0 + thin.choice([-1.0, 1.0], 24) * thin.uniform(3.0, 8.0, 24) * sigma
        lo = np.concatenate([lo, np.maximum(off, 0.0)])
        hi = np.concatenate([hi, lo[48:] + 10.0 ** thin.uniform(-8.0, -3.0, 24) * sigma])
        del pairs[:]
        values, errs = segment_mass_batch(k, lo, hi)
        # The first depth of the batch's walk holds the walked rows, one
        # block each; a segment's mass and bound do not depend on the others.
        assert pairs and pairs[0] >= 12
        for i in range(lo.size):
            [v], [rel] = segment_mass_batch(k, [lo[i]], [hi[i]])
            assert v == values[i] and rel == errs[i]


def test_walk_memory_stays_bounded():
    # One walk takes all rows of a call; it sums the Taylor series of its
    # expanded pairs in chunks, since their (pairs, 41) arrays are its
    # largest.  Summed in one piece they took 4.7 MB on the table and 29 MB
    # on the segments; walked in batches of 64 rows, 1.2 MB and 9.5 MB.
    table = localization_problem(CantorSpec(3, (0, 2)), 11, 3.0 ** 5.5)
    ivals = localization_problem(CantorSpec(3, (1, 2)), 15, 3856.1790282438915).intervals
    calls = [(lambda: eigenvalue_table(table, 559), 1.6e6),
             (lambda: segment_mass_batch(1967, ivals.lows, ivals.highs, ivals.widths), 12e6)]
    for call, bound in calls:
        call()  # builds the cached trees and moments
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def _phi_reference(d):
    """Series of phi(1 + d), |d| < 0.5, testing convergence after each term."""
    term = d * d
    acc = term / 2.0
    m = 3.0
    while True:
        term = term * -d
        step = term / m
        acc += step
        m += 1.0
        if not np.any(np.abs(step) > 1e-18 * np.maximum(acc, 1e-30)) or m > 200.0:
            return acc


def test_phi_series_length_matches_checked_loop():
    # _phi fixes the series length from max |d| in advance; it must give the
    # same floats as a loop that tests every term.
    rng = np.random.default_rng(13)
    for size in (1, 2, 40):
        for _ in range(80):
            sign = rng.choice([-1.0, 1.0], size)
            d = np.concatenate([
                sign * rng.uniform(0.0, 0.5, size),
                sign * (0.5 - 10.0 ** rng.uniform(-16.0, -1.0, size)),
                sign * 10.0 ** rng.uniform(-40.0, -0.4, size),
            ])
            assert np.all(np.abs(d) < 0.5)
            for part in (d[:size], d[size:2 * size], d[2 * size:], d):
                assert np.array_equal(_phi(part), _phi_reference(part))
