"""Operator tests: eigenvalues against the closed form and brute-force
block sums, relative areas, and the certified norm."""

import math

import mpmath
import numpy as np
import pytest

import oracles
from cantorloc import (
    CantorSpec,
    DegenerateMassError,
    IndexedCantorSpec,
    eigenvalue,
    eigenvalue_table,
    lambda0_closed_form,
    limit_relative_area,
    localization_problem,
    operator_norm,
    regularized_lower_gamma,
    relative_area,
)
from cantorloc.cantor import discrete_iterate
from cantorloc.operator import (
    TAIL_ABSOLUTE,
    TAIL_RELATIVE,
    EigenvalueResult,
    _last_index,
    _select,
    _truncation,
    operator_norms,
)
from cantorloc.special import block_floor, block_measures

MID_THIRD = CantorSpec(3, (0, 2))


def test_first_eigenvalue_mid_third_depth_one():
    # Intervals [0,1] and [2,3] at rho=3: (1-e^-1) + (e^-2 - e^-3).
    ref = 0.71766877369730643
    problem = localization_problem(MID_THIRD, 1, 3.0)
    assert eigenvalue(problem, 0).value == pytest.approx(ref, rel=1e-11)
    assert lambda0_closed_form(MID_THIRD, 1, 3.0) == pytest.approx(ref, rel=1e-13)


def test_closed_form_depth_zero_is_ball():
    for rho in (0.5, 1.0, 17.0):
        assert lambda0_closed_form(MID_THIRD, 0, rho) == pytest.approx(
            -math.expm1(-rho), rel=1e-15)


def test_closed_form_matches_interval_sum():
    rng = np.random.default_rng(21)
    for _ in range(25):
        base = int(rng.integers(2, 8))
        size = int(rng.integers(1, base))
        letters = tuple(sorted(rng.choice(base, size=size, replace=False).tolist()))
        spec = CantorSpec(base, letters)
        n = int(rng.integers(0, 8))
        rho = float(rng.uniform(0.2, 30.0))
        closed = lambda0_closed_form(spec, n, rho)
        summed = eigenvalue(localization_problem(spec, n, rho), 0)
        assert closed == pytest.approx(summed.value, rel=1e-10)


def test_closed_form_matches_exponential_block_oracle():
    spec = CantorSpec(5, (0, 2, 3))
    for n, rho in ((0, 1.0), (3, 4.0), (6, 2.5)):
        ref = oracles.lambda0_iterate(5, (0, 2, 3), n, rho)
        assert lambda0_closed_form(spec, n, rho) == pytest.approx(ref, rel=1e-11)


def test_indexed_single_level_reduces_to_closed_form():
    spec = CantorSpec(6, (1, 4))
    levels = IndexedCantorSpec((spec,))
    for rho in (0.7, 5.0):
        assert lambda0_closed_form(levels, 1, rho) == pytest.approx(
            lambda0_closed_form(spec, 1, rho), rel=1e-14)


def test_indexed_two_levels_match_brute_force():
    levels = IndexedCantorSpec((CantorSpec(3, (0, 2)), CantorSpec(4, (1, 3))))
    rho = 2.5
    width = rho / 12.0
    masses = []
    for a1 in (0, 2):
        for a2 in (1, 3):
            lo = (a1 * 4 + a2) * width
            masses.append(-math.expm1(-width) * math.exp(-lo))
    assert lambda0_closed_form(levels, 2, rho) == pytest.approx(
        math.fsum(masses), rel=1e-10)


def test_indexed_prefix_depth():
    levels = IndexedCantorSpec((CantorSpec(3, (0, 1)), CantorSpec(5, (0, 1, 2))))
    assert lambda0_closed_form(levels, 1, 2.0) == pytest.approx(
        lambda0_closed_form(CantorSpec(3, (0, 1)), 1, 2.0), rel=1e-14)
    with pytest.raises(ValueError):
        lambda0_closed_form(levels, 3, 2.0)


def test_eigenvalues_decrease_for_canonical_alphabets():
    problem = localization_problem(CantorSpec(3, (0, 1)), 3, 6.0)
    rows = eigenvalue_table(problem, 8)
    values = [r.value for r in rows]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert [r.k for r in rows] == list(range(9))


def test_ball_bound_dominates_eigenvalues():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(0, 5))
        rho = float(rng.uniform(0.5, 12.0))
        problem = localization_problem(MID_THIRD, n, rho)
        cap = oracles.ball_bound(problem.intervals.measure)
        for k in (0, 1, 3):
            assert eigenvalue(problem, k).value <= cap + 1e-12


def test_relative_area_full_alphabet_is_one():
    for base in (2, 3, 6):
        spec = CantorSpec(base, tuple(range(base)))
        assert relative_area(spec, 4, 2.0, 1.5) == pytest.approx(1.0, rel=1e-12)


def test_relative_area_far_tail_uses_log_route():
    # Mass of [900, 901] at k=0 is ~e^-900, far below the double range.
    value = relative_area(CantorSpec(3, (0, 1)), 0, 900.0, 1.0)
    ref = oracles.segment_mass_quad(0, 900.0, 900.0 + 2.0 / 3.0)
    assert 0.0 < value < 1.0
    # e^-900 factors out of both masses, leaving a representable ratio.
    expected = math.expm1(-2.0 / 3.0) / math.expm1(-1.0)
    assert value == pytest.approx(expected, rel=1e-9)
    assert ref == 0.0


def test_relative_area_degenerate_denominator():
    with pytest.raises(DegenerateMassError):
        relative_area(MID_THIRD, 0, 1.0e6, 1.0e-12)


def test_relative_area_validation():
    with pytest.raises(ValueError):
        relative_area(MID_THIRD, 2, -1.0, 1.0)
    with pytest.raises(ValueError):
        relative_area(MID_THIRD, 2, 1.0, 0.0)
    # A nan start multiplier once returned nan: a < 1 is false for nan.
    for theta, a, T in ((0.5, math.nan, 1.0), (math.nan, 2.0, 1.0), (0.5, 2.0, math.nan)):
        with pytest.raises(ValueError):
            limit_relative_area(theta, a, T)


def test_limit_area_recovers_order_zero_form():
    theta, T = 2.0 / 3.0, 1.25
    target = math.expm1(-theta * T) / math.expm1(-T)
    assert limit_relative_area(theta, 1.0e9, T) == pytest.approx(target, rel=1e-6)
    assert limit_relative_area(theta, 1.0, T) == theta


def test_limit_area_is_reached_by_growing_order():
    spec = CantorSpec(3, (0, 1))
    limit = limit_relative_area(2.0 / 3.0, 2.0, 1.0)
    k = 4096
    assert abs(relative_area(spec, k, 2.0 * k, 1.0) - limit) <= 1e-3


def test_norm_ball_case():
    for rho in (0.5, 1.0, 9.0):
        res = operator_norm(localization_problem(MID_THIRD, 0, rho))
        assert res.argmax_k == 0
        assert res.value == pytest.approx(-math.expm1(-rho), rel=1e-13)


def test_norm_zero_radius():
    # A problem of scale zero is refused however it is built, so no norm
    # ever sees one.
    from cantorloc import LocalizationProblem

    with pytest.raises(ValueError):
        localization_problem(MID_THIRD, 1, 0.0)
    with pytest.raises(ValueError):
        LocalizationProblem(spec=MID_THIRD, n=1, rho=0.0)


def test_depth_sixteen_matches_exact_moment_references():
    # 40-digit references from the exact-moment method.  Near r = 6,500 the
    # blocks are 1.5e-4 wide and the float width hi - lo is off by ~6e-9,
    # which once put lambda_6561 6.2e-11 off against a claimed 2.3e-15.
    lam = eigenvalue(localization_problem(MID_THIRD, 16, 3.0 ** 8), 6561)
    assert abs(lam.value - 0.0027585743301103166) <= lam.err
    res = operator_norm(localization_problem(CantorSpec(3, (1, 2)), 16, 3.0 ** 8))
    assert res.argmax_k == 3341
    assert abs(res.value - 0.0066523927252484441) <= res.value_err


# Eigenvalues near the mode, and the last row of the eigs-auto table
# (k = 506), which the cumulative difference of tails put 5.7e-12 off.
EXACT_CASES = [
    ([(3, (0, 2))] * 10, 3.0 ** 5, 243),
    ([(3, (1, 2))] * 10, 3.0 ** 5, 133),
    ([(5, (1, 3))] * 10, 5.0 ** 5, 810),
    ([(3, (0, 2)), (4, (1, 3))] * 5, 12.0 ** 2.5, 50),
    ([(3, (0, 2))] * 11, 3.0 ** 5.5, 506),
]


@pytest.mark.parametrize("levels, rho, k", EXACT_CASES)
def test_eigenvalue_error_within_claim_against_mpmath(levels, rho, k):
    # Canonical, reverse, interior and indexed sets; the 40-digit reference
    # sums mpmath gammainc over the exact blocks around the mode.
    specs = tuple(CantorSpec(b, a) for b, a in levels)
    spec = specs[0] if len(set(specs)) == 1 else IndexedCantorSpec(specs)
    lam = eigenvalue(localization_problem(spec, len(levels), rho), k)
    ref, left_out = oracles.eigenvalue_mp(levels, k, rho)
    assert left_out <= 1e-20 * ref
    assert abs(lam.value - ref) <= lam.err
    assert lam.err <= 2e-13 * ref


def test_eigenvalues_past_the_enumeration_cap():
    # 2^32 intervals: the block tree needs none of them; enumerating them
    # still stops at the cap.
    from cantorloc import CapExceededError

    problem = localization_problem(MID_THIRD, 32, 3.0 ** 16)
    for k in (1, 3 ** 16):
        lam = eigenvalue(problem, k)
        assert 0.0 < lam.value and 0.0 < lam.err <= 1e-11 * lam.value
    lam0 = eigenvalue(problem, 0)
    assert abs(lam0.value - lambda0_closed_form(MID_THIRD, 32, 3.0 ** 16)) <= lam0.err
    with pytest.raises(CapExceededError):
        problem.intervals


def test_table_and_norm_are_held_to_the_cap(monkeypatch):
    # Each refuses before it allocates: the table by its k_max + 1 rows,
    # the norm by the (range, block) pairs its walk would hold next.
    from cantorloc import CapExceededError

    monkeypatch.setenv("CTFL_MAX_INTERVALS", "11")
    problem = localization_problem(MID_THIRD, 3, 9.0)
    assert len(eigenvalue_table(problem, 10)) == 11
    with pytest.raises(CapExceededError):
        eigenvalue_table(problem, 11)
    # The walk peaks at 8 pairs at rho = 9, 24 at rho = 100 and 28 for the
    # two together; {1, ..., 6} in base 7 at n = 3 and rho = 60 peaks at
    # 1,500.  (rho = 100 was once refused under this cap by the truncation
    # report's scan of 1,002 entries.)
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "1000")
    assert operator_norm(problem).argmax_k == 0
    wide = localization_problem(MID_THIRD, 3, 100.0)
    assert operator_norm(wide).argmax_k == 0
    many = localization_problem(CantorSpec(7, (1, 2, 3, 4, 5, 6)), 3, 60.0)
    with pytest.raises(CapExceededError, match="pairs of the norm's walk"):
        operator_norm(many)
    # Problems that share a walk are held to the cap together: each of
    # these fits a cap of 24 alone.
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "24")
    assert operator_norm(wide).argmax_k == 0
    with pytest.raises(CapExceededError, match="28 live"):
        operator_norms([problem, wide])


def test_table_checks_k_max_as_an_index():
    # k_max = 2.5 once gave the four rows 0 .. 3.
    problem = localization_problem(MID_THIRD, 3, 9.0)
    for bad in (2.5, -1):
        with pytest.raises(ValueError, match="index k must be a nonnegative integer"):
            eigenvalue_table(problem, bad)
    assert eigenvalue_table(problem, 3.0) == eigenvalue_table(problem, 3)


def test_an_index_from_2_53_on_is_refused():
    # 2^53 + 1 once rounded to 2^53, and eigenvalue reported that row under
    # the k that was asked for.
    from cantorloc.special import _validate_k

    assert _validate_k(2 ** 53 - 1) == 2 ** 53 - 1
    problem = localization_problem(MID_THIRD, 3, 9.0)
    for k in (2 ** 53, 2 ** 53 + 1, 2.0 ** 60, math.inf):
        with pytest.raises(ValueError, match="below 2\\^53"):
            eigenvalue(problem, k)


@pytest.mark.parametrize("spec, n, rho, k_max", [
    (CantorSpec(3, (1, 2)), 9, 140.0, 200),
    # One block per index at the root, expanded at once.
    (CantorSpec(3, (0, 2)), 1, 0.5, 20),
    (CantorSpec(3, (0, 2)), 1, 7.0, 30),
    (CantorSpec(4, (0, 1, 3)), 6, 60.0, 100),
    (IndexedCantorSpec((CantorSpec(3, (0, 2)), CantorSpec(5, (1, 3))) * 2), 4, 100.0, 150),
])
def test_table_rows_equal_single_eigenvalues(spec, n, rho, k_max):
    # Which blocks an index uses depends on that index alone, and its sums
    # run over its own blocks, so the other rows of a batch change nothing.
    problem = localization_problem(spec, n, rho)
    table = eigenvalue_table(problem, k_max)
    assert table == [eigenvalue(problem, k) for k in range(k_max + 1)]


def test_norm_certificate_invariants():
    rng = np.random.default_rng(31)
    for _ in range(12):
        base = int(rng.integers(2, 6))
        size = int(rng.integers(1, base))
        letters = tuple(sorted(rng.choice(base, size=size, replace=False).tolist()))
        n = int(rng.integers(0, 5))
        rho = float(rng.uniform(0.5, 40.0))
        problem = localization_problem(CantorSpec(base, letters), n, rho)
        res = operator_norm(problem)
        assert res.k_truncation > rho
        assert 0 <= res.argmax_k <= res.k_truncation
        assert 0.0 <= res.tail_bound < max(1e-12, 1e-9 * res.value)
        assert res.value_err < 1e-10 * max(res.value, 1e-200)
        # The reported value must reproduce through the slow path.
        direct = eigenvalue(problem, res.argmax_k)
        assert res.value == direct.value


def test_truncation_matches_a_linear_scan():
    # The tail sum only picks where the search starts; the truncation must
    # be the first k > rho with P(k+1, rho) below the threshold.
    rng = np.random.default_rng(43)
    for rho in np.concatenate((rng.uniform(0.1, 1e4, 3), 10.0 ** rng.uniform(-1.0, 4.0, 9))):
        rho = float(rho)
        norm = float(10.0 ** rng.uniform(-6.0, 0.0))
        threshold = max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm)
        k = math.floor(rho) + 1
        while regularized_lower_gamma(k, rho) >= threshold:
            k += 1
        assert _truncation(rho, norm) == k
    # Near the deepest sweep radii a scan from rho is too long; the result
    # must still be the first such k: P(k+1, rho) below the threshold and
    # P(k, rho) not.
    for rho in (3.0 ** 14, 3.0 ** 14 * (1.0 + 1e-9), 3.0 ** 14.5, 3.0 ** 14.5 * (1.0 - 1e-9)):
        for norm in (1e-6, 0.5):
            threshold = max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm)
            k = _truncation(rho, norm)
            assert k - 1 > rho and regularized_lower_gamma(k, rho) < threshold
            assert regularized_lower_gamma(k - 1, rho) >= threshold


@pytest.mark.parametrize("shift", [-60.0, -5.0, 5.0, 60.0])
def test_truncation_settles_a_start_off_by_several_indices(monkeypatch, shift):
    # A start moved 5 or 60 indices below or above the Poisson quantile
    # (clamped to floor(rho) + 1 at rho = 30) must still settle on the
    # first k of the linear scan, walking up or down.
    import cantorloc.operator as op

    quantile = op._poisson_quantile
    monkeypatch.setattr(op, "_poisson_quantile",
                        lambda rho, tail: quantile(rho, tail) + int(shift))
    for rho in (30.0, 1e3, 3.0 ** 8):
        for norm in (1e-6, 0.5):
            threshold = max(TAIL_ABSOLUTE, TAIL_RELATIVE * norm)
            k = math.floor(rho) + 1
            while regularized_lower_gamma(k, rho) >= threshold:
                k += 1
            assert _truncation(rho, norm) == k


def test_walk_bounds_every_index_past_the_last():
    # The walk bounds k <= _last_index; past it lambda_k <= P(K, rho) with
    # K = _last_index + 1, whose Poisson Chernoff bound
    # e^(-rho) (e rho / K)^K must stay far below the least subnormal.  Its
    # log peaks near rho = 305, 875.9 below that of the least subnormal.
    for rho in np.logspace(-9.0, 9.0, 401):
        rho = float(rho)
        K = _last_index(rho) + 1
        assert -rho + K * (1.0 + math.log(rho / K)) < math.log(5e-324) - 870.0
    with mpmath.workdps(30):
        for rho in (0.5, 303.0, 3.0 ** 8, 1e6):
            K = _last_index(rho) + 1
            assert mpmath.gammainc(K, 0, rho, regularized=True) < mpmath.mpf("1e-700")


def test_trace_identity_on_random_problems():
    # sum_k f_k(r) = 1 for every r, so the eigenvalues sum to the measure
    # |E| = rho (|A|/M)^n of the iterate.  Past _last_index they sum to
    # less than 10^-703 (test_walk_bounds_every_index_past_the_last), so a
    # table to there meets |E| within its summed err and the rounding of
    # the sum and of |E|.
    rng = np.random.default_rng(27)
    for _ in range(50):
        base = int(rng.integers(2, 7))
        size = int(rng.integers(1, base + 1))
        spec = CantorSpec(base, tuple(sorted(rng.choice(base, size=size, replace=False).tolist())))
        n, rho = int(rng.integers(0, 7)), float(rng.uniform(0.5, 60.0))
        rows = eigenvalue_table(localization_problem(spec, n, rho), _last_index(rho))
        measure = rho * (size / base) ** n
        assert abs(math.fsum(r.value for r in rows) - measure) <= (
            math.fsum(r.err for r in rows) + 4.0 * math.ulp(measure)), (spec, n, rho)


def test_norm_memory_does_not_grow_with_rho():
    # The walk holds live (range, block) pairs, which follow the set, not
    # rho: from n = 20 to 24 the mid-third radius 3^(n/2) grows 9x, and
    # the norm's traced peak at most 2x.  Holding one group per 8 indices
    # up to _last_index from the first step, it grew 8.6x (3.07 to 26.3 MB).
    import tracemalloc

    def peak(n):
        problem = localization_problem(MID_THIRD, n, 3.0 ** (n / 2))
        problem.tree
        tracemalloc.start()
        try:
            operator_norm(problem)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)
    assert peak(24) <= 2.0 * peak(20)


def test_norm_argmax_is_at_least_inner_radius():
    # Reverse-canonical iterates start at the inner radius r_0, where
    # f_(k+1) / f_k = r / (k+1) > 1 on the whole set while k + 1 < r_0: the
    # walk bounds every index from 0, and its argmax is at least floor(r_0).
    for spec, n, rho in ((CantorSpec(4, (2, 3)), 3, 20.0),
                         (CantorSpec(3, (1, 2)), 10, 243.0)):
        res = operator_norm(localization_problem(spec, n, rho))
        assert res.argmax_k >= math.floor(oracles.inner_rho(spec.base, spec.size, n, rho))


# Small problems where the norm is certified from the block tree; {2,3}
# base 4 has its argmax at 62, far from both k = 0 and rho.
BRUTE_FORCE_CASES = (
    (CantorSpec(4, (2, 3)), 2, 90.0),
    (CantorSpec(3, (0, 2)), 4, 150.0),
    (CantorSpec(3, (1, 2)), 5, 200.0),
    (CantorSpec(5, (1, 3)), 3, 180.0),
    (IndexedCantorSpec((CantorSpec(3, (0, 2)), CantorSpec(4, (1, 2)),
                        CantorSpec(3, (1, 2)))), 3, 200.0),
    (CantorSpec(3, (1, 2)), 3, 25.0),
)


@pytest.mark.parametrize("spec,n,rho", BRUTE_FORCE_CASES)
def test_norm_matches_brute_force(spec, n, rho):
    problem = localization_problem(spec, n, rho)
    res = operator_norm(problem)
    values = [eigenvalue(problem, k).value for k in range(res.k_truncation + 1)]
    assert res.argmax_k == int(np.argmax(values))
    assert abs(res.value - max(values)) <= res.value_err


def test_norm_report_is_computed_on_first_read(monkeypatch):
    # The walk certifies the value alone; k_truncation and tail_bound are
    # computed when first read, so a caller that reads only the value
    # reaches neither the truncation nor the gamma kernel.
    import cantorloc.operator as op

    def forbidden(*args, **kwargs):
        raise AssertionError("the norm computed its report unread")

    cases = [(MID_THIRD, 8), (CantorSpec(3, (1, 2)), 10)]
    plain = [operator_norm(localization_problem(spec, n, 3.0 ** (n / 2))) for spec, n in cases]
    monkeypatch.setattr(op, "_truncation", forbidden)
    monkeypatch.setattr(op, "regularized_lower_gamma", forbidden)
    for (spec, n), ref in zip(cases, plain):
        res = operator_norm(localization_problem(spec, n, 3.0 ** (n / 2)))
        assert (res.value, res.argmax_k, res.value_err) == (ref.value, ref.argmax_k,
                                                            ref.value_err)
        with pytest.raises(AssertionError, match="unread"):
            res.k_truncation
    monkeypatch.undo()

    calls = []

    def counted(rho, norm):
        calls.append(rho)
        return _truncation(rho, norm)

    monkeypatch.setattr(op, "_truncation", counted)
    res = operator_norm(localization_problem(MID_THIRD, 8, 81.0))
    assert res.k_truncation == res.k_truncation == _truncation(81.0, res.value)
    assert res.tail_bound == regularized_lower_gamma(res.k_truncation + 1, 81.0)
    assert len(calls) == 1


def test_no_eigenvalue_or_norm_above_one():
    # The full alphabet fills [0, 50], so lambda_k = P(k+1, 50) <= 1, yet
    # the leaf sums of the first rows round to 1 + 2 eps and more.
    problem = localization_problem(CantorSpec(5, (0, 1, 2, 3, 4)), 2, 50.0)
    res = operator_norm(problem)
    assert res.value <= 1.0
    assert abs(res.value - -math.expm1(-50.0)) <= res.value_err
    assert all(r.value <= 1.0 for r in eigenvalue_table(problem, res.k_truncation))


@pytest.mark.parametrize("rho", [1e3, 1e5])
def test_near_tie_needs_no_row_past_the_first(monkeypatch, rho):
    # The full alphabet at n = 3 fills [0, rho], so lambda_k rounds to 1 for
    # every k well below rho.  Each group's bound, clamped at 1, is within
    # row 0's value + err, so the walk folds it into value_err; it once took
    # an exact row for nearly every k <= rho (984 rows at 10^3, and more
    # than 300 s at 10^5).
    import cantorloc.operator as op

    sizes = []
    rows = op._rows
    monkeypatch.setattr(op, "_rows", lambda trees, owner, ks: sizes.append(ks.size)
                        or rows(trees, owner, ks))
    res = operator_norm(localization_problem(CantorSpec(3, (0, 1, 2)), 3, rho))
    assert sizes == [1]
    # The norm is lambda_0 = 1 - e^(-rho).
    assert res.value == 1.0 and math.exp(-rho) <= res.value_err


@pytest.mark.parametrize("rho, taken", [(3e3, 9), (3e4, 9)])
def test_near_tie_takes_the_group_of_largest_bound_first(monkeypatch, rho, taken):
    # {1, 2} at n = 1 is [rho/3, rho], so lambda_k = Q(k+1, rho/3) - Q(k+1,
    # rho) rounds to 1 for hundreds of k and the groups' bounds tie.  The
    # exact group of largest bound takes its rows first and its fold
    # certifies the rest: 9 rows at 3*10^3, where the walk once took 5,177
    # rows (5.6 s), and 9 at 3*10^4 (35.7 s once, and 10 rows when every
    # group was bounded from the first step).
    import cantorloc.operator as op

    sizes = []
    rows = op._rows
    monkeypatch.setattr(op, "_rows", lambda trees, owner, ks: sizes.append(ks.size)
                        or rows(trees, owner, ks))
    res = operator_norm(localization_problem(CantorSpec(3, (1, 2)), 1, rho))
    assert sum(sizes) == taken
    # The sup lies between lambda at argmax_k and 1, and so does lambda at
    # k = 2 rho / (3 ln 3), where f_k(rho/3) = f_k(rho).
    assert res.value == 1.0
    for k in (res.argmax_k, round(2.0 * rho / (3.0 * math.log(3.0)))):
        assert abs(res.value - oracles.segment_mass_mp(k, rho / 3.0, rho)) <= res.value_err


def test_table_walks_are_bounded_in_rows(monkeypatch):
    # A walk holds the live (row, block) pairs of all its rows, so a table
    # walks WALK_ROWS rows at a time: 8,001 rows at mid-third n = 16 peak
    # near 4.5 MB, against 9.5 MB in one walk.  Rows are independent, so
    # the split changes none of them.
    import tracemalloc

    import cantorloc.operator as op

    problem = localization_problem(MID_THIRD, 16, 3.0 ** 8)
    problem.tree
    tracemalloc.start()
    try:
        rows = eigenvalue_table(problem, 8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 8001
    assert peak <= 6e6
    whole = eigenvalue_table(problem, 40)
    monkeypatch.setattr(op, "WALK_ROWS", 7)
    assert eigenvalue_table(problem, 40) == whole == rows[:41]


def _certified(monkeypatch, certify, problems):
    # What certify(problems) returns, and the exact rows each problem took.
    import cantorloc.operator as op

    taken = {id(p.tree): [] for p in problems}
    rows = op._rows

    def recorded(trees, owner, ks):
        found = rows(trees, owner, ks)
        for i, row in zip(owner, found):
            taken[id(trees[i])].append(row)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(op, "_rows", recorded)
        results = certify(problems)
    return results, [taken[id(p.tree)] for p in problems]


# {1, 2} has its argmax past 0 and needs exact rows, and its floor rises
# from the ranges' blocks; the full alphabet at n = 3 and rho = 10^3 is
# certified by the fold alone; an indexed spec's trees differ in every
# level's moments.
SHARED_WALK_SPECS = [(CantorSpec(3, (1, 2)), [10, 12]), (CantorSpec(3, (0, 1, 2)), [3]),
                     (MID_THIRD, []), (CantorSpec(4, (1, 3)), []),
                     (CantorSpec(5, (0, 2, 4)), []),
                     (IndexedCantorSpec(tuple(CantorSpec(b, a) for b, a in (
                         (3, (0, 2)), (4, (1, 3)), (5, (0, 1, 4)), (3, (1, 2)),
                         (4, (0, 3)), (2, (1,)), (3, (0, 1)), (5, (2, 4))))), [])]


def _entries(monkeypatch, problems):
    # The bound pass at which each problem enters a shared walk: the first
    # that bounds its root block, whose width is its rho.
    import cantorloc.operator as op

    passes = []
    bound = op.group_bound

    def recorded(width, *args):
        passes.append(np.asarray(width))
        return bound(width, *args)

    with monkeypatch.context() as patch:
        patch.setattr(op, "group_bound", recorded)
        op._walk(problems)
    return [next(i for i, width in enumerate(passes) if p.rho in width) for p in problems]


@pytest.mark.parametrize("seed", range(4))
def test_a_shared_walk_changes_no_problem(monkeypatch, seed):
    # Problems of one spec at random depths and radii share one walk; each
    # must get the value, argmax, value_err and exact rows it gets alone.
    # The last input is a sweep's depths, deepest first, at radii that
    # differ by up to 4x between neighbours.
    import cantorloc.operator as op

    rng = np.random.default_rng(seed)
    inputs = []
    for spec, fixed_depths in SHARED_WALK_SPECS:
        depths = fixed_depths + [int(n) for n in rng.integers(0, 9, size=3)]
        inputs.append((spec, depths, [1e3 if spec == CantorSpec(3, (0, 1, 2)) and n == 3 else
                                      float(3.0 ** (n / 2) * rng.uniform(0.5, 2.0))
                                      for n in depths]))
    depths = list(range(12, -1, -1))
    inputs.append((MID_THIRD, depths,
                   [float(3.0 ** (n / 2) * rng.uniform(0.5, 2.0)) for n in depths]))
    for spec, depths, rhos in inputs:
        problems = [localization_problem(spec, n, rho) for n, rho in zip(depths, rhos)]
        shared, shared_rows = _certified(monkeypatch, op._walk, problems)
        for problem, result, rows in zip(problems, shared, shared_rows):
            alone = localization_problem(spec, problem.n, problem.rho)
            [single], [single_rows] = _certified(
                monkeypatch, lambda ps: [operator_norm(ps[0])], [alone])
            assert (result.value, result.argmax_k, result.value_err) == (
                single.value, single.argmax_k, single.value_err)
            assert rows == single_rows
    # Each problem enters with one pair, its root block, so all of the
    # sweep's depths enter at the first step; they once joined over many.
    assert _entries(monkeypatch, problems) == [0] * len(problems)


def test_sweep_depths_share_walks(monkeypatch):
    # The depths of a sweep share one walk, and take their rows at k = 0 in
    # one walk of _rows; no other rows are needed, as each depth's argmax
    # is 0.  All enter at the first step, so the 17 depths take 12 bound
    # passes, those of the deepest.
    import cantorloc.operator as op
    from cantorloc.experiments import sweep_fixed

    calls = {"_walk": [], "_rows": [], "group_bound": []}
    for name, log in calls.items():
        monkeypatch.setattr(op, name, lambda *a, f=getattr(op, name), log=log:
                            log.append(a) or f(*a))
    sweep_fixed(MID_THIRD, 16)
    assert [[p.n for p in ps] for ps, in calls["_walk"]] == [list(range(17))]
    assert len(calls["_rows"]) == 1
    assert len(calls["group_bound"]) == 12
    with pytest.raises(ValueError, match="share one spec"):
        operator_norms([localization_problem(MID_THIRD, 2, 3.0),
                        localization_problem(CantorSpec(3, (1, 2)), 2, 3.0)])


def test_mid_third_norms_take_their_first_row_alone(monkeypatch):
    # lambda_0 is the mid-third norm at these depths, and its fold certifies
    # every other index: the floor takes no rows of its own.  Rows taken to
    # raise the prune threshold once took k = 1, 2, 3, ..., one per depth.
    import cantorloc.operator as op

    sent, rows = [], op._rows
    monkeypatch.setattr(op, "_rows", lambda trees, owner, ks:
                        sent.append(ks.tolist()) or rows(trees, owner, ks))
    for n in (20, 24, 28, 30):
        sent.clear()
        assert operator_norm(localization_problem(MID_THIRD, n, 3.0 ** (n / 2))).argmax_k == 0
        assert sent == [[0]]


@pytest.mark.parametrize("n,rho", [(15, 3.0 ** 7.5 * (0.97 + 0.012 * i)) for i in range(6)]
                         + [(24, 3.0 ** 12)])
def test_no_exact_row_is_taken_twice(monkeypatch, n, rho):
    # Only a range of one group takes rows, and ranges are disjoint, so no
    # row is taken twice.  While ranges of several groups took rows to raise
    # the prune threshold, three of the six bench radii took 8 rows twice,
    # and n = 24 took 24.
    problem = localization_problem(CantorSpec(3, (1, 2)), n, rho)
    _, [rows] = _certified(monkeypatch, lambda ps: [operator_norm(ps[0])], [problem])
    ks = [row.k for row in rows]
    assert len(ks) > 1
    assert len(set(ks)) == len(ks)


def test_reverse_norm_at_depth_sixteen_holds_few_pairs(monkeypatch):
    # {1, 2} at rho = 3^n has its norm near k = rho / 2.  While only exact
    # rows lifted the prune threshold, its walk held 1,758,417 pairs at
    # n = 16 (about 430 MB for the CLI process), and n = 18 passed the
    # default cap with 15.5*10^6; the floor keeps them near 173,000 and
    # 550,000, so n = 18 certifies the paper's counterexample under the
    # default cap.
    import cantorloc.operator as op

    monkeypatch.delenv("CTFL_MAX_INTERVALS", raising=False)
    pairs, check = [], op.check_cap
    monkeypatch.setattr(op, "check_cap", lambda count, what:
                        ("pairs" in what and pairs.append(count)) or check(count, what))
    for n, value, argmax_k, most in ((16, 0.033813259757998065, 21528336, 300_000),
                                     (18, 0.022542947071932815, 193725175, 600_000)):
        pairs.clear()
        res = operator_norm(localization_problem(CantorSpec(3, (1, 2)), n, 3.0 ** n))
        assert (res.value, res.argmax_k) == (value, argmax_k)
        assert max(pairs) < most


def _floor_sum(spec, n, rho, m, k):
    # The sum of block_floor over every block of depth m of the n-th iterate.
    tree = localization_problem(spec, n, rho).tree
    return math.fsum(block_floor(tree.widths[m], block_measures(tree, -1.0)[m],
                                 discrete_iterate(spec, m), float(k)))


def test_block_floors_bound_the_eigenvalue_from_below():
    # The walk's floor sums block_floor over some blocks of one depth at one
    # index, so over all blocks of a depth m the sum must stay at most
    # lambda_k.  It is tightest at depth n, where the blocks are intervals:
    # within 10% of lambda_k in 64 of the 300 draws, and 3*10^-5 relative
    # below it in the closest.
    rng = np.random.default_rng(71)
    close = 0
    for _ in range(300):
        base = int(rng.integers(2, 6))
        size = int(rng.integers(1, base + 1))
        spec = CantorSpec(base, tuple(sorted(rng.choice(base, size=size, replace=False).tolist())))
        n = int(rng.integers(0, 7))
        m = int(rng.integers(0, n + 1))
        rho = float(10.0 ** rng.uniform(-1.0, 3.0))
        k = int(rng.integers(0, int(1.5 * rho) + 2))
        row = eigenvalue(localization_problem(spec, n, rho), k)
        least = _floor_sum(spec, n, rho, m, k)
        assert least <= row.value + row.err, (spec, n, rho, m, k)
        close += least >= 0.9 * row.value > 0.0
    assert close >= 50
    # Against the exact iterate: the oracle sums mpmath masses over the
    # blocks near the mode and bounds what it leaves out.
    for spec, n, rho, m, k in ((CantorSpec(3, (1, 2)), 4, 60.0, 4, 40),
                               (CantorSpec(3, (0, 2)), 3, 20.0, 2, 3),
                               (CantorSpec(4, (0, 1, 3)), 3, 90.0, 3, 70),
                               (CantorSpec(5, (1, 3)), 2, 200.0, 1, 150)):
        value, left_out = oracles.eigenvalue_mp([(spec.base, spec.alphabet)] * n, k, rho)
        assert 0.0 < _floor_sum(spec, n, rho, m, k) <= value + left_out


def test_selection_error_covers_a_close_runner_up():
    # Closer than their errors: either row may hold the norm, so value_err
    # must reach the runner-up's value + err.
    winner = EigenvalueResult(k=7, value=0.5, err=1e-12)
    runner_up = EigenvalueResult(k=9, value=0.5 - 2e-13, err=3e-12)
    far = EigenvalueResult(k=3, value=0.4, err=1e-12)
    best, value_err = _select([far, runner_up, winner])
    assert best == winner
    assert best.value + value_err >= runner_up.value + runner_up.err
    assert value_err > winner.err
    # Apart by more than their errors: the winner's own err, unchanged.
    best, value_err = _select([far, winner])
    assert (best, value_err) == (winner, winner.err)


def test_problem_validation():
    with pytest.raises(ValueError):
        localization_problem(MID_THIRD, 1, -2.0)
    with pytest.raises(ValueError):
        localization_problem(MID_THIRD, 1, math.inf)
