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
    ball_bound,
    eigenvalue,
    eigenvalue_table,
    inner_rho,
    lambda0_closed_form,
    limit_relative_area,
    localization_problem,
    operator_norm,
    regularized_lower_gamma,
    relative_area,
)
from cantorloc.operator import (
    TAIL_ABSOLUTE,
    TAIL_RELATIVE,
    EigenvalueResult,
    _last_index,
    _select,
    _truncation,
)

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
    assert ball_bound(0.0) == 0.0
    with pytest.raises(ValueError):
        ball_bound(-1.0)
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(0, 5))
        rho = float(rng.uniform(0.5, 12.0))
        problem = localization_problem(MID_THIRD, n, rho)
        cap = ball_bound(problem.intervals.measure)
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
    # the norm by its floor(rho) + 2 indices.
    from cantorloc import CapExceededError

    monkeypatch.setenv("CTFL_MAX_INTERVALS", "11")
    problem = localization_problem(MID_THIRD, 3, 9.0)
    assert len(eigenvalue_table(problem, 10)) == 11
    assert operator_norm(problem).argmax_k == 0
    with pytest.raises(CapExceededError):
        eigenvalue_table(problem, 11)
    with pytest.raises(CapExceededError):
        operator_norm(localization_problem(MID_THIRD, 3, 10.0))


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


def test_norm_scan_beats_nearby_orders():
    problem = localization_problem(CantorSpec(3, (1, 2)), 3, 25.0)
    res = operator_norm(problem)
    for k in range(0, res.k_truncation + 1, 3):
        assert eigenvalue(problem, k).value <= res.value + res.value_err + 1e-15


def test_norm_argmax_is_at_least_inner_radius():
    # Reverse-canonical iterates start at inner_rho, so the full scan never
    # picks an index below it.
    for spec, n, rho in ((CantorSpec(4, (2, 3)), 3, 20.0),
                         (CantorSpec(3, (1, 2)), 10, 243.0)):
        res = operator_norm(localization_problem(spec, n, rho))
        assert res.argmax_k >= math.floor(inner_rho(spec, n, rho))


# Small problems where the norm is certified from the block tree; {2,3}
# base 4 has its argmax at 62, far from both k = 0 and rho.
BRUTE_FORCE_CASES = (
    (CantorSpec(4, (2, 3)), 2, 90.0),
    (CantorSpec(3, (0, 2)), 4, 150.0),
    (CantorSpec(3, (1, 2)), 5, 200.0),
    (CantorSpec(5, (1, 3)), 3, 180.0),
    (IndexedCantorSpec((CantorSpec(3, (0, 2)), CantorSpec(4, (1, 2)),
                        CantorSpec(3, (1, 2)))), 3, 200.0),
)


@pytest.mark.parametrize("spec,n,rho", BRUTE_FORCE_CASES)
def test_norm_matches_brute_force(spec, n, rho):
    problem = localization_problem(spec, n, rho)
    res = operator_norm(problem)
    values = [eigenvalue(problem, k).value for k in range(res.k_truncation + 1)]
    assert res.argmax_k == int(np.argmax(values))
    assert abs(res.value - max(values)) <= res.value_err


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


def test_inner_rho_values():
    rho = 7.0
    assert inner_rho(CantorSpec(3, (1, 2)), 2, rho) == pytest.approx(
        4.0 * rho / 9.0, rel=1e-15)
    assert inner_rho(CantorSpec(3, (1, 2)), 0, rho) == 0.0
    assert abs(inner_rho(CantorSpec(3, (1, 2)), 40, rho) - rho / 2.0) <= 1e-9


def test_problem_validation():
    with pytest.raises(ValueError):
        localization_problem(MID_THIRD, 1, -2.0)
    with pytest.raises(ValueError):
        localization_problem(MID_THIRD, 1, math.inf)
