"""Operator tests: eigenvalues against the closed form and brute-force
block sums, relative areas, and the certified norm scan."""

import math

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
    relative_area,
)
from cantorloc.operator import WINDOW_T, scan_window
from cantorloc.special import log_density

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
    # Iterate construction refuses scale zero, so the guard is only
    # reachable through a hand-built degenerate problem.
    from cantorloc import IterateIntervals, LocalizationProblem

    with pytest.raises(ValueError):
        localization_problem(MID_THIRD, 1, 0.0)
    empty = IterateIntervals(depth=0, scale=0.0, measure=0.0,
                             lows=np.zeros(1), highs=np.zeros(1))
    res = operator_norm(LocalizationProblem(rho=0.0, intervals=empty))
    assert res.value == 0.0
    assert res.tail_bound == 0.0


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


# Small problems with rho large enough that the scan windows drop endpoints.
# {2,3} base 4 has its argmax (62) late in the first 64-index block, so it
# needs that block's window to reach past the window of k = 1.
WINDOWED_CASES = (
    (CantorSpec(4, (2, 3)), 2, 90.0),
    (CantorSpec(3, (0, 2)), 4, 150.0),
    (CantorSpec(3, (1, 2)), 5, 200.0),
    (CantorSpec(5, (1, 3)), 3, 180.0),
    (IndexedCantorSpec((CantorSpec(3, (0, 2)), CantorSpec(4, (1, 2)),
                        CantorSpec(3, (1, 2)))), 3, 200.0),
)


@pytest.mark.parametrize("spec,n,rho", WINDOWED_CASES)
def test_windowed_norm_matches_brute_force(spec, n, rho):
    problem = localization_problem(spec, n, rho)
    res = operator_norm(problem)
    values = [eigenvalue(problem, k).value for k in range(res.k_truncation + 1)]
    assert res.argmax_k == int(np.argmax(values))
    assert abs(res.value - max(values)) <= res.value_err


@pytest.mark.parametrize("spec,n,rho", WINDOWED_CASES)
def test_windowed_increment_error_is_bounded(spec, n, rho):
    # lambda_k - lambda_{k-1} = sum of +f_k(lo) - f_k(hi); the scan keeps
    # only the endpoints inside the window of its 64-index block, and the
    # terms it drops must sum to at most 2 e^-T / sqrt(2 pi k).
    ivals = localization_problem(spec, n, rho).intervals
    endpoints = np.column_stack([ivals.lows, ivals.highs]).ravel()
    signs = np.tile([1.0, -1.0], ivals.lows.size)
    dropped_any = False
    for k in (1, 10, 40, 64, 65, 100, int(rho) // 2, int(rho), int(rho) + 50):
        terms = signs * np.exp(log_density(k, endpoints))
        first = 1 + 64 * ((k - 1) // 64)
        for low, high in (scan_window(k, k), scan_window(first, first + 63)):
            outside = (endpoints < low) | (endpoints > high)
            dropped = math.fsum(terms[outside])
            bound = 2.0 * math.exp(-WINDOW_T) / math.sqrt(2.0 * math.pi * k)
            assert abs(dropped) <= bound
            dropped_any = dropped_any or bool(np.any(outside & (terms != 0.0)))
    assert dropped_any


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
