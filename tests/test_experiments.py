"""Sweep tests: radius schedules, fixed-base and reverse sweeps, indexed
constructions, and the positive-measure demonstration."""

import math

import numpy as np
import pytest

import cantorloc.operator as op
import oracles
from cantorloc import (
    CantorSpec,
    DecayParams,
    HypothesisViolationError,
    RadiusSchedule,
    ScheduleError,
    lambda0_closed_form,
    localization_problem,
    operator_norm,
    positive_measure_demo,
    sweep_fixed,
    sweep_indexed_counterexample,
    sweep_indexed_decay,
    sweep_reverse_counterexample,
)

MID_THIRD = CantorSpec(3, (0, 2))
POWER_HALF = RadiusSchedule()


def test_schedule_power_half_values():
    sched = RadiusSchedule(gamma=0.8)
    assert sched.rho(3, 0) == 0.8
    assert sched.rho(3, 4) == pytest.approx(0.8 * 9.0, rel=1e-15)
    assert sched.rho(5, 3) == pytest.approx(0.8 * 5.0**1.5, rel=1e-15)


def test_schedule_rejects_radius_above_hypothesis_cap():
    # The two-sided bounds assume rho(n) <= M^n; at n = 0 that already
    # rules out gamma above one.
    with pytest.raises(ScheduleError):
        RadiusSchedule(gamma=2.0).rho(3, 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        RadiusSchedule(gamma=0.0)
    with pytest.raises(ValueError):
        RadiusSchedule(gamma=math.inf)


def test_sweep_fixed_ball_row():
    for gamma in (0.25, 0.7, 1.0):
        rows = sweep_fixed(MID_THIRD, RadiusSchedule(gamma=gamma), 2)
        assert rows[0].n == 0
        assert rows[0].rho == gamma
        assert rows[0].norm == pytest.approx(-math.expm1(-gamma), rel=1e-12)


def test_sweep_fixed_row_shape():
    rows = sweep_fixed(MID_THIRD, POWER_HALF, 4)
    assert [r.n for r in rows] == [0, 1, 2, 3, 4]
    for r in rows:
        assert r.rho == pytest.approx(3.0 ** (r.n / 2.0), rel=1e-15)
        assert r.lambda0_canonical == pytest.approx(
            lambda0_closed_form(CantorSpec(3, (0, 1)), r.n, r.rho), rel=1e-13)
        assert r.norm is not None
        assert r.scaled_norm == pytest.approx(
            r.norm * (3.0 / 2.0) ** r.n * r.rho ** (MID_THIRD.dimension - 1.0),
            rel=1e-13)
        assert r.thm32_ratio is not None and math.isfinite(r.thm32_ratio)


def test_sweep_fixed_caps_norm_columns_only(monkeypatch):
    # The norm sizes its arrays by its floor(rho) + 2 indices: with a cap of
    # 8, rho = 3^(n/2) admits n <= 3 and blanks n = 4 and 5.
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "8")
    rows = sweep_fixed(MID_THIRD, POWER_HALF, 5)
    assert [r.norm is not None for r in rows] == [True] * 4 + [False] * 2
    for r in rows:
        assert r.lambda0_canonical > 0.0
        if math.floor(r.rho) + 2 <= 8:
            assert r.norm is not None
        else:
            assert r.norm is None
            assert r.scaled_norm is None
            assert r.thm32_ratio is None


def test_sweep_fixed_reaches_past_the_old_interval_gate(monkeypatch):
    # 6^9 and 6^10 intervals pass the default cap of 10^7, which once left
    # these norms blank; the norm enumerates nothing and needs only its
    # floor(rho) + 2 indices, here under 20,000.
    monkeypatch.delenv("CTFL_MAX_INTERVALS", raising=False)
    spec = CantorSpec(7, (0, 1, 2, 3, 4, 5))
    rows = sweep_fixed(spec, POWER_HALF, 10)
    assert all(r.norm is not None for r in rows)
    for r in rows[9:]:
        res = operator_norm(localization_problem(spec, r.n, r.rho))
        assert r.norm == res.value
        assert res.argmax_k == 0
        exact = lambda0_closed_form(spec, r.n, r.rho)
        assert abs(r.norm - exact) <= res.value_err


def test_sweep_norms_come_from_the_walk_alone(monkeypatch):
    # The sweep prints only the norm's value, which the walk certifies; the
    # truncation and its tail bound are operator_norm's report, so the sweep
    # must not reach them.  The reverse set {1, 2} has argmax != 0, so its
    # walk takes exact rows past k = 0.
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep computed a truncation")

    specs = (MID_THIRD, CantorSpec(3, (1, 2)))
    monkeypatch.setattr(op, "_truncation", forbidden)
    monkeypatch.setattr(op, "regularized_lower_gamma", forbidden)
    sweeps = [sweep_fixed(spec, POWER_HALF, 10) for spec in specs]
    monkeypatch.undo()
    argmax = []
    for spec, rows in zip(specs, sweeps):
        for r in rows:
            res = operator_norm(localization_problem(spec, r.n, r.rho))
            assert r.norm == res.value
            argmax.append(res.argmax_k)
    assert any(argmax)


def test_sweep_fixed_canonical_band():
    rows = sweep_fixed(CantorSpec(3, (0, 1)), POWER_HALF, 10)
    scaled = [r.scaled_norm for r in rows if r.n >= 2]
    assert max(scaled) / min(scaled) <= 10.0


def test_reverse_sweep_ratio_is_one_at_depth_zero():
    # Positivity and decrease past n = 1 are sampled by the experiments
    # verify suite (tests/test_verify.py).
    ratios = dict(sweep_reverse_counterexample(3, 2, POWER_HALF, 8))
    assert ratios[0] == pytest.approx(1.0, rel=1e-12)


def test_reverse_sweep_halves_by_depth_ten():
    # Ratio decay along the critical schedule up to depth 10: strictly
    # decreasing, at the rate (|A|/M)^(n/4), so ratio(n) (3/2)^(n/4) stays
    # inside a factor-1.5 band over n = 2..10.  A flat ratio would spread
    # the band by (3/2)^2 = 2.25.  Halving itself comes between depths 10
    # and 11.
    rows = dict(sweep_reverse_counterexample(3, 2, POWER_HALF, 10))
    assert all(rows[n + 1] < rows[n] for n in range(1, 10))
    normalized = [rows[n] * 1.5 ** (n / 4.0) for n in range(2, 11)]
    assert max(normalized) / min(normalized) <= 1.5


def test_reverse_sweep_matches_block_oracle():
    # The sweep's ratio and argmax against scipy tails summed over the
    # unmerged blocks, scanning every k up to rho + 20 sqrt(rho) + 40.
    rows = dict(sweep_reverse_counterexample(3, 2, POWER_HALF, 10))
    for n in (2, 10):
        rho = POWER_HALF.rho(3, n)
        kmax = int(rho + 20.0 * math.sqrt(rho) + 40.0)
        norms = {}
        for letters in ((1, 2), (0, 1)):
            lows, highs = oracles.iterate_blocks(3, letters, n, rho)
            values = [oracles.eigenvalue_blocks(k, lows, highs) for k in range(kmax)]
            argmax = int(np.argmax(values))
            res = operator_norm(localization_problem(CantorSpec(3, letters), n, rho))
            assert res.argmax_k == argmax
            norms[letters] = values[argmax]
        ref = norms[(1, 2)] / norms[(0, 1)]
        assert rows[n] == pytest.approx(ref, rel=1e-10)


def test_reverse_sweep_validation():
    with pytest.raises(ValueError):
        sweep_reverse_counterexample(3, 0, POWER_HALF, 4)
    with pytest.raises(ValueError):
        sweep_reverse_counterexample(3, 3, POWER_HALF, 4)
    with pytest.raises(ValueError):
        sweep_reverse_counterexample(3, 2, POWER_HALF, -1)


def test_decay_params_validation():
    with pytest.raises(ValueError):
        DecayParams(M=1)
    with pytest.raises(ValueError):
        DecayParams(delta=-0.1)
    with pytest.raises(ValueError):
        DecayParams(epsilon=1.0)
    with pytest.raises(ValueError):
        DecayParams(gamma=0.0)
    with pytest.raises(ValueError):
        DecayParams(n_max=1)


def test_indexed_decay_constant_levels_match_fixed_sweep():
    spec = CantorSpec(3, (0, 1))
    params = DecayParams(M=3, delta=0.0, epsilon=2.0 / 3.0, gamma=1.0, n_max=6)

    def constant(rng, p):
        return [spec] * p.n_max

    result = sweep_indexed_decay(params, level_generator=constant)
    fixed = sweep_fixed(spec, POWER_HALF, 6)
    for (n, l0, _), row in zip(result.rows, fixed):
        assert n == row.n
        assert l0 == pytest.approx(row.lambda0_canonical, rel=1e-12)


def test_indexed_decay_fitted_rate_is_positive():
    result = sweep_indexed_decay(DecayParams(n_max=20), seed=0)
    assert result.fitted_beta > 0.0
    assert len(result.rows) == 21
    assert all(beta == result.fitted_beta for _, _, beta in result.rows)


def test_indexed_decay_rejects_bad_generators():
    params = DecayParams(M=3, n_max=4)
    with pytest.raises(HypothesisViolationError):
        sweep_indexed_decay(params, level_generator=lambda rng, p: [MID_THIRD] * 2)
    with pytest.raises(HypothesisViolationError):
        # Base below M.
        sweep_indexed_decay(params,
                            level_generator=lambda rng, p: [CantorSpec(2, (0,))] * 4)
    with pytest.raises(HypothesisViolationError):
        # Density 2/3 exceeds epsilon = 0.4.
        sweep_indexed_decay(DecayParams(M=3, epsilon=0.4, n_max=4),
                            level_generator=lambda rng, p: [CantorSpec(3, (0, 1))] * 4)
    with pytest.raises(HypothesisViolationError):
        # Non-canonical level.
        sweep_indexed_decay(params, level_generator=lambda rng, p: [MID_THIRD] * 4)


def test_indexed_counterexample_construction_arithmetic():
    result = sweep_indexed_counterexample(4, 2, n_max=5)
    assert result.bases == [4, 4, 16, 256, 65536]
    assert result.sizes == [2, 2, 8, 128, 32768]
    result3 = sweep_indexed_counterexample(3, 2, n_max=3)
    assert result3.bases == [3, 3, 9]
    assert result3.sizes == [2, 2, 6]


def test_indexed_counterexample_lower_product_converges():
    theta = 0.5
    root = 2.0

    def partial(m_stop):
        return math.prod(-math.expm1(-theta * root**m) for m in range(2, m_stop + 1))

    assert abs(partial(10) - partial(20)) <= 1e-12
    result = sweep_indexed_counterexample(4, 2, n_max=5)
    assert result.lower_bound_product == pytest.approx(partial(20), rel=1e-12)


def test_indexed_counterexample_validation():
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(1, 1)
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(4, 0)
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(4, 4)
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(4, 2, n_max=7)
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(4, 2, gamma=-1.0)


def test_positive_measure_single_level():
    spec = CantorSpec(4, (0, 1, 2))
    result = positive_measure_demo([spec], 2.0)
    assert len(result.rows) == 1
    n, measure, l0, bound = result.rows[0]
    assert n == 1
    assert measure == pytest.approx(2.0 * 3.0 / 4.0, rel=1e-15)
    assert bound == pytest.approx(math.exp(-2.0) * measure, rel=1e-14)
    assert l0 >= bound


def test_positive_measure_product_converges():
    def measure_at(depth):
        return math.prod(1.0 - 2.0**-j for j in range(1, depth + 1))

    # The tail past depth n is a factor 1 - ~2^-n, so doubling the depth
    # moves the product by ~2^-n times its value: 7.05e-5 at n = 12, and
    # below 1e-6 from n = 19 on.
    assert abs(measure_at(12) - measure_at(24)) <= 1e-4
    assert abs(measure_at(19) - measure_at(38)) <= 1e-6
    result = positive_measure_demo(12, 1.0)
    assert result.rows[-1][1] == pytest.approx(measure_at(12), rel=1e-13)
    assert result.measure_limit_estimate == result.rows[-1][1]


def test_positive_measure_validation():
    with pytest.raises(ValueError):
        positive_measure_demo(0, 1.0)
    with pytest.raises(ValueError):
        positive_measure_demo(3, 0.0)
    with pytest.raises(ValueError):
        positive_measure_demo([], 1.0)
    with pytest.raises(ValueError):
        positive_measure_demo([MID_THIRD], 1.0)
