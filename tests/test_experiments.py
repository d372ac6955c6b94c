"""Sweep tests: the radius gamma M^(n/2), fixed-base and reverse sweeps, indexed
constructions, and the positive-measure demonstration."""

import math

import mpmath
import numpy as np
import pytest

import cantorloc.experiments as experiments
import cantorloc.operator as op
import oracles
from cantorloc import (
    CantorSpec,
    HypothesisViolationError,
    IndexedCantorSpec,
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


def test_schedule_power_half_values():
    rows = sweep_fixed(MID_THIRD, 4, gamma=0.8)
    assert rows[0].rho == 0.8
    assert rows[4].rho == pytest.approx(0.8 * 9.0, rel=1e-15)
    assert sweep_fixed(CantorSpec(5, (0, 2)), 3, gamma=0.8)[3].rho == pytest.approx(
        0.8 * 5.0**1.5, rel=1e-15)


def test_schedule_rejects_radius_above_hypothesis_cap(monkeypatch):
    # The two-sided bounds assume rho(n) <= M^n; at n = 0 that already
    # rules out gamma above one, so the sweep refuses it before any row.
    # Gammas in (1, 1 + 1e-12] once passed a rounding slack in that cap.
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep computed a norm")

    monkeypatch.setattr(experiments, "operator_norms", forbidden)
    for gamma in (2.0, 1.0 + 1e-12):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            sweep_fixed(CantorSpec(3, (0, 2)), 4, gamma=gamma)
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            sweep_reverse_counterexample(3, 2, 4, gamma=gamma)


def test_schedule_validation():
    for gamma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sweep_fixed(MID_THIRD, 2, gamma=gamma)


def test_sweep_fixed_ball_row():
    for gamma in (0.25, 0.7, 1.0):
        rows = sweep_fixed(MID_THIRD, 2, gamma=gamma)
        assert rows[0].n == 0
        assert rows[0].rho == gamma
        assert rows[0].norm == pytest.approx(-math.expm1(-gamma), rel=1e-12)


def test_sweep_fixed_row_shape():
    rows = sweep_fixed(MID_THIRD, 4)
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


def test_sweep_fixed_certifies_every_depth_or_raises(monkeypatch):
    # The shared walk of the depths at rho = 3^(n/2) peaks at 56 live pairs
    # to n = 8, and to n = 9 it reaches 64 (peak 78): under a cap of 56 the
    # sweep to n = 8 certifies every depth, and the sweep to n = 9 returns
    # none.  It once blanked the depths past the cap and kept the rest.
    from cantorloc import CapExceededError

    uncapped = sweep_fixed(MID_THIRD, 8)
    monkeypatch.setenv("CTFL_MAX_INTERVALS", "56")
    assert sweep_fixed(MID_THIRD, 8) == uncapped
    with pytest.raises(CapExceededError, match="64 live"):
        sweep_fixed(MID_THIRD, 9)


def test_sweep_fixed_reaches_past_the_old_interval_gate(monkeypatch):
    # 6^9 and 6^10 intervals pass the default cap of 10^7, which once left
    # these norms blank; the norm enumerates nothing, and its walk holds
    # its live (range, block) pairs: ranges halve before blocks narrower
    # than them split, or six letters would hold 6^10 blocks by n = 10.
    monkeypatch.delenv("CTFL_MAX_INTERVALS", raising=False)
    spec = CantorSpec(7, (0, 1, 2, 3, 4, 5))
    rows = sweep_fixed(spec, 10)
    assert all(r.norm is not None for r in rows)
    for r in rows[9:]:
        res = operator_norm(localization_problem(spec, r.n, r.rho))
        assert r.norm == res.value
        assert res.argmax_k == 0
        exact = lambda0_closed_form(spec, r.n, r.rho)
        assert abs(r.norm - exact) <= res.value_err


def test_sweep_memory_does_not_grow_with_rho():
    # A sweep's norms share one walk of live (range, block) pairs: from
    # n_max = 20 to 24 its deepest radius grows 9x, and its traced peak at
    # most 2x.  It grew about as its deepest norm's, 8.6x, when each norm
    # held one group per 8 indices up to _last_index.
    import tracemalloc

    def peak(n_max):
        tracemalloc.start()
        try:
            sweep_fixed(MID_THIRD, n_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep_fixed(MID_THIRD, 24)
    assert peak(24) <= 2.0 * peak(20)


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
    sweeps = [sweep_fixed(spec, 10) for spec in specs]
    monkeypatch.undo()
    argmax = []
    for spec, rows in zip(specs, sweeps):
        for r in rows:
            res = operator_norm(localization_problem(spec, r.n, r.rho))
            assert r.norm == res.value
            argmax.append(res.argmax_k)
    assert any(argmax)


def test_reverse_sweep_ratio_is_one_at_depth_zero():
    # Positivity and decrease past n = 1 are sampled by the experiments
    # verify suite (tests/test_verify.py).
    ratios = dict(sweep_reverse_counterexample(3, 2, 8))
    assert ratios[0] == pytest.approx(1.0, rel=1e-12)


def test_reverse_sweep_matches_block_oracle():
    # The sweep's ratio and argmax against scipy tails summed over the
    # unmerged blocks, scanning every k up to rho + 20 sqrt(rho) + 40.
    rows = dict(sweep_reverse_counterexample(3, 2, 10))
    for n in (2, 10):
        rho = 3.0 ** (0.5 * n)
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
        sweep_reverse_counterexample(3, 0, 4)
    with pytest.raises(ValueError):
        sweep_reverse_counterexample(3, 3, 4)
    with pytest.raises(ValueError):
        sweep_reverse_counterexample(3, 2, -1)


def test_decay_params_validation():
    with pytest.raises(ValueError, match="M must be at least 2"):
        sweep_indexed_decay(M=1)
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        sweep_indexed_decay(delta=-0.1)
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        sweep_indexed_decay(epsilon=1.0)
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        sweep_indexed_decay(gamma=0.0)
    # An infinite gamma once passed here while the fixed-base radius refused it.
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        sweep_indexed_decay(gamma=math.inf)
    with pytest.raises(ValueError, match="n_max must be at least 5"):
        sweep_indexed_decay(n_max=4)
    # The checks run in this order: each bad value is named before the next.
    with pytest.raises(ValueError, match="M must be at least 2"):
        sweep_indexed_decay(M=1, delta=-0.1, epsilon=1.0, gamma=0.0, n_max=1)


def test_indexed_decay_constant_levels_match_fixed_sweep():
    # Bases in [3, 3] and density at most 1/3 leave {0} as the only draw.
    result = sweep_indexed_decay(M=3, delta=0.0, epsilon=1.0 / 3.0, n_max=6)
    assert result.levels.levels == (CantorSpec(3, (0,)),) * 6
    fixed = sweep_fixed(CantorSpec(3, (0,)), 6)
    assert [(n, l0) for n, l0, _ in result.rows] == [(r.n, r.lambda0_canonical) for r in fixed]


def test_indexed_decay_fit_is_the_least_squares_tail_fit():
    # The reference refits the last ceil(n_max/2) depths with np.polyfit;
    # every row carries the one fitted rate.
    n_max = 20
    result = sweep_indexed_decay(n_max=n_max, seed=3)
    assert len(result.rows) == n_max + 1
    assert all(beta == result.fitted_beta for _, _, beta in result.rows)
    tail = result.rows[-math.ceil(n_max / 2):]
    ns = np.array([r[0] for r in tail], dtype=float)
    logs = np.log(np.array([r[1] for r in tail], dtype=float))
    slope, intercept = np.polyfit(ns, logs, 1)
    resid = logs - (slope * ns + intercept)
    stderr = math.sqrt(float(resid @ resid) / (len(ns) - 2)
                       / float(((ns - ns.mean()) ** 2).sum()))
    assert result.fitted_beta == -slope
    assert result.beta_stderr == stderr
    # A tail of one or two depths leaves no degree of freedom for the
    # error, and one depth fits any slope: n_max below 5 is refused.
    for n_max in (2, 4):
        with pytest.raises(ValueError, match="n_max must be at least 5"):
            sweep_indexed_decay(n_max=n_max, seed=3)


def test_indexed_decay_rejects_an_epsilon_without_alphabets():
    # floor(0.4 * 2) = 0 letters fit in base 2.
    with pytest.raises(HypothesisViolationError):
        sweep_indexed_decay(M=2, delta=0.0, epsilon=0.4)


def test_indexed_counterexample_construction_arithmetic():
    result = sweep_indexed_counterexample(4, 2, n_max=5)
    assert result.bases == [4, 4, 16, 256, 65536]
    assert result.sizes == [2, 2, 8, 128, 32768]
    result3 = sweep_indexed_counterexample(3, 2, n_max=3)
    assert result3.bases == [3, 3, 9]
    assert result3.sizes == [2, 2, 6]


def canonical_levels(bases, sizes):
    return IndexedCantorSpec(tuple(CantorSpec(b, tuple(range(a)))
                                   for b, a in zip(bases, sizes)))


def test_indexed_lambda0_match_the_closed_form_on_a_spec():
    # The sweeps take lambda_0 from (base, size) levels; a spec holding the
    # same canonical levels, at most 255 letters each, gives the same bits.
    result = sweep_indexed_counterexample(4, 2, n_max=4)
    spec = canonical_levels(result.bases, result.sizes)
    for n, l0, _ in result.rows:
        rho = math.sqrt(float(math.prod(result.bases[:n])))
        assert l0 == lambda0_closed_form(spec, n, rho)
    result = positive_measure_demo(8, 1.0)
    bases = [2 ** j for j in range(1, 9)]
    spec = canonical_levels(bases, [b - 1 for b in bases])
    assert [l0 for _, _, l0, _ in result.rows] == [
        lambda0_closed_form(spec, n, 1.0) for n in range(1, 9)]


def test_lambda0_holds_where_the_level_products_pass_the_double_range():
    # 3^647, 2^(45*46/2) and the 300 bases of the indexed decay run pass
    # 2^1024; lambda_0 there read 0.0 or nan, and depth 202 of the decay
    # run raised OverflowError computing its radius.
    def check(got, levels, rho):
        assert got == pytest.approx(oracles.lambda0_mp(levels, rho), rel=1e-13, abs=0.0)

    for n in (646, 647, 1100):
        check(lambda0_closed_form(MID_THIRD, n, 1.0), [(3, (0, 2))] * n, 1.0)
        check(lambda0_closed_form(IndexedCantorSpec((MID_THIRD,) * n), n, 1.0),
              [(3, (0, 2))] * n, 1.0)
    for depth in (45, 60):
        for n, _, l0, _ in positive_measure_demo(depth, 1.0).rows:
            check(l0, [(2 ** j, range(2 ** j - 1)) for j in range(1, n + 1)], 1.0)
    # Past 1024 levels the sizes 2^j - 1 pass 2^1024 themselves; their
    # factor, once t underflows, once raised OverflowError.  Each level past
    # the 100th moves lambda_0 by a factor 1 - 2^-j to double precision, so
    # 100 levels of the oracle fix its value.
    check(positive_measure_demo(1030, 1.0).rows[-1][2],
          [(2 ** j, range(2 ** j - 1)) for j in range(1, 101)], 1.0)
    result = sweep_indexed_decay(delta=3, n_max=300)
    levels = result.levels.levels
    with mpmath.workdps(40):
        rho = float(mpmath.sqrt(math.prod(lv.base for lv in levels)))
    check(result.rows[-1][1], [(lv.base, range(lv.size)) for lv in levels], rho)


def test_indexed_counterexample_validation():
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(1, 1)
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(4, 0)
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(4, 4)
    # At base 4 the radius sqrt(M_1 ... M_n) = 2^(2^(n-1)) passes the
    # largest double first at n = 11.
    with pytest.raises(ValueError, match="at depth 11, so n_max must be at most 10"):
        sweep_indexed_counterexample(4, 2, n_max=11)
    with pytest.raises(ValueError):
        sweep_indexed_counterexample(4, 2, gamma=-1.0)


def test_indexed_sweeps_refuse_only_radii_past_the_largest_double():
    # lambda_0 and the radius take exact level products, so only the radius
    # leaving the double range bounds the depth.  At base 4 it is
    # gamma 2^(2^(n-1)): gamma = 0.5 keeps it 2^1023 at n = 11, and 1e-320
    # reaches n = 12.
    result = sweep_indexed_counterexample(4, 2, n_max=10)
    assert [n for n, _, _ in result.rows] == list(range(1, 11))
    for n, l0, _ in result.rows[6:]:
        levels = [(b, range(a)) for b, a in zip(result.bases[:n], result.sizes[:n])]
        rho = math.ldexp(1.0, 2 ** (n - 1))
        assert l0 == pytest.approx(oracles.lambda0_mp(levels, rho), rel=1e-13, abs=0.0)
    assert len(sweep_indexed_counterexample(4, 2, gamma=0.5, n_max=11).rows) == 11
    assert len(sweep_indexed_counterexample(4, 2, gamma=1e-320, n_max=12).rows) == 12
    with pytest.raises(ValueError, match="at depth 13"):
        sweep_indexed_counterexample(4, 2, gamma=1e-320, n_max=10 ** 9)
    # The decay sweep's radius passes 2^1024 at depth 405 of these levels.
    assert sweep_indexed_decay(delta=3, n_max=404).rows[-1][0] == 404
    with pytest.raises(ValueError, match="at depth 405, so n_max must be at most 404"):
        sweep_indexed_decay(delta=3, n_max=405)


def test_positive_measure_takes_every_depth_from_one_pass():
    # Depth n's running product is the prefix of depth n + 1's, so the one
    # pass gives each row the bits of a call on its own levels.
    rows = positive_measure_demo(200, 1.0).rows
    levels = [(2 ** j, 2 ** j - 1, None) for j in range(1, 201)]
    assert [l0 for _, _, l0, _ in rows] == [
        op._lambda0_depths(levels[:n], 1.0)[-1] for n in range(1, 201)]


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
