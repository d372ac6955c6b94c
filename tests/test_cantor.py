"""Set-construction tests: digit enumeration, merged intervals, the
distribution function, sibling alphabets, and the enumeration cap."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from cantorloc import (
    CantorSpec,
    CapExceededError,
    IndexedCantorSpec,
    cantor_function,
    canonical_of,
    continuous_iterate,
    discrete_iterate,
    indexed_intervals,
    resolve_max_intervals,
    reverse_canonical_of,
    shift_decomposition,
)
from cantorloc.cantor import DEFAULT_MAX_INTERVALS, MAX_INTERVALS_ENV

MID_THIRD = CantorSpec(3, (0, 2))


def _spec_strategy(max_base=9):
    def build(base, draw_size, seed):
        rng = np.random.default_rng(seed)
        size = 1 + draw_size % (base - 1)
        letters = tuple(sorted(rng.choice(base, size=size, replace=False).tolist()))
        return CantorSpec(base, letters)

    return st.builds(
        build,
        st.integers(min_value=2, max_value=max_base),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    )


def test_discrete_iterate_mid_third_depth_two():
    assert discrete_iterate(MID_THIRD, 2).tolist() == [0, 2, 6, 8]


def test_discrete_iterate_depth_zero_is_origin():
    for spec in (MID_THIRD, CantorSpec(5, (1, 3, 4)), CantorSpec(2, (1,))):
        assert discrete_iterate(spec, 0).tolist() == [0]


def test_discrete_iterate_depth_one_is_alphabet():
    assert discrete_iterate(MID_THIRD, 1).tolist() == [0, 2]
    assert discrete_iterate(CantorSpec(7, (1, 4, 6)), 1).tolist() == [1, 4, 6]


def test_discrete_iterate_big_base_product_uses_exact_ints():
    spec = CantorSpec(64, (0, 63))
    pts = discrete_iterate(spec, 12)
    assert pts.dtype == object
    assert pts[-1] == 63 * (64**12 - 1) // 63


def test_continuous_iterate_mid_third_first_step():
    it = continuous_iterate(MID_THIRD, 1, 1.0)
    assert it.lows.tolist() == [0.0, 2.0 / 3.0]
    assert it.highs.tolist() == [1.0 / 3.0, 1.0]
    assert it.count == 2
    assert it.lows[1] == 2.0 / 3.0


def test_continuous_iterate_depth_zero_is_whole_interval():
    it = continuous_iterate(CantorSpec(4, (1, 2)), 0, 2.5)
    assert it.count == 1
    assert it.lows.tolist() == [0.0]
    assert it.highs.tolist() == [2.5]
    assert it.measure == 2.5


def test_continuous_iterate_merges_touching_blocks():
    # {0,1} depth 2 digit blocks [0,1/9],[1/9,2/9] and [3/9,4/9],[4/9,5/9]
    # coalesce into two runs.
    it = continuous_iterate(CantorSpec(3, (0, 1)), 2, 1.0)
    assert it.count == 2
    assert it.lows == pytest.approx([0.0, 3.0 / 9.0], abs=0.0)
    assert it.highs == pytest.approx([2.0 / 9.0, 5.0 / 9.0], abs=0.0)


def test_iterate_matches_block_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        base = int(rng.integers(2, 8))
        size = int(rng.integers(1, base))
        letters = tuple(sorted(rng.choice(base, size=size, replace=False).tolist()))
        n = int(rng.integers(0, 6))
        scale = float(rng.uniform(0.25, 8.0))
        it = continuous_iterate(CantorSpec(base, letters), n, scale)
        lows, highs = oracles.iterate_blocks(base, letters, n, scale)
        # The oracle keeps per-digit blocks; merging only fuses endpoints.
        assert it.measure == pytest.approx(float(np.sum(highs - lows)), rel=1e-12)
        assert it.lows[0] == pytest.approx(float(lows[0]), rel=1e-15)
        assert it.highs[-1] == pytest.approx(float(highs[-1]), rel=1e-15)
        # Endpoints differ by ulps between the two constructions; the slack
        # stays far below one digit block's width.
        tol = 1e-12 * scale
        covered = np.searchsorted(it.lows, lows + tol, side="right") - 1
        assert np.all(lows >= it.lows[covered] - tol)
        assert np.all(highs <= it.highs[covered] + tol)


def test_measure_is_exact_at_depth():
    # Summing 2^20 float widths would lose ~5 digits here; the stored field
    # comes from one exact integer count times the block quantum.
    it = continuous_iterate(MID_THIRD, 20, 1.0)
    assert it.measure == pytest.approx((2.0 / 3.0) ** 20, rel=1e-14)


def test_cantor_function_boundary_values():
    for spec in (MID_THIRD, CantorSpec(5, (1, 2, 4))):
        for n in (0, 1, 4):
            assert cantor_function(spec, n, -0.25) == 0.0
            assert cantor_function(spec, n, 0.0) == 0.0
            assert cantor_function(spec, n, 1.0) == 1.0
            assert cantor_function(spec, n, 1.75) == 1.0


def test_cantor_function_mid_third_midpoint():
    assert cantor_function(MID_THIRD, 1, 0.5) == 0.5


def test_cantor_function_right_closed_blocks():
    # Mass strictly below 1/3 equals the whole first block's share.
    assert cantor_function(MID_THIRD, 1, 1.0 / 3.0) == 0.5
    assert cantor_function(MID_THIRD, 1, 1.0 / 3.0 + 1e-9) == 0.5
    assert cantor_function(MID_THIRD, 1, 2.0 / 3.0) == 0.5


def test_cantor_function_matches_interval_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        base = int(rng.integers(2, 8))
        size = int(rng.integers(1, base))
        letters = tuple(sorted(rng.choice(base, size=size, replace=False).tolist()))
        n = int(rng.integers(0, 9))
        xs = rng.uniform(-0.1, 1.1, size=32)
        ref = oracles.cantor_cdf(base, letters, n, xs)
        for x, r in zip(xs, ref):
            assert abs(cantor_function(CantorSpec(base, letters), n, float(x)) - r) <= 1e-12


def test_sibling_alphabets():
    assert canonical_of(MID_THIRD).alphabet == (0, 1)
    assert reverse_canonical_of(CantorSpec(5, (0, 2, 3))).alphabet == (2, 3, 4)
    again = canonical_of(canonical_of(CantorSpec(6, (1, 3, 5))))
    assert again == canonical_of(CantorSpec(6, (1, 3, 5)))


def test_spec_validation_and_flags():
    with pytest.raises(ValueError):
        CantorSpec(1, (0,))
    with pytest.raises(ValueError):
        CantorSpec(3, ())
    with pytest.raises(ValueError):
        CantorSpec(3, (0, 3))
    with pytest.raises(ValueError):
        CantorSpec(3, (0, 0))
    assert CantorSpec(3, (0, 1)).is_canonical
    assert CantorSpec(3, (1, 2)).is_reverse_canonical
    assert not CantorSpec(3, (0, 2)).is_canonical
    assert CantorSpec(4, (0, 2)).dimension == pytest.approx(math.log(2) / math.log(4))
    full = CantorSpec(3, (0, 1, 2))
    assert not full.is_proper
    assert full.is_canonical


def test_shift_decomposition_partial_geometric_sum():
    spec = CantorSpec(3, (1, 2))
    shift, base_it = shift_decomposition(spec, 2, 1.0)
    assert shift == pytest.approx(4.0 / 9.0, rel=1e-15)
    assert base_it.depth == 2


def test_shift_decomposition_depth_zero():
    shift, it = shift_decomposition(CantorSpec(3, (1, 2)), 0, 1.0)
    assert shift == 0.0
    assert it.count == 1


def test_shift_decomposition_reproduces_reverse_iterate():
    spec = CantorSpec(4, (2, 3))
    shift, base_it = shift_decomposition(spec, 3, 1.0)
    rev = continuous_iterate(spec, 3, 1.0)
    assert rev.count == base_it.count
    assert np.max(np.abs(base_it.lows + shift - rev.lows)) <= 1e-14
    assert np.max(np.abs(base_it.highs + shift - rev.highs)) <= 1e-14


def test_shift_decomposition_rejects_other_alphabets():
    with pytest.raises(ValueError):
        shift_decomposition(CantorSpec(3, (0, 1)), 2, 1.0)
    with pytest.raises(ValueError):
        shift_decomposition(CantorSpec(3, (0, 1, 2)), 2, 1.0)


def test_enumeration_cap_raises():
    with pytest.raises(CapExceededError):
        continuous_iterate(MID_THIRD, 10, 1.0, max_intervals=100)
    with pytest.raises(CapExceededError):
        discrete_iterate(MID_THIRD, 10, max_intervals=1000)


def test_cap_resolution_order(monkeypatch):
    monkeypatch.delenv(MAX_INTERVALS_ENV, raising=False)
    assert resolve_max_intervals() == DEFAULT_MAX_INTERVALS
    assert resolve_max_intervals(123) == 123
    monkeypatch.setenv(MAX_INTERVALS_ENV, "456")
    assert resolve_max_intervals() == 456
    # An explicit argument still wins over the environment.
    assert resolve_max_intervals(123) == 123
    monkeypatch.setenv(MAX_INTERVALS_ENV, "not a number")
    with pytest.raises(ValueError):
        resolve_max_intervals()


def test_indexed_constant_levels_match_fixed_spec():
    levels = IndexedCantorSpec((MID_THIRD,) * 4)
    fixed = continuous_iterate(MID_THIRD, 4, 2.0)
    indexed = indexed_intervals(levels, 4, 2.0)
    assert np.array_equal(fixed.lows, indexed.lows)
    assert np.array_equal(fixed.highs, indexed.highs)
    assert levels.base_product(4) == 81
    assert levels.size_product(3) == 8
    assert levels.depth == 4


def test_indexed_depth_is_bounded_by_levels():
    levels = IndexedCantorSpec((MID_THIRD, CantorSpec(4, (0, 1))))
    with pytest.raises(ValueError):
        indexed_intervals(levels, 3, 1.0)


@given(
    spec=_spec_strategy(),
    n=st.integers(min_value=0, max_value=6),
    x=st.floats(min_value=-0.2, max_value=1.2),
    y=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_weak_subadditivity_property(spec, n, x, y):
    # Against the canonical sibling, mass of a union of translates bounds
    # the shifted mass: G(x + y) <= G(x) + Gcan(y) + slack.
    can = canonical_of(spec)
    left = cantor_function(spec, n, x + y)
    right = cantor_function(spec, n, x) + cantor_function(can, n, y)
    assert left <= right + 1e-12


@given(
    spec=_spec_strategy(),
    n=st.integers(min_value=0, max_value=6),
    x=st.floats(min_value=-0.2, max_value=1.2),
    y=st.floats(min_value=-0.2, max_value=1.2),
)
@settings(max_examples=200, deadline=None)
def test_cantor_function_monotone_property(spec, n, x, y):
    lo, hi = min(x, y), max(x, y)
    assert cantor_function(spec, n, lo) <= cantor_function(spec, n, hi)


def test_cantor_function_monotone_in_one_gap():
    # Both points lie in one gap; two differently ordered float sums once
    # gave 0.6666666666666667 at the left point and ...666 at the right one.
    spec = CantorSpec(5, (0, 2, 3))
    left = cantor_function(spec, 7, 0.5517478671693304)
    right = cantor_function(spec, 7, 0.5628817034806395)
    assert left <= right
    assert left == right == 2.0 / 3.0


@given(spec=_spec_strategy(max_base=7), n=st.integers(min_value=0, max_value=10))
@settings(max_examples=120, deadline=None)
def test_measure_identity_property(spec, n):
    # Larger iterates are refused by the cap (test_enumeration_cap_raises).
    assume(spec.size ** n <= 10_000_000)
    it = continuous_iterate(spec, n, 1.0, max_intervals=10_000_000)
    expected = (spec.size / spec.base) ** n
    assert it.measure == pytest.approx(expected, rel=1e-12)
