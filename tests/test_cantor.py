"""Set-construction tests: digit enumeration, merged intervals, the
distribution function, sibling alphabets, and the enumeration cap."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

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
    lambda0_closed_form,
    localization_problem,
    operator_norm,
    positive_measure_demo,
    resolve_max_intervals,
    reverse_canonical_of,
    sweep_fixed,
    sweep_indexed_counterexample,
    sweep_indexed_decay,
)
from cantorloc.cantor import (
    DEFAULT_MAX_INTERVALS,
    MAX_INTERVALS_ENV,
    _join_digits,
    frexp_quotient,
    level_product,
    level_products,
)

MID_THIRD = CantorSpec(3, (0, 2))


def _random_spec(rng, max_base):
    # A base in 2..max_base and a proper alphabet of 1..base-1 letters.
    base = int(rng.integers(2, max_base + 1))
    size = int(rng.integers(1, base))
    letters = tuple(sorted(rng.choice(base, size=size, replace=False).tolist()))
    return CantorSpec(base, letters)


# The ends of the bases 2..9 that the Cantor-function loops draw: one letter
# and all but one, at each end of the alphabet.
END_SPECS = (CantorSpec(2, (0,)), CantorSpec(2, (1,)), CantorSpec(9, (0,)), CantorSpec(9, (8,)),
             CantorSpec(9, tuple(range(8))), CantorSpec(9, tuple(range(1, 9))))


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


def test_continuous_iterate_widths_count_whole_blocks():
    # Merged runs of one, two and more blocks, through the int64 and the
    # exact-int enumerations; highs - lows only approximates these.
    for spec, n, scale in ((CantorSpec(3, (0, 1)), 2, 1.0),
                           (CantorSpec(3, (1, 2)), 6, 27.0),
                           (CantorSpec(2 ** 40, (0, 1, 5)), 2, 3.0)):
        it = continuous_iterate(spec, n, scale)
        quantum = scale / spec.base ** n
        counts = np.rint((it.highs - it.lows) / quantum)
        assert counts.sum() == spec.size ** n
        assert np.array_equal(it.widths, counts * quantum)


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


@pytest.mark.parametrize("base, alphabet", [(7, (0, 1)), (7, (0, 6)), (3, (0, 2))])
@pytest.mark.parametrize("n", [8, 16])
def test_cantor_function_is_correctly_rounded_inside_iterate(base, alphabet, n):
    # Points inside the iterate reach the remainder, whose error the walk
    # scales by (M/|A|)^n: a walk that rounded x *= M at every level was
    # 6.4e-8 off at base 7, {0, 6}, n = 16.
    rng = np.random.default_rng(19)
    spec = CantorSpec(base, alphabet)
    for _ in range(200):
        digits = rng.choice(alphabet, size=n)
        point = sum(int(a) * base ** (n - 1 - j) for j, a in enumerate(digits))
        x = (point + rng.uniform(0.0, 1.0)) / base ** n
        exact = oracles.cantor_function_exact(base, alphabet, n, x)
        assert cantor_function(spec, n, x) == float(exact)


def test_rank_digits_join_to_the_exact_int():
    # cantor_function joins the rank's base-|A| digits by halves; the int
    # must be the one that a loop over the digits builds, on both sides of
    # the 64 digits where the halving starts.
    rng = np.random.default_rng(67)
    for base in (2, 3, 7, 9):
        for length in (0, 1, 63, 64, 65, 129, 1000, 4097):
            digits = rng.integers(0, base, length).tolist()
            assert _join_digits(digits, base) == int("0" + "".join(map(str, digits)), base)


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
    assert not CantorSpec(3, (0, 2)).is_canonical
    assert CantorSpec(4, (0, 2)).dimension == pytest.approx(math.log(2) / math.log(4))
    full = CantorSpec(3, (0, 1, 2))
    assert full.is_canonical


@pytest.mark.parametrize("base,size,n", [(3, 2, 2), (4, 2, 3), (5, 3, 4), (7, 4, 5)])
def test_reverse_iterate_is_the_canonical_shifted_by_inner_rho(base, size, n):
    # A reverse-canonical letter is a canonical one plus M - |A|, so every
    # block of the reverse iterate is the canonical block moved by inner_rho.
    scale = 7.3
    rev_lo, rev_hi = oracles.iterate_blocks(base, range(base - size, base), n, scale)
    can_lo, can_hi = oracles.iterate_blocks(base, range(size), n, scale)
    shift = oracles.inner_rho(base, size, n, scale)
    assert np.max(np.abs(can_lo + shift - rev_lo)) <= 1e-15 * scale
    assert np.max(np.abs(can_hi + shift - rev_hi)) <= 1e-15 * scale


def test_enumeration_cap_raises(monkeypatch):
    monkeypatch.setenv(MAX_INTERVALS_ENV, "100")
    with pytest.raises(CapExceededError):
        continuous_iterate(MID_THIRD, 10, 1.0)
    monkeypatch.setenv(MAX_INTERVALS_ENV, "1000")
    with pytest.raises(CapExceededError):
        discrete_iterate(MID_THIRD, 10)


def test_cap_resolution_order(monkeypatch):
    monkeypatch.delenv(MAX_INTERVALS_ENV, raising=False)
    assert resolve_max_intervals() == DEFAULT_MAX_INTERVALS
    monkeypatch.setenv(MAX_INTERVALS_ENV, "456")
    assert resolve_max_intervals() == 456
    monkeypatch.setenv(MAX_INTERVALS_ENV, "not a number")
    with pytest.raises(ValueError):
        resolve_max_intervals()


def test_indexed_constant_levels_match_fixed_spec():
    levels = IndexedCantorSpec((MID_THIRD,) * 4)
    fixed = continuous_iterate(MID_THIRD, 4, 2.0)
    indexed = indexed_intervals(levels, 4, 2.0)
    assert np.array_equal(fixed.lows, indexed.lows)
    assert np.array_equal(fixed.highs, indexed.highs)
    assert levels.depth == 4


def test_level_products_convert_with_one_rounding():
    assert level_products([3, 4, 5]) == [1, 3, 12, 60]
    assert level_products([]) == [1]
    # x / P for products well past 2^1024: a mantissa in [0.5, 1) rounded
    # once from the exact quotient, and no exponent range.
    rng = np.random.default_rng(5)
    for _ in range(200):
        bases = rng.integers(2, 90, size=int(rng.integers(0, 400))).tolist()
        big = level_products(bases)[-1]
        for x, product in ((float(rng.uniform(1e-300, 1e300)), big), (1, big), (big, 1)):
            m, e = frexp_quotient(x, product)
            assert 0.5 <= m < 1.0
            assert m == float(Fraction(x) / product / Fraction(2) ** e)
    # Where it is finite, float(P) is the same double.
    for product in (3 ** 24, 3 ** 40, 2 ** 1000 + 1, 7 ** 360):
        assert math.ldexp(*frexp_quotient(product, 1)) == float(product)


@pytest.mark.parametrize("base, scale, deepest", [(2, sys.float_info.max, 2045),
                                                   (3, 1.0, 644)])
def test_scale_check_refuses_the_first_depth_past_the_double_range(base, scale, deepest):
    # At the largest double scale, base 2 keeps blocks of e^-707.7 at depth
    # 2045 and e^-708.4 at 2046.  The product is formed only up to 2^2047,
    # past which no scale passes, so depth 10^6 is refused at once; forming
    # every prefix of it once ran out of memory.
    spec = CantorSpec(base, (0,))
    assert localization_problem(spec, deepest, scale).rho == scale
    for n in (deepest + 1, 10 ** 6):
        with pytest.raises(ValueError, match="narrower than the smallest representable"):
            localization_problem(spec, n, scale)
    assert level_product([2] * 10, 100) == 128
    assert level_product([3, 4, 5], 10 ** 9) == 60


def test_indexed_depth_is_bounded_by_levels():
    levels = IndexedCantorSpec((MID_THIRD, CantorSpec(4, (0, 1))))
    with pytest.raises(ValueError):
        indexed_intervals(levels, 3, 1.0)


def _problem_at(n):
    problem = localization_problem(MID_THIRD, n, 9.0)
    return type(problem.n), problem.n, operator_norm(problem)


# Every entry point that takes an iterate depth, as a function of the depth
# alone, returning something comparable with ==.
DEPTH_ENTRY_POINTS = {
    "discrete_iterate": lambda n: discrete_iterate(MID_THIRD, n).tolist(),
    "continuous_iterate": lambda n: continuous_iterate(MID_THIRD, n, 9.0).lows.tolist(),
    "lambda0_closed_form": lambda n: lambda0_closed_form(MID_THIRD, n, 9.0),
    "cantor_function": lambda n: cantor_function(MID_THIRD, n, 0.3),
    "localization_problem": _problem_at,
    "sweep_fixed": lambda n: sweep_fixed(MID_THIRD, n),
    "sweep_indexed_counterexample": lambda n: sweep_indexed_counterexample(4, 2, n_max=n),
    # Its fit needs n_max >= 5; 3n keeps 2.5 fractional and -1 negative.
    "sweep_indexed_decay": lambda n: sweep_indexed_decay(n_max=3 * n).rows,
    "positive_measure_demo": lambda n: positive_measure_demo(n, 1.0).rows,
}


@pytest.mark.parametrize("entry", sorted(DEPTH_ENTRY_POINTS))
def test_depth_is_a_nonnegative_integer_at_every_entry_point(entry):
    # A depth of 2.5 once built depth 2 in localization_problem, gave a
    # value in the fixed-base sweep's radius and a TypeError elsewhere;
    # 3.0 was a TypeError in most places.
    call = DEPTH_ENTRY_POINTS[entry]
    for bad in (2.5, -1):
        with pytest.raises(ValueError, match="iterate depth must be nonnegative"):
            call(bad)
    assert call(3.0) == call(3)


def test_weak_subadditivity_property():
    # Against the canonical sibling, mass of a union of translates bounds
    # the shifted mass: G(x + y) <= G(x) + Gcan(y) + 1e-12.  1,000 seeded
    # draws of bases 2..9, n in 0..6, x in [-0.2, 1.2] and y in [0, 1], and
    # every corner of that box at END_SPECS; the cantor verify suite draws
    # bases up to 7 only.
    rng = np.random.default_rng(61)
    cases = [(_random_spec(rng, 9), int(rng.integers(0, 7)), float(rng.uniform(-0.2, 1.2)),
              float(rng.uniform(0.0, 1.0))) for _ in range(1000)]
    cases += [(spec, n, x, y) for spec in END_SPECS for n in (0, 6)
              for x in (-0.2, 1.2) for y in (0.0, 1.0)]
    for spec, n, x, y in cases:
        left = cantor_function(spec, n, x + y)
        right = cantor_function(spec, n, x) + cantor_function(canonical_of(spec), n, y)
        assert left <= right + 1e-12, (spec, n, x, y)


def test_cantor_function_monotone_property():
    # 1,000 seeded draws of bases 2..9, n in 0..6 and x, y in [-0.2, 1.2],
    # and the pairs of ends of that range at END_SPECS; the cantor verify
    # suite draws bases up to 7 and x in [-0.1, 1.1] only.
    rng = np.random.default_rng(62)
    cases = [(_random_spec(rng, 9), int(rng.integers(0, 7)), *rng.uniform(-0.2, 1.2, 2))
             for _ in range(1000)]
    cases += [(spec, n, x, y) for spec in END_SPECS for n in (0, 6)
              for x, y in ((-0.2, -0.2), (-0.2, 1.2), (1.2, 1.2))]
    for spec, n, x, y in cases:
        lo, hi = float(min(x, y)), float(max(x, y))
        assert cantor_function(spec, n, lo) <= cantor_function(spec, n, hi), (spec, n, lo, hi)


def test_cantor_function_monotone_in_one_gap():
    # Both points lie in one gap; two differently ordered float sums once
    # gave 0.6666666666666667 at the left point and ...666 at the right one.
    spec = CantorSpec(5, (0, 2, 3))
    left = cantor_function(spec, 7, 0.5517478671693304)
    right = cantor_function(spec, 7, 0.5628817034806395)
    assert left <= right
    assert left == right == 2.0 / 3.0


def test_measure_identity_property():
    # The enumeration's measure is (|A|/M)^n within 1e-12 relative: 120
    # seeded draws of bases 2..7 and n in 0..10 whose |A|^n intervals fit
    # the default cap (larger iterates are refused by it, see
    # test_enumeration_cap_raises), and the ends n = 0 and 10 at bases 2 and
    # 7, with five letters, the most that fit at n = 10.
    rng = np.random.default_rng(63)
    cases = [(CantorSpec(2, (1,)), 0), (CantorSpec(2, (0,)), 10),
             (CantorSpec(7, tuple(range(6))), 0), (CantorSpec(7, (0, 1, 2, 3, 4)), 10)]
    while len(cases) < 124:
        spec, n = _random_spec(rng, 7), int(rng.integers(0, 11))
        if spec.size ** n <= 10_000_000:
            cases.append((spec, n))
    for spec, n in cases:
        it = continuous_iterate(spec, n, 1.0)
        expected = (spec.size / spec.base) ** n
        assert it.measure == pytest.approx(expected, rel=1e-12), (spec, n)
