"""End-to-end acceptance checks, one test per shipped guarantee.

Every test draws its inputs from seeded generators frozen alongside the
oracles, states its tolerance inline, and fails with the worst observed
case in the message.
"""

import functools
import math

import numpy as np

import oracles
from cantorloc import (
    CantorSpec,
    DecayParams,
    RadiusSchedule,
    cantor_function,
    canonical_of,
    eigenvalue,
    gamma_tail_mass,
    lambda0_closed_form,
    localization_problem,
    operator_norm,
    positive_measure_demo,
    regularized_lower_gamma,
    relative_area,
    segment_mass,
    sweep_fixed,
    sweep_indexed_counterexample,
    sweep_indexed_decay,
    sweep_reverse_counterexample,
)

GRID_SEED = 20240817
SAMPLER_SEED = 20240818
POWER_HALF = RadiusSchedule()


@functools.lru_cache(maxsize=None)
def problem_grid():
    return tuple(oracles.seeded_problem_grid(GRID_SEED, 200))


def fixed_sweep(base, letters):
    return sweep_fixed(CantorSpec(base, letters), POWER_HALF, 10)


@functools.lru_cache(maxsize=None)
def reverse_sweep(base):
    return dict(sweep_reverse_counterexample(base, 2, POWER_HALF, 10))


def _draw_spec(rng):
    base = int(rng.integers(2, 8))
    size = int(rng.integers(1, base))
    letters = tuple(sorted(rng.choice(base, size=size, replace=False).tolist()))
    return CantorSpec(base, letters)


def test_first_eigenvalue_closed_form_matches_interval_sums():
    # 200 seeded (base, alphabet, depth, rho) cases; closed form within
    # 1e-10 relative of the summed segment masses.
    worst = 0.0
    worst_case = None
    for base, alphabet, n, rho in problem_grid():
        spec = CantorSpec(base, alphabet)
        closed = lambda0_closed_form(spec, n, rho)
        summed = eigenvalue(localization_problem(spec, n, rho), 0).value
        rel = abs(closed - summed) / summed
        if rel > worst:
            worst, worst_case = rel, (base, alphabet, n, rho)
    assert worst <= 1e-10, f"worst relative gap {worst:.3e} at {worst_case}"


def test_kernel_complementarity_and_segment_masses():
    # Lower and upper tails sum to one within 1e-13 on a 10^4-point grid
    # with order up to 10^4; segment masses match independent adaptive
    # quadrature within 1e-10 relative on 10^3 seeded segments, thin
    # far-tail segments included.
    rng = np.random.default_rng(SAMPLER_SEED)
    ks = rng.integers(0, 10_001, size=10_000)
    factors = rng.uniform(0.0, 2.5, size=10_000)
    far = rng.random(10_000) < 0.1
    factors[far] = rng.uniform(2.5, 8.0, size=int(far.sum()))
    worst_pair = 0.0
    for k, x in zip(ks, factors * (ks + 1.0)):
        p = regularized_lower_gamma(int(k), float(x))
        q = gamma_tail_mass(int(k), float(x))
        worst_pair = max(worst_pair, abs(p + q - 1.0))
    assert worst_pair <= 1e-13, f"worst |P+Q-1| = {worst_pair:.3e}"

    worst_seg = 0.0
    worst_case = None
    for i in range(1000):
        k = int(10.0 ** rng.uniform(0.0, 3.3))
        sig = math.sqrt(k + 1.0)
        family = i % 3
        if family == 0:
            a = max(0.0, k + rng.uniform(-3.0, 3.0) * sig)
            width = rng.uniform(0.0, 2.0) * sig
        elif family == 1:
            a = rng.uniform(0.0, 0.7 * k + 1.0)
            width = rng.uniform(0.05, 1.5) * sig
        else:
            a = k + rng.uniform(4.0, 11.0) * sig + rng.uniform(0.0, 20.0)
            width = rng.uniform(1e-6, 0.5)
        b = a + width
        lib = segment_mass(k, a, b).value
        ref = oracles.segment_mass_quad(k, a, b)
        if max(lib, ref) <= 1e-290:
            # Both sides agree the mass sits below the representable range.
            continue
        rel = abs(lib - ref) / max(ref, 1e-290)
        if rel > worst_seg:
            worst_seg, worst_case = rel, (k, a, b)
    assert worst_seg <= 1e-10, f"worst segment gap {worst_seg:.3e} at {worst_case}"


def test_canonical_norm_identity_and_sibling_bound():
    # On the same 200-case grid: canonical scans put the maximum at k = 0
    # with the closed-form value inside the certificate, and every
    # non-canonical norm is at most twice the canonical first eigenvalue.
    for base, alphabet, n, rho in problem_grid():
        spec = CantorSpec(base, alphabet)
        can = canonical_of(spec)
        res = operator_norm(localization_problem(can, n, rho))
        lam0 = lambda0_closed_form(can, n, rho)
        cert = res.value_err + res.tail_bound + 1e-15
        assert res.argmax_k == 0, f"canonical argmax {res.argmax_k} at {(base, alphabet, n, rho)}"
        assert abs(res.value - lam0) <= cert, (
            f"|value - lambda0| = {abs(res.value - lam0):.3e} beyond certificate "
            f"{cert:.3e} at {(base, alphabet, n, rho)}")
        if not spec.is_canonical:
            other = operator_norm(localization_problem(spec, n, rho))
            assert other.value <= 2.0 * lam0 + 1e-10, (
                f"norm {other.value:.17g} above twice lambda0 {lam0:.17g} "
                f"at {(base, alphabet, n, rho)}")


def test_scaled_norm_band_is_tight():
    # Scaled norms for canonical alphabets stay inside a factor-10 band
    # over n = 2..10; the mid-third scaled norm stays inside a bounded
    # band as well.
    for base, letters in ((3, (0, 1)), (5, (0, 1, 2))):
        scaled = [r.scaled_norm for r in fixed_sweep(base, letters) if r.n >= 2]
        band = max(scaled) / min(scaled)
        assert band <= 10.0, f"canonical scaled band {band:.3f} for base {base}"
    mid = [r.scaled_norm for r in fixed_sweep(3, (0, 2)) if r.n >= 2]
    assert all(v > 0.0 and math.isfinite(v) for v in mid)
    assert max(mid) / min(mid) <= 10.0, f"mid-third scaled band {max(mid)/min(mid):.3f}"


def test_reverse_alphabet_norm_ratio_decays():
    # Reverse-canonical over canonical norm ratios along rho = M^(n/2):
    # positive throughout, strictly decreasing over n = 1..10, and decaying
    # at the rate (|A|/M)^(n/4) for both base 3 and base 4.  Near k = rho
    # the density f_k is M^(n/4) wide, so the reverse norm scales like
    # (|A|/M)^(3n/4) against the canonical (|A|/M)^(n/2); the normalized
    # ratio ratio(n) (M/|A|)^(n/4) must stay inside a factor-1.5 band over
    # n = 2..10.  A ratio that stopped decaying would spread that band by
    # (M/|A|)^2 = 2.25 (base 3) or 4 (base 4), above 1.5.
    for base in (3, 4):
        ratios = reverse_sweep(base)
        assert all(v > 0.0 for v in ratios.values()), f"non-positive ratio, base {base}"
    for base in (3, 4):
        ratios = reverse_sweep(base)
        for n in range(1, 10):
            assert ratios[n + 1] < ratios[n], (
                f"base {base}: ratio({n + 1}) = {ratios[n + 1]:.10f} is not below "
                f"ratio({n}) = {ratios[n]:.10f}")
        normalized = [ratios[n] * (base / 2.0) ** (n / 4.0) for n in range(2, 11)]
        band = max(normalized) / min(normalized)
        assert band <= 1.5, (
            f"base {base}: rate-normalized ratio band {band:.4f} over n = 2..10 "
            f"({min(normalized):.4f} to {max(normalized):.4f})")


def test_distribution_function_identities():
    # Digit walk vs interval oracle within 1e-12 on 10^4 queries.  Weak
    # subadditivity and the stopped and clamped digit sums are sampled by
    # the cantor verify suite (tests/test_verify.py).
    rng = np.random.default_rng(SAMPLER_SEED)
    worst_walk = 0.0
    for _ in range(20):
        spec = _draw_spec(rng)
        n = int(rng.integers(0, 9))
        xs = rng.uniform(-0.1, 1.1, size=500)
        ref = oracles.cantor_cdf(spec.base, spec.alphabet, n, xs)
        for x, r in zip(xs, ref):
            worst_walk = max(worst_walk, abs(cantor_function(spec, n, float(x)) - r))
    assert worst_walk <= 1e-12, f"worst walk gap {worst_walk:.3e}"


def test_order_zero_area_ignores_start_point():
    # At order zero the refinement share does not depend on where the
    # window starts, within 1e-13 on 10^3 seeded samples.  The orderings in
    # k and T and the limit as infimum are sampled by the operator verify
    # suite (tests/test_verify.py).
    rng = np.random.default_rng(SAMPLER_SEED)
    worst = 0.0
    for _ in range(1000):
        spec = _draw_spec(rng)
        s1 = float(rng.uniform(0.0, 20.0))
        s2 = float(rng.uniform(0.0, 20.0))
        T = float(rng.uniform(0.05, 4.0))
        worst = max(worst,
                    abs(relative_area(spec, 0, s1, T) - relative_area(spec, 0, s2, T)))
    assert worst <= 1e-13, f"start-point dependence at order zero: {worst:.3e}"


def test_indexed_decay_and_lower_bound():
    # Random level sequences meeting the decay hypotheses give a positive
    # fitted rate for three seeds at depth 20; the doubly-exponential
    # construction keeps its first eigenvalue above half the depth-1
    # value, with its closed lower-bound product converged to 1e-12.
    for seed in (0, 1, 2):
        result = sweep_indexed_decay(DecayParams(n_max=20), seed=seed)
        assert result.fitted_beta > 0.0, (
            f"seed {seed}: fitted rate {result.fitted_beta:.6f} not positive")

    counter = sweep_indexed_counterexample(4, 2, n_max=5)
    lam = {n: l0 for n, l0, _ in counter.rows}
    for n, value in lam.items():
        assert value >= 0.5 * lam[1], (
            f"lambda0({n}) = {value:.12f} fell below half of lambda0(1) = {lam[1]:.12f}")

    theta, root = 0.5, 2.0

    def partial(stop):
        return math.prod(-math.expm1(-theta * root**m) for m in range(2, stop + 1))

    assert abs(partial(10) - partial(20)) <= 1e-12
    assert abs(counter.lower_bound_product - partial(20)) <= 1e-12


def test_positive_measure_lower_bound():
    # Near-full alphabets with quotient 1 - 2^-j: the first eigenvalue
    # dominates e^(-rho) times the iterate measure at every depth up to 12.
    for rho in (0.5, 1.0, 5.0):
        result = positive_measure_demo(12, rho)
        floor = math.exp(-rho)
        for n, measure, lam0, bound in result.rows:
            assert bound == floor * measure
            assert lam0 >= bound - 1e-12, (
                f"rho {rho}, depth {n}: lambda0 {lam0:.17g} below "
                f"e^-rho * measure {bound:.17g}")
        assert result.measure_limit_estimate > 0.28 * rho
