"""Executable invariant suites behind the `verify` subcommand.

Each suite draws seeded samples, exercises one module's documented
inequalities and identities, and reports a PropertyCheck per property with
the worst observed slack.  Suites are deterministic in (seed, samples) so a
verify run can be replayed byte for byte.

The epsilon tolerances can be overridden uniformly (the CLI --tol flag);
structural checks (band ratios, signs of differences and slopes) keep their
built-in thresholds because a global epsilon makes no sense for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cantor import (
    _UNIT,
    CantorSpec,
    block_tree,
    canonical_of,
    cantor_function,
    discrete_iterate,
)
from .experiments import (
    sweep_fixed,
    sweep_indexed_decay,
    sweep_reverse_counterexample,
)
from .operator import (
    GROUP,
    eigenvalue,
    lambda0_closed_form,
    limit_relative_area,
    localization_problem,
    operator_norm,
    relative_area,
)
from .special import (
    block_measures,
    group_bound,
    lower_tail_batch,
    segment_mass_batch,
)


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one invariant sweep: passed iff worst <= tol."""

    suite: str
    name: str
    passed: bool
    worst: float
    tol: float
    samples: int
    note: str = ""


def _random_spec(rng: np.random.Generator, max_base: int = 7) -> CantorSpec:
    base = int(rng.integers(2, max_base + 1))
    size = int(rng.integers(1, base))
    letters = np.sort(rng.choice(base, size=size, replace=False))
    return CantorSpec(base, tuple(int(a) for a in letters))


def _random_canonical(rng: np.random.Generator, max_base: int = 7) -> CantorSpec:
    base = int(rng.integers(2, max_base + 1))
    size = int(rng.integers(1, base))
    return CantorSpec(base, tuple(range(size)))


# ----------------------------------------------------------------------
# special_fn
# ----------------------------------------------------------------------

def special_suite(seed: int, samples: int, tol: float | None = None
                  ) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    out = []

    eps = tol if tol is not None else 1e-13
    worst = 0.0
    for _ in range(samples):
        k = int(10.0 ** rng.uniform(0.0, 4.0))
        x = 10.0 ** rng.uniform(-2.0, math.log10(3.0 * k + 10.0))
        [p], [q] = lower_tail_batch(k, [x])
        worst = max(worst, float(abs(p + q - 1.0)))
    out.append(PropertyCheck("special_fn", "complementarity",
                             worst <= eps, worst, eps, samples))

    eps = tol if tol is not None else 1e-11
    worst = 0.0
    used = 0
    for _ in range(samples):
        k = int(10.0 ** rng.uniform(0.0, 3.5))
        width = 6.0 * math.sqrt(k + 1.0) + 5.0
        lo = max(0.0, k - width)
        cuts = np.sort(rng.uniform(lo, k + width, size=3))
        a, b, c = (float(v) for v in cuts)
        (whole, left, right), _ = segment_mass_batch(k, [a, a, b], [c, b, c])
        if whole <= 1e-280:
            continue
        worst = max(worst, float(abs(left + right - whole) / whole))
        used += 1
    out.append(PropertyCheck("special_fn", "additivity",
                             worst <= eps, worst, eps, used))

    # The maximizing start of a fixed-width window solves f(s) = f(s+T),
    # which sits inside [k-T, k]; a grid argmax may land one step outside.
    worst = 0.0
    trials = max(samples // 10, 20)
    for _ in range(trials):
        k = int(rng.integers(1, 400))
        T = float(rng.uniform(0.1, 4.0))
        grid = np.linspace(max(0.0, k - 3.0 * T - 2.0), k + 2.0 * T + 2.0, 41)
        step = grid[1] - grid[0]
        masses, _ = segment_mass_batch(k, grid, grid + T)
        s_hat = float(grid[int(np.argmax(masses))])
        excess = max(k - T - step - s_hat, s_hat - (k + step))
        worst = max(worst, excess)
    out.append(PropertyCheck("special_fn", "monotone_mode",
                             worst <= 0.0, worst, 0.0, trials,
                             note="grid argmax stays within [k-T, k]"))

    # Past some index K(eps) the relative tail is below 1e-6 and keeps
    # shrinking along the tested range.
    worst = -1.0
    evals = 0
    for eps_rel in (0.1, 0.25, 0.5):
        k = 1
        while (prev := float(lower_tail_batch(k, [(1.0 + eps_rel) * k])[1][0])) >= 1e-6:
            k *= 2
            if k > 10 ** 7:
                raise AssertionError("tail never dropped below 1e-6")
        worst = max(worst, prev - 1e-6)
        for mult in (1.25, 1.5, 2.0, 3.0):
            j = int(mult * k)
            cur = float(lower_tail_batch(j, [(1.0 + eps_rel) * j])[1][0])
            worst = max(worst, cur - prev)
            prev = cur
            evals += 1
    out.append(PropertyCheck("special_fn", "tail_decay",
                             worst <= 0.0, worst, 0.0, evals,
                             note="below 1e-6 at K(eps), decreasing after"))
    return out


# ----------------------------------------------------------------------
# cantor
# ----------------------------------------------------------------------

def _canonical_length_formula(base: int, size: int, n: int,
                              digits: list[int], a: float) -> float:
    """Per-scale clamped sum over a length a + sum_j m_j M^(j-n): each
    digit contributes min(m_j, size) size^(j-n), the remainder a linearly."""
    total = min(a * float(base) ** n, float(size)) * float(size) ** -n
    for j, m in enumerate(digits, start=1):
        total += min(m, size) * float(size) ** (j - n)
    return min(1.0, total)


def _stopped_length_formula(base: int, size: int, n: int,
                            digits: list[int], a: float) -> float:
    """The clamped sum cut where the canonical digit walk stops: digit
    terms from the top scale down, ending after the first m_j >= size, and
    the remainder term only when no digit clamped."""
    total = 0.0
    for j in range(len(digits), 0, -1):
        m = digits[j - 1]
        total += min(m, size) * float(size) ** (j - n)
        if m >= size:
            return min(1.0, total)
    total += min(a * float(base) ** n, float(size)) * float(size) ** -n
    return min(1.0, total)


def _length_digits(base: int, n: int, length: float) -> tuple[list[int], float]:
    """Unique decomposition length = a + sum_{j=1}^{n-1} m_j M^(j-n) with
    0 <= m_j < M and 0 <= a <= M^(1-n); digits returned lowest scale first."""
    digits = [0] * max(n - 1, 0)
    rem = length
    for j in range(n - 1, 0, -1):
        unit = float(base) ** (j - n)
        m = min(int(rem / unit), base - 1)
        digits[j - 1] = m
        rem -= m * unit
    return digits, max(rem, 0.0)


def cantor_suite(seed: int, samples: int, tol: float | None = None
                 ) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    out = []

    eps = tol if tol is not None else 1e-12
    specs = [_random_spec(rng) for _ in range(20)]
    worst = 0.0
    per_spec = max(samples // len(specs), 1)
    for spec in specs:
        can = canonical_of(spec)
        for _ in range(per_spec):
            n = int(rng.integers(0, 9))
            # x reaches past both ends of [0, 1], where F is constant
            x = float(rng.uniform(-0.2, 1.2))
            y = float(rng.uniform(0.0, 1.0))
            lhs = cantor_function(spec, n, x + y) - cantor_function(spec, n, x)
            worst = max(worst, lhs - cantor_function(can, n, y))
    out.append(PropertyCheck("cantor", "weak_subadditivity",
                             worst <= eps, worst, eps, len(specs) * per_spec))

    worst = 0.0
    for _ in range(samples):
        can = _random_canonical(rng)
        n = int(rng.integers(0, 9))
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(0.0, 1.0))
        gap = (cantor_function(can, n, x + y)
               - cantor_function(can, n, x) - cantor_function(can, n, y))
        worst = max(worst, gap)
    out.append(PropertyCheck("cantor", "canonical_subadditivity",
                             worst <= eps, worst, eps, samples))

    # Equality of the canonical Cantor function with the per-digit sum cut
    # where the digit walk stops.  The uncut clamped sum keeps adding
    # lower-scale terms after a clamped digit, so it is only an upper
    # bound, checked on the same lengths; that direction is what the
    # subadditivity argument consumes.
    worst = 0.0
    for _ in range(samples):
        can = _random_canonical(rng)
        n = int(rng.integers(0, 9))
        t = float(rng.uniform(0.0, 1.0))
        digits, a = _length_digits(can.base, n, t)
        walk = cantor_function(can, n, t)
        stopped = _stopped_length_formula(can.base, can.size, n, digits, a)
        clamped = _canonical_length_formula(can.base, can.size, n, digits, a)
        worst = max(worst, abs(walk - stopped), walk - clamped)
    out.append(PropertyCheck("cantor", "explicit_canonical_formula",
                             worst <= eps, worst, eps, samples,
                             note="stopped sum equals the walk, clamped sum "
                                  "bounds it"))

    worst = 0.0
    for _ in range(samples):
        spec = _random_spec(rng)
        n = int(rng.integers(1, 9))
        x, y = np.sort(rng.uniform(0.0, 1.0, size=2))
        portion = (cantor_function(spec, n, float(y))
                   - cantor_function(spec, n, float(x)))
        digits, a = _length_digits(spec.base, n, float(y - x))
        bound = _canonical_length_formula(spec.base, spec.size, n, digits, a)
        worst = max(worst, portion - bound)
    out.append(PropertyCheck("cantor", "clamped_sum_bounds_portion",
                             worst <= eps, worst, eps, samples,
                             note="any alphabet, any interval of that length"))

    # The block tree's measure W_0 mu_0 against scale (|A|/M)^n, the int
    # quotient rounded once: off by at most moment_err and three roundings.
    worst = 0.0
    trials = max(samples // 10, 20)
    for _ in range(trials):
        spec = _random_spec(rng)
        n = int(rng.integers(0, 41))
        scale = float(10.0 ** rng.uniform(-2.0, 3.0))
        tree = block_tree(spec, n, scale, 0)
        want = scale * (spec.size ** n / spec.base ** n)
        measure = float(tree.widths[0] * tree.moments[0, 0])
        allowed = tree.widths[0] * tree.moment_err[0, 0] + 4.0 * _UNIT * want
        worst = max(worst, abs(measure - want) / allowed)
    out.append(PropertyCheck("cantor", "measure_identity",
                             worst <= 1.0, worst, 1.0, trials,
                             note="error of the tree's W_0 mu_0 over its bound"))

    worst = 0.0
    trials = max(samples // 10, 20)
    for _ in range(trials):
        spec = _random_spec(rng)
        n = int(rng.integers(0, 9))
        xs = np.sort(rng.uniform(-0.1, 1.1, size=24))
        vals = [cantor_function(spec, n, float(x)) for x in xs]
        for u, v in zip(vals[:-1], vals[1:]):
            worst = max(worst, u - v)
    out.append(PropertyCheck("cantor", "monotone_nondecreasing",
                             worst <= 0.0, worst, 0.0, trials * 24))
    return out


# ----------------------------------------------------------------------
# operator
# ----------------------------------------------------------------------

def operator_suite(seed: int, samples: int, tol: float | None = None
                   ) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    out = []
    eps = tol if tol is not None else 1e-12

    worst = 0.0
    for _ in range(samples):
        can = _random_canonical(rng)
        k = int(rng.integers(0, 65))
        s = float(rng.uniform(0.0, k + 10.0))
        T = float(rng.uniform(0.05, 6.0))
        worst = max(worst, relative_area(can, k + 1, s, T)
                    - relative_area(can, k, s, T))
    out.append(PropertyCheck("operator", "canonical_area_ordering",
                             worst <= eps, worst, eps, samples))

    worst = 0.0
    for _ in range(samples):
        spec = _random_spec(rng)
        k = int(rng.integers(0, 64))
        s = k + float(rng.uniform(0.0, 8.0))
        T = float(rng.uniform(0.05, 6.0))
        lhs = relative_area(spec, k, s, T)
        rhs = relative_area(canonical_of(spec), 0, 0.0, T)
        worst = max(worst, lhs - rhs)
    out.append(PropertyCheck("operator", "start_point_dominance",
                             worst <= eps, worst, eps, samples,
                             note="any start s >= k"))

    worst = 0.0
    for _ in range(samples):
        can = _random_canonical(rng)
        t1, t2 = np.sort(rng.uniform(0.05, 8.0, size=2))
        worst = max(worst, relative_area(can, 0, 0.0, float(t1))
                    - relative_area(can, 0, 0.0, float(t2)))
    out.append(PropertyCheck("operator", "area_monotone_in_T",
                             worst <= eps, worst, eps, samples))

    worst = 0.0
    trials = max(samples // 10, 20)
    for _ in range(trials):
        can = _random_canonical(rng)
        n = int(rng.integers(0, 9))
        rhos = np.sort(rng.uniform(0.01, float(can.base) ** max(n, 1), size=8))
        vals = [lambda0_closed_form(can, n, float(r)) for r in rhos]
        for u, v in zip(vals[:-1], vals[1:]):
            worst = max(worst, u - v)
    out.append(PropertyCheck("operator", "lambda0_monotone_in_rho",
                             worst <= 0.0, worst, 0.0, trials * 8))

    inf_eps = tol if tol is not None else 1e-9
    worst = 0.0
    for _ in range(samples):
        can = _random_canonical(rng)
        theta = can.size / can.base
        k = int(rng.integers(1, 257))
        a = float(rng.uniform(1.0, 4.0))
        T = float(rng.uniform(0.1, 4.0))
        lim = limit_relative_area(theta, a, T)
        worst = max(worst, lim - relative_area(can, k, a * k, T))
    out.append(PropertyCheck("operator", "limit_area_is_infimum",
                             worst <= inf_eps, worst, inf_eps, samples))

    worst = 0.0
    trials = max(samples // 20, 12)
    for _ in range(trials):
        spec = _random_spec(rng, max_base=6)
        n = int(rng.integers(0, 6))
        rho = float(rng.uniform(0.5, 20.0))
        k = int(rng.integers(0, 49))
        lam = eigenvalue(localization_problem(spec, n, rho), k).value
        blocks = discrete_iterate(canonical_of(spec), n)
        width = rho / float(spec.base) ** n
        masses, _ = segment_mass_batch(k, blocks * width + k, (blocks + 1) * width + k)
        bound = 2.0 * math.fsum(masses)
        worst = max(worst, lam - bound)
    out.append(PropertyCheck("operator", "shifted_canonical_bound",
                             worst <= eps, worst, eps, trials,
                             note="lambda_k <= 2 * mass over canonical + k"))

    worst = 0.0
    trials = max(samples // 25, 10)
    for _ in range(trials):
        spec = _random_spec(rng, max_base=6)
        n = int(rng.integers(0, 5))
        rho = float(rng.uniform(0.5, 30.0))
        problem = localization_problem(spec, n, rho)
        res = operator_norm(problem)
        # eigenvalues up to twice the truncation stay inside the certificate
        for k in range(res.k_truncation + 1, 2 * res.k_truncation + 1, 3):
            lam = eigenvalue(problem, k).value
            worst = max(worst, lam - (res.value + res.tail_bound))
    out.append(PropertyCheck("operator", "norm_certificate",
                             worst <= 0.0, worst, 0.0, trials,
                             note="rescan to 2K never beats value + tail"))

    worst = -math.inf
    trials = max(samples // 40, 12)
    for _ in range(trials):
        spec = _random_spec(rng, max_base=6)
        n = int(rng.integers(0, 6))
        rho = float(rng.uniform(0.5, 80.0))
        tree = localization_problem(spec, n, rho).tree
        first = int(rng.integers(0, int(1.2 * rho) + 2))
        last = first + int(rng.integers(0, GROUP))
        prefixes = discrete_iterate(spec, n)
        width = float(tree.widths[n])
        lo = prefixes.astype(float) * width
        hi = (prefixes + 1).astype(float) * width
        bound = group_bound(width, block_measures(tree, 1)[n], prefixes, float(first), float(last))
        for k in range(first, last + 1):
            mass, rel = segment_mass_batch(k, lo, hi, np.full(lo.size, width))
            worst = max(worst, float(np.max((mass * (1.0 - rel) - bound) / bound)))
    out.append(PropertyCheck("operator", "group_bound_dominates_masses",
                             worst <= 0.0, worst, 0.0, trials,
                             note="every member's mass on a depth-n block"))
    return out


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------

def experiments_suite(seed: int, samples: int, tol: float | None = None
                      ) -> list[PropertyCheck]:
    out = []
    eps = tol if tol is not None else 1e-10

    specs = [CantorSpec(3, (0, 2)), CantorSpec(5, (0, 2, 3)), CantorSpec(4, (1, 3))]
    rows = [row for spec in specs for row in sweep_fixed(spec, 6)]
    worst = max([0.0] + [row.norm - 2.0 * row.lambda0_canonical for row in rows])
    out.append(PropertyCheck("experiments", "norm_vs_twice_lambda0",
                             worst <= eps, worst, eps, len(rows)))

    # Every row to n = 10 has a finite positive ratio, mid-third included;
    # the band is taken over the canonical set.
    canonical, mid = ([row.thm32_ratio for row in sweep_fixed(spec, 10)]
                      for spec in (CantorSpec(5, (0, 1, 2)), CantorSpec(3, (0, 2))))
    ratios = canonical + mid
    finite = all(math.isfinite(r) and r > 0.0 for r in ratios)
    band = max(canonical) / min(canonical) if finite else math.inf
    out.append(PropertyCheck("experiments", "bounded_ratio_band",
                             finite and band <= 10.0, band, 10.0, len(ratios),
                             note="canonical max/min of thm32_ratio"))

    ratios = [r for _, r in sweep_reverse_counterexample(3, 2, 8)]
    positive = all(r > 0.0 for r in ratios)
    worst = (max([0.0] + [r2 - r1 for r1, r2 in zip(ratios[1:-1], ratios[2:])])
             if positive else math.inf)
    out.append(PropertyCheck("experiments", "reverse_ratio_decreasing",
                             positive and worst <= 0.0, worst, 0.0, len(ratios),
                             note="positive and monotone past n=1"))

    n_max = 20
    result = sweep_indexed_decay(n_max=n_max, seed=seed)
    upper = -result.fitted_beta + 2.0 * result.beta_stderr
    out.append(PropertyCheck("experiments", "indexed_decay_slope",
                             upper < 0.0, upper, 0.0, math.ceil(n_max / 2),
                             note="slope + 2 stderr of ln lambda0 fit"))

    return out


_SUITES = {
    "special_fn": special_suite,
    "cantor": cantor_suite,
    "operator": operator_suite,
    "experiments": experiments_suite,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(names=("all",), seed: int = 0, samples: int = 300,
               tol: float | None = None) -> list[PropertyCheck]:
    """Run the named suites (or every suite) and collect their checks; a
    check that drew no sample fails.  samples must be at least 1 and tol,
    if given, finite and nonnegative."""
    if not samples >= 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    chosen = list(SUITE_NAMES) if "all" in names else list(names)
    for name in chosen:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; "
                             f"choose from {', '.join(SUITE_NAMES)} or all")
    checks = []
    for name in chosen:
        checks.extend(replace(c, passed=c.passed and c.samples > 0)
                      for c in _SUITES[name](seed=seed, samples=samples, tol=tol))
    return checks
