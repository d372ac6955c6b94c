"""The seeded `verify` suites, run at a fixed seed.

Every suite here draws at least as many samples as the pytest loops it
took over.  Three of their properties are sampled in the other test files
too, only because those loops draw inputs the suites do not; README's
`verify` paragraph names them.
"""

import pytest

from cantorloc.verify import SUITE_NAMES, run_suites

SEED = 20240818
SAMPLES = {"special_fn": 1000, "cantor": 10_000, "operator": 1000, "experiments": 300}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_passes(suite):
    checks = run_suites((suite,), seed=SEED, samples=SAMPLES[suite])
    failed = [f"{c.suite}.{c.name} worst={c.worst:.3e} tol={c.tol:.3e}"
              for c in checks if not c.passed]
    assert not failed, "; ".join(failed)


@pytest.mark.parametrize("samples, tol", [(0, None), (-3, None), (300, float("inf")),
                                          (300, float("nan")), (300, -1.0)])
def test_run_suites_refuses_no_samples_and_a_bad_tolerance(samples, tol):
    with pytest.raises(ValueError):
        run_suites(("special_fn",), samples=samples, tol=tol)
