"""Warm-start (``pi0``) correctness for power iteration.

For a fixed chain, a warm-started solve must reach the same stationary
distribution as GTH regardless of the quality of the guess, and a
malformed guess must fail loudly with a clear error.
"""

import numpy as np
import pytest

from repro.ctmc import Generator, steady_state
from repro.ctmc.steady import steady_state_gth, steady_state_power

ITERATIVE_SOLVERS = [steady_state_power]

TOL = 1e-8


def birth_death(lam, mu, K):
    src, dst, rate = [], [], []
    for i in range(K):
        src.append(i), dst.append(i + 1), rate.append(lam)
        src.append(i + 1), dst.append(i), rate.append(mu)
    return Generator.from_triples(K + 1, src, dst, rate)


@pytest.fixture(scope="module")
def chain():
    return birth_death(3.0, 5.0, 25)


@pytest.fixture(scope="module")
def reference(chain):
    return steady_state_gth(chain, tol=TOL)


@pytest.mark.parametrize("solver", ITERATIVE_SOLVERS)
class TestWarmStartMatchesGth:
    def test_exact_guess(self, solver, chain, reference):
        """Warm-starting at the answer converges to the answer."""
        pi = solver(chain, tol=TOL, pi0=reference)
        np.testing.assert_allclose(pi, reference, atol=TOL)

    def test_perturbed_guess(self, solver, chain, reference):
        rng = np.random.default_rng(7)
        pi0 = np.maximum(reference + rng.normal(0, 1e-3, reference.size), 0.0)
        pi = solver(chain, tol=TOL, pi0=pi0)
        np.testing.assert_allclose(pi, reference, atol=TOL)

    def test_unnormalised_guess_is_normalised(self, solver, chain, reference):
        pi = solver(chain, tol=TOL, pi0=reference * 37.5)
        np.testing.assert_allclose(pi, reference, atol=TOL)

    def test_uniform_guess_matches_cold(self, solver, chain, reference):
        """pi0=uniform must equal the cold-start result exactly: the cold
        start *is* uniform."""
        n = chain.Q.shape[0]
        cold = solver(chain, tol=TOL)
        warm = solver(chain, tol=TOL, pi0=np.full(n, 1.0 / n))
        np.testing.assert_array_equal(cold, warm)


@pytest.mark.parametrize("solver", ITERATIVE_SOLVERS)
class TestBadPi0:
    def test_wrong_length(self, solver, chain):
        with pytest.raises(ValueError, match="length"):
            solver(chain, pi0=np.ones(3))

    def test_negative_entries(self, solver, chain):
        pi0 = np.full(chain.Q.shape[0], 1.0)
        pi0[0] = -0.5
        with pytest.raises(ValueError, match="negative"):
            solver(chain, pi0=pi0)

    def test_non_finite(self, solver, chain):
        pi0 = np.full(chain.Q.shape[0], 1.0)
        pi0[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solver(chain, pi0=pi0)

    def test_zero_sum(self, solver, chain):
        with pytest.raises(ValueError, match="sums to zero"):
            solver(chain, pi0=np.zeros(chain.Q.shape[0]))

    def test_wrong_ndim(self, solver, chain):
        n = chain.Q.shape[0]
        with pytest.raises(ValueError, match="1-D"):
            solver(chain, pi0=np.ones((n, 1)))


class TestDispatchPlumbing:
    def test_pi0_forwarded_to_iterative(self, chain, reference):
        info = {}
        pi = steady_state(chain, method="power", pi0=reference, info=info)
        np.testing.assert_allclose(pi, reference, atol=TOL)
        assert info["warm_started"] is True
        assert info["method"] == "power"
        assert info["iterations"] >= 0

    def test_pi0_bad_via_dispatch(self, chain):
        with pytest.raises(ValueError, match="length"):
            steady_state(chain, method="power", pi0=np.ones(2))

    def test_direct_methods_ignore_pi0(self, chain, reference):
        """gth/direct do not iterate; a pi0 (even a bad one) is ignored."""
        for method in ("gth", "direct"):
            info = {}
            pi = steady_state(chain, method=method, pi0=np.ones(3), info=info)
            np.testing.assert_allclose(pi, reference, atol=1e-7)
            assert info["warm_started"] is False
            assert info["iterations"] is None

    def test_info_records_iteration_savings(self, chain, reference):
        """A warm start from the answer must not iterate longer than a
        cold start (the whole point of threading pi0 through sweeps)."""
        cold, warm = {}, {}
        steady_state(chain, method="power", info=cold)
        steady_state(chain, method="power", pi0=reference, info=warm)
        assert warm["iterations"] <= cold["iterations"]
