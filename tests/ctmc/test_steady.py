"""Steady-state solver tests: all solvers must agree with closed forms."""

import numpy as np
import pytest

from repro.ctmc import Generator, SteadyStateError, steady_state
from repro.ctmc.steady import (
    GTH_CUTOFF,
    steady_state_direct,
    steady_state_gth,
    steady_state_power,
)

ALL_SOLVERS = [
    steady_state_gth,
    steady_state_direct,
    steady_state_power,
]


def birth_death(lam, mu, K):
    """M/M/1/K generator; stationary dist is truncated geometric."""
    src, dst, rate = [], [], []
    for i in range(K):
        src.append(i), dst.append(i + 1), rate.append(lam)
        src.append(i + 1), dst.append(i), rate.append(mu)
    return Generator.from_triples(K + 1, src, dst, rate)


def mm1k_exact(lam, mu, K):
    rho = lam / mu
    p = rho ** np.arange(K + 1)
    return p / p.sum()


@pytest.mark.parametrize("solver", ALL_SOLVERS)
class TestAgainstClosedForm:
    def test_two_state(self, solver):
        g = Generator.from_triples(2, [0, 1], [1, 0], [2.0, 3.0])
        pi = solver(g)
        np.testing.assert_allclose(pi, [0.6, 0.4], atol=1e-8)

    def test_mm1k(self, solver):
        g = birth_death(2.0, 5.0, 10)
        np.testing.assert_allclose(solver(g), mm1k_exact(2.0, 5.0, 10), atol=1e-7)

    def test_mm1k_overloaded(self, solver):
        g = birth_death(8.0, 2.0, 8)
        np.testing.assert_allclose(solver(g), mm1k_exact(8.0, 2.0, 8), atol=1e-7)

    def test_stiff_rates(self, solver):
        # rates spanning 6 orders of magnitude
        g = birth_death(1e-3, 1e3, 4)
        pi = solver(g)
        np.testing.assert_allclose(pi, mm1k_exact(1e-3, 1e3, 4), atol=1e-9)


class TestDispatch:
    def test_auto_small_uses_gth(self):
        g = birth_death(1.0, 2.0, 5)
        np.testing.assert_allclose(
            steady_state(g, "auto"), mm1k_exact(1.0, 2.0, 5), atol=1e-8
        )

    def test_accepts_raw_matrix(self):
        Q = np.array([[-1.0, 1.0], [4.0, -4.0]])
        np.testing.assert_allclose(steady_state(Q), [0.8, 0.2], atol=1e-9)

    def test_unknown_method(self):
        g = birth_death(1.0, 2.0, 2)
        with pytest.raises(ValueError, match="unknown method"):
            steady_state(g, "does-not-exist")

    def test_single_state(self):
        np.testing.assert_allclose(steady_state(np.zeros((1, 1))), [1.0])

    def test_larger_chain_auto(self):
        g = birth_death(3.0, 4.0, 300)
        np.testing.assert_allclose(
            steady_state(g), mm1k_exact(3.0, 4.0, 300), atol=1e-7
        )


class TestFailureModes:
    def test_reducible_chain_gth_raises(self):
        # state 1 absorbing: not irreducible
        g = Generator.from_triples(2, [0], [1], [1.0])
        with pytest.raises(SteadyStateError):
            steady_state_gth(g)

    def test_empty_chain(self):
        with pytest.raises(SteadyStateError, match="empty"):
            steady_state(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", ["auto", "gth", "direct", "power"])
    def test_non_finite_generator_rejected(self, bad, method):
        """A nan/inf rate is a caller bug: refused before any solver runs
        (nan used to pass to the auto chain and exhaust every method)."""
        # the transition assembler refuses such a rate itself, so the bad
        # generator is built from its matrix, unvalidated
        Q = np.array([[-1.0, 1.0, 0.0], [0.0, -bad, bad], [2.0, 0.0, -2.0]])
        g = Generator.from_dense(Q, validate=False)
        with pytest.raises(ValueError, match="non-finite"):
            steady_state(g, method=method)


class TestAutoFallback:
    """auto mode: try the preferred chain, record what failed, chain the
    original error when everything fails."""

    def _failing(self, exc_msg):
        def solver(Q, tol=1e-8, **kw):
            raise SteadyStateError(exc_msg)

        return solver

    def test_first_solver_failure_falls_through(self, monkeypatch):
        import repro.ctmc.steady as steady_mod

        monkeypatch.setattr(
            steady_mod, "steady_state_gth", self._failing("gth exploded")
        )
        g = birth_death(1.0, 2.0, 5)  # small: chain starts at gth
        info = {}
        pi = steady_state(g, "auto", info=info)
        np.testing.assert_allclose(pi, mm1k_exact(1.0, 2.0, 5), atol=1e-8)
        assert info["fallbacks"] == [
            {"method": "gth", "error": "gth exploded"}
        ]
        assert info["method"] == "direct"  # the solver that succeeded

    def test_mid_size_chain_falls_back_direct_then_power(self, monkeypatch):
        import repro.ctmc.steady as steady_mod

        monkeypatch.setattr(
            steady_mod, "steady_state_direct", self._failing("direct exploded")
        )
        g = birth_death(3.0, 4.0, 40)  # 41 states: chain starts at direct
        info = {}
        pi = steady_state(g, "auto", info=info)
        np.testing.assert_allclose(pi, mm1k_exact(3.0, 4.0, 40), atol=1e-9)
        assert info["fallbacks"] == [
            {"method": "direct", "error": "direct exploded"}
        ]
        assert info["method"] == "power"

    def test_clean_solve_records_empty_fallbacks(self):
        info = {}
        steady_state(birth_death(1.0, 2.0, 5), "auto", info=info)
        assert info["fallbacks"] == []

    def test_total_failure_chains_the_first_error(self, monkeypatch):
        import repro.ctmc.steady as steady_mod

        for name in (
            "steady_state_gth",
            "steady_state_direct",
            "steady_state_power",
        ):
            monkeypatch.setattr(
                steady_mod, name, self._failing(f"{name} failed")
            )
        info = {}
        with pytest.raises(SteadyStateError, match="all auto solvers") as ei:
            steady_state(birth_death(1.0, 2.0, 5), "auto", info=info)
        # the first solver's original exception rides along as __cause__
        assert isinstance(ei.value.__cause__, SteadyStateError)
        assert "steady_state_gth failed" in str(ei.value.__cause__)
        assert [f["method"] for f in info["fallbacks"]] == [
            "gth",
            "direct",
            "power",
        ]

    def test_explicit_method_never_falls_back(self, monkeypatch):
        import repro.ctmc.steady as steady_mod

        monkeypatch.setattr(
            steady_mod, "steady_state_gth", self._failing("gth exploded")
        )
        with pytest.raises(SteadyStateError, match="gth exploded"):
            steady_state(birth_death(1.0, 2.0, 5), "gth")

    def test_fallback_counted_by_obs(self, monkeypatch):
        from repro import obs

        import repro.ctmc.steady as steady_mod

        monkeypatch.setattr(
            steady_mod, "steady_state_gth", self._failing("boom")
        )
        with obs.use(obs.Recorder()) as rec:
            steady_state(birth_death(1.0, 2.0, 5), "auto")
        assert rec.counter("steady.fallback") == 1


class TestGthOracle:
    """Above ``GTH_CUTOFF`` states ``auto`` solves by the sparse LU; dense
    GTH, the subtraction-free solver, is its oracle on the structure-scan
    shapes of the Figure 3 chain (35 to 2793 states)."""

    @staticmethod
    def _fig3(K, n):
        from repro.models import TagsExponential

        return TagsExponential(lam=5.0, mu=10.0, t=51.0, n=n, K1=K, K2=K).generator

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("K", [2, 4, 6, 8])
    def test_auto_is_direct_and_agrees_with_gth(self, K, n):
        g = self._fig3(K, n)
        assert g.n_states > GTH_CUTOFF
        info = {}
        pi = steady_state(g, "auto", info=info)
        assert info["method"] == "direct"
        assert info["fallbacks"] == []
        ref = steady_state_gth(g)
        assert np.max(np.abs(pi - ref) / ref) <= 1e-12

    def test_chain_at_cutoff_uses_gth(self):
        g = self._fig3(1, 4)
        assert g.n_states == GTH_CUTOFF
        info = {}
        steady_state(g, "auto", info=info)
        assert info["method"] == "gth"
        assert info["fallbacks"] == []


class TestCrossSolverAgreement:
    def test_random_reversible_chain(self):
        rng = np.random.default_rng(42)
        n = 40
        # build an irreducible chain: ring + random extra edges
        src = list(range(n)) + list(range(n))
        dst = [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)]
        rate = list(rng.uniform(0.5, 5.0, 2 * n))
        extra = rng.integers(0, n, size=(30, 2))
        for a, b in extra:
            if a != b:
                src.append(int(a)), dst.append(int(b))
                rate.append(float(rng.uniform(0.1, 2.0)))
        g = Generator.from_triples(n, src, dst, rate)
        ref = steady_state_gth(g)
        for solver in ALL_SOLVERS[1:]:
            np.testing.assert_allclose(solver(g), ref, atol=1e-6)


class TestOrderedDirect:
    """``steady_state_direct`` orders once per sparsity pattern and
    factors every point, the first included, the same way."""

    T_GRID = (20.0, 35.0, 50.0, 65.0, 80.0)

    @pytest.fixture
    def fresh_plans(self, monkeypatch):
        from collections import OrderedDict

        import repro.ctmc.steady as steady_mod

        monkeypatch.setattr(steady_mod, "_plans", OrderedDict())
        return steady_mod

    @staticmethod
    def _fig3(t):
        from repro.experiments import FIG6_PARAMS
        from repro.models import TagsExponential

        return TagsExponential(**FIG6_PARAMS, t=t).generator

    def test_result_independent_of_solve_order(self, monkeypatch):
        from collections import OrderedDict

        import repro.ctmc.steady as steady_mod

        a, b = self._fig3(20.0), self._fig3(80.0)
        assert a.n_states > steady_mod.GTH_CUTOFF

        def in_fresh_cache(first, second):
            monkeypatch.setattr(steady_mod, "_plans", OrderedDict())
            return steady_state_direct(first), steady_state_direct(second)

        pa, pb = in_fresh_cache(a, b)
        pb2, pa2 = in_fresh_cache(b, a)
        assert np.array_equal(pa, pa2)
        assert np.array_equal(pb, pb2)

    def test_order_computed_once_per_pattern(self, fresh_plans, monkeypatch):
        import scipy.sparse.linalg as spla

        from repro import obs
        from repro.experiments import FIG6_PARAMS
        from repro.models import TagsExponential
        from repro.sweep import SweepEngine

        calls = []
        spilu = spla.spilu

        def counting_spilu(*args, **kw):
            calls.append(1)
            return spilu(*args, **kw)

        monkeypatch.setattr(spla, "spilu", counting_spilu)
        grid = [dict(FIG6_PARAMS, t=t) for t in self.T_GRID]
        with obs.use(obs.Recorder()) as rec:
            SweepEngine(workers=1, cache=False).sweep(TagsExponential, grid)
        spans = rec.find_spans("steady_state")
        assert len(spans) == len(self.T_GRID)
        assert {s.attrs["ordering"] for s in spans} == {"mmd"}
        assert len(calls) == 1
        assert rec.counter("steady.order") == 1
        assert len(fresh_plans._plans) == 1

    def test_info_reports_fill_ordering_and_residual(self, fresh_plans):
        g = self._fig3(50.0)
        info = {}
        pi = steady_state(g, method="direct", info=info)
        assert info["ordering"] == "mmd"
        assert info["fill"] > g.Q.nnz
        assert info["residual"] == float(np.abs(pi @ g.Q).max())

    def test_stiff_chain_falls_back_to_colamd(self):
        # the mass sits at the last state; the anchor (the first state)
        # has pi ~ 1e-24, and the unpivoted factor misses the residual
        g = birth_death(1e3, 1e-3, 4)
        info = {}
        pi = steady_state_direct(g, info=info)
        assert info["ordering"] == "colamd"
        assert info["fill"] > 0
        np.testing.assert_allclose(pi, mm1k_exact(1e3, 1e-3, 4), atol=1e-9)

    def test_ordering_failure_falls_back(self, fresh_plans, monkeypatch):
        def broken(Q):
            raise RuntimeError("no order")

        monkeypatch.setattr(fresh_plans, "_build_plan", broken)
        info = {}
        pi = steady_state_direct(birth_death(3.0, 4.0, 300), info=info)
        assert info["ordering"] == "colamd"
        np.testing.assert_allclose(pi, mm1k_exact(3.0, 4.0, 300), atol=1e-7)

    @pytest.mark.parametrize("method", ["gth", "power"])
    def test_other_methods_report_residual(self, method):
        g = birth_death(2.0, 5.0, 10)
        info = {}
        pi = steady_state(g, method=method, info=info)
        assert info["residual"] == float(np.abs(pi @ g.Q).max())
        assert info["fill"] is None and info["ordering"] is None

    def test_threads_share_the_plan_cache(self, fresh_plans):
        """More threads than cores and more patterns than cache slots:
        every solve still meets its closed form."""
        import sys
        import threading

        sizes = [50 + k for k in range(fresh_plans._PLAN_CACHE_SIZE + 4)]
        errors = []

        def work(offset):
            try:
                for K in sizes[offset:] + sizes[:offset]:
                    pi = steady_state_direct(birth_death(3.0, 4.0, K))
                    np.testing.assert_allclose(
                        pi, mm1k_exact(3.0, 4.0, K), atol=1e-9
                    )
            except Exception as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(k,)) for k in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(fresh_plans._plans) == fresh_plans._PLAN_CACHE_SIZE
