"""Sensitivity-analysis tests."""

import pytest

from repro.approx.sensitivity import (
    metric_derivative,
    metric_elasticity,
    tuning_tolerance,
)
from repro.models import MM1K, TagsExponential


class TestDerivative:
    def test_against_closed_form(self):
        """d(mean jobs)/d(lam) of an M/M/1/K has a closed form we can
        verify numerically via a much smaller step."""
        mu, K = 10.0, 8
        factory = lambda lam: MM1K(lam, mu, K)
        d = metric_derivative(factory, 5.0, "mean_jobs")
        h = 1e-7
        ref = (
            MM1K(5.0 + h, mu, K).mean_jobs - MM1K(5.0 - h, mu, K).mean_jobs
        ) / (2 * h)
        assert d == pytest.approx(ref, rel=1e-4)

    def test_zero_slope_at_optimum(self):
        """The derivative of mean jobs wrt t vanishes at the interior
        optimum (t ~ 51 at lam = 5)."""
        factory = lambda t: TagsExponential(lam=5, mu=10, t=t, n=6)
        d_at_opt = metric_derivative(factory, 51.0, "mean_jobs")
        d_away = metric_derivative(factory, 15.0, "mean_jobs")
        assert abs(d_at_opt) < abs(d_away) / 5

    def test_validation(self):
        with pytest.raises(ValueError):
            metric_derivative(lambda t: None, -1.0)


class TestElasticity:
    def test_sign_flips_across_optimum(self):
        """On the paper's own configuration the mean-jobs curve falls
        towards t=51 and rises beyond it (Figure 6's U-shape)."""
        factory = lambda t: TagsExponential(lam=5, mu=10, t=t, n=6, K1=10, K2=10)
        below = metric_elasticity(factory, 25.0, "mean_jobs")
        above = metric_elasticity(factory, 90.0, "mean_jobs")
        assert below < 0 < above

    def test_mm1k_throughput_elasticity_below_one(self):
        """Throughput grows sublinearly in lam once blocking matters."""
        factory = lambda lam: MM1K(lam, 10.0, 5)
        e = metric_elasticity(factory, 9.0, "throughput")
        assert 0 < e < 1


class TestTolerance:
    def test_band_contains_optimum(self):
        factory = lambda t: TagsExponential(lam=11, mu=10, t=t, n=4, K1=6, K2=6)
        band = tuning_tolerance(
            factory, 50.0, "throughput", degradation=0.05,
            x_min=1.0, x_max=2000.0,
        )
        assert band.lo < 50.0 < band.hi
        assert band.relative_width > 0

    def test_band_edges_hit_threshold(self):
        factory = lambda t: TagsExponential(lam=11, mu=10, t=t, n=4, K1=6, K2=6)
        band = tuning_tolerance(
            factory, 50.0, "throughput", degradation=0.05,
            x_min=1.0, x_max=2000.0,
        )
        threshold = band.value_opt * 0.95
        for edge in (band.lo, band.hi):
            v = factory(edge).metrics().throughput
            assert v == pytest.approx(threshold, rel=1e-3)

    def test_flat_metric_returns_range_limits(self):
        """A metric independent of the parameter never degrades."""
        factory = lambda x: MM1K(5.0, 10.0, 8)  # x unused
        band = tuning_tolerance(
            factory, 1.0, "mean_jobs", degradation=0.1, x_min=0.1, x_max=10.0
        )
        assert band.lo == 0.1 and band.hi == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            tuning_tolerance(lambda x: None, 1.0, degradation=1.5)
