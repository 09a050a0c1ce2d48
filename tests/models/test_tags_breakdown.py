"""Breakdown-extended TAGS CTMC: the two exact reductions + sanity.

The model earns its keep through two analytically exact pins:

* the breaker is autonomous, so stationary availability equals
  ``repair / (fail + repair)`` regardless of the queueing dynamics;
* permanently down, node 1 is a plain M/M/1/K1 birth-death chain and
  its marginal must match ``models.mm1k`` to solver precision.

Plus a continuity check: a vanishing failure rate recovers the base
Figure 3 model.
"""

import numpy as np
import pytest

from repro import obs
from repro.models import MM1K, TagsBreakdown, TagsExponential

# small state space keeps the whole module fast
SMALL = dict(lam=5.0, mu=10.0, t=51.0, n=3, K1=6, K2=6)


class TestExactReductions:
    def test_availability_is_autonomous(self):
        model = TagsBreakdown(fail=0.02, repair=0.1, **SMALL)
        m = model.metrics()
        assert m.extra["availability"] == pytest.approx(
            model.availability, abs=1e-10
        )
        assert model.availability == pytest.approx(0.1 / 0.12)

    def test_permanently_down_node1_is_mm1k(self):
        model = TagsBreakdown(permanently_down=True, **SMALL)
        marginal = model.node1_marginal()
        exact = MM1K(lam=SMALL["lam"], mu=SMALL["mu"], K=SMALL["K1"]).distribution()
        np.testing.assert_allclose(marginal, exact, atol=1e-10)

    def test_permanently_down_node2_never_serves(self):
        m = TagsBreakdown(permanently_down=True, **SMALL).metrics()
        assert m.extra["service2_throughput"] == pytest.approx(0.0, abs=1e-12)
        assert m.extra["timeout_throughput"] == pytest.approx(0.0, abs=1e-12)
        assert m.extra["availability"] == 0.0


class TestContinuity:
    def test_vanishing_failure_rate_recovers_base_tags(self):
        """fail -> 0 makes the breaker spend all its time Avail; every
        metric converges on the unmodified Figure 3 chain."""
        base = TagsExponential(**SMALL).metrics()
        degraded = TagsBreakdown(fail=1e-7, repair=1.0, **SMALL).metrics()
        assert degraded.throughput == pytest.approx(base.throughput, rel=1e-5)
        assert degraded.mean_jobs == pytest.approx(base.mean_jobs, rel=1e-4)
        assert degraded.extra["availability"] == pytest.approx(1.0, abs=1e-6)

    def test_failure_monotonically_hurts_throughput(self):
        ms = [
            TagsBreakdown(fail=f, repair=0.05, **SMALL).metrics().throughput
            for f in (0.001, 0.01, 0.1)
        ]
        assert ms[0] > ms[1] > ms[2]


class TestStructure:
    def test_state_space_is_base_times_breaker(self):
        """Attaching a 2-state breaker at most doubles the base space
        (reachability may trim the Down-side states)."""
        base = TagsExponential(**SMALL).metrics().extra["n_states"]
        down = TagsBreakdown(fail=0.01, repair=0.05, **SMALL).metrics()
        assert base < down.extra["n_states"] <= 2 * base

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError, match="rates"):
            TagsBreakdown(fail=0.0, repair=0.05, **SMALL).build()
        with pytest.raises(ValueError, match="rates"):
            TagsBreakdown(fail=0.01, repair=-1.0, **SMALL).build()

    def test_metrics_and_marginal_share_one_solve(self):
        model = TagsBreakdown(fail=0.02, repair=0.1, **SMALL)
        with obs.use(obs.Recorder()) as rec:
            model.metrics()
            model.node1_marginal()
        assert len(rec.find_spans("steady_state")) == 1


PIN_SHAPE = dict(lam=5.0, mu=10.0, t=51.0, n=3, K1=4, K2=4)


class TestPinnedValues:
    """Values recorded from the chain built by exploring the breakdown
    PEPA model afresh and parsing its state names on every call; the
    compiled-engine construction reads the same chain, so they hold
    exactly.  ``loss_rate`` is the sum of the measured per-node losses
    (permanently down: 5/31 to one ulp)."""

    @pytest.mark.parametrize(
        "params, expect",
        [
            (
                dict(fail=0.02, repair=0.1),
                dict(
                    n_states=442,
                    mean_jobs=1.0405577248692888,
                    throughput=4.940440909504388,
                    availability=0.8333333333333318,
                    loss_rate=0.05955909049561065,
                    marginal=[
                        0.7468722449214257,
                        0.18755982702669302,
                        0.04570845049551894,
                        0.014187571793983972,
                        0.005671905762378232,
                    ],
                ),
            ),
            (
                dict(permanently_down=True),
                dict(
                    n_states=13,
                    mean_jobs=0.8387096774193549,
                    throughput=4.838709677419355,
                    availability=0.0,
                    loss_rate=0.16129032258064518,
                    marginal=[
                        0.5161290322580645,
                        0.25806451612903225,
                        0.12903225806451613,
                        0.06451612903225806,
                        0.03225806451612904,
                    ],
                ),
            ),
        ],
        ids=["intermittent", "permanently-down"],
    )
    def test_pinned(self, params, expect):
        model = TagsBreakdown(**params, **PIN_SHAPE)
        m = model.metrics()
        assert m.extra["n_states"] == expect["n_states"]
        assert m.mean_jobs == expect["mean_jobs"]
        assert m.throughput == expect["throughput"]
        assert m.extra["availability"] == expect["availability"]
        assert m.loss_rate == expect["loss_rate"]
        assert model.node1_marginal().tolist() == expect["marginal"]
