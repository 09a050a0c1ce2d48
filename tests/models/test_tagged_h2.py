"""Tagged-job analysis for the H2 (Figure 5) chain."""

import numpy as np
import pytest

from repro.models import TagsHyperExponential
from repro.models.tagged import TaggedJobAnalysis

PARAMS = dict(lam=8.0, alpha=0.95, mu1=19.0, mu2=1.0, t=25.0, n=3, K1=5, K2=5)


@pytest.fixture(scope="module")
def tagged():
    model = TagsHyperExponential(**PARAMS)
    return model, TaggedJobAnalysis(model)


class TestOutcomes:
    def test_probabilities_sum_to_one(self, tagged):
        _, tg = tagged
        assert sum(tg.outcome_probabilities().values()) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_match_flow_ratios(self, tagged):
        """Exchangeability holds in the Markovian H2 model (phases are
        drawn at head promotion), so outcome splits equal flow ratios."""
        model, tg = tagged
        m = model.metrics()
        accepted = m.offered_load - m.loss_per_node[0]
        probs = tg.outcome_probabilities()
        x1 = m.extra["service1_throughput"] if "service1_throughput" in m.extra else None
        # recompute from the generator's action throughputs
        from repro.ctmc import action_throughput

        x1 = action_throughput(model.generator, model.pi, "service1")
        x2 = action_throughput(model.generator, model.pi, "service2")
        assert probs["done1"] == pytest.approx(x1 / accepted, rel=1e-7)
        assert probs["done2"] == pytest.approx(x2 / accepted, rel=1e-7)


class TestLittleDecomposition:
    def test_exact(self, tagged):
        model, tg = tagged
        m = model.metrics()
        accepted = m.offered_load - m.loss_per_node[0]
        probs = tg.outcome_probabilities()
        means = tg.mean_response_by_outcome()
        L = accepted * sum(
            probs[k] * means[k] for k in probs if probs[k] > 0
        )
        assert L == pytest.approx(m.mean_jobs, rel=1e-7)

    def test_restarted_jobs_much_slower(self, tagged):
        _, tg = tagged
        means = tg.mean_response_by_outcome()
        assert means["done2"] > 2 * means["done1"]


class TestDistribution:
    def test_cdf_monotone(self, tagged):
        _, tg = tagged
        xs = np.array([0.05, 0.2, 0.8, 3.0, 10.0])
        cdf = tg.response_cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-9)
        assert cdf[-1] > 0.99

    def test_heavier_tail_than_exponential_case(self, tagged):
        """The H2 workload's long jobs stretch the completed-job tail well
        beyond the exponential chain's at matched mean service."""
        from repro.models import TagsExponential
        from repro.models.tagged import TaggedJobAnalysis

        _, tg_h2 = tagged
        exp_model = TagsExponential(
            lam=8.0, mu=10.0, t=25.0, n=3, K1=5, K2=5
        )
        tg_exp = TaggedJobAnalysis(exp_model)
        x = 3.0
        assert tg_h2.response_cdf([x])[0] < tg_exp.response_cdf([x])[0]
