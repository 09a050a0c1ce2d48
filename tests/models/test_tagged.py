"""Tagged-job analysis tests: the strongest internal-consistency checks in
the suite (Little's-law decomposition must hold exactly)."""

import numpy as np
import pytest

from repro.models import (
    MMPP2,
    TagsBreakdown,
    TagsExponential,
    TagsHyperExponential,
    TagsMMPP,
    TagsMultiNode,
)
from repro.models.tagged import TaggedJobAnalysis


@pytest.fixture(scope="module")
def low_loss():
    # lam = 3 with K = 8 drives node-2 drops below 1e-8, so the paper's
    # W = L/X and E[T | completed] coincide to test precision
    m = TagsExponential(lam=3.0, mu=10.0, t=40.0, n=3, K1=8, K2=8)
    return m, TaggedJobAnalysis(m)


@pytest.fixture(scope="module")
def overloaded():
    m = TagsExponential(lam=13.0, mu=10.0, t=42.0, n=3, K1=5, K2=5)
    return m, TaggedJobAnalysis(m)


class TestOutcomeProbabilities:
    def test_sum_to_one(self, low_loss):
        _, tagged = low_loss
        probs = tagged.outcome_probabilities()
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_match_flow_ratios(self, low_loss):
        """P[complete at node 1] must equal the node-1 service share of
        accepted jobs (every accepted job is exchangeable under FCFS +
        exponential demands)."""
        model, tagged = low_loss
        m = model.metrics()
        accepted = m.offered_load - m.loss_per_node[0]
        probs = tagged.outcome_probabilities()
        assert probs["done1"] == pytest.approx(
            m.extra["service1_throughput"] / accepted, rel=1e-8
        )
        assert probs["done2"] == pytest.approx(
            m.extra["service2_throughput"] / accepted, rel=1e-8
        )
        assert probs.get("dropped", 0.0) == pytest.approx(
            m.loss_per_node[1] / accepted, rel=1e-6, abs=1e-12
        )

    def test_overload_has_drops(self, overloaded):
        _, tagged = overloaded
        assert tagged.outcome_probabilities()["dropped"] > 0.001


class TestLittleDecomposition:
    @pytest.mark.parametrize("fixture", ["low_loss", "overloaded"])
    def test_exact_decomposition(self, fixture, request):
        """L = X_c * E[T | completed] + d * E[T | dropped], exactly."""
        model, tagged = request.getfixturevalue(fixture)
        m = model.metrics()
        accepted = m.offered_load - m.loss_per_node[0]
        probs = tagged.outcome_probabilities()
        means = tagged.mean_response_by_outcome()
        L_reconstructed = accepted * sum(
            probs[k] * means[k] for k in probs if probs[k] > 0
        )
        assert L_reconstructed == pytest.approx(m.mean_jobs, rel=1e-7)

    def test_low_loss_mean_matches_littles_law(self, low_loss):
        model, tagged = low_loss
        m = model.metrics()
        assert tagged.mean_response_completed() == pytest.approx(
            m.response_time, rel=1e-4
        )

    def test_overload_littles_W_between_conditional_means(self, overloaded):
        """With drops, the paper's W = L/X need not equal E[T|completed];
        dropped jobs spend only node-1 time, so E[T|dropped] < E[T|done2]."""
        _, tagged = overloaded
        means = tagged.mean_response_by_outcome()
        assert means["dropped"] < means["done2"]


class TestResponseDistribution:
    def test_cdf_monotone_to_one(self, low_loss):
        _, tagged = low_loss
        xs = np.array([0.05, 0.1, 0.2, 0.5, 1.0, 3.0])
        cdf = tagged.response_cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-9)
        assert cdf[-1] > 0.999

    def test_cdf_mean_consistency(self, low_loss):
        """Integrate the complementary CDF and compare with the mean."""
        _, tagged = low_loss
        xs = np.linspace(0.0, 4.0, 160)
        cdf = tagged.response_cdf(xs)
        mean_from_cdf = float(np.trapezoid(1.0 - cdf, xs))
        # trapezoid discretisation + truncated tail: ~0.5% accuracy
        assert mean_from_cdf == pytest.approx(
            tagged.mean_response_completed(), rel=5e-3
        )

    def test_p99_exceeds_mean(self, low_loss):
        _, tagged = low_loss
        mean = tagged.mean_response_completed()
        assert tagged.response_cdf([mean])[0] > 0.5  # right-skewed
        # the 99th percentile is far above the mean for TAGS (restarts)
        assert tagged.response_cdf([3 * mean])[0] < 0.999


class TestValidation:
    def test_dynamic_timeout_unsupported(self):
        m = TagsExponential(
            lam=5, mu=10, t=40, n=2, K1=3, K2=3, t_of_q1=lambda q: 40.0
        )
        with pytest.raises(NotImplementedError):
            TaggedJobAnalysis(m)

    def test_heterogeneous_nodes_supported(self):
        m = TagsExponential(
            lam=5, mu=10, t=40, n=2, K1=3, K2=3, mu2_service=20.0
        )
        tagged = TaggedJobAnalysis(m)
        probs = tagged.outcome_probabilities()
        assert sum(probs.values()) == pytest.approx(1.0)


_EXP = dict(lam=5, mu=10, t=20, n=3, K1=4, K2=4)
_H2 = dict(lam=5, alpha=0.9, mu1=20, mu2=2, t=20, n=3, K1=4, K2=4)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TaggedJobAnalysis(TagsExponential(**_EXP)),
        lambda: TaggedJobAnalysis(
            TagsExponential(**_EXP, mu2_service=4, t2=20)
        ),
        lambda: TaggedJobAnalysis(TagsHyperExponential(**_H2)),
        lambda: TaggedJobAnalysis(
            TagsHyperExponential(**_H2, alpha_prime=0.0)
        ),
        lambda: TaggedJobAnalysis(
            TagsHyperExponential(**_H2, alpha_prime=1.0)
        ),
    ],
    ids=["exp", "exp-heterogeneous", "h2", "h2-alpha-prime-0", "h2-alpha-prime-1"],
)
def test_decomposition_matches_chain_on_every_accepted_variant(make):
    """lam_acc * sum_o P[o] E[T | o] is the chain's L on every variant
    the analyses accept, including the degenerate alpha_prime that
    drops a repeatservice branch (zero-rate transitions never enter
    the tagged chain)."""
    tagged = make()
    m = tagged.model.metrics()
    accepted = m.offered_load - m.loss_per_node[0]
    probs = tagged.outcome_probabilities()
    means = tagged.mean_response_by_outcome()
    L = accepted * sum(probs[k] * means[k] for k in probs if probs[k] > 0)
    assert L == pytest.approx(m.mean_jobs, rel=1e-9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TaggedJobAnalysis(
            TagsExponential(**_EXP, tick_during_residual=True)
        ),
        lambda: TaggedJobAnalysis(TagsExponential(**_EXP, restart_work=False)),
        lambda: TaggedJobAnalysis(
            TagsHyperExponential(**_H2, tick_during_residual=True)
        ),
    ],
    ids=["exp-tick-during-residual", "exp-resume", "h2-tick-during-residual"],
)
def test_unsupported_node2_variants_raise(make):
    """The tagged node-2 successors restart work and freeze the repeat
    clock in the residual; the variants that do otherwise are refused
    rather than answered wrongly."""
    with pytest.raises(NotImplementedError):
        make()


@pytest.mark.parametrize(
    "model",
    [
        TagsMMPP(MMPP2(2.0, 14.0, 0.5, 1.0), n=2, K1=3, K2=3),
        TagsMultiNode(n=2, capacities=(3, 3)),
        TagsBreakdown(n=2, K1=3, K2=3),
    ],
    ids=lambda m: type(m).__name__,
)
def test_unsupported_model_classes_raise(model):
    """Chains without a two-node Poisson service description are refused
    by name, not failed on a missing attribute."""
    with pytest.raises(NotImplementedError, match=type(model).__name__):
        TaggedJobAnalysis(model)


def test_h2_with_equal_rates_equals_exponential():
    """mu1 == mu2 collapses the H2 tagged chain to the exponential one:
    one tagged chain serves both service kinds."""
    exp = TaggedJobAnalysis(
        TagsExponential(lam=5, mu=10, t=30, n=3, K1=5, K2=5)
    )
    h2 = TaggedJobAnalysis(
        TagsHyperExponential(
            lam=5, alpha=0.5, mu1=10.0, mu2=10.0, t=30.0, n=3, K1=5, K2=5
        )
    )
    for got, want in (
        (h2.outcome_probabilities(), exp.outcome_probabilities()),
        (h2.mean_response_by_outcome(), exp.mean_response_by_outcome()),
    ):
        assert got.keys() == want.keys()
        for k in want:
            assert got[k] == pytest.approx(want[k], rel=1e-9), k
