"""Experiment X14: response-time distributions via tagged jobs.

The paper reports only mean response times; a tagged-job absorbing chain
yields the full distribution.  The headline: at the Figure 6 optimum the
mean hides a strongly bimodal sojourn -- jobs completing at node 1 take
~1 mean service, restarted jobs take an order of magnitude longer -- and
the Little's-law decomposition over exit classes holds exactly.
"""

import numpy as np

from repro.experiments import render_table
from repro.models import TagsExponential, TagsHyperExponential
from repro.models.tagged import TaggedJobAnalysis


def test_response_time_distribution(once):
    lam, mu, t, n, K = 5.0, 10.0, 51.0, 6, 10

    def compute():
        model = TagsExponential(lam=lam, mu=mu, t=t, n=n, K1=K, K2=K)
        tagged = TaggedJobAnalysis(model)
        probs = tagged.outcome_probabilities()
        means = tagged.mean_response_by_outcome()
        xs = np.array([0.05, 0.1, 0.2, 0.4, 0.8, 1.6])
        cdf = tagged.response_cdf(xs)
        return model.metrics(), probs, means, xs, cdf

    metrics, probs, means, xs, cdf = once(compute)
    print()
    print(f"X14: tagged-job analysis at the Figure 6 optimum (t={t:g})")
    print(
        render_table(
            ["outcome", "probability", "E[T | outcome]"],
            [[k, probs.get(k, 0.0), means.get(k, float('nan'))]
             for k in ("done1", "done2", "dropped")],
        )
    )
    print()
    print(render_table(["x", "P[T <= x | completed]"], list(zip(xs, cdf))))

    # exact Little decomposition
    accepted = metrics.offered_load - metrics.loss_per_node[0]
    L = accepted * sum(
        probs[k] * means[k] for k in probs if probs[k] > 0
    )
    print(f"\nLittle check: reconstructed L = {L:.6f} "
          f"vs steady-state L = {metrics.mean_jobs:.6f}")
    np.testing.assert_allclose(L, metrics.mean_jobs, rtol=1e-6)

    # the bimodality the mean hides
    assert means["done2"] > 4 * means["done1"]
    # ~2/3 of jobs finish at node 1 at these parameters
    assert 0.5 < probs["done1"] < 0.8


def test_response_time_distribution_h2(once):
    """The same analysis on the Figure 5 (H2 service) chain at paper
    size: one tagged chain serves both service kinds."""
    model = TagsHyperExponential()

    def compute():
        tagged = TaggedJobAnalysis(model)
        return (
            model.metrics(),
            tagged.outcome_probabilities(),
            tagged.mean_response_by_outcome(),
        )

    metrics, probs, means = once(compute)
    print()
    print(f"X14: tagged-job analysis on the Figure 5 chain (t={model.t:g})")
    print(
        render_table(
            ["outcome", "probability", "E[T | outcome]"],
            [[k, probs.get(k, 0.0), means.get(k, float("nan"))]
             for k in ("done1", "done2", "dropped")],
        )
    )
    accepted = metrics.offered_load - metrics.loss_per_node[0]
    L = accepted * sum(probs[k] * means[k] for k in probs if probs[k] > 0)
    print(f"\nLittle check: reconstructed L = {L:.6f} "
          f"vs steady-state L = {metrics.mean_jobs:.6f}")
    np.testing.assert_allclose(L, metrics.mean_jobs, rtol=1e-6)
