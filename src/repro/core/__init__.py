"""The paper's primary contribution, in one import.

This facade gathers the PEPA models of the TAGS policy with bounded
queues, the sweepable model classes that solve them, the baseline
strategies they are compared against, the Section 4 timeout
approximations, and the figure-regeneration functions::

    from repro.core import TagsExponential, ShortestQueue, figure9

    print(TagsExponential(lam=5, mu=10, t=51).metrics().response_time)

Everything here is re-exported from the implementing subpackages; see
``repro.models``, ``repro.approx`` and ``repro.experiments`` for the full
APIs.
"""

from repro.approx import (
    TagsFixedPoint,
    erlang_balance_rate,
    exponential_balance_rate,
    optimise_timeout,
)
from repro.batch import tags_batch_mean_response
from repro.experiments import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    render_figure,
    state_space_table,
)
from repro.models import (
    QueueMetrics,
    RandomAllocation,
    ShortestQueue,
    TagsExponential,
    TagsHyperExponential,
    TagsMultiNode,
    build_tags_model,
    tags_h2_pepa_metrics,
    tags_pepa_metrics,
)
from repro.models.tags_hyper import TagsH2Parameters
from repro.models.tags_pepa import TagsParameters

__all__ = [
    "TagsParameters",
    "TagsH2Parameters",
    "build_tags_model",
    "tags_pepa_metrics",
    "tags_h2_pepa_metrics",
    "TagsExponential",
    "TagsHyperExponential",
    "TagsMultiNode",
    "RandomAllocation",
    "ShortestQueue",
    "QueueMetrics",
    "TagsFixedPoint",
    "exponential_balance_rate",
    "erlang_balance_rate",
    "optimise_timeout",
    "tags_batch_mean_response",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "render_figure",
    "state_space_table",
]
