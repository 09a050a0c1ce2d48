"""The paper's queueing models.

The TAGS models are PEPA models faithful to the paper's figures (built
programmatically, analysable with :mod:`repro.pepa`), and their model
classes solve them on the compiled engine (:mod:`repro.pepa.compiled`):
each chain has one construction, explored once per structure and
refilled per rate point.  The shortest-queue and round-robin
baselines are built directly over tuple states on one base,
:class:`repro.ctmc.bfs.TupleChain`.  Every stationary model class solves
through :class:`repro.ctmc.bfs.Chain` (memoised ``pi``,
``throughput(action)``).

Modules
-------
``tags_pepa``      the one TAGS PEPA builder (Figure 3; N nodes, MMPP
                   arrivals; exponential service phases, two of which
                   give Figure 5) and ``TagsExponential`` / ``TagsPepa``
                   (heterogeneous, dynamic-timeout and resume extensions).
``tags_hyper``     ``TagsHyperExponential``: Figure 5 (H2-service TAGS),
                   built by the ``tags_pepa`` builder with two phases.
``tags_figure4``   the Figure 4 (per-place alternative) PEPA model.
``tags_multinode`` the N-node TAGS extension (the builder's line of nodes).
``random_alloc``   Appendix A weighted random allocation (exp analytic,
                   H2 via M/PH/1/K).
``shortest_queue`` Appendix B shortest-queue strategy: the Appendix B
                   PEPA model (oracle) and the direct tuple chain over
                   head-phase states (H2 service; exponential is the
                   one-phase case).
``round_robin``    round robin on the same head-phase queue pair.
``bursty``         MMPP2 arrivals; TAGS (PEPA) and JSQ chains under them.
``tagged``         the tagged-job chain (response-time distributions) of
                   the exponential and H2 TAGS models.
``tags_breakdown`` breakdown/repair-extended TAGS (node-2 failure), the
                   CTMC ground truth for ``repro.faults`` injection,
                   solved on the compiled engine like Figure 3.
``mm1k``           analytic M/M/1/K formulas.
``mph1k``          M/PH/1/K matrix model.
``metrics``        the shared metric record all solvers return, and the
                   finite-positive rate check (``check_rates``).
"""

from repro.models.metrics import QueueMetrics
from repro.models.mm1k import MM1K
from repro.models.mmck import MMcK, erlang_b, erlang_c
from repro.models.mph1k import MPH1K
from repro.models.tags_breakdown import TagsBreakdown, build_tags_breakdown_model
from repro.models.tags_pepa import (
    TagsExponential,
    TagsPepa,
    build_tags_model,
    tags_pepa_metrics,
)
from repro.models.tags_hyper import TagsHyperExponential, tags_h2_pepa_metrics
from repro.models.tags_multinode import TagsMultiNode
from repro.models.random_alloc import RandomAllocation
from repro.models.round_robin import RoundRobin
from repro.models.tags_figure4 import Figure4Model
from repro.models.bursty import MMPP2, ShortestQueueMMPP, TagsMMPP
from repro.models.tagged import TaggedJobAnalysis
from repro.models.analytic import (
    mg1_response_time,
    mg1_waiting_time,
    mm1_response_time,
)
from repro.models.shortest_queue import ShortestQueue, build_jsq_pepa_model

__all__ = [
    "QueueMetrics",
    "MM1K",
    "MMcK",
    "erlang_b",
    "erlang_c",
    "MPH1K",
    "build_tags_model",
    "tags_pepa_metrics",
    "TagsPepa",
    "TagsBreakdown",
    "build_tags_breakdown_model",
    "tags_h2_pepa_metrics",
    "TagsExponential",
    "TagsHyperExponential",
    "TagsMultiNode",
    "Figure4Model",
    "MMPP2",
    "ShortestQueueMMPP",
    "TagsMMPP",
    "TaggedJobAnalysis",
    "mg1_response_time",
    "mg1_waiting_time",
    "mm1_response_time",
    "RandomAllocation",
    "RoundRobin",
    "ShortestQueue",
    "build_jsq_pepa_model",
]
