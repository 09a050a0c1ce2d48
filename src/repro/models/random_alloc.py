"""Weighted random allocation (paper Appendix A, Figure 13).

Jobs are split probabilistically between two independent finite queues; for
the homogeneous systems of the paper's figures the split is 50/50, making
each node an M/M/1/K (exponential service) or M/H2/1/K (hyper-exponential)
queue with arrival rate ``lam / 2``.  Because the queues never interact,
the system metrics are sums/combinations of the per-node closed forms --
the Appendix A PEPA model is the parallel composition ``Queue1 || Queue2``
with no shared actions, and the test suite verifies the product-form
shortcut against that PEPA model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dists.phase_type import PhaseType
from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)
from repro.models.mm1k import MM1K
from repro.models.mph1k import MPH1K

__all__ = ["RandomAllocation", "build_random_pepa_model"]


@dataclass
class RandomAllocation:
    """Random split of a Poisson(lam) stream over two finite nodes.

    ``service`` is either a float (exponential rate ``mu``, the Appendix A
    model) or a :class:`~repro.dists.phase_type.PhaseType` service
    distribution (used for the H2 experiments of Figures 9-12).
    ``split`` is the probability of routing to node 1.
    """

    lam: float
    service: "float | PhaseType"
    K: int = 10
    split: float = 0.5

    def __post_init__(self) -> None:
        if not (0 < self.split < 1):
            raise ValueError("split must be in (0, 1)")
        check_rates(lam=self.lam)
        lam1 = self.lam * self.split
        lam2 = self.lam * (1.0 - self.split)
        if isinstance(self.service, PhaseType):
            self._nodes = (
                MPH1K(lam1, self.service, self.K),
                MPH1K(lam2, self.service, self.K),
            )
        else:
            mu = float(self.service)
            self._nodes = (MM1K(lam1, mu, self.K), MM1K(lam2, mu, self.K))

    @property
    def nodes(self):
        return self._nodes

    def metrics(self) -> QueueMetrics:
        n1, n2 = self._nodes
        return from_population_and_throughput(
            mean_jobs_per_node=(n1.mean_jobs, n2.mean_jobs),
            throughput=n1.throughput + n2.throughput,
            offered_load=self.lam,
            loss_per_node=(n1.loss_rate, n2.loss_rate),
            utilisation=(n1.utilisation, n2.utilisation),
        )


def build_random_pepa_model(lam1: float, lam2: float, mu1: float, mu2: float, N: int):
    """The Appendix A (Figure 13) PEPA model: ``Queue1_0 || Queue2_0``,
    two independent M/M/1/N queues with their own arrival streams."""
    from repro.pepa import (
        Activity,
        Choice,
        Constant,
        Cooperation,
        Model,
        Prefix,
        Rate,
    )

    if min(lam1, lam2, mu1, mu2) <= 0:
        raise ValueError("rates must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")

    def _p(action, rate, target):
        return Prefix(Activity(action, Rate(rate)), Constant(target))

    defs: dict = {}
    for q, lam, mu in ((1, lam1, mu1), (2, lam2, mu2)):
        defs[f"Queue{q}_0"] = _p(f"arrival{q}", lam, f"Queue{q}_1")
        for j in range(1, N):
            defs[f"Queue{q}_{j}"] = Choice(
                _p(f"arrival{q}", lam, f"Queue{q}_{j + 1}"),
                _p(f"service{q}", mu, f"Queue{q}_{j - 1}"),
            )
        defs[f"Queue{q}_{N}"] = _p(f"service{q}", mu, f"Queue{q}_{N - 1}")
    system = Cooperation(Constant("Queue1_0"), Constant("Queue2_0"), frozenset())
    return Model(defs, system)
