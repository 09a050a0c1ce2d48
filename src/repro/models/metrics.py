"""The metric record shared by all model solvers.

The paper's finite-queue evaluation revolves around three quantities
(Section 1): **throughput**, **average queue length** and **average
response time** via Little's law on the *successful* throughput.  Loss
splits into drops on arrival at node 1 and drops of timed-out jobs at
node 2 (the latter represent wasted work, Section 1's key observation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def check_rates(**rates) -> None:
    """Raise ``ValueError`` unless every rate is finite and positive.

    ``nan`` fails every comparison, so ``min(...) <= 0`` would let it
    through to a solver that can only diverge; ``0 < r < inf`` cannot.
    """
    for name, value in rates.items():
        if not 0 < value < math.inf:
            raise ValueError(
                f"rates must be finite and positive, got {name}={value!r}"
            )


@dataclass(frozen=True)
class QueueMetrics:
    """Steady-state performance measures of one system configuration.

    Attributes
    ----------
    mean_jobs :
        Expected total number of jobs in the system, ``E[N]``.
    mean_jobs_per_node :
        Per-queue expectations, ``(E[N1], E[N2], ...)``.
    throughput :
        Rate of *successfully completing* jobs.
    offered_load :
        Raw arrival rate lambda.
    loss_rate :
        ``offered_load - throughput``, or the measured loss throughput;
        further split below when the model can distinguish drop points.
    loss_per_node :
        Per-drop-point loss rates (``(arrival drops, node-2 drops, ...)``);
        empty when not distinguishable.
    response_time :
        Little's law: ``mean_jobs / throughput``.
    utilisation :
        Per-server busy probability; empty when not computed.
    extra :
        Model-specific diagnostics (state-space size, timeout throughput,
        ...).
    """

    mean_jobs: float
    mean_jobs_per_node: tuple
    throughput: float
    offered_load: float
    response_time: float
    loss_rate: float
    loss_per_node: tuple = ()
    utilisation: tuple = ()
    extra: dict = field(default_factory=dict)

    @property
    def loss_probability(self) -> float:
        """Fraction of offered jobs that are lost."""
        return self.loss_rate / self.offered_load if self.offered_load else 0.0

    def validate(self, atol: float = 1e-8) -> None:
        """Internal-consistency checks (flow balance, non-negativity)."""
        slack = max(1e-6, atol * self.offered_load)
        if self.mean_jobs < -atol:
            raise ValueError(f"negative mean population {self.mean_jobs}")
        if self.throughput < -atol or self.throughput - self.offered_load > 1e-6:
            raise ValueError(
                f"throughput {self.throughput} outside [0, lambda={self.offered_load}]"
            )
        if abs(self.throughput + self.loss_rate - self.offered_load) > slack:
            raise ValueError(f"flow balance: throughput + loss != {self.offered_load}")
        if self.loss_per_node and abs(sum(self.loss_per_node) - self.loss_rate) > slack:
            raise ValueError(
                f"per-node losses {self.loss_per_node} do not sum to "
                f"{self.loss_rate}"
            )


def from_population_and_throughput(
    *,
    mean_jobs_per_node,
    throughput: float,
    offered_load: float,
    loss_rate: float | None = None,
    loss_per_node: tuple = (),
    utilisation: tuple = (),
    extra: dict | None = None,
) -> QueueMetrics:
    """Assemble a :class:`QueueMetrics`, deriving the dependent fields
    (``loss_rate`` defaults to ``offered_load - throughput``)."""
    per_node = tuple(float(x) for x in mean_jobs_per_node)
    # fsum rounds alike on every Python (the builtin sum changed in 3.12)
    mean_jobs = math.fsum(per_node)
    m = QueueMetrics(
        mean_jobs=mean_jobs,
        mean_jobs_per_node=per_node,
        throughput=float(throughput),
        offered_load=float(offered_load),
        response_time=mean_jobs / throughput if throughput > 0 else float("inf"),
        loss_rate=float(offered_load - throughput if loss_rate is None else loss_rate),
        loss_per_node=tuple(float(x) for x in loss_per_node),
        utilisation=tuple(float(x) for x in utilisation),
        extra=dict(extra or {}),
    )
    m.validate()
    return m
