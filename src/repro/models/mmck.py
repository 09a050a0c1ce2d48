"""Analytic M/M/c/K: multi-server finite queues, with the Erlang B/C
special cases.

The paper's nodes are single servers, but the natural capacity-planning
question ("would one fast node beat TAGS's two slow ones?") needs the
multi-server closed forms.  Used by the pooled-reference comparisons in
the benchmarks and available as a general building block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)

__all__ = ["MMcK", "erlang_b", "erlang_c"]


@dataclass(frozen=True)
class MMcK:
    """M/M/c/K queue: ``c`` servers, ``K >= c`` total places."""

    lam: float
    mu: float
    c: int
    K: int

    def __post_init__(self) -> None:
        check_rates(lam=self.lam, mu=self.mu)
        if self.c < 1:
            raise ValueError("need at least one server")
        if self.K < self.c:
            raise ValueError("K must be >= c (servers occupy places)")

    # ------------------------------------------------------------------
    def distribution(self) -> np.ndarray:
        """Stationary probabilities of 0..K jobs (birth-death closed
        form, computed in log space for numerical safety)."""
        lam, mu, c, K = self.lam, self.mu, self.c, self.K
        logs = np.zeros(K + 1)
        for n in range(1, K + 1):
            service = mu * min(n, c)
            logs[n] = logs[n - 1] + math.log(lam) - math.log(service)
        logs -= logs.max()
        p = np.exp(logs)
        return p / p.sum()

    @property
    def blocking_probability(self) -> float:
        return float(self.distribution()[self.K])

    @property
    def mean_jobs(self) -> float:
        p = self.distribution()
        return float(np.arange(self.K + 1) @ p)

    @property
    def throughput(self) -> float:
        return self.lam * (1.0 - self.blocking_probability)

    @property
    def utilisation(self) -> float:
        """Mean fraction of busy servers."""
        p = self.distribution()
        busy = np.minimum(np.arange(self.K + 1), self.c)
        return float(busy @ p) / self.c

    @property
    def response_time(self) -> float:
        return self.mean_jobs / self.throughput

    def metrics(self) -> QueueMetrics:
        return from_population_and_throughput(
            mean_jobs_per_node=(self.mean_jobs,),
            throughput=self.throughput,
            offered_load=self.lam,
            loss_per_node=(self.lam * self.blocking_probability,),
            utilisation=(self.utilisation,),
            extra={"blocking_probability": self.blocking_probability},
        )


def erlang_b(offered: float, c: int) -> float:
    """Erlang-B blocking probability (M/M/c/c) via the stable recursion
    ``B_0 = 1, B_c = a B_{c-1} / (c + a B_{c-1})``."""
    if offered <= 0:
        raise ValueError("offered load must be positive")
    if c < 1:
        raise ValueError("need at least one server")
    b = 1.0
    for k in range(1, c + 1):
        b = offered * b / (k + offered * b)
    return b


def erlang_c(offered: float, c: int) -> float:
    """Erlang-C probability of waiting (M/M/c with infinite room);
    requires ``offered < c``."""
    if offered >= c:
        raise ValueError(f"unstable: offered={offered} >= c={c}")
    b = erlang_b(offered, c)
    rho = offered / c
    return b / (1.0 - rho + rho * b)
