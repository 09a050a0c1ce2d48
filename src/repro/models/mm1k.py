"""Analytic M/M/1/K queue.

Closed forms used both as a baseline component (random allocation sends an
independent Poisson stream to each M/M/1/K node) and inside the Section 4
fixed-point approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)

__all__ = ["MM1K"]


@dataclass(frozen=True)
class MM1K:
    """M/M/1/K: Poisson(lam) arrivals, Exponential(mu) service, K places
    total (queue + server)."""

    lam: float
    mu: float
    K: int

    def __post_init__(self) -> None:
        check_rates(lam=self.lam, mu=self.mu)
        if self.K < 1:
            raise ValueError("K must be >= 1")

    @property
    def rho(self) -> float:
        return self.lam / self.mu

    def distribution(self) -> np.ndarray:
        """Stationary probabilities of 0..K jobs (truncated geometric)."""
        rho = self.rho
        if abs(rho - 1.0) < 1e-12:
            return np.full(self.K + 1, 1.0 / (self.K + 1))
        p = rho ** np.arange(self.K + 1)
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
        return 1.0 - float(self.distribution()[0])

    @property
    def loss_rate(self) -> float:
        return self.lam * self.blocking_probability

    @property
    def response_time(self) -> float:
        """Mean response time of accepted jobs (Little's law)."""
        return self.mean_jobs / self.throughput

    def metrics(self) -> QueueMetrics:
        return from_population_and_throughput(
            mean_jobs_per_node=(self.mean_jobs,),
            throughput=self.throughput,
            offered_load=self.lam,
            loss_per_node=(self.loss_rate,),
            utilisation=(self.utilisation,),
            extra={"blocking_probability": self.blocking_probability},
        )
