"""M/PH/1/K: Poisson arrivals, phase-type service, finite room.

Used by the random-allocation baseline with H2 service (each node of
Appendix A's system becomes an independent M/H2/1/K queue) and as a
general-purpose substrate.  The CTMC state is ``(n, phase)`` with ``n`` the
number of jobs (0..K) and ``phase`` the service phase of the job in service
(absent when idle); the generator is assembled from transition triples and
solved with the shared CTMC machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ctmc import Generator, action_throughput, expected_reward, steady_state
from repro.ctmc.generator import TransitionBatch
from repro.dists.phase_type import PhaseType
from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)

__all__ = ["MPH1K"]


class MPH1K:
    """M/PH/1/K queue solved via its CTMC.

    Parameters
    ----------
    lam :
        Poisson arrival rate.
    service :
        Phase-type service distribution (atoms at zero are rejected: a job
        must occupy the server for a positive time).
    K :
        Total capacity (queue + server).
    """

    def __init__(self, lam: float, service: PhaseType, K: int) -> None:
        check_rates(lam=lam)
        if K < 1:
            raise ValueError("K must be >= 1")
        if service.atom_at_zero > 1e-12:
            raise ValueError("service distribution must not have an atom at zero")
        self.lam = float(lam)
        self.service = service
        self.K = int(K)
        self._build()
        self._pi: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _state_id(self, n: int, phase: int) -> int:
        """0 is the empty state; busy states are 1 + (n-1)*m + phase."""
        if n == 0:
            return 0
        return 1 + (n - 1) * self.m + phase

    def _build(self) -> None:
        m = self.service.n_phases
        self.m = m
        alpha = self.service.alpha / self.service.alpha.sum()
        T = self.service.T
        exit_vec = self.service.exit
        batch = TransitionBatch()
        lam = self.lam
        for n in range(self.K + 1):
            if n == 0:
                # arrival starts service in phase drawn from alpha
                for ph in range(m):
                    if alpha[ph] > 0:
                        batch.add(0, self._state_id(1, ph), lam * alpha[ph], "arrival")
                continue
            for ph in range(m):
                sid = self._state_id(n, ph)
                if n < self.K:
                    batch.add(sid, self._state_id(n + 1, ph), lam, "arrival")
                else:
                    batch.add(sid, sid, lam, "loss")
                # internal phase changes
                for ph2 in range(m):
                    if ph2 != ph and T[ph, ph2] > 0:
                        batch.add(sid, self._state_id(n, ph2), T[ph, ph2], "phase")
                # completion
                if exit_vec[ph] > 0:
                    if n == 1:
                        batch.add(sid, 0, exit_vec[ph], "service")
                    else:
                        for ph2 in range(m):
                            if alpha[ph2] > 0:
                                batch.add(
                                    sid,
                                    self._state_id(n - 1, ph2),
                                    exit_vec[ph] * alpha[ph2],
                                    "service",
                                )
        self.generator: Generator = batch.to_generator(1 + self.K * m)
        # reward vectors
        counts = np.zeros(self.generator.n_states)
        for n in range(1, self.K + 1):
            for ph in range(m):
                counts[self._state_id(n, ph)] = n
        self._count_reward = counts

    # ------------------------------------------------------------------
    @property
    def pi(self) -> np.ndarray:
        if self._pi is None:
            self._pi = steady_state(self.generator)
        return self._pi

    def queue_length_distribution(self) -> np.ndarray:
        """P[N = n] for n = 0..K."""
        out = np.zeros(self.K + 1)
        for n in range(self.K + 1):
            if n == 0:
                out[0] = self.pi[0]
            else:
                ids = [self._state_id(n, ph) for ph in range(self.m)]
                out[n] = self.pi[ids].sum()
        return out

    @property
    def mean_jobs(self) -> float:
        return expected_reward(self.pi, self._count_reward)

    @property
    def throughput(self) -> float:
        return action_throughput(self.generator, self.pi, "service")

    @property
    def loss_rate(self) -> float:
        return action_throughput(self.generator, self.pi, "loss")

    @property
    def utilisation(self) -> float:
        return 1.0 - float(self.pi[0])

    def metrics(self) -> QueueMetrics:
        return from_population_and_throughput(
            mean_jobs_per_node=(self.mean_jobs,),
            throughput=self.throughput,
            offered_load=self.lam,
            loss_per_node=(self.loss_rate,),
            utilisation=(self.utilisation,),
            extra={"n_states": self.generator.n_states},
        )
