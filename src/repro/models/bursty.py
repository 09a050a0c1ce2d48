"""MMPP-modulated arrivals: the exact-CTMC side of Section 7.

The paper closes with a conjecture: "It is expected that TAG would perform
less well if the arrival process was bursty ... TAG would direct all
traffic to node 1" while shortest queue shares the burst.  The simulator
probes this empirically (``bench_bursty.py``); these models settle it
*exactly* by folding a two-state Markov-modulated Poisson arrival process
into the TAGS and JSQ chains -- the modulating phase becomes one extra
state component, everything else is unchanged.

An Interrupted Poisson Process (on/off bursts) is ``rate1 = 0``; use
:meth:`MMPP2.scaled_to_mean` to compare burstiness levels at equal offered
load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ctmc import action_throughput, steady_state
from repro.ctmc.bfs import bfs_generator
from repro.models.metrics import QueueMetrics, from_population_and_throughput

__all__ = ["MMPP2", "TagsMMPP", "ShortestQueueMMPP"]


@dataclass(frozen=True)
class MMPP2:
    """Two-state MMPP: arrival rate ``rates[phase]``, switching rates
    ``switch01`` / ``switch10``."""

    rate0: float
    rate1: float
    switch01: float
    switch10: float

    def __post_init__(self) -> None:
        if self.rate0 < 0 or self.rate1 < 0 or self.rate0 + self.rate1 == 0:
            raise ValueError("need non-negative rates, at least one positive")
        if self.switch01 <= 0 or self.switch10 <= 0:
            raise ValueError("switching rates must be positive")

    @property
    def mean_rate(self) -> float:
        p0 = self.switch10 / (self.switch01 + self.switch10)
        return p0 * self.rate0 + (1 - p0) * self.rate1

    @property
    def burstiness(self) -> float:
        """Peak-to-mean rate ratio (1 = Poisson)."""
        return max(self.rate0, self.rate1) / self.mean_rate

    def scaled_to_mean(self, mean: float) -> "MMPP2":
        """Same shape, rescaled arrival rates to hit ``mean``."""
        c = mean / self.mean_rate
        return MMPP2(self.rate0 * c, self.rate1 * c, self.switch01, self.switch10)

    @classmethod
    def poisson(cls, rate: float) -> "MMPP2":
        """Degenerate MMPP equal to a Poisson process (for regression
        checks)."""
        return cls(rate, rate, 1.0, 1.0)

    def rate(self, phase: int) -> float:
        return self.rate0 if phase == 0 else self.rate1

    def switch(self, phase: int) -> float:
        return self.switch01 if phase == 0 else self.switch10


class _MMPPBase:
    """Shared plumbing: the arrival phase is state component 0."""

    arrivals: MMPP2

    def _build(self):
        raise NotImplementedError

    @property
    def generator(self):
        if not hasattr(self, "_gen"):
            self._gen, self._states, self._index = self._build()
            self._pi = None
        return self._gen

    @property
    def states(self):
        _ = self.generator
        return self._states

    @property
    def n_states(self) -> int:
        return self.generator.n_states

    @property
    def pi(self) -> np.ndarray:
        _ = self.generator
        if self._pi is None:
            self._pi = steady_state(self._gen)
        return self._pi


@dataclass
class TagsMMPP(_MMPPBase):
    """Two-node TAGS (exponential service) under MMPP arrivals.

    State: ``(phase, q1, r1, q2, ph2, r2)`` -- the Figure 3 chain with the
    modulating phase prepended.
    """

    arrivals: MMPP2 = None
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10

    def __post_init__(self) -> None:
        if self.arrivals is None:
            raise ValueError("arrivals (an MMPP2) is required")
        if min(self.mu, self.t) <= 0:
            raise ValueError("rates must be positive")
        if self.n < 1 or self.K1 < 1 or self.K2 < 1:
            raise ValueError("n, K1, K2 must be >= 1")

    def _successors(self, s):
        phase, q1, r1, q2, ph2, r2 = s
        mu, t, n = self.mu, self.t, self.n
        lam = self.arrivals.rate(phase)
        out = [("switch", self.arrivals.switch(phase),
                (1 - phase, q1, r1, q2, ph2, r2))]
        top = n - 1
        if lam > 0:
            if q1 < self.K1:
                out.append(("arrival", lam, (phase, q1 + 1, r1, q2, ph2, r2)))
            else:
                out.append(("arrloss", lam, s))
        if q1 >= 1:
            out.append(("service1", mu, (phase, q1 - 1, top, q2, ph2, r2)))
            if r1 >= 1:
                out.append(("tick1", t, (phase, q1, r1 - 1, q2, ph2, r2)))
            else:
                if q2 < self.K2:
                    out.append(
                        ("timeout", t, (phase, q1 - 1, top, q2 + 1, ph2, r2))
                    )
                else:
                    out.append(("timeout", t, (phase, q1 - 1, top, q2, ph2, r2)))
        if q2 >= 1:
            if ph2 == 0:
                if r2 >= 1:
                    out.append(("tick2", t, (phase, q1, r1, q2, 0, r2 - 1)))
                else:
                    out.append(("repeatservice", t, (phase, q1, r1, q2, 1, top)))
            else:
                out.append(("service2", mu, (phase, q1, r1, q2 - 1, 0, top)))
        return out

    def _build(self):
        initial = (0, 0, self.n - 1, 0, 0, self.n - 1)
        return bfs_generator(initial, self._successors)

    def metrics(self) -> QueueMetrics:
        pi = self.pi
        q1 = np.array([s[1] for s in self.states], dtype=float)
        q2 = np.array([s[3] for s in self.states], dtype=float)
        x1 = action_throughput(self._gen, pi, "service1")
        x2 = action_throughput(self._gen, pi, "service2")
        x_to = action_throughput(self._gen, pi, "timeout")
        try:
            loss1 = action_throughput(self._gen, pi, "arrloss")
        except KeyError:
            loss1 = 0.0
        return from_population_and_throughput(
            mean_jobs_per_node=(float(pi @ q1), float(pi @ q2)),
            throughput=x1 + x2,
            offered_load=self.arrivals.mean_rate,
            loss_per_node=(loss1, x_to - x2),
            extra={"n_states": self.n_states, "burstiness": self.arrivals.burstiness},
        )


@dataclass
class ShortestQueueMMPP(_MMPPBase):
    """JSQ over two finite queues under MMPP arrivals.

    State: ``(phase, n1, n2)``.
    """

    arrivals: MMPP2 = None
    mu: float = 10.0
    K: int = 10

    def __post_init__(self) -> None:
        if self.arrivals is None:
            raise ValueError("arrivals (an MMPP2) is required")
        if self.mu <= 0 or self.K < 1:
            raise ValueError("bad mu or K")

    def _successors(self, s):
        phase, n1, n2 = s
        lam = self.arrivals.rate(phase)
        out = [("switch", self.arrivals.switch(phase), (1 - phase, n1, n2))]
        if lam > 0:
            if n1 < n2:
                dest = [(1.0, 0)]
            elif n2 < n1:
                dest = [(1.0, 1)]
            else:
                dest = [(0.5, 0), (0.5, 1)]
            for w, d in dest:
                nq = (n1, n2)[d]
                if nq < self.K:
                    nxt = (
                        (phase, n1 + 1, n2) if d == 0 else (phase, n1, n2 + 1)
                    )
                    out.append(("arrival", lam * w, nxt))
                else:
                    out.append(("arrloss", lam * w, s))
        if n1 >= 1:
            out.append(("service", self.mu, (phase, n1 - 1, n2)))
        if n2 >= 1:
            out.append(("service", self.mu, (phase, n1, n2 - 1)))
        return out

    def _build(self):
        return bfs_generator((0, 0, 0), self._successors)

    def metrics(self) -> QueueMetrics:
        pi = self.pi
        q1 = np.array([s[1] for s in self.states], dtype=float)
        q2 = np.array([s[2] for s in self.states], dtype=float)
        x = action_throughput(self._gen, pi, "service")
        try:
            loss = action_throughput(self._gen, pi, "arrloss")
        except KeyError:
            loss = 0.0
        return from_population_and_throughput(
            mean_jobs_per_node=(float(pi @ q1), float(pi @ q2)),
            throughput=x,
            offered_load=self.arrivals.mean_rate,
            loss_per_node=(loss,),
            extra={"n_states": self.n_states, "burstiness": self.arrivals.burstiness},
        )
