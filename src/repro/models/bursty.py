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

import math
from dataclasses import dataclass

from repro.ctmc.bfs import TupleChain
from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)
from repro.models.shortest_queue import _jsq_moves, _service_phases

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
        rates = (self.rate0, self.rate1)
        if not all(0 <= r < math.inf for r in rates) or sum(rates) == 0:
            raise ValueError(
                "need finite non-negative rates, at least one positive"
            )
        check_rates(switch01=self.switch01, switch10=self.switch10)

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


def _modulated(arrivals: MMPP2, moves, s: tuple) -> list:
    """Successors of ``s = (phase, *rest)`` under MMPP arrivals: the phase
    switches, and ``moves(rest, lam)`` -- the Poisson-arrival chain at
    the phase's rate -- moves the rest."""
    phase, rest = s[0], s[1:]
    out = [("switch", arrivals.switch(phase), (1 - phase,) + rest)]
    lam = arrivals.rate(phase)
    out.extend((a, r, (phase,) + nxt) for a, r, nxt in moves(rest, lam))
    return out


@dataclass
class TagsMMPP(TupleChain):
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
        check_rates(mu=self.mu, t=self.t)
        if self.n < 1 or self.K1 < 1 or self.K2 < 1:
            raise ValueError("n, K1, K2 must be >= 1")

    def _initial(self):
        return (0, 0, self.n - 1, 0, 0, self.n - 1)

    def _successors(self, s):
        return _modulated(self.arrivals, self._figure3_moves, s)

    def _figure3_moves(self, s, lam):
        """The Figure 3 chain over ``(q1, r1, q2, ph2, r2)`` at Poisson
        rate ``lam``."""
        q1, r1, q2, ph2, r2 = s
        mu, t = self.mu, self.t
        top = self.n - 1
        out = []
        if q1 < self.K1:
            out.append(("arrival", lam, (q1 + 1, r1, q2, ph2, r2)))
        else:
            out.append(("arrloss", lam, s))
        if q1 >= 1:
            out.append(("service1", mu, (q1 - 1, top, q2, ph2, r2)))
            if r1 >= 1:
                out.append(("tick1", t, (q1, r1 - 1, q2, ph2, r2)))
            elif q2 < self.K2:
                out.append(("timeout", t, (q1 - 1, top, q2 + 1, ph2, r2)))
            else:
                out.append(("timeout", t, (q1 - 1, top, q2, ph2, r2)))
        if q2 >= 1:
            if ph2 == 1:
                out.append(("service2", mu, (q1, r1, q2 - 1, 0, top)))
            elif r2 >= 1:
                out.append(("tick2", t, (q1, r1, q2, 0, r2 - 1)))
            else:
                out.append(("repeatservice", t, (q1, r1, q2, 1, top)))
        return out

    def metrics(self) -> QueueMetrics:
        x2 = self.throughput("service2")
        return from_population_and_throughput(
            mean_jobs_per_node=(self.mean(lambda s: s[1]), self.mean(lambda s: s[3])),
            throughput=self.throughput("service1") + x2,
            offered_load=self.arrivals.mean_rate,
            loss_per_node=(self.throughput("arrloss"), self.throughput("timeout") - x2),
            extra={"n_states": self.n_states, "burstiness": self.arrivals.burstiness},
        )


@dataclass
class ShortestQueueMMPP(TupleChain):
    """JSQ over two finite queues (exponential service) under MMPP
    arrivals.

    State: ``(phase, n1, ph1, n2, ph2)`` -- the
    :class:`~repro.models.shortest_queue.ShortestQueue` chain (one service
    phase, so ``ph1 = ph2 = 0``) with the modulating phase prepended.
    """

    arrivals: MMPP2 = None
    mu: float = 10.0
    K: int = 10

    def __post_init__(self) -> None:
        if self.arrivals is None:
            raise ValueError("arrivals (an MMPP2) is required")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        self._draws, self._rates = _service_phases(self.mu)

    def _initial(self):
        return (0, 0, 0, 0, 0)

    def _successors(self, s):
        return _modulated(self.arrivals, self._jsq, s)

    def _jsq(self, q, lam):
        return _jsq_moves(q, lam, self.K, self._draws, self._rates)

    def metrics(self) -> QueueMetrics:
        return from_population_and_throughput(
            mean_jobs_per_node=(self.mean(lambda s: s[1]), self.mean(lambda s: s[3])),
            throughput=self.throughput("service"),
            offered_load=self.arrivals.mean_rate,
            loss_rate=self.throughput("arrloss"),
            loss_per_node=(self.throughput("arrloss"),),
            extra={"n_states": self.n_states, "burstiness": self.arrivals.burstiness},
        )
