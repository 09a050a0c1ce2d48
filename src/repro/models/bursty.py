"""MMPP-modulated arrivals: the exact-CTMC side of Section 7.

The paper closes with a conjecture: "It is expected that TAG would perform
less well if the arrival process was bursty ... TAG would direct all
traffic to node 1" while shortest queue shares the burst.  The simulator
probes this empirically (``bench_bursty.py``); these models settle it
*exactly* by folding a two-state Markov-modulated Poisson arrival process
into the TAGS and JSQ chains -- the modulating phase becomes one extra
state component (for TAGS, an arrival leaf of the Figure 3 PEPA
model), everything else is unchanged.

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
from repro.models.tags_pepa import (
    FIGURE3_FIELDS,
    CompiledTags,
    TagsParameters,
    _index,
    build_tags_model,
)
from repro.pepa import Model

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


@dataclass
class TagsMMPP(CompiledTags):
    """Two-node TAGS (exponential service) under MMPP arrivals: the
    Figure 3 model with the arrival leaf of
    :func:`~repro.models.tags_pepa.build_tags_model`.

    State: ``(phase, q1, r1, q2, ph2, r2)`` -- the Figure 3 tuple with
    the modulating phase prepended.
    """

    arrivals: MMPP2 = None
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10

    PARAMS = TagsParameters
    _QUEUE_COLUMNS = (1, 3)

    def __post_init__(self) -> None:
        if self.arrivals is None:
            raise ValueError("arrivals (an MMPP2) is required")
        super().__post_init__()

    def build(self) -> Model:
        return build_tags_model(self.params(), arrivals=self.arrivals)

    def _structure_key(self) -> tuple:
        a = self.arrivals
        return ("tags-mmpp", self.n, self.K1, self.K2, a.rate0 == 0, a.rate1 == 0)

    def _state_fields(self) -> list:
        # the arrival leaf follows Q1, Timer1, Q2, Timer2
        return [(4, _index)] + FIGURE3_FIELDS

    def _offered_load(self) -> float:
        return self.arrivals.mean_rate

    def _extra(self) -> dict:
        return {"burstiness": self.arrivals.burstiness}


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
        phase, rest = s[0], s[1:]
        out = [("switch", self.arrivals.switch(phase), (1 - phase,) + rest)]
        moves = _jsq_moves(
            rest, self.arrivals.rate(phase), self.K, self._draws, self._rates
        )
        out.extend((a, r, (phase,) + nxt) for a, r, nxt in moves)
        return out

    def metrics(self) -> QueueMetrics:
        return from_population_and_throughput(
            mean_jobs_per_node=(self.mean(lambda s: s[1]), self.mean(lambda s: s[3])),
            throughput=self.throughput("service"),
            offered_load=self.arrivals.mean_rate,
            loss_rate=self.throughput("arrloss"),
            loss_per_node=(self.throughput("arrloss"),),
            extra={"n_states": self.n_states, "burstiness": self.arrivals.burstiness},
        )
