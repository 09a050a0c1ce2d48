"""The paper's Figure 4 "alternative model": one component per queue place.

Section 3.1 re-encodes each queue place as its own two-state component so
the model can be analysed by *counting* components per derivative.  We
build exactly that model and analyse it two ways:

* **exact** -- :class:`~repro.pepa.counted.CountedModel` explores the
  identity-free quotient CTMC (the paper's "count the number of
  components behaving as derivative Q1_0");
* **fluid** -- :class:`~repro.pepa.fluid.FluidModel` integrates the ODE
  limit (the paper's Dizzy analysis).

Semantic differences from Figure 3, faithfully preserved (the paper calls
the encodings alternatives but they are *not* bisimilar):

1. **Blocking, not dropping, at node 2.** A ``timeout`` needs a free Q2
   place; when queue 2 is full the clock stalls instead of discarding the
   job.  (Figure 3 self-loops, i.e. drops.)
2. **Pipelined repeat clock.** Waiting Q2 places keep ``tick2`` enabled
   while a residual service is in progress, so the next job's repeat
   period overlaps the current residual -- the "ticking" variant of the
   Figure 3 ambiguity, and more than one place can sit in the residual
   derivative at once.

At the paper's operating points the node-2 loss is tiny, so the encodings
agree closely on queue lengths and throughput; the tests quantify the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ctmc import Generator
from repro.ctmc.bfs import Chain
from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)
from repro.models.tags_pepa import _choice, _p
from repro.pepa import Constant, FluidGroup, Model, top
from repro.pepa.counted import CountedModel
from repro.pepa.fluid import FluidModel

__all__ = ["Figure4Model"]


@dataclass
class Figure4Model(Chain):
    """Per-place encoding of the two-node TAGS system; the chain is the
    counted quotient CTMC (:meth:`counted`), explored and solved once."""

    lam: float = 5.0
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10

    def __post_init__(self) -> None:
        check_rates(lam=self.lam, mu=self.mu, t=self.t)
        if self.n < 1 or self.K1 < 1 or self.K2 < 1:
            raise ValueError("n, K1, K2 must be >= 1")

    # ------------------------------------------------------------------
    def pepa_model(self) -> Model:
        """The sequential definitions of Figure 4 (n-phase timers as in
        ``tags_pepa``)."""
        lam, mu, t, n = self.lam, self.mu, self.t, self.n
        defs: dict = {}
        # queue-1 places
        defs["Q1_0"] = _p("arrival", top(), "Q1_1")
        defs["Q1_1"] = _choice(
            _p("timeout", top(), "Q1_0"),
            _p("service1", top(), "Q1_0"),
            _p("tick1", top(), "Q1_1"),
        )
        # queue-2 places (explicit residual constant instead of the
        # paper's anonymous derivative)
        defs["Q2_0"] = _p("timeout", top(), "Q2_1")
        defs["Q2_1"] = _choice(
            _p("repeatservice", top(), "Q2r"),
            _p("tick2", top(), "Q2_1"),
        )
        defs["Q2r"] = _p("service2", top(), "Q2_0")
        # servers
        defs["S1"] = _choice(
            _p("arrival", lam, "S1"), _p("service1", mu, "S1")
        )
        defs["S2"] = _p("service2", mu, "S2")
        # timers (n Erlang phases)
        top_ref1 = f"Timer1_{n - 1}" if n > 1 else "Timer1_0"
        defs["Timer1_0"] = _choice(
            _p("timeout", t, top_ref1),
            _p("service1", top(), top_ref1),
        )
        for i in range(1, n):
            defs[f"Timer1_{i}"] = _choice(
                _p("tick1", t, f"Timer1_{i - 1}"),
                _p("service1", top(), top_ref1),
            )
        defs["Timer2_0"] = _p(
            "repeatservice", t, f"Timer2_{n - 1}" if n > 1 else "Timer2_0"
        )
        for i in range(1, n):
            defs[f"Timer2_{i}"] = _p("tick2", t, f"Timer2_{i - 1}")
        return Model(defs, Constant("S1"))  # system equation unused here

    def _groups(self, counts_as_float: bool = False):
        n = self.n
        cast = float if counts_as_float else int
        return [
            FluidGroup("q1_places", {"Q1_0": cast(self.K1)}),
            FluidGroup("q2_places", {"Q2_0": cast(self.K2)}),
            FluidGroup("s1", {"S1": cast(1)}),
            FluidGroup("s2", {"S2": cast(1)}),
            FluidGroup("timer1", {f"Timer1_{n - 1}" if n > 1 else "Timer1_0": cast(1)}),
            FluidGroup("timer2", {f"Timer2_{n - 1}" if n > 1 else "Timer2_0": cast(1)}),
        ]

    _SYNCED = {
        "arrival",
        "service1",
        "service2",
        "timeout",
        "tick1",
        "tick2",
        "repeatservice",
    }

    # ------------------------------------------------------------------
    def counted(self) -> CountedModel:
        return CountedModel(self.pepa_model(), self._groups(), self._SYNCED)

    @property
    def generator(self) -> Generator:
        if not hasattr(self, "_gen"):
            self._counted = self.counted()
            self._gen, self._states, _ = self._counted.explore()
        return self._gen

    def metrics(self) -> QueueMetrics:
        """Exact metrics of the counted quotient CTMC."""
        _ = self.generator  # explores once, keeping the counted model
        cm, states, pi = self._counted, self._states, self.pi
        q1 = cm.count_reward("q1_places", "Q1_1")
        q2a = cm.count_reward("q2_places", "Q2_1")
        q2b = cm.count_reward("q2_places", "Q2r")
        L1 = float(pi @ np.array([q1(s) for s in states]))
        L2 = float(pi @ np.array([q2a(s) + q2b(s) for s in states]))
        x1 = self.throughput("service1")
        x2 = self.throughput("service2")
        x_arr = self.throughput("arrival")
        return from_population_and_throughput(
            mean_jobs_per_node=(L1, L2),
            throughput=x1 + x2,
            offered_load=self.lam,
            extra={
                "n_states": self.n_states,
                "accepted_rate": x_arr,
                "timeout_throughput": self.throughput("timeout"),
            },
        )

    def fluid(self) -> FluidModel:
        """The Dizzy-style ODE limit of the same model."""
        return FluidModel(self.pepa_model(), self._groups(True), self._SYNCED)
