"""Round-robin allocation over two finite queues.

The paper's introduction lists round robin among the obvious
no-size-information strategies ("Assign jobs to service centres on a round
robin basis") but evaluates only random and shortest-queue; we include it
so the benchmarks can report the full strategy set.  The router alternates
deterministically, so the CTMC state carries one extra bit; with
homogeneous nodes round robin interleaves the Poisson stream into two
Erlang-2-ish arrival processes per node, which beats random splitting
(lower arrival variability) but cannot react to queue state like JSQ.

Exponential or two-phase hyper-exponential service, mirroring
:class:`~repro.models.shortest_queue.ShortestQueue`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ctmc import action_throughput, steady_state
from repro.dists.families import HyperExponential
from repro.ctmc.bfs import bfs_generator
from repro.models.metrics import QueueMetrics, from_population_and_throughput

__all__ = ["RoundRobin"]


@dataclass
class RoundRobin:
    """Round-robin dispatch to two bounded homogeneous queues.

    A job routed to a full queue is dropped (the router still advances, as
    a real cyclic dispatcher would).
    """

    lam: float
    service: "float | HyperExponential"
    K: int = 10

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if isinstance(self.service, HyperExponential):
            if len(self.service.probs) != 2:
                raise ValueError("only H2 (two-phase) service is supported")
            self._h2 = True
        else:
            self._h2 = False
            if float(self.service) <= 0:
                raise ValueError("service rate must be positive")

    # ------------------------------------------------------------------
    def _successors_exp(self, s):
        rr, n1, n2 = s
        lam, mu, K = self.lam, float(self.service), self.K
        out = []
        target_len = n1 if rr == 0 else n2
        if target_len < K:
            nxt = (1 - rr, n1 + 1, n2) if rr == 0 else (1 - rr, n1, n2 + 1)
            out.append(("arrival", lam, nxt))
        else:
            out.append(("arrloss", lam, (1 - rr, n1, n2)))
        if n1 >= 1:
            out.append(("service", mu, (rr, n1 - 1, n2)))
        if n2 >= 1:
            out.append(("service", mu, (rr, n1, n2 - 1)))
        return out

    def _successors_h2(self, s):
        rr, n1, ph1, n2, ph2 = s
        lam, K = self.lam, self.K
        a = float(self.service.probs[0])
        mu = (float(self.service.rates[0]), float(self.service.rates[1]))
        out = []
        target_len = n1 if rr == 0 else n2
        if target_len >= K:
            out.append(("arrloss", lam, (1 - rr, n1, ph1, n2, ph2)))
        elif target_len == 0:
            for phase, p in ((0, a), (1, 1 - a)):
                if rr == 0:
                    out.append(("arrival", lam * p, (1, 1, phase, n2, ph2)))
                else:
                    out.append(("arrival", lam * p, (0, n1, ph1, 1, phase)))
        else:
            if rr == 0:
                out.append(("arrival", lam, (1, n1 + 1, ph1, n2, ph2)))
            else:
                out.append(("arrival", lam, (0, n1, ph1, n2 + 1, ph2)))

        def depart(which: int):
            if which == 0:
                rate = mu[ph1]
                if n1 == 1:
                    out.append(("service", rate, (rr, 0, 0, n2, ph2)))
                else:
                    out.append(("service", rate * a, (rr, n1 - 1, 0, n2, ph2)))
                    out.append(
                        ("service", rate * (1 - a), (rr, n1 - 1, 1, n2, ph2))
                    )
            else:
                rate = mu[ph2]
                if n2 == 1:
                    out.append(("service", rate, (rr, n1, ph1, 0, 0)))
                else:
                    out.append(("service", rate * a, (rr, n1, ph1, n2 - 1, 0)))
                    out.append(
                        ("service", rate * (1 - a), (rr, n1, ph1, n2 - 1, 1))
                    )

        if n1 >= 1:
            depart(0)
        if n2 >= 1:
            depart(1)
        return out

    # ------------------------------------------------------------------
    @property
    def generator(self):
        if not hasattr(self, "_gen"):
            if self._h2:
                self._gen, self._states, self._index = bfs_generator(
                    (0, 0, 0, 0, 0), self._successors_h2
                )
            else:
                self._gen, self._states, self._index = bfs_generator(
                    (0, 0, 0), self._successors_exp
                )
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

    def metrics(self) -> QueueMetrics:
        pi = self.pi
        if self._h2:
            q1 = np.array([s[1] for s in self.states], dtype=float)
            q2 = np.array([s[3] for s in self.states], dtype=float)
        else:
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
            offered_load=self.lam,
            loss_per_node=(loss,),
            extra={"n_states": self.n_states},
        )
