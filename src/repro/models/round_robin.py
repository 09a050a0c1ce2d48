"""Round-robin allocation over two finite queues.

The paper's introduction lists round robin among the obvious
no-size-information strategies ("Assign jobs to service centres on a round
robin basis") but evaluates only random and shortest-queue; we include it
so the benchmarks can report the full strategy set.  The router alternates
deterministically, so the CTMC state carries one extra bit; with
homogeneous nodes round robin interleaves the Poisson stream into two
Erlang-2-ish arrival processes per node, which beats random splitting
(lower arrival variability) but cannot react to queue state like JSQ.

Exponential or two-phase hyper-exponential service over the head-phase
states of :class:`~repro.models.shortest_queue.ShortestQueue`
(exponential service is the one-phase case).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ctmc.bfs import TupleChain
from repro.dists.families import HyperExponential
from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)
from repro.models.shortest_queue import _join, _serve, _service_phases

__all__ = ["RoundRobin"]


@dataclass
class RoundRobin(TupleChain):
    """Round-robin dispatch to two bounded homogeneous queues.

    A job routed to a full queue is dropped (the router still advances, as
    a real cyclic dispatcher would).  State ``(rr, n1, ph1, n2, ph2)``:
    the router's next queue, then the JSQ head-phase queue pair.
    """

    lam: float
    service: "float | HyperExponential"
    K: int = 10

    def __post_init__(self) -> None:
        check_rates(lam=self.lam)
        if self.K < 1:
            raise ValueError("K must be >= 1")
        self._draws, self._rates = _service_phases(self.service)

    def _initial(self):
        return (0, 0, 0, 0, 0)

    def _successors(self, s):
        rr, q = s[0], s[1:]
        lam = self.lam
        out = []
        if q[2 * rr] >= self.K:
            out.append(("arrloss", lam, (1 - rr,) + q))
        else:
            out.extend(
                ("arrival", lam * p, (1 - rr,) + nxt)
                for p, nxt in _join(q, rr, self._draws)
            )
        out.extend(
            ("service", r, (rr,) + nxt)
            for r, nxt in _serve(q, self._draws, self._rates)
        )
        return out

    def metrics(self) -> QueueMetrics:
        return from_population_and_throughput(
            mean_jobs_per_node=(self.mean(lambda s: s[1]), self.mean(lambda s: s[3])),
            throughput=self.throughput("service"),
            offered_load=self.lam,
            loss_rate=self.throughput("arrloss"),
            loss_per_node=(self.throughput("arrloss"),),
            extra={"n_states": self.n_states},
        )
