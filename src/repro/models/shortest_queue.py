"""Shortest-queue (join-the-shortest-queue) allocation, paper Appendix B.

The incoming Poisson stream joins the queue with fewer jobs; ties are split
(50/50 in the homogeneous case, matching Appendix B's ``S_0`` switch with
``lam1 = lam2 = lam / 2``).  A job is lost only when *both* queues are full
-- the structural reason the paper gives for TAGS beating JSQ under
heavy-tailed demand (Section 5).

``ShortestQueue`` builds the chain directly for exponential or H2 service;
:func:`build_jsq_pepa_model` emits the Appendix B PEPA model (switch
component tracking the queue-length difference), cross-validated in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ctmc import action_throughput, steady_state
from repro.dists.families import HyperExponential
from repro.ctmc.bfs import bfs_generator
from repro.models.metrics import QueueMetrics, from_population_and_throughput
from repro.pepa import (
    Activity,
    Choice,
    Constant,
    Cooperation,
    Model,
    Prefix,
    Rate,
    top,
)

__all__ = ["ShortestQueue", "build_jsq_pepa_model"]


@dataclass
class ShortestQueue:
    """JSQ over two finite homogeneous queues.

    ``service`` is a float (exponential rate) or a two-phase
    :class:`~repro.dists.families.HyperExponential`; with H2 service each
    busy queue's head carries its phase (drawn Bernoulli(alpha) whenever a
    new job reaches the server), the same head-phase encoding as the TAGS
    H2 model.
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
        n1, n2 = s
        lam, mu, K = self.lam, float(self.service), self.K
        out = []
        # arrival routing
        if n1 < n2:
            dest = [(1.0, 0)]
        elif n2 < n1:
            dest = [(1.0, 1)]
        else:
            dest = [(0.5, 0), (0.5, 1)]
        for w, d in dest:
            n = (n1, n2)[d]
            if n < K:
                nxt = (n1 + 1, n2) if d == 0 else (n1, n2 + 1)
                out.append(("arrival", lam * w, nxt))
            else:
                out.append(("arrloss", lam * w, s))
        if n1 >= 1:
            out.append(("service", mu, (n1 - 1, n2)))
        if n2 >= 1:
            out.append(("service", mu, (n1, n2 - 1)))
        return out

    def _successors_h2(self, s):
        # state: (n1, ph1, n2, ph2); ph in {0 short, 1 long}, 0 when idle
        n1, ph1, n2, ph2 = s
        lam, K = self.lam, self.K
        a = float(self.service.probs[0])
        mu = (float(self.service.rates[0]), float(self.service.rates[1]))
        out = []
        if n1 < n2:
            dest = [(1.0, 0)]
        elif n2 < n1:
            dest = [(1.0, 1)]
        else:
            dest = [(0.5, 0), (0.5, 1)]
        for w, d in dest:
            n = (n1, n2)[d]
            if n >= K:
                out.append(("arrloss", lam * w, s))
            elif n == 0:
                # job starts service immediately: draw its phase
                for phase, p in ((0, a), (1, 1 - a)):
                    if d == 0:
                        out.append(("arrival", lam * w * p, (1, phase, n2, ph2)))
                    else:
                        out.append(("arrival", lam * w * p, (n1, ph1, 1, phase)))
            else:
                if d == 0:
                    out.append(("arrival", lam * w, (n1 + 1, ph1, n2, ph2)))
                else:
                    out.append(("arrival", lam * w, (n1, ph1, n2 + 1, ph2)))

        def depart(which: int):
            if which == 0:
                if n1 == 1:
                    out.append(("service", mu[ph1], (0, 0, n2, ph2)))
                else:
                    out.append(("service", mu[ph1] * a, (n1 - 1, 0, n2, ph2)))
                    out.append(
                        ("service", mu[ph1] * (1 - a), (n1 - 1, 1, n2, ph2))
                    )
            else:
                if n2 == 1:
                    out.append(("service", mu[ph2], (n1, ph1, 0, 0)))
                else:
                    out.append(("service", mu[ph2] * a, (n1, ph1, n2 - 1, 0)))
                    out.append(
                        ("service", mu[ph2] * (1 - a), (n1, ph1, n2 - 1, 1))
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
                    (0, 0, 0, 0), self._successors_h2
                )
            else:
                self._gen, self._states, self._index = bfs_generator(
                    (0, 0), self._successors_exp
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
            q1 = np.array([s[0] for s in self.states], dtype=float)
            q2 = np.array([s[2] for s in self.states], dtype=float)
        else:
            q1 = np.array([s[0] for s in self.states], dtype=float)
            q2 = np.array([s[1] for s in self.states], dtype=float)
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


# ----------------------------------------------------------------------
# Appendix B PEPA model
# ----------------------------------------------------------------------

def _p(action, rate, target):
    r = rate if isinstance(rate, Rate) else Rate(rate)
    return Prefix(Activity(action, r), Constant(target))


def _choice(*terms):
    comp = terms[0]
    for t in terms[1:]:
        comp = Choice(comp, t)
    return comp


def build_jsq_pepa_model(lam: float, mu: float, K: int) -> Model:
    """The Appendix B (Figure 14) PEPA model of two balanced M/M/1/K
    queues under shortest-queue routing.

    The switch component ``S_j`` tracks ``len(queue1) - len(queue2)``
    (j in -K..K): positive difference routes arrivals to queue 2, negative
    to queue 1, zero splits ``lam/2`` each.  A blocked arrival (both
    queues full) is modelled by the queues refusing ``arr``; to keep the
    loss observable an ``arrloss`` self-loop fires while both are full
    (encoded in the full-full switch refinement below is unnecessary --
    loss is computed as ``lam - throughput`` by the caller).
    """
    if lam <= 0 or mu <= 0:
        raise ValueError("rates must be positive")
    if K < 1:
        raise ValueError("K must be >= 1")
    defs: dict = {}
    half = lam / 2.0

    for q in (1, 2):
        arr, serv = f"arr{q}", f"serv{q}"
        defs[f"Queue{q}_0"] = _p(arr, top(), f"Queue{q}_1")
        for j in range(1, K):
            defs[f"Queue{q}_{j}"] = _choice(
                _p(arr, top(), f"Queue{q}_{j + 1}"),
                _p(serv, top(), f"Queue{q}_{j - 1}"),
            )
        defs[f"Queue{q}_{K}"] = _p(serv, top(), f"Queue{q}_{K - 1}")

    # switch: S_j for j = -K .. K (names Sm{k} for negatives)
    def sname(j: int) -> str:
        return f"S_m{-j}" if j < 0 else f"S_{j}"

    for j in range(-K, K + 1):
        terms = []
        if j == 0:
            terms.append(_p("arr1", half, sname(1)))
            terms.append(_p("arr2", half, sname(-1)))
        elif j > 0:  # queue 1 longer: route to queue 2
            terms.append(_p("arr2", lam, sname(j - 1)))
        else:  # queue 2 longer: route to queue 1
            terms.append(_p("arr1", lam, sname(j + 1)))
        if j > -K:
            terms.append(_p("serv1", mu, sname(j - 1)))
        if j < K:
            terms.append(_p("serv2", mu, sname(j + 1)))
        defs[sname(j)] = _choice(*terms)

    queues = Cooperation(Constant("Queue1_0"), Constant("Queue2_0"), frozenset())
    system = Cooperation(
        queues,
        Constant(sname(0)),
        frozenset({"arr1", "arr2", "serv1", "serv2"}),
    )
    return Model(defs, system)
