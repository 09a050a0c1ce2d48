"""Shortest-queue (join-the-shortest-queue) allocation, paper Appendix B.

The incoming Poisson stream joins the queue with fewer jobs; ties are split
(50/50 in the homogeneous case, matching Appendix B's ``S_0`` switch with
``lam1 = lam2 = lam / 2``).  A job is lost only when *both* queues are full
-- the structural reason the paper gives for TAGS beating JSQ under
heavy-tailed demand (Section 5).

``ShortestQueue`` builds the chain directly over head-phase states
(:class:`~repro.ctmc.bfs.TupleChain`); exponential service is the
one-phase case of the H2 chain.  :func:`build_jsq_pepa_model` emits the
Appendix B PEPA model (switch component tracking the queue-length
difference), the oracle the tests cross-validate it against.
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


def _service_phases(service) -> tuple:
    """``(draws, rates)`` of a float or H2 service: ``draws`` pairs each
    phase a new head job can start in with its probability, ``rates`` is
    the per-phase service rate.  Exponential service is one phase."""
    if isinstance(service, HyperExponential):
        if len(service.probs) != 2:
            raise ValueError("only H2 (two-phase) service is supported")
        a = float(service.probs[0])
        rates = tuple(float(r) for r in service.rates)
        draws = ((0, a), (1, 1 - a))
    else:
        rates = (float(service),)
        draws = ((0, 1.0),)
    check_rates(**{f"mu{i + 1}": r for i, r in enumerate(rates)})
    return draws, rates


def _with(q: tuple, d: int, n: int, ph: int) -> tuple:
    """The queue pair ``q = (n1, ph1, n2, ph2)`` with queue ``d`` set."""
    return q[: 2 * d] + (n, ph) + q[2 * d + 2 :]


def _join(q: tuple, d: int, draws) -> list:
    """``[(prob, q')]``: a job joins queue ``d`` (not full); it draws its
    phase if it reaches the server at once."""
    n, ph = q[2 * d], q[2 * d + 1]
    if n == 0:
        return [(p, _with(q, d, 1, phase)) for phase, p in draws]
    return [(1.0, _with(q, d, n + 1, ph))]


def _serve(q: tuple, draws, rates) -> list:
    """``[(rate, q')]``: a busy queue's head completes; the next head
    draws its phase."""
    out = []
    for d in (0, 1):
        n, ph = q[2 * d], q[2 * d + 1]
        if n == 1:
            out.append((rates[ph], _with(q, d, 0, 0)))
        elif n > 1:
            out.extend(
                (rates[ph] * p, _with(q, d, n - 1, phase)) for phase, p in draws
            )
    return out


def _jsq_moves(q: tuple, lam: float, K: int, draws, rates) -> list:
    """Successors of the JSQ queue pair ``q`` under Poisson(``lam``)
    arrivals."""
    n1, n2 = q[0], q[2]
    if n1 < n2:
        dest = ((1.0, 0),)
    elif n2 < n1:
        dest = ((1.0, 1),)
    else:
        dest = ((0.5, 0), (0.5, 1))
    out = []
    for w, d in dest:
        if q[2 * d] >= K:
            out.append(("arrloss", lam * w, q))
        else:
            out.extend(("arrival", lam * w * p, nxt) for p, nxt in _join(q, d, draws))
    out.extend(("service", r, nxt) for r, nxt in _serve(q, draws, rates))
    return out


@dataclass
class ShortestQueue(TupleChain):
    """JSQ over two finite homogeneous queues.

    ``service`` is a float (exponential rate) or a two-phase
    :class:`~repro.dists.families.HyperExponential`.  State
    ``(n1, ph1, n2, ph2)``: each busy queue's head carries its phase
    (drawn whenever a new job reaches the server, 0 when idle), the same
    head-phase encoding as the TAGS H2 model; exponential service has the
    one phase 0.
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
        return (0, 0, 0, 0)

    def _successors(self, s):
        return _jsq_moves(s, self.lam, self.K, self._draws, self._rates)

    def metrics(self) -> QueueMetrics:
        return from_population_and_throughput(
            mean_jobs_per_node=(self.mean(lambda s: s[0]), self.mean(lambda s: s[2])),
            throughput=self.throughput("service"),
            offered_load=self.lam,
            loss_rate=self.throughput("arrloss"),
            loss_per_node=(self.throughput("arrloss"),),
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
    queues full) is modelled by the queues refusing ``arr``.  The model
    has no ``arrloss`` action: the loss rate is ``lam`` minus the
    ``serv1``/``serv2`` throughput.
    """
    check_rates(lam=lam, mu=mu)
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
