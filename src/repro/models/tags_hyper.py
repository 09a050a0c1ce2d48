"""PEPA model of two-node TAGS with hyper-exponential (H2) service
(paper Figure 5).

The head-of-queue job's phase is tracked by the queue derivative: ``Q1_i``
has a *short* head (service rate ``mu1``), ``Q1p_i`` (the paper's primed
``Q1'_i``) a *long* head (rate ``mu2``).  On every completion that leaves
the queue non-empty the next head's phase is drawn Bernoulli(alpha); a job
arriving at an empty queue draws its phase on arrival.

At node 2 the ``repeatservice`` action branches with probability
``alpha'`` (the residual-mixing probability of Section 3.2) into
``Q2s_i`` (short residual, rate ``mu1``) or ``Q2l_i`` (long residual,
``mu2``).

Typo corrections applied to the printed Figure 5 (DESIGN.md note 4):
the ``timeout`` rates in ``Q1_i`` read ``alpha mu2 / (1-alpha) mu2`` in the
paper but must be ``alpha t / (1-alpha) t`` (the timeout race does not
depend on the head's phase), and ``(arrival, (1-alpha) lam).Q1_1'`` targets
``Q1'_1``.

Note on the ``t``-rates in the queue: Figure 5 attaches rate ``t`` (split
``alpha t`` / ``(1-alpha) t``) to the queue's ``timeout``/``repeatservice``
activities and leaves the timers passive there.  Under PEPA's
apparent-rate rule the synchronised rate is ``min(t, T) = t`` split in the
same proportions, so this yields the same CTMC as a timer-side rate; the
Figure 3 builder puts its node-1 clock on the queue side the same way, and
the test suite checks the exponential degenerate case coincides.

A degenerate ``alpha_prime`` (0 or 1) drops the impossible
``repeatservice`` branch rather than giving it rate zero, so the never-
entered residual derivatives are not part of the model.

:class:`TagsHyperExponential` solves this model on the compiled engine
through the structure cache (see
:class:`~repro.models.tags_pepa.CompiledTags`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.dists.residual import h2_residual_mixing
from repro.models.metrics import QueueMetrics, check_rates
from repro.models.tags_pepa import CompiledTags, _choice, _index, _p
from repro.pepa import Constant, Cooperation, Model, top

__all__ = [
    "TagsH2Parameters",
    "TagsHyperExponential",
    "build_tags_h2_model",
    "tags_h2_pepa_metrics",
]


@dataclass(frozen=True)
class TagsH2Parameters:
    """Parameters of the Figure 5 model.

    ``alpha_prime`` defaults to the exact residual-mixing probability
    computed from the Erlang(n, t) timeout race (Section 3.2).  ``n`` is
    the total number of Erlang phases in the timeout clock (see
    ``tags_pepa`` for the convention).
    """

    lam: float = 11.0
    alpha: float = 0.99
    mu1: float = 100.0
    mu2: float = 1.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    alpha_prime: float | None = None
    tick_during_residual: bool = False

    def __post_init__(self) -> None:
        check_rates(lam=self.lam, mu1=self.mu1, mu2=self.mu2, t=self.t)
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        if self.n < 1 or self.K1 < 1 or self.K2 < 1:
            raise ValueError("n, K1, K2 must be >= 1")
        if self.alpha_prime is not None and not (0 <= self.alpha_prime <= 1):
            raise ValueError("alpha_prime must be in [0, 1]")

    @property
    def resolved_alpha_prime(self) -> float:
        if self.alpha_prime is not None:
            return self.alpha_prime
        return h2_residual_mixing(self.t, self.alpha, self.mu1, self.mu2, self.n)

    @property
    def mean_service(self) -> float:
        return self.alpha / self.mu1 + (1 - self.alpha) / self.mu2


def build_tags_h2_model(params: TagsH2Parameters) -> Model:
    """Construct the Figure 5 PEPA model."""
    lam, t, n = params.lam, params.t, params.n
    a, m1, m2 = params.alpha, params.mu1, params.mu2
    ap = params.resolved_alpha_prime
    K1, K2 = params.K1, params.K2
    defs: dict = {}

    # ------------------------------------------------------ queue 1
    defs["Q1_0"] = _choice(
        _p("arrival", a * lam, "Q1_1"),
        _p("arrival", (1 - a) * lam, "Q1p_1"),
    )
    # head short (Q1) / head long (Q1p); a departure from i = 1 empties
    # the queue, any other draws the next head's phase
    for i in range(1, K1 + 1):
        for head, mu_head in (("Q1", m1), ("Q1p", m2)):
            name = f"{head}_{i}"
            terms = [
                _p("arrival", lam, f"{head}_{i + 1}")
                if i < K1
                else _p("arrloss", lam, name),
                _p("tick1", top(), name),
            ]
            for action, rate in (("service1", mu_head), ("timeout", t)):
                if i == 1:
                    terms.append(_p(action, rate, "Q1_0"))
                else:
                    terms.append(_p(action, (1 - a) * rate, f"Q1p_{i - 1}"))
                    terms.append(_p(action, a * rate, f"Q1_{i - 1}"))
            defs[name] = _choice(*terms)

    # ------------------------------------------------------ timer 1
    # n Erlang phases: Timer1_{n-1} .. Timer1_1 tick, Timer1_0 enables
    # the (queue-driven) timeout
    top_ref = f"Timer1_{n - 1}"
    defs["Timer1_0"] = _choice(
        _p("timeout", top(), top_ref),
        _p("service1", top(), top_ref),
    )
    for i in range(1, n):
        defs[f"Timer1_{i}"] = _choice(
            _p("tick1", t, f"Timer1_{i - 1}"),
            _p("service1", top(), top_ref),
        )

    # ------------------------------------------------------ queue 2
    # Q2_i: head in repeat phase; Q2s_i / Q2l_i: short / long residual.
    defs["Q2_0"] = _p("timeout", top(), "Q2_1")

    def residual(i: int, rate: float, kind: str):
        terms = [
            _p("timeout", top(), f"Q2{kind}_{min(i + 1, K2)}"),
            _p("service2", rate, f"Q2_{i - 1}"),
        ]
        if params.tick_during_residual:
            terms.insert(1, _p("tick2", top(), f"Q2{kind}_{i}"))
        return _choice(*terms)

    for i in range(1, K2 + 1):
        defs[f"Q2_{i}"] = _choice(
            _p("timeout", top(), f"Q2_{min(i + 1, K2)}"),
            _p("tick2", top(), f"Q2_{i}"),
            *(
                _p("repeatservice", p * t, f"Q2{kind}_{i}")
                for p, kind in ((ap, "s"), (1 - ap, "l"))
                if p > 0
            ),
        )
        defs[f"Q2s_{i}"] = residual(i, m1, "s")
        defs[f"Q2l_{i}"] = residual(i, m2, "l")

    # ------------------------------------------------------ timer 2
    defs["Timer2_0"] = _p("repeatservice", top(), f"Timer2_{n - 1}")
    for i in range(1, n):
        defs[f"Timer2_{i}"] = _p("tick2", t, f"Timer2_{i - 1}")

    node1 = Cooperation(
        Constant("Q1_0"),
        Constant(f"Timer1_{n - 1}"),
        frozenset({"service1", "tick1", "timeout"}),
    )
    node2 = Cooperation(
        Constant("Q2_0"),
        Constant(f"Timer2_{n - 1}"),
        frozenset({"repeatservice", "tick2"}),
    )
    system = Cooperation(node1, node2, frozenset({"timeout"}))
    return Model(defs, system)


_PH2 = {"_": 0, "s": 1, "l": 2}  # Q2_ repeat, Q2s_ short, Q2l_ long


@dataclass
class TagsHyperExponential(CompiledTags):
    """Two-node TAGS, H2 service (the Figure 5 chain).

    ``alpha_prime=None`` computes the exact residual-mixing probability
    from the Erlang(n, t) timeout race.  State tuples ``(q1, ph1, r1, q2,
    ph2, r2)`` extend the Figure 3 encoding by the node-1 head's phase
    (``ph1``: 0 short / 1 long) and split node 2's residual phase
    (``ph2``: 0 repeat, 1 short, 2 long).
    """

    lam: float = 11.0
    alpha: float = 0.99
    mu1: float = 100.0
    mu2: float = 1.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    alpha_prime: float | None = None
    tick_during_residual: bool = False

    PARAMS = TagsH2Parameters
    _QUEUE_COLUMNS = (0, 3)

    @property
    def resolved_alpha_prime(self) -> float:
        return self.params().resolved_alpha_prime

    @property
    def mean_service(self) -> float:
        return self.params().mean_service

    def build(self) -> Model:
        return build_tags_h2_model(self.params())

    def _structure_key(self) -> tuple:
        # alpha is validated inside (0, 1) so its splits never vanish,
        # but a degenerate alpha_prime (0 or 1) drops a repeatservice
        # branch, which is a different structure
        ap = self.resolved_alpha_prime
        return (
            "tags-figure5",
            self.n,
            self.K1,
            self.K2,
            self.tick_during_residual,
            ap == 0.0,
            ap == 1.0,
        )

    def _state_fields(self) -> list:
        # sequential components: Q1_i / Q1p_i, Timer1_k, Q2*_j, Timer2_k
        return [
            (0, _index),
            (0, lambda name: int(name[2] == "p")),
            (1, _index),
            (2, _index),
            (2, lambda name: _PH2[name[2]]),
            (3, _index),
        ]

    def _extra(self) -> dict:
        return {"alpha_prime": self.resolved_alpha_prime}


def tags_h2_pepa_metrics(params: TagsH2Parameters) -> QueueMetrics:
    """Solve the Figure 5 model and extract the paper's metrics."""
    return TagsHyperExponential(**asdict(params)).metrics()
