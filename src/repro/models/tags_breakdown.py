"""Breakdown/repair-extended TAGS CTMC (ground truth for fault injection).

Extends the Figure 3 PEPA model (:mod:`repro.models.tags_pepa`) with the
classic machine-breakdown pattern: a two-state *breaker* component

.. code-block:: text

    Avail = (fail2, f).Down
    Down  = (repair2, r).Avail

cooperates with the TAGS system on ``{timeout, service2}``.  While
``Down`` it offers neither action, so node 2 is frozen (no residual
service) **and** node-1 timeouts are blocked -- node 1 serves every job
to exhaustion.  That is exactly the runtime's ``degraded="single_node"``
policy (:class:`repro.faults.FaultInjector`), so this CTMC is the
analytic counterpart of a fault-injected run with node-2 crashes.

Because ``fail2``/``repeat2`` are autonomous (no other component joins
them), the breaker's marginal is exact: availability
``r / (f + r)`` independent of the queueing dynamics -- the first thing
``tests/models/test_tags_breakdown.py`` pins.

The second exact reduction is the *permanently down* regime
(``TagsBreakdown(..., permanently_down=True)``): the breaker starts
``Down`` and never repairs, timeouts never fire, and node 1 becomes a
plain M/M/1/K1 birth-death chain.  :meth:`TagsBreakdown.node1_marginal`
aggregates the stationary vector by queue-1 length and must equal
:meth:`repro.models.mm1k.MM1K.distribution` to solver precision -- the
same target ``serve/validate.py`` holds a degraded *live* runtime to
(there via batch-means confidence intervals, since the runtime decides
the timeout race at service start rather than blocking it continuously).

The blocking-vs-race distinction is the one knowing semantic gap between
this CTMC and the discrete-event hosts: the CTMC suppresses a timeout
the instant the breaker is down, while the hosts suppress it only at
service start.  In the permanently-down regime the two coincide exactly
(no race is ever armed); under intermittent failure they differ by
O(one service time) per transition, which the CI-based validation
absorbs.  See ``docs/robustness.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.metrics import check_rates
from repro.models.tags_pepa import (
    FIGURE3_FIELDS,
    CompiledTags,
    TagsParameters,
    build_tags_model,
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

__all__ = ["TagsBreakdown", "build_tags_breakdown_model"]


def build_tags_breakdown_model(
    params: TagsParameters,
    fail: float,
    repair: float,
    *,
    permanently_down: bool = False,
) -> Model:
    """Attach the breakdown breaker to the Figure 3 system.

    The base model's definitions are reused verbatim; only the system
    equation changes: ``(Node1 <timeout> Node2) <timeout, service2>
    Breaker``.  With ``permanently_down`` the breaker is the single
    ``Down`` derivative (kept live by a rate-1 self-loop, which does not
    alter the CTMC) and ``fail``/``repair`` are ignored.
    """
    base = build_tags_model(params)
    defs = dict(base.definitions)
    if permanently_down:
        defs["Down"] = Prefix(
            Activity("breakdown_idle", Rate(1.0)), Constant("Down")
        )
        breaker = Constant("Down")
    else:
        if fail <= 0 or repair <= 0:
            raise ValueError("fail and repair rates must be positive")
        defs["Avail"] = Choice(
            Prefix(Activity("fail2", Rate(fail)), Constant("Down")),
            Choice(
                Prefix(Activity("timeout", top()), Constant("Avail")),
                Prefix(Activity("service2", top()), Constant("Avail")),
            ),
        )
        defs["Down"] = Prefix(
            Activity("repair2", Rate(repair)), Constant("Avail")
        )
        breaker = Constant("Avail")
    system = Cooperation(
        base.system, breaker, frozenset({"timeout", "service2"})
    )
    return Model(defs, system)


@dataclass
class TagsBreakdown(CompiledTags):
    """Two-node exponential TAGS with node-2 breakdown/repair.

    ``fail`` / ``repair`` are the node-2 crash and repair rates (their
    ratio sets availability ``repair / (fail + repair)``);
    ``permanently_down`` pins the breaker down from time zero, the
    regime whose node-1 marginal is exactly M/M/1/K1.  The queueing
    parameters mirror :class:`~repro.models.tags_pepa.TagsParameters`.
    State tuples are the Figure 3 ``(q1, r1, q2, ph2, r2)`` plus ``up``
    (1 while the breaker is ``Avail``); ``metrics()`` and
    ``node1_marginal()`` share one solve.
    """

    lam: float = 5.0
    mu: float = 10.0
    t: float = 51.0
    n: int = 6
    K1: int = 10
    K2: int = 10
    fail: float = 0.01
    repair: float = 0.05
    permanently_down: bool = False
    tick_during_residual: bool = False

    PARAMS = TagsParameters
    _QUEUE_COLUMNS = (0, 2)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_rates(fail=self.fail, repair=self.repair)

    def build(self) -> Model:
        return build_tags_breakdown_model(
            self.params(),
            self.fail,
            self.repair,
            permanently_down=self.permanently_down,
        )

    def _structure_key(self) -> tuple:
        return (
            "tags-breakdown",
            self.n,
            self.K1,
            self.K2,
            self.tick_during_residual,
            self.permanently_down,
        )

    def _state_fields(self) -> list:
        # the breaker is the fifth sequential component
        return FIGURE3_FIELDS + [(4, lambda name: int(name == "Avail"))]

    def _extra(self) -> dict:
        # stationary probability of the breaker being up
        up = self._state_array()[:, 5].astype(float)
        return {"availability": float(self.pi @ up)}

    @property
    def availability(self) -> float:
        """Analytic node-2 availability (1 when never failing is not an
        option here: the breaker always exists)."""
        if self.permanently_down:
            return 0.0
        return self.repair / (self.fail + self.repair)

    def node1_marginal(self) -> np.ndarray:
        """Stationary distribution of the queue-1 length.

        With ``permanently_down=True`` this must equal
        ``MM1K(lam, mu, K1).distribution()`` exactly (to solver
        tolerance): blocked timeouts make node 1 a birth-death chain.
        """
        S = self._state_array()
        return np.bincount(S[:, 0], weights=self.pi, minlength=self.K1 + 1)
