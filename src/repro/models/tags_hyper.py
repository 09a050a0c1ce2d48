"""Two-node TAGS with hyper-exponential (H2) service (paper Figure 5).

Figure 5 is Figure 3 with two phases of service: a head job at node 1
serves at rate ``mu1`` (short) with probability ``alpha`` and ``mu2``
(long) otherwise, the phase drawn when its service starts, and node 2's
residual is short with probability ``alpha'`` (the residual-mixing
probability of Section 3.2).  :func:`~repro.models.tags_pepa.
build_tags_model` builds it from that two-phase ``service`` description,
as it builds Figure 3 from one phase; its module docstring names the
corrections to the printed Figure 5 (DESIGN.md note 4).

:class:`TagsHyperExponential` solves the model on the compiled engine
through the structure cache (see
:class:`~repro.models.tags_pepa.CompiledTags`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.dists.residual import h2_residual_mixing
from repro.models.metrics import QueueMetrics, check_rates
from repro.models.tags_pepa import (
    FIGURE3_FIELDS,
    CompiledTags,
    TagsParameters,
    _phase,
    build_tags_model,
)
from repro.pepa import Model

__all__ = [
    "TagsH2Parameters",
    "TagsHyperExponential",
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

    def service_phases(self) -> tuple:
        """The builder's ``service``: the head's phase drawn from
        ``alpha``, node 2's residual mixed by ``alpha'``."""
        a, ap = self.alpha, self.resolved_alpha_prime
        return ((0, a), (1, 1 - a)), (self.mu1, self.mu2), (ap, 1 - ap)

    def build(self) -> Model:
        return build_tags_model(
            self.params(TagsParameters), service=self.service_phases()
        )

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
        # Figure 3's columns with the node-1 head's phase after q1
        return FIGURE3_FIELDS[:1] + [(0, _phase)] + FIGURE3_FIELDS[1:]

    def _extra(self) -> dict:
        return {"alpha_prime": self.resolved_alpha_prime}


def tags_h2_pepa_metrics(params: TagsH2Parameters) -> QueueMetrics:
    """Solve the Figure 5 model and extract the paper's metrics."""
    return TagsHyperExponential(**asdict(params)).metrics()
