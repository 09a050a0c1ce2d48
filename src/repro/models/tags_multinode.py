"""N-node TAGS with exponential service (paper Section 3: "a simple
matter to add more nodes"), built by
:func:`~repro.models.tags_pepa.build_tags_model` (N = 2 is Figure 3).

**Repeat-work approximation.**  A job reaching node ``i`` redoes the
``i - 1`` timeout periods it spent upstream as ``i - 1`` Erlang(n, ·)
cycles: an intermediate node on its *own* clock t_i (it cannot time out
while repeating), the last node N on t_{N-1}.  At N = 3, node 2 repeats
one Erlang(n, t_2) cycle where the job spent Erlang(n, t_1) at node 1,
and node 3 repeats two Erlang(n, t_2) cycles.  At N = 2 this is
Figure 3's exact repeat of the node-1 period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.metrics import check_rates
from repro.models.tags_pepa import (
    CompiledTags,
    TagsParameters,
    _index,
    build_tags_model,
)
from repro.pepa import Model

__all__ = ["TagsMultiNode"]


def _cycles_left(passes: int):
    """Decode ``Q<i>_q`` (entry), ``Q<i>p<k>_q`` (pass k) or ``Q<i>r_q``
    (residual) to the head's repeat cycles left."""
    return lambda name: (
        0 if name.endswith("_0") or "r_" in name
        else passes - int(name.split("_")[0].partition("p")[2] or 0)
    )


@dataclass
class TagsMultiNode(CompiledTags):
    """N-node TAGS chain: node ``i < N`` races its Erlang(n, t_i) timeout
    (the Figure 3 clock) against the head's service, node ``N`` serves
    to exhaustion, and a head at node ``i`` first repeats ``i - 1``
    cycles (see the module docstring).

    State tuples are flat, ``(q_i, r_i, c_i)`` per node: queue length,
    clock phases left (the last node's clock rests at ``n - 1`` unless
    its head repeats) and the head's repeat cycles left.
    """

    lam: float = 5.0
    mu: float = 10.0
    timeouts: tuple = (51.0,)
    n: int = 2
    capacities: tuple = (5, 5)

    PARAMS = TagsParameters

    def __post_init__(self) -> None:
        super().__post_init__()
        N = len(self.capacities)
        if N < 2:
            raise ValueError("need at least two nodes")
        if len(self.timeouts) != N - 1:
            raise ValueError("need one timeout rate per non-final node")
        if min(self.capacities) < 1:
            raise ValueError("capacities must be >= 1")
        check_rates(**{f"t{i + 1}": t for i, t in enumerate(self.timeouts)})
        self._QUEUE_COLUMNS = tuple(range(0, 3 * N, 3))

    def build(self) -> Model:
        return build_tags_model(
            self.params(), capacities=self.capacities, timeouts=self.timeouts
        )

    def _structure_key(self) -> tuple:
        return ("tags-multinode", self.n, tuple(self.capacities))

    def _state_fields(self) -> list:
        # node j's queue and timer are sequential components 2j and 2j + 1
        return [
            f for j in range(len(self.capacities))
            for f in ((2 * j, _index), (2 * j + 1, _index), (2 * j, _cycles_left(j)))
        ]

    def _extra(self) -> dict:
        return {"arrival_loss": self.throughput("arrloss")}
