"""Allocation policies for the simulator.

A policy answers three questions:

* ``route(queue_lengths, rng)`` -- which node does a fresh arrival join?
* ``timeout(node)`` -- the timeout sampler for that node (``None`` = serve
  to exhaustion);
* ``forward(node)`` -- where a timed-out job restarts (``None`` = dropped).

TAGS is the only policy that uses timeouts/forwarding; random, round-robin
and JSQ run every job to completion where it lands.

``queue_lengths`` is the cluster's own list of per-node lengths: read it,
do not keep or change it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TagsPolicy", "RandomPolicy", "RoundRobinPolicy", "JSQPolicy"]


@dataclass
class TagsPolicy:
    """All arrivals join node 0; node ``i`` kills at ``timeouts[i]`` and
    moves the job to node ``i+1``; the last node has no timeout.

    ``resume=False`` (default) is TAGS proper: the moved job restarts from
    scratch, all work lost.  ``resume=True`` is the multi-level-feedback
    variant the paper's introduction contrasts with (and whose comparison
    Section 6 calls an open problem): the job continues from where it was
    killed.
    """

    timeouts: tuple  # len = n_nodes - 1, of timeout samplers
    resume: bool = False

    def n_nodes(self) -> int:
        return len(self.timeouts) + 1

    def route(self, queue_lengths, rng) -> int:
        return 0

    def timeout(self, node: int):
        return self.timeouts[node] if node < len(self.timeouts) else None

    def forward(self, node: int):
        return node + 1 if node < len(self.timeouts) else None


@dataclass
class RandomPolicy:
    """Probabilistic split (Appendix A).

    Routing inverts the normalised cdf of the weights, the table
    ``rng.choice(len(weights), p=weights)`` builds on every call, so the
    route stream is ``choice``'s.
    """

    weights: tuple = (0.5, 0.5)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def n_nodes(self) -> int:
        return len(self.weights)

    def route(self, queue_lengths, rng) -> int:
        return bisect_right(self._cdf, rng.random())

    def timeout(self, node: int):
        return None

    def forward(self, node: int):
        return None


@dataclass
class RoundRobinPolicy:
    """Cyclic assignment."""

    nodes: int = 2
    _next: int = field(default=0, repr=False)

    def n_nodes(self) -> int:
        return self.nodes

    def route(self, queue_lengths, rng) -> int:
        node = self._next
        self._next = (self._next + 1) % self.nodes
        return node

    def timeout(self, node: int):
        return None

    def forward(self, node: int):
        return None


@dataclass
class JSQPolicy:
    """Join the shortest queue (Appendix B).

    Tie-breaking is an explicit, seeded choice rather than an accident of
    the argmin implementation:

    * ``tie_break="random"`` (default, matching the symmetric CTMC
      model): a tied shortest node is drawn uniformly from the
      simulation's generator, so runs are reproducible per seed;
    * ``tie_break="lowest"``: deterministically the lowest-indexed tied
      node -- the behaviour a plain ``argmin`` silently gives, now
      opt-in.  Under low load this biases work toward node 0 (every
      empty-system arrival lands there), which is measurable on per-node
      queue lengths; tests pin both behaviours.
    """

    nodes: int = 2
    tie_break: str = "random"

    def __post_init__(self) -> None:
        if self.tie_break not in ("random", "lowest"):
            raise ValueError(
                f"tie_break must be 'random' or 'lowest', got {self.tie_break!r}"
            )

    def n_nodes(self) -> int:
        return self.nodes

    def route(self, queue_lengths, rng) -> int:
        q = queue_lengths[: self.nodes]
        low = min(q)
        shortest = [i for i, length in enumerate(q) if length == low]
        if len(shortest) == 1 or self.tie_break == "lowest":
            return shortest[0]
        # the draw rng.choice(shortest) makes, without building an array
        return shortest[rng.integers(0, len(shortest))]

    def timeout(self, node: int):
        return None

    def forward(self, node: int):
        return None
