"""Arrival processes and timeout samplers for the simulator.

Arrival processes yield successive inter-arrival times through
``next_interarrival(rng)``; the MMPP lets us probe the paper's Section 7
conjecture that bursty traffic hurts TAGS more than shortest-queue.

Timeout samplers produce the node-1 timeout duration per service attempt:
``DeterministicTimeout`` is the real TAGS mechanism, ``ErlangTimeout``
mirrors the paper's Markovian approximation (so simulator-vs-CTMC
agreement can be tested exactly).

Service demands come from any distribution with ``sample(size, rng)``;
the hosts take one per arrival through :func:`demand_draw`, which uses
the distribution's scalar ``draw(rng)`` (every demand source in
:mod:`repro.dists` and :mod:`repro.serve.loadgen` has one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoissonArrivals",
    "MMPPArrivals",
    "DeterministicTimeout",
    "ErlangTimeout",
    "demand_draw",
]


def demand_draw(demand):
    """``demand``'s one-sample function ``rng -> float``: its scalar
    ``draw`` when it has one, else ``sample(1, rng)[0]`` (the same value,
    made through an array)."""
    draw = getattr(demand, "draw", None)
    if draw is not None:
        return draw
    return lambda rng: float(demand.sample(1, rng)[0])


@dataclass
class PoissonArrivals:
    """Poisson process: iid Exponential(rate) gaps."""

    rate: float

    def __post_init__(self) -> None:
        # explicit finiteness: NaN slips through a bare `rate <= 0`
        if not np.isfinite(self.rate) or self.rate <= 0:
            raise ValueError(
                f"PoissonArrivals.rate must be finite and positive, "
                f"got {self.rate!r}"
            )

    @property
    def mean_rate(self) -> float:
        return self.rate

    def next_interarrival(self, rng: np.random.Generator) -> float:
        return rng.exponential(1.0 / self.rate)


@dataclass
class MMPPArrivals:
    """Two-state Markov-modulated Poisson process.

    The modulating chain alternates between states 0 and 1 with rates
    ``switch01`` / ``switch10``; arrivals occur at ``rate0`` / ``rate1``.
    An Interrupted Poisson Process (on/off bursts) is ``rate1 = 0``.
    """

    rate0: float
    rate1: float
    switch01: float
    switch10: float

    def __post_init__(self) -> None:
        for name in ("rate0", "rate1"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(
                    f"MMPPArrivals.{name} must be finite and >= 0, got {v!r}"
                )
        if max(self.rate0, self.rate1) == 0:
            raise ValueError(
                "MMPPArrivals needs at least one of rate0/rate1 positive"
            )
        for name in ("switch01", "switch10"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(
                    f"MMPPArrivals.{name} must be finite and positive, got {v!r}"
                )
        self._state = 0
        self._residual = None  # leftover exponential race bookkeeping

    @property
    def mean_rate(self) -> float:
        """Long-run arrival rate (stationary mix of the two states)."""
        p0 = self.switch10 / (self.switch01 + self.switch10)
        return p0 * self.rate0 + (1 - p0) * self.rate1

    def burstiness_index(self) -> float:
        """Ratio of peak to mean rate (1 = Poisson)."""
        return max(self.rate0, self.rate1) / self.mean_rate

    def next_interarrival(self, rng: np.random.Generator) -> float:
        """Simulate the modulated race until an arrival occurs."""
        elapsed = 0.0
        while True:
            rate = self.rate0 if self._state == 0 else self.rate1
            switch = self.switch01 if self._state == 0 else self.switch10
            total = rate + switch
            dt = rng.exponential(1.0 / total)
            if rng.random() < rate / total:
                return elapsed + dt
            elapsed += dt
            self._state = 1 - self._state


@dataclass
class DeterministicTimeout:
    """Fixed timeout duration (the actual TAGS mechanism)."""

    duration: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.duration) or self.duration <= 0:
            raise ValueError(
                f"DeterministicTimeout.duration must be finite and positive, "
                f"got {self.duration!r}"
            )

    @property
    def mean(self) -> float:
        return self.duration

    def sample(self, rng: np.random.Generator) -> float:
        return self.duration


@dataclass
class ErlangTimeout:
    """Erlang(n, t) timeout (the paper's Markovian approximation)."""

    n: int
    t: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ErlangTimeout.n must be >= 1, got {self.n!r}")
        if not np.isfinite(self.t) or self.t <= 0:
            raise ValueError(
                f"ErlangTimeout.t must be finite and positive, got {self.t!r}"
            )

    @property
    def mean(self) -> float:
        return self.n / self.t

    def sample(self, rng: np.random.Generator) -> float:
        return rng.gamma(shape=self.n, scale=1.0 / self.t)
