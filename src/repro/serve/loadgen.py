"""Load generators for the dispatcher runtime.

A load generator answers one question, repeatedly: *when does the next
job arrive and how much work does it bring?* -- via
``next_job(rng) -> (gap, demand)`` (``None`` when a finite source is
exhausted).  Three sources cover the paper's territory:

* :class:`PoissonLoad` -- open-loop Poisson arrivals (the paper's base
  model).  ``rate`` is a plain mutable attribute, so experiments can
  shift the load mid-run (``runtime.schedule(5000, lambda: setattr(load,
  "rate", 10.0))``) and watch the controller chase it.
* :class:`MMPPLoad` -- bursty arrivals through
  :class:`repro.sim.workload.MMPPArrivals` (the Section 7 conjecture).
* :class:`TraceLoad` -- replay of a recorded :class:`Trace`, byte-exact:
  the equivalence tests feed the same trace to the runtime and to
  ``sim.runner.Simulation`` and require identical per-job outcomes.

:class:`Trace` stores **gaps** (inter-arrival times) rather than
absolute times as the ground truth; both replay paths accumulate
``now + gap`` in the same order, so their floating-point arrival
instants agree bit-for-bit.  :class:`TraceArrivals` and
:class:`TraceDemands` adapt a trace to the ``next_interarrival`` /
``draw`` protocols the simulator expects;
:meth:`Trace.from_arrival_times` builds a trace from absolute arrival
instants (rejecting non-monotone sequences).

All sources validate their parameters **up front** and name the
offending field in the ``ValueError``: a zero MMPP rate or a NaN gap
surfacing as a hung arrival chain deep inside an asyncio run is
much harder to diagnose than a constructor error (NaN in particular
slips through naive ``x <= 0`` comparisons, so the checks here insist
on finiteness explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.workload import demand_draw

__all__ = [
    "PoissonLoad",
    "MMPPLoad",
    "TraceLoad",
    "Trace",
    "TraceArrivals",
    "TraceDemands",
]


@dataclass
class PoissonLoad:
    """Poisson arrivals of iid demands; ``rate`` may be changed mid-run."""

    rate: float
    demand: object  # distribution with .sample(size, rng)

    def __post_init__(self) -> None:
        if not np.isfinite(self.rate) or self.rate <= 0:
            raise ValueError(
                f"PoissonLoad.rate must be finite and positive, got {self.rate!r}"
            )
        if not hasattr(self.demand, "sample"):
            raise ValueError(
                "PoissonLoad.demand must be a distribution with .sample(size, rng)"
            )

    def next_job(self, rng: np.random.Generator):
        gap = rng.exponential(1.0 / self.rate)
        return gap, demand_draw(self.demand)(rng)


@dataclass
class MMPPLoad:
    """Bursty arrivals: an ``MMPPArrivals`` process paired with a demand
    distribution."""

    arrivals: object  # MMPPArrivals (or anything with next_interarrival)
    demand: object

    def __post_init__(self) -> None:
        if not hasattr(self.arrivals, "next_interarrival"):
            raise ValueError(
                "MMPPLoad.arrivals must provide next_interarrival(rng)"
            )
        if not hasattr(self.demand, "sample"):
            raise ValueError(
                "MMPPLoad.demand must be a distribution with .sample(size, rng)"
            )

    def next_job(self, rng: np.random.Generator):
        gap = float(self.arrivals.next_interarrival(rng))
        return gap, demand_draw(self.demand)(rng)


@dataclass
class Trace:
    """A finite recorded workload: inter-arrival gaps and demands."""

    gaps: np.ndarray
    demands: np.ndarray

    def __post_init__(self) -> None:
        self.gaps = np.asarray(self.gaps, dtype=float).ravel()
        self.demands = np.asarray(self.demands, dtype=float).ravel()
        if self.gaps.shape != self.demands.shape:
            raise ValueError(
                f"Trace.gaps ({self.gaps.size}) and Trace.demands "
                f"({self.demands.size}) must have one demand per gap"
            )
        if self.gaps.size == 0:
            raise ValueError("Trace.gaps is empty: a trace needs >= 1 job")
        # NaN passes `min() < 0`, so check finiteness explicitly
        if not np.all(np.isfinite(self.gaps)) or self.gaps.min() < 0:
            raise ValueError("Trace.gaps must all be finite and >= 0")
        if not np.all(np.isfinite(self.demands)) or self.demands.min() <= 0:
            raise ValueError("Trace.demands must all be finite and > 0")

    def __len__(self) -> int:
        return int(self.gaps.size)

    @property
    def arrival_times(self) -> np.ndarray:
        return np.cumsum(self.gaps)

    @classmethod
    def from_arrival_times(cls, times, demands) -> "Trace":
        """Build a trace from absolute arrival instants.

        ``times`` must be non-decreasing (a recorded log in arrival
        order); the first gap is the first instant itself, i.e. time
        starts at 0.
        """
        times = np.asarray(times, dtype=float).ravel()
        if times.size == 0:
            raise ValueError("times is empty: a trace needs >= 1 job")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must all be finite")
        gaps = np.diff(times, prepend=0.0)
        if gaps.min() < 0:
            bad = int(np.argmin(gaps))
            raise ValueError(
                f"times must be non-decreasing: times[{bad}]="
                f"{times[bad]!r} < times[{bad - 1}]={times[bad - 1]!r}"
            )
        return cls(gaps, demands)

    @classmethod
    def synthesise(cls, arrivals, demand, n_jobs: int, *, seed: int = 0) -> "Trace":
        """Record ``n_jobs`` from an arrival process + demand distribution
        (e.g. ``PoissonArrivals(5.0)`` + ``HyperExponential.h2(...)``)."""
        if n_jobs < 1:
            raise ValueError("need at least one job")
        rng = np.random.default_rng(seed)
        gaps = np.array(
            [arrivals.next_interarrival(rng) for _ in range(n_jobs)]
        )
        demands = np.asarray(demand.sample(n_jobs, rng), dtype=float)
        return cls(gaps, demands)


@dataclass
class TraceLoad:
    """Replay a :class:`Trace`; returns ``None`` once exhausted."""

    trace: Trace
    _pos: int = field(default=0, repr=False)

    def next_job(self, rng: np.random.Generator):
        i = self._pos
        trace = self.trace
        if i >= trace.gaps.size:
            return None
        self._pos = i + 1
        return float(trace.gaps[i]), float(trace.demands[i])

    @property
    def remaining(self) -> int:
        return len(self.trace) - self._pos


@dataclass
class TraceArrivals:
    """``next_interarrival`` view of a trace for ``sim.runner.Simulation``.

    After the last recorded gap it returns ``inf``: the simulator keeps
    scheduling "next arrival" events, and an infinitely-far one simply
    never fires before ``t_end``.
    """

    trace: Trace
    _pos: int = field(default=0, repr=False)

    def next_interarrival(self, rng) -> float:
        i = self._pos
        gaps = self.trace.gaps
        if i >= gaps.size:
            return float("inf")
        self._pos = i + 1
        return float(gaps[i])


@dataclass
class TraceDemands:
    """``draw`` (and ``sample``) view of a trace's demands for
    ``sim.runner.Simulation``."""

    trace: Trace
    _pos: int = field(default=0, repr=False)

    def sample(self, size, rng) -> np.ndarray:
        if size != 1:
            raise ValueError("trace demands are consumed one at a time")
        i = self._pos
        self.draw(rng)
        return self.trace.demands[i : i + 1]

    def draw(self, rng) -> float:
        i = self._pos
        demands = self.trace.demands
        if i >= demands.size:
            raise IndexError("trace exhausted")
        self._pos = i + 1
        return float(demands[i])
