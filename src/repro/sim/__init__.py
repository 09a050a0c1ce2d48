"""Discrete-event simulation of the allocation policies.

The CTMC models make Markovian approximations (Erlang timeouts, resampled
repeat periods); the simulator executes the *actual* TAGS semantics -- a
job has one fixed service demand, is killed at the timeout and restarted
from scratch downstream -- so it both validates the CTMC results and
reaches workloads PEPA cannot express (deterministic timeouts, bounded
Pareto demand, bursty arrivals).

Building blocks:

* :mod:`~repro.sim.workload` -- Poisson and MMPP/IPP (bursty) arrival
  processes; any distribution with ``.sample`` works for demands.
* :mod:`~repro.sim.policies` -- TAGS, random, round-robin and
  join-shortest-queue dispatchers over bounded FCFS nodes.
* :mod:`~repro.sim.cluster` -- the TAGS state machine (queues, the
  service/timeout race, kill-and-forward, faults, warm-up, results)
  that both this simulator and :mod:`repro.serve` drive.
* :mod:`~repro.sim.runner` -- the heap-based event loop and the
  replication helpers.
* :mod:`~repro.sim.stats` -- time-averaged queue lengths, batch-means
  confidence intervals, mean slowdown.
"""

from repro.sim.workload import PoissonArrivals, MMPPArrivals, DeterministicTimeout, ErlangTimeout
from repro.sim.policies import TagsPolicy, RandomPolicy, RoundRobinPolicy, JSQPolicy
from repro.sim.runner import (
    Simulation,
    SimulationResult,
    replicate,
    replicate_until,
)
from repro.sim.stats import TimeAverage, batch_means_ci

__all__ = [
    "PoissonArrivals",
    "MMPPArrivals",
    "DeterministicTimeout",
    "ErlangTimeout",
    "TagsPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "JSQPolicy",
    "Simulation",
    "SimulationResult",
    "replicate",
    "replicate_until",
    "TimeAverage",
    "batch_means_ci",
]
