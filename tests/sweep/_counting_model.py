"""A tiny instrumented model for cache/engine tests.

Module-level (not defined inside a test) so it pickles into pool workers.
The solve counter lives in a class attribute: in serial runs it counts
exactly how many times a steady-state solve was triggered, which is how
the cache tests assert "solver not re-invoked".
"""

import os
from dataclasses import dataclass

import numpy as np

from repro.ctmc import Generator, steady_state
from repro.models.metrics import from_population_and_throughput


@dataclass
class CountingMM1K:
    """M/M/1/K whose generator builds are counted."""

    lam: float = 2.0
    mu: float = 5.0
    K: int = 10

    builds = 0  # class-level counter, incremented per generator build

    @property
    def generator(self):
        if not hasattr(self, "_gen"):
            type(self).builds += 1
            src, dst, rate = [], [], []
            for i in range(self.K):
                src.append(i), dst.append(i + 1), rate.append(self.lam)
                src.append(i + 1), dst.append(i), rate.append(self.mu)
            self._gen = Generator.from_triples(self.K + 1, src, dst, rate)
            self._pi = None
        return self._gen

    @property
    def pi(self):
        _ = self.generator
        if self._pi is None:
            self._pi = steady_state(self._gen)
        return self._pi

    def metrics(self):
        pi = self.pi
        jobs = float(pi @ np.arange(self.K + 1))
        throughput = self.lam * (1.0 - pi[-1])
        return from_population_and_throughput(
            mean_jobs_per_node=(jobs,),
            throughput=throughput,
            offered_load=self.lam,
        )


@dataclass
class FailingPoint:
    """A closed-form model whose point ``x == fail_at`` raises when built.

    ``constructed`` counts the constructions made in this process: pool
    workers count in their own copies, so a parallel sweep leaves the
    parent's count at 0.
    """

    x: float
    fail_at: float = 3.0

    constructed = 0  # class-level counter, incremented per construction

    def __post_init__(self):
        type(self).constructed += 1
        if self.x == self.fail_at:
            raise ValueError(f"point {self.x} fails")

    def metrics(self):
        return from_population_and_throughput(
            mean_jobs_per_node=(self.x,), throughput=1.0, offered_load=1.0
        )


_PARENT_PID = os.getpid()  # the process that imported this module


class DiesInWorker(FailingPoint):
    """A :class:`FailingPoint` whose construction kills any other process
    (a forked pool worker) on the spot, so a pool running it breaks."""

    def __post_init__(self):
        if os.getpid() != _PARENT_PID:
            os._exit(1)
        super().__post_init__()
