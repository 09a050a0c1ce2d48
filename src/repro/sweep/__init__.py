"""Parallel, cached parameter sweeps.

Every paper figure is 30-60 independent steady-state solves; threshold-
and timeout-tuning studies need the same shape of dense grid.  This
package makes those sweeps cheap three ways:

* :class:`SweepEngine` runs grids and timeout searches through one
  dispatch loop that fans misses out over a process pool
  (``REPRO_SWEEP_WORKERS`` or ``workers=`` to configure; in-process
  fallback), preserving grid order and determinism;
* :class:`SolveCache` memoizes solves content-addressed by
  ``(model class, params, method, tol)`` -- in-memory LRU plus an
  optional on-disk layer -- so repeated figures and optimiser probes hit
  the cache instead of re-solving;
* :class:`StructureCache` memoizes the *reachability structure*
  (compiled PEPA spaces) keyed by the structure-shaping
  parameters only, so a rate grid explores each state space exactly once
  and re-evaluates only the generator's rate column per point.

See ``docs/performance.md`` for the full story and
``benchmarks/bench_sweep_engine.py`` for measured speedups.
"""

from repro.sweep.cache import SolveCache, SolveRecord, UncacheableParams, cache_key
from repro.sweep.engine import (
    WORKERS_ENV_VAR,
    ModelSpec,
    SweepEngine,
    default_engine,
    solve_point,
)
from repro.sweep.stats import PointStats, SweepResult, format_sweep_stats
from repro.sweep.structure import StructureCache, structure_cache

__all__ = [
    "StructureCache",
    "structure_cache",
    "SolveCache",
    "SolveRecord",
    "UncacheableParams",
    "cache_key",
    "WORKERS_ENV_VAR",
    "ModelSpec",
    "SweepEngine",
    "default_engine",
    "solve_point",
    "PointStats",
    "SweepResult",
    "format_sweep_stats",
]
