"""Per-point observability for sweep runs.

Every sweep returns, alongside the metrics, one :class:`PointStats` per
grid point: which solver ran, whether the point came out of the cache,
the iteration count (``power`` only), the verified residual and the wall
time.  :class:`SweepResult.summary` aggregates these so benchmarks can
report "N solves, M cache hits, X s" without re-deriving anything.

The engine builds each ``PointStats`` from the point's solve record and
its cache-hit flag; with a recorder enabled it files the same fields as
a ``sweep.point`` span (duration ``wall_time``), so the sweep's own
statistics and an exported trace agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PointStats", "SweepResult", "format_sweep_stats"]


@dataclass(frozen=True)
class PointStats:
    """Diagnostics for one grid point of a sweep."""

    index: int
    key: "str | None"
    method: str
    cache_hit: bool
    iterations: "int | None"
    residual: float
    wall_time: float


@dataclass
class SweepResult:
    """Outcome of one sweep: per-point metrics plus solver statistics.

    ``metrics[i]`` and ``stats[i]`` describe grid point ``i`` in the order
    the grid was given, regardless of worker scheduling.
    """

    metrics: list
    stats: "list[PointStats]"
    wall_time: float
    workers: int
    params: list = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return len(self.metrics)

    @property
    def n_hits(self) -> int:
        """Points answered from the cache."""
        return sum(1 for s in self.stats if s.cache_hit)

    @property
    def n_solves(self) -> int:
        """Points that actually invoked a steady-state solver."""
        return sum(1 for s in self.stats if not s.cache_hit)

    def values(self, metric: str):
        """Extract one metric attribute across all points as a list."""
        return [getattr(m, metric) for m in self.metrics]

    def summary(self) -> dict:
        """Aggregate counters for logging/benchmark reports."""
        return {
            "points": self.n_points,
            "solves": self.n_solves,
            "cache_hits": self.n_hits,
            "workers": self.workers,
            "wall_time": self.wall_time,
            "solve_time": sum(s.wall_time for s in self.stats if not s.cache_hit),
            "max_residual": max((s.residual for s in self.stats), default=0.0),
        }


def format_sweep_stats(result: SweepResult, label: str = "sweep") -> str:
    """One-line human-readable summary of a sweep (for benchmark output)."""
    s = result.summary()
    return (
        f"{label}: {s['points']} points, {s['solves']} solves, "
        f"{s['cache_hits']} cache hits, "
        f"{s['workers']} worker(s), {s['wall_time']:.3f} s wall "
        f"(residual <= {s['max_residual']:.2e})"
    )
