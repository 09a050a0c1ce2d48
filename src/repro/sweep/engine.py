"""The parallel sweep engine.

Paper figures and tuning studies are *sweeps*: 30-60 independent
steady-state solves over a parameter grid.  The engine runs such sweeps

* **in parallel** -- independent points fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (serial fallback when
  one worker is enough or multiprocessing is unavailable).  The worker
  count comes from, in order: the engine's ``workers`` attribute, the
  ``REPRO_SWEEP_WORKERS`` environment variable, ``os.cpu_count()``;
* **cached** -- every point is first looked up in a content-addressed
  :class:`~repro.sweep.cache.SolveCache`, so re-running a figure, a
  second figure over the same grid, or an optimiser re-probing a point
  costs a dict lookup instead of a solve.

Every point is solved from scratch by the same deterministic solver, so
parallel and serial results are bit-identical.

The grid order is always preserved in the results, regardless of worker
scheduling, and every point carries a :class:`~repro.sweep.stats.
PointStats` record for observability.

Observability is native, not bolted on: every ``sweep()`` runs inside a
``sweep`` span, every grid point files a ``sweep.point`` span (from
which its :class:`PointStats` is *derived* -- the two can never
disagree), cache traffic increments the ``sweep.cache.hit`` /
``sweep.cache.miss`` counters, and pool workers record into their own
:class:`repro.obs.Recorder` whose drained buffer rides back with each
chunk result and is merged into the parent recorder.  All of it
vanishes behind a single attribute check when the process-global
recorder is the default :class:`~repro.obs.NullRecorder`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.ctmc.steady import METHODS, steady_state
from repro.obs import SpanRecord
from repro.sweep.cache import SolveCache, SolveRecord, UncacheableParams, cache_key
from repro.sweep.stats import PointStats, SweepResult

__all__ = [
    "WORKERS_ENV_VAR",
    "ModelSpec",
    "SweepEngine",
    "solve_point",
    "default_engine",
]

WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"
"""Environment variable overriding the default worker count."""


def solve_point(
    model_cls: type,
    params: Mapping,
    method: str = "auto",
    tol: float = 1e-8,
) -> SolveRecord:
    """Solve one parameter point and return a cacheable record.

    ``model_cls(**params)`` must yield an object with ``.metrics()``.
    Models exposing a ``generator`` (the CTMC model classes) are
    solved through :func:`~repro.ctmc.steady.steady_state` with the given
    method/tolerance; closed-form models (e.g. :class:`~repro.models.
    random_alloc.RandomAllocation`) simply have their metrics evaluated.
    """
    start = time.perf_counter()
    model = model_cls(**params)
    gen = getattr(model, "generator", None)
    if gen is None:
        metrics = model.metrics()
        return SolveRecord(
            metrics=metrics,
            method="closed_form",
            iterations=None,
            residual=0.0,
            wall_time=time.perf_counter() - start,
        )
    info: dict = {}
    pi = steady_state(gen, method=method, tol=tol, info=info)
    model._pi = pi  # models lazily solve via .pi; hand them ours
    metrics = model.metrics()
    return SolveRecord(
        metrics=metrics,
        method=info.get("method", method),
        iterations=info.get("iterations"),
        residual=info["residual"],
        wall_time=time.perf_counter() - start,
    )


def _solve_chunk(
    model_cls: type,
    param_list: Sequence[Mapping],
    method: str,
    tol: float,
    record: bool = False,
) -> "tuple[list[SolveRecord], dict | None]":
    """Worker entry point: solve a chunk of points in order.  Top-level
    so it pickles.

    Returns ``(records, obs_payload)``.  With ``record=True`` (the parent
    process has a live recorder) the chunk runs under a private
    :class:`repro.obs.Recorder` and ships its drained buffer back for the
    parent to merge; otherwise the payload is ``None`` and events flow to
    whatever recorder is globally installed (the in-process serial case).
    """
    if record:
        child = obs.Recorder()
        with obs.use(child):
            records, _ = _solve_chunk(model_cls, param_list, method, tol)
        return records, child.drain()
    return [solve_point(model_cls, p, method, tol) for p in param_list], None


def _point_span(
    index: int, key: "str | None", rec: SolveRecord, hit: bool, end: float
) -> SpanRecord:
    """The ``sweep.point`` span for one grid point.

    Built unconditionally (30-60 per sweep -- nowhere near a hot loop) so
    :meth:`PointStats.from_span` always has a span to derive from; only
    *filing* it with the recorder is gated on recording being enabled.
    Cache hits carry zero duration: no solver ran.
    """
    wall = 0.0 if hit else rec.wall_time
    return SpanRecord(
        name="sweep.point",
        t0=end - wall,
        duration=wall,
        attrs=dict(
            index=index,
            key=key,
            method=rec.method,
            cache_hit=hit,
            iterations=rec.iterations,
            residual=rec.residual,
        ),
    )


@dataclass(frozen=True)
class ModelSpec:
    """A cacheable one-parameter model family for optimisers.

    Where the legacy ``model_factory`` closures (``t -> model``) are
    opaque -- nothing outside the closure knows which parameters it
    captured -- a ``ModelSpec`` names the model class, the fixed
    parameters and the swept parameter explicitly, which is exactly what
    the content-addressed cache needs.
    """

    model_cls: type
    params: tuple  # canonical ((name, value), ...) form
    param_name: str = "t"

    @classmethod
    def of(cls, model_cls: type, param_name: str = "t", **params) -> "ModelSpec":
        """Build a spec from keyword parameters."""
        return cls(model_cls, tuple(sorted(params.items())), param_name)

    def params_at(self, x: float) -> dict:
        """Full constructor kwargs with the swept parameter set to ``x``."""
        d = dict(self.params)
        d[self.param_name] = float(x)
        return d

    def __call__(self, x: float):
        """Factory compatibility: ``spec(x)`` builds the model instance."""
        return self.model_cls(**self.params_at(x))


@dataclass
class SweepEngine:
    """Cached, optionally parallel sweep executor.

    Parameters
    ----------
    workers :
        Default worker count for :meth:`sweep`.  ``None`` defers to the
        ``REPRO_SWEEP_WORKERS`` environment variable, then
        ``os.cpu_count()``.  ``1`` forces the serial path.
    cache :
        A :class:`~repro.sweep.cache.SolveCache` to share with other
        engines, ``None`` for a private cache, or ``False`` to disable
        caching entirely (every point solves).
    method, tol :
        Defaults forwarded to :func:`~repro.ctmc.steady.steady_state`.
        An unknown ``method`` raises ``ValueError`` here, before any
        point is solved.
    """

    workers: "int | None" = None
    cache: "SolveCache | bool | None" = None
    method: str = "auto"
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = SolveCache()
        elif self.cache is False:
            self.cache = None
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {list(METHODS)}"
            )

    # ------------------------------------------------------------------
    def resolve_workers(self, workers: "int | None", n_tasks: int) -> int:
        """Effective worker count: argument > engine attribute > env var >
        cpu count, clamped to ``[1, n_tasks]``."""
        if workers is None:
            workers = self.workers
        if workers is None:
            env = os.environ.get(WORKERS_ENV_VAR, "").strip()
            if env:
                try:
                    workers = int(env)
                except ValueError:
                    raise ValueError(
                        f"{WORKERS_ENV_VAR}={env!r} is not an integer"
                    ) from None
        if workers is None:
            workers = os.cpu_count() or 1
        return max(1, min(int(workers), max(n_tasks, 1)))

    def _key(self, model_cls: type, params: Mapping) -> "str | None":
        if self.cache is None:
            return None
        try:
            return cache_key(
                model_cls,
                dict(params),
                self.method,
                self.tol,
                # models solved by a non-reference engine carry a tag so
                # their records never collide with stale disk entries
                # written by another engine version
                engine=getattr(model_cls, "SOLVE_ENGINE", None),
            )
        except UncacheableParams:
            return None

    # ------------------------------------------------------------------
    def solve(self, model_cls: type, params: Mapping):
        """Cache-aware single-point solve.

        Returns ``(metrics, PointStats)``.  Useful for optimiser probes
        and one-off reference points that should share the sweep cache.
        """
        recorder = obs.recorder()
        key = self._key(model_cls, params)
        rec = self.cache.get(key) if key is not None else None
        hit = rec is not None
        if rec is None:
            rec = solve_point(model_cls, params, self.method, self.tol)
            if key is not None:
                self.cache.put(key, rec)
        recorder.add("sweep.cache.hit" if hit else "sweep.cache.miss")
        span = _point_span(0, key, rec, hit, time.perf_counter())
        recorder.adopt(span)
        return rec.metrics, PointStats.from_span(span)

    def sweep(self, model_cls: type, grid: Sequence[Mapping]) -> SweepResult:
        """Solve every parameter point of ``grid`` (a sequence of
        constructor-kwarg mappings) and return a :class:`SweepResult`
        in grid order.

        Cache hits never reach a worker; only the misses are distributed.
        With more than one worker the misses are split into contiguous chunks,
        one task per worker, so each worker pays its process start-up and
        imports once; if the pool cannot be used (unpicklable model, restricted platform)
        the engine falls back to the serial path.
        """
        recorder = obs.recorder()
        t_start = time.perf_counter()
        grid = [dict(p) for p in grid]

        with recorder.span(
            "sweep", model=model_cls.__name__, points=len(grid)
        ) as sweep_span:
            keys = [self._key(model_cls, p) for p in grid]
            records: dict[int, SolveRecord] = {}
            hit_flags = [False] * len(grid)
            for i, key in enumerate(keys):
                if key is None:
                    continue
                rec = self.cache.get(key)
                if rec is not None:
                    records[i] = rec
                    hit_flags[i] = True

            misses = [i for i in range(len(grid)) if i not in records]
            n_hits = len(grid) - len(misses)
            recorder.add("sweep.cache.hit", n_hits)
            recorder.add("sweep.cache.miss", len(misses))
            n_workers = self.resolve_workers(None, len(misses))
            if misses:
                solved = None
                if n_workers > 1 and len(misses) > 1:
                    solved = self._run_parallel(model_cls, grid, misses, n_workers)
                if solved is None:  # serial path (or parallel fallback)
                    n_workers = 1
                    solved = self._run_serial(model_cls, grid, misses)
                for i, rec in zip(misses, solved):
                    records[i] = rec
                    if keys[i] is not None:
                        self.cache.put(keys[i], rec)

            end = time.perf_counter()
            metrics, stats = [], []
            for i in range(len(grid)):
                rec = records[i]
                metrics.append(rec.metrics)
                span = _point_span(i, keys[i], rec, hit_flags[i], end)
                recorder.adopt(span)
                stats.append(PointStats.from_span(span))
            sweep_span.set(
                workers=n_workers, cache_hits=n_hits, solves=len(misses)
            )
            return SweepResult(
                metrics=metrics,
                stats=stats,
                wall_time=time.perf_counter() - t_start,
                workers=n_workers,
                params=grid,
            )

    # ------------------------------------------------------------------
    def _run_serial(self, model_cls, grid, misses) -> "list[SolveRecord]":
        # in-process: solver/BFS events land in the global recorder directly
        records, _ = _solve_chunk(
            model_cls, [grid[i] for i in misses], self.method, self.tol
        )
        return records

    def _run_parallel(
        self, model_cls, grid, misses, n_workers
    ) -> "list[SolveRecord] | None":
        """Fan the misses out over a process pool; None on failure (the
        caller then falls back to the serial path).

        When the parent is recording, each worker records into a private
        recorder and returns its drained buffer with the chunk; the
        buffers are merged here, inside the open ``sweep`` span, so
        worker-side solver spans appear as its children in the export.
        """
        recorder = obs.recorder()
        chunks = [
            [int(i) for i in c] for c in np.array_split(misses, n_workers) if len(c)
        ]
        try:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [
                    pool.submit(
                        _solve_chunk,
                        model_cls,
                        [grid[i] for i in chunk],
                        self.method,
                        self.tol,
                        recorder.enabled,
                    )
                    for chunk in chunks
                ]
                per_chunk = [f.result() for f in futures]
        except Exception:  # unpicklable model, no fork support, ...
            return None
        by_index = {}
        for chunk, (recs, payload) in zip(chunks, per_chunk):
            recorder.merge(payload)
            for i, rec in zip(chunk, recs):
                by_index[i] = rec
        return [by_index[i] for i in misses]


_DEFAULT_ENGINE: "SweepEngine | None" = None


def default_engine() -> SweepEngine:
    """The process-wide shared engine (lazily created).

    All figure functions route through this engine, so e.g.
    :func:`~repro.experiments.figures.figure6` and ``figure7`` -- which
    sweep the same grid -- share one solve pass via its cache.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = SweepEngine(cache=SolveCache(maxsize=4096))
    return _DEFAULT_ENGINE
