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

Searches ask for points a few at a time, each batch depending on the
last.  :meth:`SweepEngine.drive` runs several such coroutines side by
side over one pool: every miss goes to a worker as soon as it is asked
for, so the pool stays busy until the last search ends.

The grid order is always preserved in the results, regardless of worker
scheduling, and every point carries a :class:`~repro.sweep.stats.
PointStats` record for observability.

Observability is native, not bolted on: every ``sweep()`` runs inside a
``sweep`` span, every grid point's :class:`PointStats` is built from its
solve record and cache-hit flag, and, when recording, filed with the
same fields as a ``sweep.point`` span under it; cache traffic
increments the ``sweep.cache.hit`` /
``sweep.cache.miss`` counters, and pool workers record into their own
:class:`repro.obs.Recorder` whose drained buffer rides back with each
task's result and is merged into the parent recorder.  All of it
vanishes behind a single attribute check when the process-global
recorder is the default :class:`~repro.obs.NullRecorder`.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Generator, Mapping, Sequence

from repro import obs
from repro.ctmc.steady import METHODS, steady_state
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


def _point_stats(index: int, key: "str | None", rec: SolveRecord, hit: bool) -> PointStats:
    """The :class:`PointStats` of one grid point; cache hits carry zero
    duration: no solver ran."""
    wall = 0.0 if hit else rec.wall_time
    return PointStats(index, key, rec.method, hit, rec.iterations, rec.residual, wall)


def _file_point(recorder, stats: PointStats, end: float) -> None:
    """File ``stats`` as a ``sweep.point`` span ending at ``end`` when
    recording is enabled."""
    if recorder.enabled:
        attrs = asdict(stats)
        recorder.record_span("sweep.point", end - stats.wall_time, attrs.pop("wall_time"), **attrs)


def _picklable(*objs) -> bool:
    """Whether ``objs`` pickle, so a pool could take them as one task."""
    try:
        pickle.dumps(objs)
    except Exception:
        return False
    return True


def _start_pool(n_workers: int) -> "ProcessPoolExecutor | None":
    """A pool of ``n_workers`` processes, or None where the platform
    cannot start one (no fork, no semaphores, no processes left).

    It uses the platform's default start method (fork on Linux), so
    workers inherit the parent's imports instead of paying them again."""
    try:
        return ProcessPoolExecutor(max_workers=n_workers)
    except (OSError, NotImplementedError, ImportError):
        return None


_POOL_DOWN = (BrokenProcessPool, OSError)
"""Raised by ``submit`` when the pool cannot run a task (a worker died or
could not start)."""

_RESULT_LOST = (BrokenProcessPool, pickle.PicklingError)
"""Raised by ``Future.result`` when the pool, not the point, failed (a
worker died, or its result did not pickle); any other exception is the
point's own and propagates."""


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
        A miss solves inside its ``sweep.point`` span, so the solver's
        own spans nest under it.
        """
        recorder = obs.recorder()
        key = self._key(model_cls, params)
        rec = self.cache.get(key) if key is not None else None
        if rec is not None:
            recorder.add("sweep.cache.hit")
            stats = _point_stats(0, key, rec, True)
            _file_point(recorder, stats, time.perf_counter())
            return rec.metrics, stats
        recorder.add("sweep.cache.miss")
        with recorder.span("sweep.point") as span:
            rec = solve_point(model_cls, params, self.method, self.tol)
            stats = _point_stats(0, key, rec, False)
            if recorder.enabled:
                span.set(**{k: v for k, v in asdict(stats).items() if k != "wall_time"})
        if key is not None:
            self.cache.put(key, rec)
        return rec.metrics, stats

    def sweep(self, model_cls: type, grid: Sequence[Mapping]) -> SweepResult:
        """Solve every parameter point of ``grid`` (a sequence of
        constructor-kwarg mappings) and return a :class:`SweepResult`
        in grid order.

        Cache hits never reach a worker; only the misses are distributed.
        With more than one worker each miss is its own task, so a worker
        that finishes early takes the next point (grids ordered by chain
        size would otherwise leave one worker all the large chains); the
        pool is forked once per call, so each worker still pays its
        process start-up and imports once.  If the pool cannot be used
        (unpicklable model, restricted platform, a worker that died) the
        engine falls back to the serial path; a point's own exception
        propagates.
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
                stats.append(_point_stats(i, keys[i], rec, hit_flags[i]))
                _file_point(recorder, stats[-1], end)
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

    def drive(self, model_cls: type, searches: Sequence[Generator]) -> list:
        """Run coroutines that ask for points of ``model_cls`` side by
        side, and return what each returns, in order.

        Each coroutine yields a batch of constructor-kwarg mappings and is
        sent their metrics in the same order (as
        :func:`repro.approx.optimizer.spec_search` does).  Hits are
        answered at once; a miss goes to one process pool as soon as it is
        asked for, and a coroutine resumes as soon as its batch is back.
        A worker's record enters the cache (one ``sweep.cache.miss``) and
        is read back through :meth:`solve`, which every probe passes.  The
        pool starts once more than one miss waits and
        :meth:`resolve_workers` gives more than one worker; until then,
        with one worker, without a cache key, or when the pool cannot run
        (unpicklable model, no fork, a broken pool), :meth:`solve` solves
        misses in-process.  A point's own exception propagates.  One
        ``drive`` span holds the coroutines' (overlapping) spans, the
        solved points and the workers' merged spans.
        """
        recorder = obs.recorder()
        searches = list(searches)
        returned = [None] * len(searches)
        answers: dict = {}  # search -> metrics of its batch
        left: dict = {}  # search -> points of its batch not answered yet
        asks: dict = {}  # key -> (params, [(search, slot), ...]) unsolved
        todo: list = []  # keys of asks not handed to a worker
        flying: dict = {}  # future -> key
        ready = list(range(len(searches)))
        pool, serial, workers = None, False, 1

        def answer(k: int, slot: int, params) -> None:
            answers[k][slot] = self.solve(model_cls, params)[0]
            left[k] -= 1
            if not left[k]:
                ready.append(k)

        def pool_down() -> None:
            nonlocal pool, serial
            pool.shutdown(cancel_futures=True)
            todo.extend(flying.values())
            flying.clear()
            pool, serial = None, True

        with recorder.span(
            "drive", model=model_cls.__name__, searches=len(searches)
        ) as span:
            try:
                while ready or todo or flying:
                    while ready:  # resume each search whose batch is answered
                        k = ready.pop(0)
                        try:
                            batch = searches[k].send(answers.pop(k, None))
                        except StopIteration as stop:
                            returned[k] = stop.value
                            continue
                        answers[k], left[k] = [None] * len(batch), len(batch)
                        if not batch:
                            ready.append(k)
                        for slot, params in enumerate(batch):
                            key = self._key(model_cls, params)
                            if key is None or key in self.cache:
                                answer(k, slot, params)
                            elif key in asks:
                                asks[key][1].append((k, slot))
                            else:
                                asks[key] = (params, [(k, slot)])
                                todo.append(key)
                    # the pool starts once more than one miss waits
                    if len(todo) > 1 and pool is None and not serial:
                        workers = self.resolve_workers(None, len(todo))
                        if workers > 1 and _picklable(
                            model_cls, [asks[key][0] for key in todo]
                        ):
                            pool = _start_pool(workers)
                        serial = pool is None
                    if pool is not None:
                        try:
                            while todo:
                                key = todo[0]
                                params, waiters = asks[key]
                                if self.cache.get(key) is not None:  # on disk
                                    del asks[key]
                                    for k, slot in waiters:
                                        answer(k, slot, params)
                                else:
                                    flying[pool.submit(
                                        _solve_chunk, model_cls, [params],
                                        self.method, self.tol, recorder.enabled,
                                    )] = key
                                todo.pop(0)
                        except _POOL_DOWN:
                            pool_down()
                    if pool is None:  # solve what waits in-process
                        for key in todo:
                            params, waiters = asks.pop(key)
                            for k, slot in waiters:
                                answer(k, slot, params)
                        todo.clear()
                        continue
                    # take back what the workers have finished
                    done, _ = wait(flying, return_when=FIRST_COMPLETED)
                    for future in done:
                        try:
                            (rec,), payload = future.result()
                        except _RESULT_LOST:
                            pool_down()
                            break
                        key = flying.pop(future)
                        recorder.merge(payload)
                        recorder.add("sweep.cache.miss")
                        _file_point(recorder, _point_stats(0, key, rec, False), time.perf_counter())
                        self.cache.put(key, rec)
                        params, waiters = asks.pop(key)
                        for k, slot in waiters:
                            answer(k, slot, params)
            finally:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
            span.set(workers=1 if serial else workers)
        return returned

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
        """Fan the misses out over a process pool; None when the pool
        cannot run them (the caller then solves them serially).  A
        point's own exception cancels the rest and propagates.

        When the parent is recording, each task records into a private
        recorder and returns its drained buffer with its record; the
        buffers are merged here, inside the open ``sweep`` span, so
        worker-side solver spans appear as its children in the export.
        """
        recorder = obs.recorder()
        if not _picklable(model_cls, [grid[i] for i in misses]):
            return None
        pool = _start_pool(min(n_workers, len(misses)))
        if pool is None:
            return None
        with pool:
            try:
                futures = [
                    pool.submit(
                        _solve_chunk,
                        model_cls,
                        [grid[i]],
                        self.method,
                        self.tol,
                        recorder.enabled,
                    )
                    for i in misses
                ]
            except _POOL_DOWN:
                return None
            try:
                solved = [f.result() for f in futures]
            except _RESULT_LOST:
                return None
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
        records = []
        for recs, payload in solved:
            recorder.merge(payload)
            records.extend(recs)
        return records


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
