"""The parallel sweep engine.

Paper figures and tuning studies are *sweeps*: 30-60 independent
steady-state solves over a parameter grid, or a set of timeout searches
that ask for a few points at a time, each batch depending on the last.
The engine runs both through one dispatch loop:

* **in parallel** -- the loop runs coroutines that yield batches of
  points side by side.  Asks for one cache key are merged; once more
  than one miss waits, a :class:`concurrent.futures.ProcessPoolExecutor`
  starts and every miss becomes its own task, handed out as soon as it
  is asked for (in-process fallback when one worker is enough, the model
  does not pickle or the pool fails).  The worker count comes from, in
  order: the engine's ``workers`` attribute, the ``REPRO_SWEEP_WORKERS``
  environment variable, ``os.cpu_count()``;
* **cached** -- every point is first looked up in a content-addressed
  :class:`~repro.sweep.cache.SolveCache`, so re-running a figure, a
  second figure over the same grid, or an optimiser re-probing a point
  costs a dict lookup instead of a solve.

:meth:`SweepEngine.sweep` is that loop driving one coroutine that asks
for the whole grid at once; :meth:`SweepEngine.drive` is the same loop
over a figure's searches.  Every point is solved from scratch by the
same deterministic solver, so parallel and serial results are
bit-identical, and grid order is preserved regardless of worker
scheduling.

Observability is native, not bolted on: every ``sweep()`` runs inside a
``sweep`` span, every grid point's :class:`~repro.sweep.stats.PointStats`
is built from its solve record and cache-hit flag, and, when recording,
filed with the same fields as a ``sweep.point`` span under it; cache
traffic increments the ``sweep.cache.hit`` / ``sweep.cache.miss``
counters, and pool workers record into their own
:class:`repro.obs.Recorder` whose drained buffer rides back with each
task's result and is merged into the parent recorder.  All of it
vanishes behind a single attribute check when the process-global
recorder is the default :class:`~repro.obs.NullRecorder`.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import nullcontext
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


def _solve_task(
    model_cls: type, params: Mapping, method: str, tol: float, record: bool
) -> "tuple[SolveRecord, dict | None]":
    """Pool worker entry point: solve one point.  Top-level so it pickles.

    Returns ``(record, obs_payload)``.  With ``record=True`` (the parent
    process has a live recorder) the point is solved under a private
    :class:`repro.obs.Recorder` whose drained buffer rides back for the
    parent to merge; otherwise the payload is ``None``.
    """
    if not record:
        return solve_point(model_cls, params, method, tol), None
    child = obs.Recorder()
    with obs.use(child):
        rec = solve_point(model_cls, params, method, tol)
    return rec, child.drain()


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
        Default worker count for :meth:`sweep` and :meth:`drive`.
        ``None`` defers to the ``REPRO_SWEEP_WORKERS`` environment
        variable, then ``os.cpu_count()``.  ``1`` solves in-process.
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
    def _recall(self, model_cls: type, params: Mapping, key, span=nullcontext()):
        """``(record, hit)``: the cached record of ``key``, else a point
        solved in-process inside ``span`` that then enters the cache."""
        rec = self.cache.get(key) if key is not None else None
        if rec is not None:
            return rec, True
        with span:
            rec = solve_point(model_cls, params, self.method, self.tol)
        if key is not None:
            self.cache.put(key, rec)
        return rec, False

    def solve(self, model_cls: type, params: Mapping):
        """Cache-aware single-point solve.

        Returns ``(metrics, PointStats)``.  Useful for optimiser probes
        and one-off reference points that should share the sweep cache.
        A miss solves inside its ``sweep.point`` span, so the solver's
        own spans nest under it.
        """
        recorder = obs.recorder()
        key = self._key(model_cls, params)
        span = recorder.span("sweep.point")
        rec, hit = self._recall(model_cls, params, key, span)
        stats = _point_stats(0, key, rec, hit)
        if hit:
            recorder.add("sweep.cache.hit")
            _file_point(recorder, stats, time.perf_counter())
        else:
            recorder.add("sweep.cache.miss")
            if recorder.enabled:  # the filed span shares this attrs dict
                span.set(**{k: v for k, v in asdict(stats).items() if k != "wall_time"})
        return rec.metrics, stats

    def sweep(self, model_cls: type, grid: Sequence[Mapping]) -> SweepResult:
        """Solve every parameter point of ``grid`` (a sequence of
        constructor-kwarg mappings) and return a :class:`SweepResult`
        in grid order.

        This is the dispatch loop of :meth:`drive` on one coroutine that
        asks for the whole grid, so hits never reach a worker, a repeated
        point is solved once (its copies read the cache) and each miss is
        its own pool task.  Points are answered without :meth:`solve`.
        """
        recorder = obs.recorder()
        t_start = time.perf_counter()
        grid = [dict(p) for p in grid]

        def ask_grid():
            return (yield grid)

        def answer(params, key, rec):
            if rec is not None:  # a worker's fresh solve
                return key, rec, False
            return (key, *self._recall(model_cls, params, key))

        with recorder.span(
            "sweep", model=model_cls.__name__, points=len(grid)
        ) as sweep_span:
            (points,), workers = self._dispatch(model_cls, [ask_grid()], answer)
            end = time.perf_counter()
            stats = [_point_stats(i, *point) for i, point in enumerate(points)]
            for s in stats:
                _file_point(recorder, s, end)
            n_hits = sum(s.cache_hit for s in stats)
            recorder.add("sweep.cache.hit", n_hits)
            recorder.add("sweep.cache.miss", len(grid) - n_hits)
            sweep_span.set(
                workers=workers, cache_hits=n_hits, solves=len(grid) - n_hits
            )
            return SweepResult(
                metrics=[rec.metrics for _, rec, _ in points],
                stats=stats,
                wall_time=time.perf_counter() - t_start,
                workers=workers,
                params=grid,
            )

    def drive(self, model_cls: type, searches: Sequence[Generator]) -> list:
        """Run coroutines that ask for points of ``model_cls`` side by
        side, and return what each returns, in order.

        Each coroutine yields a batch of constructor-kwarg mappings and is
        sent their metrics in the same order (as
        :func:`repro.approx.optimizer.spec_search` does).  Every probe with
        a cache key is answered through :meth:`solve`, a worker's record
        after it has entered the cache (one ``sweep.cache.miss``).  One
        ``drive`` span holds the coroutines' (overlapping) spans, the
        solved points and the workers' merged spans.
        """
        recorder = obs.recorder()

        def answer(params, key, rec):
            if rec is not None:  # a worker's fresh solve
                recorder.add("sweep.cache.miss")
                _file_point(recorder, _point_stats(0, key, rec, False), time.perf_counter())
                if key is None:
                    return rec.metrics
            return self.solve(model_cls, params)[0]

        searches = list(searches)
        with recorder.span(
            "drive", model=model_cls.__name__, searches=len(searches)
        ) as span:
            returned, workers = self._dispatch(model_cls, searches, answer)
            span.set(workers=workers)
        return returned

    def _dispatch(self, model_cls: type, searches: list, answer) -> "tuple[list, int]":
        """The one dispatch loop: run coroutines that ask for points of
        ``model_cls`` side by side; return what each returns, in order,
        and the number of workers that ran (1 without a pool).

        Each coroutine yields a batch of constructor-kwarg mappings and is
        sent, in the same order, what ``answer(params, key, rec)`` returns
        for each point.  ``rec`` is ``None`` unless a worker has just
        solved the point; then it is that record (already cached if the
        point has a key), and only the first of its waiting asks receives
        it.  Asks for a key the cache holds are answered at once; the
        others wait, merged by cache key (a point without one waits
        alone).  Once more than one waits, the pool starts if
        :meth:`resolve_workers` gives more than one worker and the asks
        pickle; each miss is then submitted as soon as it is asked for,
        and a coroutine resumes as soon as its batch is answered.
        Without a pool, or once it fails
        (a worker died, a result did not pickle), ``answer`` solves what
        waits in-process; a point's own exception propagates.
        """
        recorder = obs.recorder()
        returned = [None] * len(searches)
        sent: dict = {}  # search -> answers of its batch
        left: dict = {}  # search -> points of its batch not answered yet
        asks: dict = {}  # token -> (params, key, [(search, slot), ...]) unsolved
        todo: list = []  # tokens of asks not handed to a worker
        flying: dict = {}  # future -> token
        ready = list(range(len(searches)))
        pool, serial, workers = None, False, 1

        def give(k: int, slot: int, value) -> None:
            sent[k][slot] = value
            left[k] -= 1
            if not left[k]:
                ready.append(k)

        def reply(token, rec=None) -> None:
            params, key, waiters = asks.pop(token)
            for k, slot in waiters:
                give(k, slot, answer(params, key, rec))
                rec = None  # the other waiters read the cache

        def pool_down() -> None:
            nonlocal pool, serial
            pool.shutdown(cancel_futures=True)
            todo.extend(flying.values())
            flying.clear()
            pool, serial = None, True

        try:
            while ready or todo or flying:
                while ready:  # resume each search whose batch is answered
                    k = ready.pop(0)
                    try:
                        batch = searches[k].send(sent.pop(k, None))
                    except StopIteration as stop:
                        returned[k] = stop.value
                        continue
                    sent[k], left[k] = [None] * len(batch), len(batch)
                    if not batch:
                        ready.append(k)
                    for slot, params in enumerate(batch):
                        key = self._key(model_cls, params)
                        if key is not None and key in self.cache:
                            give(k, slot, answer(params, key, None))
                        elif key in asks:
                            asks[key][2].append((k, slot))
                        else:
                            token = object() if key is None else key
                            asks[token] = (params, key, [(k, slot)])
                            todo.append(token)
                # the pool starts once more than one miss waits
                if len(todo) > 1 and pool is None and not serial:
                    workers = self.resolve_workers(None, len(todo))
                    if workers > 1 and _picklable(
                        model_cls, [asks[token][0] for token in todo]
                    ):
                        pool = _start_pool(workers)
                    serial = pool is None
                if pool is not None:
                    try:
                        while todo:
                            params, key, _ = asks[todo[0]]
                            # the counted lookup of a miss; takes a record
                            # another process has stored since
                            if key is not None and self.cache.get(key) is not None:
                                reply(todo[0])
                            else:
                                flying[pool.submit(
                                    _solve_task, model_cls, params,
                                    self.method, self.tol, recorder.enabled,
                                )] = todo[0]
                            todo.pop(0)
                    except _POOL_DOWN:
                        pool_down()
                if pool is None:  # solve what waits in-process
                    for token in todo:
                        reply(token)
                    todo.clear()
                    continue
                # take back what the workers have finished
                done, _ = wait(flying, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        rec, payload = future.result()
                    except _RESULT_LOST:
                        pool_down()
                        break
                    token = flying.pop(future)
                    recorder.merge(payload)
                    key = asks[token][1]
                    if key is not None:
                        self.cache.put(key, rec)
                    reply(token, rec)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        return returned, 1 if serial else workers


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
