"""Timeout search (the practical payoff of Section 4).

Every best-timeout search over exact CTMC solves -- the integer optima of
Figures 8, 11 and 12 -- follows one rule, which assumes the metric is
**unimodal on the grid**. It first probes every 4th grid point
(:func:`strided_probes`), so a second valley wider than that shows, then
golden-sections between the lowest probe's neighbours; if the probes, in
index order, are not strictly valley-shaped, it scans the whole grid,
takes the first-index minimum (``np.argmin``'s tie rule) and counts
``search.fallback``.

The rule is written once, as the coroutine :func:`grid_search`: it yields
batches of grid indices and is sent their values. Two drivers run it.
:func:`grid_argmin` probes any ``f`` one call at a time in the calling
process. :func:`spec_search` turns it into points of a
:class:`~repro.sweep.ModelSpec`, so that
:meth:`~repro.sweep.SweepEngine.drive` can run a figure's searches side by
side over one process pool. Either way each search files one ``search``
span with ``n_grid``, ``probes`` and ``fallback``.
:func:`optimise_timeout`, whose fixed-point evaluations cost
microseconds, scans its whole grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from repro import obs
from repro.sweep import ModelSpec, SweepEngine, default_engine

__all__ = [
    "METRIC_SIGNS", "OptimisationResult",
    "evaluator", "grid_argmin", "grid_search", "metric_sign", "optimise_timeout",
    "spec_search", "strided_probes",
]

METRIC_SIGNS = {"mean_jobs": 1, "response_time": 1, "loss_rate": 1, "throughput": -1}
"""Sign turning each optimisable metric into a value to minimise."""

_STRIDE = 4  # grid points between the search's first probes
_GOLDEN = (3 - 5**0.5) / 2  # interior points at 0.382 and 0.618


def metric_sign(metric: str) -> int:
    """``METRIC_SIGNS[metric]``; ``ValueError`` for any other name."""
    if metric not in METRIC_SIGNS:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(METRIC_SIGNS)}"
        )
    return METRIC_SIGNS[metric]


def evaluator(
    model: "Callable | ModelSpec", metric: str, *, engine: "SweepEngine | None" = None
) -> Callable[[float], float]:
    """``x -> metric`` of ``model``: ``x -> object with .metrics()``, or a
    :class:`~repro.sweep.ModelSpec` solved through ``engine`` (default the
    shared engine, so its cache is shared)."""
    if isinstance(model, ModelSpec):
        eng = engine if engine is not None else default_engine()
        metrics = lambda x: eng.solve(model.model_cls, model.params_at(x))[0]
    else:
        metrics = lambda x: model(x).metrics()
    return lambda x: float(getattr(metrics(x), metric))


def strided_probes(xs: Sequence) -> list:
    """The points of ``xs`` that :func:`grid_argmin` probes first, every
    4th and the last: they depend on the grid alone."""
    n = len(xs)
    return [xs[i] for i in (*range(0, n - 1, _STRIDE), n - 1)] if n else []


def grid_search(n: int) -> Generator[list, list, tuple]:
    """The search rule over grid indices ``0..n-1`` as a coroutine.

    It yields each batch of indices it has not probed yet -- the
    :func:`strided_probes`, then each golden-section pair (keep the side
    of the lower of two interior points, the left on a tie; reuse the
    survivor), then the last three, then, unless the probes were strictly
    valley-shaped, the rest of the grid -- and is sent their values in
    that order. It returns ``(index, probes, fallback)``: the index of the
    smallest probed value (the first on a tie), the number of distinct
    probes and whether it fell back to the full scan (counted as
    ``search.fallback``). ``ValueError`` for an empty grid, before the
    first batch.
    """
    if n == 0:
        raise ValueError("cannot search an empty grid")
    memo: dict = {}

    def values(indices):
        new = [i for i in indices if i not in memo]
        if new:
            memo.update(zip(new, (yield new)))
        return [memo[i] for i in indices]

    coarse = strided_probes(range(n))
    j = int(np.argmin((yield from values(coarse))))
    a, b, keep = coarse[max(j - 1, 0)], coarse[min(j + 1, len(coarse) - 1)], None
    while b - a > 2:
        if keep is not None and a + b != 2 * keep:
            c, d = sorted((keep, a + b - keep))
        else:
            step = int(_GOLDEN * (b - a))
            c, d = a + step, b - step
        vc, vd = yield from values([c, d])
        if vc <= vd:
            b, keep = d, c
        else:
            a, keep = c, d
    yield from values(range(a, b + 1))
    # strictly valley-shaped: every step between neighbouring probes
    # moves (a tie or NaN refutes), and none falls after one rose
    steps = np.diff([memo[i] for i in sorted(memo)])
    rising, falling = steps > 0, steps < 0
    fallback = bool(not np.all(rising | falling) or np.any(rising[:-1] & falling[1:]))
    if fallback:
        yield from values(range(n))
        obs.recorder().add("search.fallback")
    probed = sorted(memo)
    return probed[int(np.argmin([memo[i] for i in probed]))], len(memo), fallback


def grid_argmin(f: Callable[[float], float], xs: Sequence[float]) -> int:
    """Index of the smallest ``f(x)`` over the ordered grid ``xs``: the
    :func:`grid_search` rule, each probe one ``f`` call in order, filed as
    one ``search`` span."""
    search = grid_search(len(xs))
    with obs.recorder().span("search", n_grid=len(xs)) as span:
        values = None
        while True:
            try:
                batch = search.send(values)
            except StopIteration as stop:
                index, probes, fallback = stop.value
                break
            values = [f(xs[i]) for i in batch]
        span.set(probes=probes, fallback=fallback)
    return index


def spec_search(spec: ModelSpec, xs: Sequence[float], metric: str) -> Generator:
    """The :func:`grid_search` for the ``xs`` minimising ``metric`` of
    ``spec`` (maximising it for throughput) as a coroutine of
    :meth:`~repro.sweep.SweepEngine.drive`: it yields each batch as
    constructor kwargs, is sent their metrics, returns the index and files
    its ``search`` span (``n_grid``, ``probes``, ``fallback``) when done.
    An unknown metric or an empty grid raises before the first batch."""
    sign = metric_sign(metric)
    search = grid_search(len(xs))
    t0 = time.perf_counter()
    values = None
    while True:
        try:
            batch = search.send(values)
        except StopIteration as stop:
            index, probes, fallback = stop.value
            break
        metrics = yield [spec.params_at(xs[i]) for i in batch]
        values = [sign * float(getattr(m, metric)) for m in metrics]
    obs.recorder().record_span(
        "search", t0, time.perf_counter() - t0,
        n_grid=len(xs), probes=probes, fallback=fallback,
    )
    return index


@dataclass(frozen=True)
class OptimisationResult:
    """Outcome of a timeout search."""

    t_opt: float
    value: float
    metric: str
    grid_t: np.ndarray
    grid_values: np.ndarray


def optimise_timeout(
    model_factory: "Callable | ModelSpec",
    metric: str = "mean_jobs",
    *,
    t_min: float = 0.5,
    t_max: float = 500.0,
    grid_points: int = 40,
    refine: bool = True,
    engine: "SweepEngine | None" = None,
) -> OptimisationResult:
    """Optimise the timeout rate ``t`` of ``model_factory`` (see
    :func:`evaluator`; e.g. ``lambda t: TagsExponential(lam=5, mu=10,
    t=t)``) for ``metric`` (see :data:`METRIC_SIGNS`): the best of
    ``grid_points`` geometric points in ``[t_min, t_max]`` (a full scan),
    then unless ``refine=False`` SciPy's bounded Brent method between its
    neighbours (the paper reports integer optima, unrefined)."""
    sign = metric_sign(metric)
    if not (0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")

    value = evaluator(model_factory, metric, engine=engine)
    evaluate = lambda t: sign * value(t)
    ts = np.geomspace(t_min, t_max, grid_points)
    vals = np.array([evaluate(t) for t in ts])
    k = int(np.argmin(vals))
    t_opt, v_opt = float(ts[k]), float(vals[k])
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    if refine and lo < hi:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            evaluate, bounds=(lo, hi), method="bounded", options={"xatol": 1e-4 * hi}
        )
        if res.fun <= v_opt:  # else the grid point was better
            t_opt, v_opt = float(res.x), float(res.fun)
    return OptimisationResult(t_opt, sign * v_opt, metric, ts, sign * vals)
