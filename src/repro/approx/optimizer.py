"""Timeout optimisation (the practical payoff of Section 4).

``optimise_timeout`` minimises/maximises a metric over the timeout rate
``t`` for any model factory -- the cheap fixed-point approximation, the
exact exponential CTMC, or the H2 CTMC.  A coarse geometric grid brackets
the optimum, golden-section search refines it; the objective is noisy-free
(deterministic solves), so this converges reliably for the unimodal
metrics the paper optimises (queue length, response time, throughput).

Passing a :class:`repro.sweep.ModelSpec` instead of a bare factory routes
every probe through the sweep engine: the bracketing grid is evaluated as
one (optionally parallel) sweep, and all evaluations land in the
content-addressed cache, so repeated optimisations -- and any figure that
later touches the same points -- re-solve nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from repro.sweep import ModelSpec, SweepEngine, default_engine

__all__ = ["OptimisationResult", "optimise_timeout"]

_METRIC_GETTERS = {
    "mean_jobs": (lambda m: m.mean_jobs, +1),
    "response_time": (lambda m: m.response_time, +1),
    "throughput": (lambda m: m.throughput, -1),  # maximise
    "loss_rate": (lambda m: m.loss_rate, +1),
}


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
    workers: "int | None" = None,
) -> OptimisationResult:
    """Optimise the timeout rate ``t``.

    Parameters
    ----------
    model_factory :
        ``t -> object with .metrics()`` (e.g. ``lambda t:
        TagsExponential(lam=5, mu=10, t=t)``), or a
        :class:`~repro.sweep.ModelSpec` to evaluate through the sweep
        engine (cached, optionally parallel).
    metric :
        ``"mean_jobs"``, ``"response_time"``, ``"loss_rate"`` (minimised)
        or ``"throughput"`` (maximised).
    t_min, t_max, grid_points :
        Geometric bracketing grid.
    refine :
        Golden-section refinement of the best bracket (exact optimum); when
        False the best grid point is returned (the paper reports *integer*
        optimal t values, so benchmarks use ``refine=False`` on an integer
        grid).
    engine, workers :
        Only used with a ``ModelSpec``: the engine to probe through
        (default: the shared :func:`~repro.sweep.default_engine`) and the
        worker count for the bracketing sweep.
    """
    try:
        getter, sign = _METRIC_GETTERS[metric]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(_METRIC_GETTERS)}"
        )
    if not (0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")

    ts = np.geomspace(t_min, t_max, grid_points)
    if isinstance(model_factory, ModelSpec):
        spec = model_factory
        eng = engine if engine is not None else default_engine()
        sweep = eng.sweep(spec.model_cls, spec.grid(ts), workers=workers)
        vals = np.array([sign * getter(m) for m in sweep.metrics])

        def evaluate(t: float) -> float:
            m, _ = eng.solve(spec.model_cls, spec.params_at(t))
            return sign * getter(m)

    else:
        def evaluate(t: float) -> float:
            return sign * getter(model_factory(t).metrics())

        vals = np.array([evaluate(t) for t in ts])
    k = int(np.argmin(vals))

    if not refine:
        return OptimisationResult(
            float(ts[k]), float(sign * vals[k]), metric, ts, sign * vals
        )

    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    if lo == hi:
        t_opt, v_opt = float(ts[k]), float(vals[k])
    else:
        res = minimize_scalar(
            evaluate,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-4 * hi},
        )
        t_opt, v_opt = float(res.x), float(res.fun)
        if vals[k] < v_opt:  # guard: grid point was better
            t_opt, v_opt = float(ts[k]), float(vals[k])
    return OptimisationResult(t_opt, float(sign * v_opt), metric, ts, sign * vals)
