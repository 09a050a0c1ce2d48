"""Sensitivity of TAGS metrics to the timeout (and other parameters).

The paper warns that TAGS "is also quite sensitive to t, and when poorly
tuned ... the throughput falls significantly", and that the optimum moves
with the demand distribution and arrival rate.  This module quantifies
that: central finite-difference derivatives and elasticities of any metric
with respect to any scalar model parameter, plus a robustness summary
(how far can t drift before the metric degrades by x%?).

Derivatives are computed on the exact CTMC (each evaluation is a sparse
solve), so they are noise-free and a simple central difference with a
relative step is accurate to ~1e-6.

Every function accepts either a bare factory (``x -> model``) or a
:class:`repro.sweep.ModelSpec`; with a spec the evaluations route through
the sweep engine's content-addressed cache, so e.g. a tolerance-band
bisection that re-visits the optimum, or a derivative at a point a figure
already solved, costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.approx.optimizer import evaluator, metric_sign
from repro.sweep import ModelSpec, SweepEngine

__all__ = ["metric_derivative", "metric_elasticity", "tuning_tolerance"]


def metric_derivative(
    model_factory: "Callable | ModelSpec",
    x: float,
    metric: str = "response_time",
    *,
    rel_step: float = 1e-4,
    engine: "SweepEngine | None" = None,
) -> float:
    """Central-difference ``d metric / d x`` at ``x``.

    ``model_factory(x)`` must return an object with ``.metrics()`` (or be
    a :class:`~repro.sweep.ModelSpec`, evaluated through ``engine``).
    """
    if x <= 0:
        raise ValueError("x must be positive")
    h = x * rel_step
    value = evaluator(model_factory, metric, engine=engine)
    return (value(x + h) - value(x - h)) / (2 * h)


def metric_elasticity(
    model_factory: "Callable | ModelSpec",
    x: float,
    metric: str = "response_time",
    *,
    engine: "SweepEngine | None" = None,
    **kw,
) -> float:
    """Dimensionless elasticity ``(x / m) * dm/dx``: the % change in the
    metric per % change in the parameter."""
    m = evaluator(model_factory, metric, engine=engine)(x)
    if m == 0:
        raise ZeroDivisionError("metric is zero at x")
    return metric_derivative(model_factory, x, metric, engine=engine, **kw) * x / m


@dataclass(frozen=True)
class ToleranceBand:
    """How far the parameter may drift from ``x_opt`` before the metric
    degrades by the given fraction."""

    x_opt: float
    value_opt: float
    lo: float
    hi: float
    degradation: float

    @property
    def relative_width(self) -> float:
        return (self.hi - self.lo) / self.x_opt


def tuning_tolerance(
    model_factory: "Callable | ModelSpec",
    x_opt: float,
    metric: str = "response_time",
    *,
    degradation: float = 0.10,
    x_min: float = 1e-3,
    x_max: float = 1e6,
    engine: "SweepEngine | None" = None,
) -> ToleranceBand:
    """Width of the parameter band within which ``metric`` stays within
    ``degradation`` of its value at ``x_opt`` (bisection on both sides),
    ``metric`` being better lower or higher as ``METRIC_SIGNS`` says.
    """
    if not (0 < degradation < 1):
        raise ValueError("degradation must be in (0, 1)")
    sign = metric_sign(metric)
    value = evaluator(model_factory, metric, engine=engine)
    v_opt = value(x_opt)
    threshold = v_opt * (1 + sign * degradation)
    bad = lambda v: sign * (v - threshold) > 0

    def find_edge(direction: int) -> float:
        """Bisect for the threshold crossing on one side of x_opt."""
        x_far = x_max if direction > 0 else x_min
        if not bad(value(x_far)):
            return x_far  # never degrades within the search range
        lo, hi = (x_opt, x_far) if direction > 0 else (x_far, x_opt)
        # invariant: metric acceptable at the x_opt side, bad at the far side
        for _ in range(60):
            mid = np.sqrt(lo * hi)  # geometric bisection (scale-free)
            if bad(value(mid)) == (direction > 0):
                hi = mid
            else:
                lo = mid
            if hi / lo < 1 + 1e-6:
                break
        return np.sqrt(lo * hi)

    return ToleranceBand(
        x_opt=x_opt,
        value_opt=v_opt,
        lo=find_edge(-1),
        hi=find_edge(+1),
        degradation=degradation,
    )
