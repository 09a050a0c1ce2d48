"""Series generators: one function per paper figure.

All sweeps solve the PEPA models of Figures 3 and 5 on the compiled
engine (``TagsExponential`` / ``TagsHyperExponential``); a figure is 30-60
steady-state solves.

Every solve routes through the shared :func:`repro.sweep.default_engine`,
so figures over the same grid share one solve pass: ``figure6``/``figure7``
(and ``figure9``/``figure10``) differ only in which metric they read, and
the second call is answered entirely from the content-addressed cache.
Set ``REPRO_SWEEP_WORKERS`` to fan a figure's grid sweeps out over a
process pool. Figures 8, 11 and 12 run all their optimal-``t`` searches
side by side through :meth:`repro.sweep.SweepEngine.drive`, so one pool
solves every search's probes as soon as the search asks for them.

Within one solve pass the state space is explored exactly once per
*structure*: every grid point of a figure 6/7 or 9/10 sweep varies only
rate values, so the model classes pull the explored compiled space
from :func:`repro.sweep.structure_cache` and refill its rate column (``sweep.structure.hit``/``template.refill.points`` counters
record this when an :mod:`repro.obs` recorder is enabled).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.approx.balance import erlang_balance_rate, exponential_balance_rate
from repro.approx.fixed_point import TagsFixedPoint
from repro.approx.optimizer import spec_search
from repro.batch import tags_batch_mean_response
from repro.experiments.config import (
    FIG6_PARAMS,
    FIG6_T_GRID,
    FIG8_LAMBDAS,
    FIG9_PARAMS,
    FIG9_T_GRID,
    FIG11_ALPHAS,
    h2_service_fig9,
    h2_service_fig11,
)
from repro.models import (
    RandomAllocation,
    ShortestQueue,
    TagsExponential,
    TagsHyperExponential,
)
from repro.sweep import ModelSpec, default_engine

__all__ = [
    "FigureData",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "state_space_table",
    "section1_example",
    "section4_approximations",
    "optimal_integer_t",
    "optimal_integer_t_h2",
]


@dataclass
class FigureData:
    """One paper figure: an x-grid and named y-series."""

    name: str
    xlabel: str
    ylabel: str
    x: np.ndarray
    series: dict = field(default_factory=dict)

    def add(self, label: str, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != self.x.shape:
            raise ValueError(
                f"series {label!r} has shape {values.shape}, x has {self.x.shape}"
            )
        self.series[label] = values


# ----------------------------------------------------------------------
# Figures 6-7: exponential service, sweep timeout rate
# ----------------------------------------------------------------------

def _solve(model_cls, **params):
    """One reference point through the shared engine (cached)."""
    metrics, _ = default_engine().solve(model_cls, params)
    return metrics


def _tags_exp_sweep(t_grid=FIG6_T_GRID, **overrides):
    params = {**FIG6_PARAMS, **overrides}
    grid = [dict(params, t=float(t)) for t in t_grid]
    return default_engine().sweep(TagsExponential, grid).metrics


def figure6(t_grid=FIG6_T_GRID) -> FigureData:
    """Average queue length vs timeout rate (lam=5, mu=10): TAG total and
    per-queue, with random and shortest-queue reference lines."""
    fig = FigureData(
        "Figure 6",
        "timeout rate t",
        "average queue length",
        np.asarray(t_grid, dtype=float),
    )
    ms = _tags_exp_sweep(t_grid)
    fig.add("TAG total", [m.mean_jobs for m in ms])
    fig.add("TAG queue 1", [m.mean_jobs_per_node[0] for m in ms])
    fig.add("TAG queue 2", [m.mean_jobs_per_node[1] for m in ms])
    rnd = _solve(
        RandomAllocation,
        lam=FIG6_PARAMS["lam"], service=FIG6_PARAMS["mu"], K=FIG6_PARAMS["K1"],
    )
    jsq = _solve(
        ShortestQueue,
        lam=FIG6_PARAMS["lam"], service=FIG6_PARAMS["mu"], K=FIG6_PARAMS["K1"],
    )
    fig.add("random", np.full_like(fig.x, rnd.mean_jobs))
    fig.add("shortest queue", np.full_like(fig.x, jsq.mean_jobs))
    return fig


def figure7(t_grid=FIG6_T_GRID) -> FigureData:
    """Average response time vs timeout rate (same systems as Fig 6)."""
    fig = FigureData(
        "Figure 7",
        "timeout rate t",
        "average response time",
        np.asarray(t_grid, dtype=float),
    )
    ms = _tags_exp_sweep(t_grid)
    fig.add("TAG", [m.response_time for m in ms])
    rnd = _solve(
        RandomAllocation,
        lam=FIG6_PARAMS["lam"], service=FIG6_PARAMS["mu"], K=FIG6_PARAMS["K1"],
    )
    jsq = _solve(
        ShortestQueue,
        lam=FIG6_PARAMS["lam"], service=FIG6_PARAMS["mu"], K=FIG6_PARAMS["K1"],
    )
    fig.add("random", np.full_like(fig.x, rnd.response_time))
    fig.add("shortest queue", np.full_like(fig.x, jsq.response_time))
    return fig


# ----------------------------------------------------------------------
# Figure 8: response time vs arrival rate, TAGS optimised per lambda
# ----------------------------------------------------------------------

_FIG8_T, _FIG11_T = range(25, 70), range(2, 80, 2)  # t searched by Figs 8, 11-12


def _best_integer_ts(model_cls, param_sets, t_range, metric: str) -> list:
    """For each parameter set, the integer timeout rate in ``t_range``
    minimising ``metric`` (maximising it for throughput): one grid search
    each, all run side by side by the shared engine's
    :meth:`~repro.sweep.SweepEngine.drive`, whose probes are cached
    solves, so the figures' re-solves at the optima are hits."""
    t_range = list(t_range)
    searches = [
        spec_search(ModelSpec.of(model_cls, **params), t_range, metric)
        for params in param_sets
    ]
    return [t_range[i] for i in default_engine().drive(model_cls, searches)]


def _best_integer_t(model_cls, params: dict, t_range, metric: str) -> int:
    """:func:`_best_integer_ts` for one parameter set."""
    (t_opt,) = _best_integer_ts(model_cls, [params], t_range, metric)
    return t_opt


def optimal_integer_t(
    lam: float, metric: str = "mean_jobs", t_range=_FIG8_T, **overrides
) -> int:
    """Queue-length-optimal integer timeout rate (the paper's Fig 8
    procedure)."""
    params = {**FIG6_PARAMS, **overrides, "lam": float(lam)}
    return _best_integer_t(TagsExponential, params, t_range, metric)


def figure8(lambdas=FIG8_LAMBDAS) -> FigureData:
    """Average response time vs arrival rate; TAGS at its optimal integer
    t per lambda, vs random and shortest queue."""
    lams = np.asarray(lambdas, dtype=float)
    fig = FigureData(
        "Figure 8", "arrival rate lambda", "average response time", lams
    )
    param_sets = [{**FIG6_PARAMS, "lam": float(lam)} for lam in lams]
    opt_ts = _best_integer_ts(TagsExponential, param_sets, _FIG8_T, "mean_jobs")
    tag = [
        _solve(TagsExponential, t=float(t_opt), **params).response_time
        for params, t_opt in zip(param_sets, opt_ts)
    ]
    fig.add("TAG (optimal t)", tag)
    fig.add(
        "random",
        [
            _solve(RandomAllocation, lam=float(lam), service=10.0, K=10).response_time
            for lam in lams
        ],
    )
    fig.add(
        "shortest queue",
        [
            _solve(ShortestQueue, lam=float(lam), service=10.0, K=10).response_time
            for lam in lams
        ],
    )
    fig.series["optimal t"] = np.asarray(opt_ts, dtype=float)
    return fig


# ----------------------------------------------------------------------
# Figures 9-10: H2 service, sweep timeout rate
# ----------------------------------------------------------------------

def _h2_params(service, lam: float) -> dict:
    """``TagsHyperExponential`` parameters (all but ``t``) for an H2
    ``service`` at arrival rate ``lam``, with the paper's n and buffers."""
    mu1, mu2 = service.rates
    return dict(
        lam=float(lam), alpha=float(service.probs[0]), mu1=float(mu1), mu2=float(mu2),
        n=FIG9_PARAMS["n"], K1=FIG9_PARAMS["K1"], K2=FIG9_PARAMS["K2"],
    )


def _tags_h2_sweep(t_grid, service, lam, **overrides):
    params = {**_h2_params(service, lam), **overrides}
    grid = [dict(params, t=float(t)) for t in t_grid]
    return default_engine().sweep(TagsHyperExponential, grid).metrics


def figure9(t_grid=FIG9_T_GRID) -> FigureData:
    """Average response time vs timeout rate with H2 service
    (lam=11, alpha=0.99, mu1=100 mu2): TAG vs shortest queue.  The random
    series is included for completeness (the paper drops it as
    'works poorly ... not shown')."""
    service = h2_service_fig9()
    fig = FigureData(
        "Figure 9",
        "timeout rate t",
        "average response time",
        np.asarray(t_grid, dtype=float),
    )
    ms = _tags_h2_sweep(t_grid, service, FIG9_PARAMS["lam"])
    fig.add("TAG", [m.response_time for m in ms])
    jsq = _solve(ShortestQueue, lam=FIG9_PARAMS["lam"], service=service, K=10)
    fig.add("shortest queue", np.full_like(fig.x, jsq.response_time))
    rnd = _solve(RandomAllocation, lam=FIG9_PARAMS["lam"], service=service, K=10)
    fig.add("random (not shown in paper)", np.full_like(fig.x, rnd.response_time))
    return fig


def figure10(t_grid=FIG9_T_GRID) -> FigureData:
    """Throughput vs timeout rate (same H2 system as Fig 9)."""
    service = h2_service_fig9()
    fig = FigureData(
        "Figure 10",
        "timeout rate t",
        "throughput",
        np.asarray(t_grid, dtype=float),
    )
    ms = _tags_h2_sweep(t_grid, service, FIG9_PARAMS["lam"])
    fig.add("TAG", [m.throughput for m in ms])
    jsq = _solve(ShortestQueue, lam=FIG9_PARAMS["lam"], service=service, K=10)
    fig.add("shortest queue", np.full_like(fig.x, jsq.throughput))
    rnd = _solve(RandomAllocation, lam=FIG9_PARAMS["lam"], service=service, K=10)
    fig.add("random (not shown in paper)", np.full_like(fig.x, rnd.throughput))
    return fig


# ----------------------------------------------------------------------
# Figures 11-12: sweep the proportion of short jobs (mu1 = 10 mu2)
# ----------------------------------------------------------------------

def optimal_integer_t_h2(
    service, lam: float, metric: str = "response_time", t_range=_FIG11_T
) -> int:
    """Best integer timeout rate for an H2 system.

    Figures 11 and 12 run this search for every alpha at once, with
    different metrics."""
    return _best_integer_t(
        TagsHyperExponential, _h2_params(service, lam), t_range, metric
    )


def _figure11_12(metric: str, name: str, ylabel: str, alphas) -> FigureData:
    alphas = np.asarray(alphas, dtype=float)
    fig = FigureData(name, "proportion of short jobs alpha", ylabel, alphas)
    lam = 11.0
    services = [h2_service_fig11(float(a)) for a in alphas]
    param_sets = [_h2_params(service, lam) for service in services]
    opts = _best_integer_ts(TagsHyperExponential, param_sets, _FIG11_T, metric)
    tag, jsq, rnd = [], [], []
    for service, params, t_opt in zip(services, param_sets, opts):
        m = _solve(TagsHyperExponential, **params, t=float(t_opt))
        tag.append(getattr(m, metric))
        jsq.append(getattr(_solve(ShortestQueue, lam=lam, service=service, K=10), metric))
        rnd.append(getattr(_solve(RandomAllocation, lam=lam, service=service, K=10), metric))
    fig.add("TAG (optimal t)", tag)
    fig.add("shortest queue", jsq)
    fig.add("random", rnd)
    fig.series["optimal t"] = np.asarray(opts, dtype=float)
    return fig


def figure11(alphas=FIG11_ALPHAS) -> FigureData:
    """Average response time vs alpha (mu1 = 10 mu2, lam = 11)."""
    return _figure11_12(
        "response_time", "Figure 11", "average response time", alphas
    )


def figure12(alphas=FIG11_ALPHAS) -> FigureData:
    """Throughput vs alpha (same systems as Fig 11)."""
    return _figure11_12("throughput", "Figure 12", "throughput", alphas)


# ----------------------------------------------------------------------
# Non-figure quantitative claims
# ----------------------------------------------------------------------

def state_space_table() -> dict:
    """Section 5's state-space claim: 4331 states at n=6, K1=K2=10.

    ``explore`` dispatches to the compiled engine here (the Figure 3
    model sits inside the fragment); the interpreter would report the
    identical counts, which ``tests/pepa/test_compiled.py`` pins.
    """
    from repro.models.tags_pepa import TagsParameters, build_tags_model
    from repro.pepa import explore

    p = TagsParameters(**FIG6_PARAMS, t=51.0)
    space = explore(build_tags_model(p))
    return {
        "paper_states": 4331,
        "measured_states": space.n_states,
        "formula_states": (p.K1 * p.n + 1) * (p.K2 * (p.n + 1) + 1),
        "transitions": space.n_transitions,
    }


def section1_example() -> dict:
    """The worked example's quoted mean response times."""
    jobs = [4.0, 5.0, 6.0, 7.0, 3.0, 2.0]
    heavy = [99.0, 5.0, 6.0, 7.0, 3.0, 2.0]
    eps = 1e-9
    return {
        "no timeout": (17.0, tags_batch_mean_response(jobs, ())),
        "timeout 1.5": (18.5, tags_batch_mean_response(jobs, (1.5,))),
        "timeout 3.5": (16.67, tags_batch_mean_response(jobs, (3.5,))),
        "timeout 3+eps": (15.67, tags_batch_mean_response(jobs, (3.0 + eps,))),
        "heavy, timeout 7+eps": (36.5, tags_batch_mean_response(heavy, (7.0 + eps,))),
        "heavy, no timeout": (112.0, tags_batch_mean_response(heavy, ())),
    }


def section4_approximations() -> dict:
    """Section 4's quoted approximation outputs."""
    out = {
        "exponential balance T (paper ~6.17)": exponential_balance_rate(10.0),
        "erlang balance t at n=6": erlang_balance_rate(10.0, 6),
        "total rate t/n at n=400 (paper ~9)": erlang_balance_rate(10.0, 400) / 400,
    }
    fp = TagsFixedPoint(lam=11, mu=10, t=42, n=6)
    ex = TagsExponential(lam=11, mu=10, t=42.0, n=6)
    out["fixed-point throughput at lam=11, t=42"] = fp.metrics().throughput
    out["exact throughput at lam=11, t=42"] = ex.metrics().throughput
    return out
