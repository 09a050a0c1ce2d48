"""The benchmark's four workloads: inputs, the timed part, and checks.

Each workload is three functions:

* ``prepare(seed, tracer)`` -- builds the inputs from the seed (set-up,
  counted in ``setup_s``; the traced pass times trace synthesis);
* ``execute(inputs)`` -- the timed part: calls into the program
  exactly as a user regenerating a figure or replaying a trace would;
* ``check(inputs, outputs, reference)`` -- compares every output with
  the committed reference and the invariants, returning a
  :class:`Verdict` (operations attempted, operations failed, problems).

An operation is one grid point handed to the sweep engine (cache hits
included) in the sweep workloads, and one replayed job in ``tags-des``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["WORKLOADS", "Verdict", "load_reference", "collect_points"]

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

SERIES_RTOL = 1e-9
"""Figure series and structure-scan metrics must match the reference to
this relative tolerance (the same build of the same solver reproduces
them to rounding; a solver change that moves a value further is a
result change, not noise)."""

FLOW_RTOL = 1e-8
"""Flow balance ``throughput + losses = lambda`` (relative to lambda).
Both sides are action throughputs of one stationary vector whose
residual the solver verified to 1e-8 of the largest exit rate."""

LITTLE_RTOL = 1e-12
"""Little's law ``L = X R`` (relative): the metrics derive R from L and
X, so only rounding separates the two sides."""

RESIDUAL_TOL = 1e-8
"""Largest ``|pi Q|`` entry accepted at any point (the engine's solve
tolerance, here taken absolute)."""

AGREE_RTOL = 1e-9
"""Direct vs compiled-PEPA metric agreement in ``structure-scan``."""

FIG8_OPTIMA = {5.0: 51, 7.0: 48, 9.0: 46, 11.0: 42}
"""Queue-length-optimal integer t per lambda of Figure 8 (the paper
quotes 51, 49, 45, 42; EXPERIMENTS.md records the deviation)."""

H2_POINTS = 12
"""Points of the Figure 9/10 t-grid the ``h2-grid`` workload solves (a
seeded subset of the paper's 50, to keep one repetition short)."""

SCAN_SHAPES = [(K, n) for K in (2, 4, 6, 8, 10) for n in (2, 4, 6)]
SCAN_RATES = dict(lam=5.0, mu=10.0, t=51.0)

TRACE_JOBS = 100_000
TRACE_SEEDS = 64
"""The ``tags-des`` trace is synthesised from ``seed % TRACE_SEEDS``;
the reference holds the aggregate counts of each of those traces."""


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, msg: str, ops: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        if len(self.problems) < 20:
            self.problems.append(msg)


def load_reference(name: str, directory: str = REFERENCE_DIR) -> dict:
    with open(os.path.join(directory, f"{name}.json")) as fh:
        return json.load(fh)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------------
# Engine points: every point the sweep engine hands back is checked
# ----------------------------------------------------------------------

def collect_points() -> list:
    """Record ``(model name, params, metrics, PointStats)`` for every
    point returned by ``SweepEngine.sweep`` / ``solve``.  One list append
    per call; the checks need the per-point solver statistics, which the
    figure functions do not return."""
    from repro.sweep import SweepEngine

    points: list = []
    sweep, solve = SweepEngine.sweep, SweepEngine.solve

    def collecting_sweep(self, model_cls, grid, *args, **kwargs):
        res = sweep(self, model_cls, grid, *args, **kwargs)
        points.extend(
            zip([model_cls.__name__] * res.n_points, res.params, res.metrics, res.stats)
        )
        return res

    def collecting_solve(self, model_cls, params, *args, **kwargs):
        metrics, stats = solve(self, model_cls, params, *args, **kwargs)
        points.append((model_cls.__name__, dict(params), metrics, stats))
        return metrics, stats

    SweepEngine.sweep = collecting_sweep
    SweepEngine.solve = collecting_solve
    return points


def _check_points(points, verdict: Verdict) -> None:
    from repro.ctmc.steady import GTH_CUTOFF

    verdict.attempted += len(points)
    for name, params, m, st in points:
        where = f"{name}{params}"
        bad = []
        if st.residual > RESIDUAL_TOL:
            bad.append(f"residual {st.residual:.3g}")
        n = m.extra.get("n_states")
        if st.method != "closed_form" and n is not None:
            primary = "gth" if n <= GTH_CUTOFF else "direct"
            if st.method != primary:
                bad.append(f"solved by {st.method}, not {primary} (fallback)")
        if m.loss_per_node:
            lhs = m.throughput + sum(m.loss_per_node)
            if abs(lhs - m.offered_load) > FLOW_RTOL * m.offered_load:
                bad.append(f"flow balance {lhs!r} != {m.offered_load!r}")
        if abs(m.response_time * m.throughput - m.mean_jobs) > LITTLE_RTOL * max(m.mean_jobs, 1.0):
            bad.append("Little's law")
        if bad:
            verdict.fail(f"{where}: " + "; ".join(bad))


def _check_series(fig, ref: dict, verdict: Verdict) -> None:
    """Every value of ``fig`` against the reference series at the same x."""
    at = {x: i for i, x in enumerate(ref["x"])}
    for label, values in fig.series.items():
        want = ref["series"].get(label)
        if want is None:
            verdict.fail(f"{fig.name}: series {label!r} not in reference")
            continue
        for x, v in zip(fig.x.tolist(), values.tolist()):
            i = at.get(x)
            if i is None:
                verdict.fail(f"{fig.name}: x={x!r} not in reference")
            elif not _close(v, want[i], SERIES_RTOL):
                verdict.fail(f"{fig.name} {label!r} at x={x!r}: {v!r} != {want[i]!r}")


# ----------------------------------------------------------------------
# exp-grid: Figures 6, 7, 8
# ----------------------------------------------------------------------

def exp_prepare(seed: int, tracer=None) -> dict:
    from repro.experiments.config import FIG6_T_GRID, FIG8_LAMBDAS

    rng = np.random.default_rng(abs(seed))
    return {
        "t_grid": FIG6_T_GRID[rng.permutation(FIG6_T_GRID.size)],
        "lambdas": tuple(np.asarray(FIG8_LAMBDAS)[rng.permutation(len(FIG8_LAMBDAS))]),
    }


def exp_execute(inputs: dict) -> dict:
    from repro.experiments import figures

    return {
        "figure6": figures.figure6(inputs["t_grid"]),
        "figure7": figures.figure7(inputs["t_grid"]),
        "figure8": figures.figure8(inputs["lambdas"]),
    }


def exp_check(inputs, outputs, reference, points) -> Verdict:
    v = Verdict()
    _check_points(points, v)
    for key, fig in outputs.items():
        _check_series(fig, reference[key], v)
    f8 = outputs["figure8"]
    for lam, t in zip(f8.x.tolist(), f8.series["optimal t"].tolist()):
        if FIG8_OPTIMA.get(lam) != int(t):
            v.fail(f"Figure 8 optimum at lambda={lam}: {t} != {FIG8_OPTIMA.get(lam)}")
    return v


# ----------------------------------------------------------------------
# h2-grid: Figures 9, 10
# ----------------------------------------------------------------------

def h2_prepare(seed: int, tracer=None) -> dict:
    from repro.experiments.config import FIG9_T_GRID

    rng = np.random.default_rng(abs(seed))
    pick = np.sort(rng.choice(FIG9_T_GRID.size, size=H2_POINTS, replace=False))
    return {"t_grid": FIG9_T_GRID[pick]}


def h2_execute(inputs: dict) -> dict:
    from repro.experiments import figures

    return {
        "figure9": figures.figure9(inputs["t_grid"]),
        "figure10": figures.figure10(inputs["t_grid"]),
    }


def h2_check(inputs, outputs, reference, points) -> Verdict:
    v = Verdict()
    _check_points(points, v)
    for key, fig in outputs.items():
        _check_series(fig, reference[key], v)
    return v


# ----------------------------------------------------------------------
# structure-scan: 15 shapes through both constructions
# ----------------------------------------------------------------------

SCAN_FIELDS = ("mean_jobs", "throughput", "response_time")


def scan_prepare(seed: int, tracer=None) -> dict:
    grid = [dict(SCAN_RATES, n=n, K1=K, K2=K) for K, n in SCAN_SHAPES]
    return {"grid": grid}


def scan_execute(inputs: dict) -> dict:
    from repro.models import TagsExponential
    from repro.models.tags_pepa import TagsPepa
    from repro.sweep import default_engine

    engine = default_engine()
    return {
        "direct": engine.sweep(TagsExponential, inputs["grid"]).metrics,
        "pepa": engine.sweep(TagsPepa, inputs["grid"]).metrics,
    }


def scan_values(m) -> list:
    return [getattr(m, f) for f in SCAN_FIELDS] + list(m.mean_jobs_per_node) + list(m.loss_per_node)


def _scan_close(a: list, b: list, rtol: float, lam: float) -> bool:
    """Relative agreement, except that the per-node losses (the last two
    values) are compared on the scale of lambda: node 2's loss is the
    difference of two action throughputs (timeout - service2), so its
    own magnitude (~1e-6 here) says nothing about solve accuracy."""
    if len(a) != len(b):
        return False
    k = len(SCAN_FIELDS) + 2
    return all(_close(x, y, rtol) for x, y in zip(a[:k], b[:k])) and all(
        abs(x - y) <= rtol * lam for x, y in zip(a[k:], b[k:])
    )


def scan_check(inputs, outputs, reference, points) -> Verdict:
    v = Verdict()
    _check_points(points, v)
    ref = {(r["K"], r["n"]): r for r in reference["points"]}
    for p, d, q in zip(inputs["grid"], outputs["direct"], outputs["pepa"]):
        K, n = p["K1"], p["n"]
        want_states = (K * n + 1) * (K * (n + 1) + 1)
        for label, m in (("direct", d), ("pepa", q)):
            if m.extra.get("n_states") != want_states:
                v.fail(f"K={K} n={n} {label}: {m.extra.get('n_states')} states != {want_states}")
        dv, qv = scan_values(d), scan_values(q)
        if not _scan_close(dv, qv, AGREE_RTOL, p["lam"]):
            v.fail(f"K={K} n={n}: direct {dv} != pepa {qv}")
        r = ref.get((K, n))
        if r is None or not _scan_close(dv, r["values"], SERIES_RTOL, p["lam"]):
            v.fail(f"K={K} n={n}: {dv} != reference {r and r['values']}")
    return v


# ----------------------------------------------------------------------
# tags-des: one trace through sim.runner and serve
# ----------------------------------------------------------------------

def des_scenario(trace_seed: int, n_jobs: int = TRACE_JOBS):
    """``(trace, make_policy, capacities)`` of the replay scenario."""
    from repro.dists import h2_balanced_means
    from repro.serve import Trace
    from repro.sim import ErlangTimeout, PoissonArrivals, TagsPolicy

    trace = Trace.synthesise(
        PoissonArrivals(8.0), h2_balanced_means(0.1, 0.99, 100.0), n_jobs, seed=trace_seed
    )
    return trace, lambda: TagsPolicy(timeouts=(ErlangTimeout(6, 50.0),)), (10, 10)


def des_replay(trace, make_policy, capacities, rng_seed: int):
    """Replay ``trace`` on both hosts; returns ``(sim result, serve
    result, sim seconds, serve seconds)``."""
    from repro.serve import DispatchRuntime, TraceArrivals, TraceDemands, TraceLoad
    from repro.sim import Simulation

    horizon = 1e12  # both hosts run the trace to completion
    t0 = time.perf_counter()
    sim_res = Simulation(
        TraceArrivals(trace), TraceDemands(trace), make_policy(), capacities,
        seed=rng_seed, record_jobs=True,
    ).run(t_end=horizon)
    t1 = time.perf_counter()
    serve_res = DispatchRuntime(
        TraceLoad(trace), make_policy(), capacities,
        rng=np.random.default_rng(rng_seed), record_jobs=True,
    ).run(horizon)
    t2 = time.perf_counter()
    return sim_res, serve_res, t1 - t0, t2 - t1


def des_prepare(seed: int, tracer=None) -> dict:
    trace_seed = seed % TRACE_SEEDS
    if tracer is None:
        scenario = des_scenario(trace_seed)
    else:
        with tracer.span("dists.trace_synth"):
            scenario = des_scenario(trace_seed)
    return {"trace_seed": trace_seed, "scenario": scenario}


def des_execute(inputs: dict) -> dict:
    trace, make_policy, capacities = inputs["scenario"]
    sim_res, serve_res, sim_s, serve_s = des_replay(
        trace, make_policy, capacities, inputs["trace_seed"]
    )
    return {"sim": sim_res, "serve": serve_res, "sim_s": sim_s, "serve_s": serve_s}


def aggregate_counts(res, outcomes: dict) -> dict:
    return {
        "offered": res.offered,
        "completed": res.completed,
        "dropped_arrival": res.dropped_arrival,
        "dropped_forward": res.dropped_forward,
        "still_queued": res.still_queued,
        "kills": sum(k for _, _, k in outcomes.values()),
    }


def des_check(inputs, outputs, reference, points=None) -> Verdict:
    trace = inputs["scenario"][0]
    sim_res, serve_res = outputs["sim"], outputs["serve"]
    v = Verdict(attempted=len(trace))
    a, b = sim_res.job_outcomes(), serve_res.job_outcomes()
    differ = sum(1 for j in range(len(trace)) if a.get(j, "missing") != b.get(j, "missing"))
    if differ:
        v.fail(f"{differ} jobs differ between sim and serve", ops=differ)
    want = reference["seeds"].get(str(inputs["trace_seed"]))
    for host, res, outcomes in (("sim", sim_res, a), ("serve", serve_res, b)):
        if res.accounted != res.offered or res.offered != len(trace):
            v.fail(f"{host}: accounted {res.accounted}, offered {res.offered}, trace {len(trace)}")
        got = aggregate_counts(res, outcomes)
        if got != want:
            v.fail(f"{host}: aggregate counts {got} != reference {want}")
    return v


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    execute: object
    check: object
    reference: str
    sweeps: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exp-grid", exp_prepare, exp_execute, exp_check, "figures", True),
        Workload("h2-grid", h2_prepare, h2_execute, h2_check, "figures", True),
        Workload("structure-scan", scan_prepare, scan_execute, scan_check, "structure_scan", True),
        Workload("tags-des", des_prepare, des_execute, des_check, "tags_des", False),
    )
}
