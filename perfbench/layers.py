"""Layer wrappers for the traced benchmark pass.

Every layer is timed from outside the program: :func:`install` replaces
public entry points of the ``repro`` layers with thin wrappers that file
a span (name, start, end, parent) into a :class:`Tracer` held in memory.
Nothing in the program is edited; the wrappers see every call because
the traced pass runs its sweeps in-process (one worker).

Wrapped entry points, by layer:

* ``experiments`` -- ``figures.figure6`` .. ``figure10`` and the
  integer-t searches ``optimal_integer_t`` / ``optimal_integer_t_h2``;
* ``sweep``  -- ``SweepEngine.sweep`` and ``SweepEngine.solve``;
* ``models`` -- the ``.generator`` property and ``.metrics()`` of the
  TAGS model classes (``TagsPepa`` is the ``pepa`` layer's compiled
  engine), plus ``.metrics()`` of the random / shortest-queue models;
* ``ctmc``   -- ``steady_state``, at every module that imported it;
* ``sim`` / ``serve`` -- ``Simulation.run`` and ``DispatchRuntime.run``.

A model's first ``.generator`` access is a *structure build* when the
process-wide structure cache missed during the call, and a *refill* (rate
column recomputed on a cached template) otherwise.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["Tracer", "install", "layer_metrics", "lu_fill_nnz"]

_SEEN = "_perfbench_generator_seen"


class Tracer:
    """In-memory span list; spans nest through an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.direct_chains: dict = {}  # (n, nnz) -> Q, first one per structure

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def within(self, outer: dict, name: str) -> list[dict]:
        """Spans called ``name`` nested (at any depth) under ``outer``."""
        by_id = self.spans
        found = []
        for s in self.named(name):
            p = s["parent"]
            while p is not None and p != outer["id"]:
                p = by_id[p]["parent"]
            if p is not None:
                found.append(s)
        return found

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=float) + "\n")


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _wrap_call(tracer: Tracer, name: str, fn, after=None):
    """``fn`` inside a span; ``after(span, result)`` runs once the span
    has closed, so its bookkeeping is not timed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if after is not None:
            after(sp, result)
        return result

    return wrapper


def _modules_holding(obj) -> list:
    """Every loaded ``repro`` module that binds ``obj`` under its name."""
    name = obj.__name__
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None
        and (key == "repro" or key.startswith("repro."))
        and getattr(mod, name, None) is obj
    ]


def _generator_property(tracer: Tracer, fget, kind: str, cache):
    """``.generator`` with its first access per instance timed and
    classified as a structure build or a refill."""

    def generator(self):
        if self.__dict__.get(_SEEN):
            return fget(self)
        misses = cache.misses
        with tracer.span("models.generator") as sp:
            gen = fget(self)
        self.__dict__[_SEEN] = True
        sp["attrs"].update(kind=kind, build=cache.misses > misses)
        return gen

    return property(generator)


def _steady_state_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def steady_state(generator, method="auto", tol=1e-8, pi0=None, info=None):
        info = {} if info is None else info
        with tracer.span("ctmc.steady_state") as sp:
            pi = fn(generator, method=method, tol=tol, pi0=pi0, info=info)
        Q = getattr(generator, "Q", generator)
        n = int(Q.shape[0])
        nnz = int(Q.nnz) if hasattr(Q, "nnz") else int(np.count_nonzero(Q))
        used = info.get("method", method)
        sp["attrs"].update(
            n=n,
            nnz=nnz,
            method=used,
            fallbacks=len(info.get("fallbacks", ())),
            residual=float(np.abs(pi @ Q).max()),
        )
        if used == "direct":
            tracer.direct_chains.setdefault((n, nnz), Q)
        return pi

    return steady_state


def install(tracer: Tracer) -> None:
    """Wrap the layers' public entry points (see the module docstring)."""
    import repro.ctmc.steady as steady_mod
    from repro.experiments import figures
    from repro.models import TagsExponential, TagsHyperExponential
    from repro.models.random_alloc import RandomAllocation
    from repro.models.shortest_queue import ShortestQueue
    from repro.models.tags_pepa import TagsPepa
    from repro.serve import DispatchRuntime
    from repro.sim import Simulation
    from repro.sweep import SweepEngine, structure_cache

    for fig in ("figure6", "figure7", "figure8", "figure9", "figure10"):
        fn = getattr(figures, fig)
        wrapped = _wrap_call(tracer, f"experiments.{fig}", fn)
        for mod in _modules_holding(fn):
            setattr(mod, fig, wrapped)
    for search in ("optimal_integer_t", "optimal_integer_t_h2"):
        fn = getattr(figures, search)
        wrapped = _wrap_call(tracer, "experiments.search", fn)
        for mod in _modules_holding(fn):
            setattr(mod, search, wrapped)

    def after_sweep(sp, result):
        sp["attrs"].update(
            points=result.n_points,
            cache_hits=result.n_hits,
            solves=result.n_solves,
            workers=result.workers,
            point_s=sum(s.wall_time for s in result.stats if not s.cache_hit),
        )

    def after_solve(sp, result):
        stats = result[1]
        sp["attrs"].update(
            points=1,
            cache_hits=int(stats.cache_hit),
            solves=int(not stats.cache_hit),
            workers=1,
            point_s=0.0 if stats.cache_hit else stats.wall_time,
        )

    SweepEngine.sweep = _wrap_call(tracer, "sweep.sweep", SweepEngine.sweep, after_sweep)
    SweepEngine.solve = _wrap_call(tracer, "sweep.solve", SweepEngine.solve, after_solve)

    cache = structure_cache()
    for cls, kind in (
        (TagsExponential, "direct"),
        (TagsHyperExponential, "direct"),
        (TagsPepa, "pepa"),
    ):
        cls.generator = _generator_property(tracer, cls.generator.fget, kind, cache)
    for cls in (TagsExponential, TagsHyperExponential, TagsPepa, ShortestQueue, RandomAllocation):
        cls.metrics = _wrap_call(tracer, "models.metrics", cls.metrics)

    original = steady_mod.steady_state
    solve = _steady_state_wrapper(tracer, original)
    for mod in _modules_holding(original):
        mod.steady_state = solve

    Simulation.run = _wrap_call(tracer, "sim.run", Simulation.run)
    DispatchRuntime.run = _wrap_call(tracer, "serve.run", DispatchRuntime.run)


def lu_fill_nnz(Q) -> int:
    """``L.nnz + U.nnz`` of one SuperLU factorisation of the anchored
    system ``steady_state(method="direct")`` solves (last state fixed)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = Q.shape[0]
    A = sp.csc_matrix(sp.csr_matrix(Q)[: n - 1, : n - 1].T)
    lu = spla.splu(A)
    return int(lu.L.nnz + lu.U.nnz)


def _sum(spans) -> float:
    return float(sum(_dur(s) for s in spans))


def layer_metrics(tracer: Tracer, *, jobs: dict, sim_kills: int, lu_fill: int) -> dict:
    """Per-layer numbers from the spans of one traced pass.

    ``jobs`` gives the offered jobs per DES host (``"sim"``, ``"serve"``),
    ``sim_kills`` the kills in the simulator's job log; ``lu_fill`` is the largest
    :func:`lu_fill_nnz` over the chains solved by sparse LU.
    """
    out: dict = {}
    solves = tracer.named("ctmc.steady_state")
    ms = [1e3 * _dur(s) for s in solves]
    methods = [s["attrs"]["method"] for s in solves]
    out["solve.count"] = len(solves)
    out["solve.s"] = _sum(solves)
    out["solve.p50_ms"] = float(np.percentile(ms, 50)) if ms else 0.0
    out["solve.p90_ms"] = float(np.percentile(ms, 90)) if ms else 0.0
    out["solve.samples"] = len(ms)
    out["solve.by_method.gth"] = methods.count("gth")
    out["solve.by_method.direct"] = methods.count("direct")
    out["solve.fallbacks"] = sum(s["attrs"]["fallbacks"] for s in solves)
    out["solve.residual_max"] = max((s["attrs"]["residual"] for s in solves), default=0.0)
    out["solve.n_states_max"] = max((s["attrs"]["n"] for s in solves), default=0)
    out["solve.nnz_max"] = max((s["attrs"]["nnz"] for s in solves), default=0)
    out["solve.lu_fill_nnz"] = lu_fill
    out["solve.gth_dense_bytes"] = sum(
        8 * s["attrs"]["n"] ** 2 for s in solves if s["attrs"]["method"] == "gth"
    )

    gens = tracer.named("models.generator")
    builds = [g for g in gens if g["attrs"]["build"]]
    out["structure.builds"] = len(builds)
    for kind in ("direct", "pepa"):
        out[f"structure.build_s.{kind}"] = _sum(
            g for g in builds if g["attrs"]["kind"] == kind
        )
    refills = [g for g in gens if not g["attrs"]["build"]]
    out["refill.points"] = len(refills)
    out["refill.s"] = _sum(refills)

    mets = tracer.named("models.metrics")
    out["metrics.count"] = len(mets)
    out["metrics.s"] = _sum(mets)

    searches = tracer.named("experiments.search")
    out["search.count"] = len(searches)
    if searches:
        out["search.solves"] = sum(
            len(tracer.within(s, "ctmc.steady_state")) for s in searches
        ) / len(searches)
        out["search.points"] = sum(
            sw["attrs"]["points"]
            for s in searches
            for sw in tracer.within(s, "sweep.sweep")
        ) / len(searches)
    else:
        out["search.solves"] = out["search.points"] = 0

    calls = tracer.named("sweep.sweep") + tracer.named("sweep.solve")
    out["sweep.points"] = sum(c["attrs"]["points"] for c in calls)
    out["sweep.cache_hits"] = sum(c["attrs"]["cache_hits"] for c in calls)
    out["sweep.solves"] = sum(c["attrs"]["solves"] for c in calls)
    out["sweep.workers"] = max((c["attrs"]["workers"] for c in calls), default=0)
    out["sweep.overhead_s"] = float(
        sum(_dur(c) - c["attrs"]["point_s"] for c in calls)
    )

    out["trace.synth_s"] = _sum(tracer.named("dists.trace_synth"))
    sim_s = _sum(tracer.named("sim.run"))
    serve_s = _sum(tracer.named("serve.run"))
    for host, secs in (("sim", sim_s), ("serve", serve_s)):
        n = jobs.get(host, 0)
        out[f"{host}.run_s"] = secs
        out[f"{host}.jobs"] = n
        out[f"{host}.us_per_job"] = 1e6 * secs / n if n else 0.0
        out[f"{host}.jobs_per_s"] = n / secs if secs else 0.0
    out["sim.kills"] = sim_kills
    out["serve.over_sim"] = serve_s / sim_s if sim_s else 0.0
    return out
