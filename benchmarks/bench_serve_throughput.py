"""Dispatcher throughput: decisions per second under the virtual clock.

The serve runtime's cost per job is one routing decision, one timeout
draw, up to one kill/forward, and the asyncio bookkeeping in between --
this file measures how many such decisions the event loop sustains in
virtual-clock mode (no real sleeping, so the numbers are pure dispatch
overhead).

The CI ``serve`` job runs this file four times, alternating without and
with ``REPRO_OBS=record``, into ``BENCH_SERVE_OFF_<pass>.json`` /
``BENCH_SERVE_ON_<pass>.json`` and enforces the library-wide rule that
enabled observability costs at most 10% -- so nothing here may assert
on the recorder's state.  Each round drains the recorder afterwards, the way a
deployment ships spans out (``drain()``/``write_jsonl`` + ``clear()``):
letting one process accumulate every span from every round would
benchmark the garbage collector walking an unbounded buffer, a cost no
draining consumer pays.

Every benchmark reports ``decisions_per_sec`` in ``extra_info``
(decisions = routed arrivals + kill/forward events).
"""

import pytest

from repro import obs
from repro.dists import Exponential, h2_balanced_means
from repro.serve import DispatchRuntime, PoissonLoad, Trace, TraceLoad
from repro.sim import (
    ErlangTimeout,
    JSQPolicy,
    PoissonArrivals,
    TagsPolicy,
)

MU = 10.0


def run_and_count(make_runtime, t_end):
    """Factory for the benchmark target: fresh runtime each round."""
    state = {}

    def target():
        rt = make_runtime()
        res = rt.run(t_end)
        state["decisions"] = res.offered + res.killed
        rec = obs.recorder()
        if rec.enabled:
            rec.clear()  # per-round cost, not unbounded accumulation
        return res

    return target, state


def report(benchmark, state):
    if benchmark.stats is None:  # --benchmark-disable smoke runs
        return
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["decisions"] = state["decisions"]
    benchmark.extra_info["decisions_per_sec"] = state["decisions"] / mean


def test_tags_dispatch(benchmark):
    """The paper's policy: TAGS with an Erlang timeout, moderate kills."""
    target, state = run_and_count(
        lambda: DispatchRuntime(
            PoissonLoad(8.0, Exponential(MU)),
            TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (10, 10),
            seed=0,
        ),
        t_end=1500.0,
    )
    benchmark.pedantic(target, rounds=5, warmup_rounds=1, iterations=1)
    report(benchmark, state)


def test_tags_kill_storm(benchmark):
    """Worst case for the runtime: a heavy-tail workload with a short
    timeout, so nearly every long job generates a second dispatch."""
    target, state = run_and_count(
        lambda: DispatchRuntime(
            PoissonLoad(8.0, h2_balanced_means(0.1, 0.99, 100.0)),
            TagsPolicy(timeouts=(ErlangTimeout(6, 50.0),)),
            (10, 10),
            seed=1,
        ),
        t_end=1500.0,
    )
    benchmark.pedantic(target, rounds=5, warmup_rounds=1, iterations=1)
    report(benchmark, state)


def test_jsq_dispatch(benchmark):
    """No timeouts: pure route-enqueue-serve throughput."""
    target, state = run_and_count(
        lambda: DispatchRuntime(
            PoissonLoad(9.0, Exponential(MU)),
            JSQPolicy(),
            (10, 10),
            seed=2,
        ),
        t_end=1500.0,
    )
    benchmark.pedantic(target, rounds=5, warmup_rounds=1, iterations=1)
    report(benchmark, state)


@pytest.fixture(scope="module")
def replay_trace():
    return Trace.synthesise(
        PoissonArrivals(8.0), Exponential(MU), 10_000, seed=3
    )


def test_trace_replay(benchmark, replay_trace):
    """Replay mode (the equivalence-gate configuration)."""
    state = {}

    def target():
        rt = DispatchRuntime(
            TraceLoad(replay_trace),
            TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (10, 10),
            seed=4,
        )
        res = rt.run(1e12)
        state["decisions"] = res.offered + res.killed
        rec = obs.recorder()
        if rec.enabled:
            rec.clear()
        return res

    res = benchmark.pedantic(target, rounds=5, warmup_rounds=1, iterations=1)
    assert res.offered == len(replay_trace)
    report(benchmark, state)
