"""Instrumentation across the library: solvers, state-space builders, and
the simulator all file spans/counters/traces when a recorder is enabled,
and stay silent (with empty buffers) when it is not."""

import numpy as np
import pytest

from repro import obs
from repro.ctmc.bfs import bfs_generator
from repro.ctmc.steady import (
    SteadyStateError,
    steady_state,
    steady_state_power,
)
from repro.dists import Exponential
from repro.models import TagsExponential
from repro.pepa import compile_model, explore, explore_interpreter, parse_model
from repro.sim import PoissonArrivals, RandomPolicy, Simulation, replicate

MM1K_PEPA = """
lam = 3.0; mu = 5.0;
Q0 = (arrive, lam).Q1;
Q1 = (arrive, lam).Q2 + (serve, mu).Q0;
Q2 = (arrive, lam).Q3 + (serve, mu).Q1;
Q3 = (serve, mu).Q2 + (drop, lam).Q3;
Q0;
"""


@pytest.fixture
def chain():
    return TagsExponential(lam=5.0, mu=10.0, t=51.0, n=4, K1=3, K2=3).generator


class TestSolverSpans:
    @pytest.mark.parametrize("method", ["gth", "direct", "power"])
    def test_each_method_records_one_span(self, chain, method):
        with obs.use(obs.Recorder()) as rec:
            steady_state(chain, method=method)
        spans = rec.find_spans("steady_state")
        assert len(spans) == 1
        assert spans[0].attrs["method"] == method
        assert spans[0].attrs["n"] == chain.n_states
        assert spans[0].duration > 0

    @pytest.mark.parametrize("method", ["power"])
    def test_iterative_methods_emit_residual_trace(self, chain, method):
        with obs.use(obs.Recorder()) as rec:
            steady_state(chain, method=method)
        trace = next(t for t in rec.traces if t.name == f"steady_state.{method}")
        assert trace.n_points >= 1
        steps = [s for s, _ in trace.series]
        assert steps == sorted(steps)
        assert all(v >= 0 for _, v in trace.series)
        span = rec.find_spans("steady_state")[0]
        assert span.attrs["iterations"] == steps[-1]

    def test_trace_converges_downwards(self, chain):
        with obs.use(obs.Recorder()) as rec:
            steady_state(chain, method="power")
        series = rec.traces[0].series
        assert series[-1][1] < series[0][1]

    def test_solvers_silent_without_recorder(self, chain):
        rec = obs.recorder()
        assert not rec.enabled
        steady_state(chain, method="power")
        assert rec.spans == [] and rec.traces == []


class TestNonConvergenceDiagnostics:
    """Satellite: failed iterative solves must report how far they got."""

    def test_power_reports_iterations_and_residual(self, chain):
        with pytest.raises(SteadyStateError) as exc:
            steady_state_power(chain, max_iter=5)
        msg = str(exc.value)
        assert "5 iterations" in msg
        assert "achieved residual" in msg and "target" in msg

    def test_failed_solve_records_no_span(self, chain):
        with obs.use(obs.Recorder()) as rec:
            with pytest.raises(SteadyStateError):
                steady_state_power(chain, max_iter=5)
        assert rec.find_spans("steady_state") == []


class TestStateSpaceBuilds:
    def test_pepa_explore_span_and_counters(self):
        # default engine: the compiled fast path emits pepa.explore.fast;
        # out-of-fragment models fall back and emit pepa.explore
        with obs.use(obs.Recorder()) as rec:
            space = explore(parse_model(MM1K_PEPA))
        spans = rec.find_spans("pepa.explore.fast") + rec.find_spans(
            "pepa.explore"
        )
        span = spans[0]
        assert span.attrs["states"] == space.n_states == 4
        assert rec.counter("pepa.states") == 4
        assert rec.counter("pepa.transitions") == span.attrs["transitions"]

    def test_pepa_interpreter_span(self):
        with obs.use(obs.Recorder()) as rec:
            space = explore_interpreter(parse_model(MM1K_PEPA))
        span = rec.find_spans("pepa.explore")[0]
        assert span.attrs["states"] == space.n_states == 4

    def test_pepa_compile_span(self):
        with obs.use(obs.Recorder()) as rec:
            compile_model(parse_model(MM1K_PEPA)).explore()
        assert rec.find_spans("pepa.compile")
        assert rec.find_spans("pepa.explore.fast")

    def test_pepa_frontier_trace_sums_to_states(self):
        with obs.use(obs.Recorder()) as rec:
            space = explore(parse_model(MM1K_PEPA))
        trace = next(t for t in rec.traces if t.name == "pepa.explore.frontier")
        assert sum(size for _, size in trace.series) == space.n_states

    def test_bfs_generator_span_and_counters(self):
        def ring(n):
            return lambda s: [("step", 1.0, ((s[0] + 1) % n,))]

        with obs.use(obs.Recorder()) as rec:
            gen, states, _ = bfs_generator((0,), ring(5))
        span = rec.find_spans("ctmc.bfs")[0]
        assert span.attrs["states"] == len(states) == 5
        assert rec.counter("ctmc.bfs.states") == 5
        assert rec.counter("ctmc.bfs.transitions") == 5


class TestSimulatorInstrumentation:
    def make_sim(self, seed=0):
        return Simulation(
            PoissonArrivals(4.0),
            Exponential(5.0),
            RandomPolicy(weights=(1.0,)),
            (8,),
            seed=seed,
        )

    def test_run_span_and_counters_match_result(self):
        with obs.use(obs.Recorder()) as rec:
            res = self.make_sim().run(t_end=200.0, warmup=20.0)
        span = rec.find_spans("sim.run")[0]
        assert span.attrs["t_end"] == 200.0
        assert rec.counter("sim.completed") == res.completed
        assert rec.counter("sim.offered") == res.offered
        assert rec.counter("sim.dropped.arrival") == res.dropped_arrival

    def test_queue_gauge_tracks_mean(self):
        with obs.use(obs.Recorder()) as rec:
            res = self.make_sim().run(t_end=200.0, warmup=20.0)
        key = ("sim.mean_queue_length", (("node", 0),))
        assert rec.gauges[key].last == pytest.approx(res.mean_queue_lengths[0])

    def test_replicate_wraps_each_rep_in_a_span(self):
        with obs.use(obs.Recorder()) as rec:
            replicate(self.make_sim, n_reps=3, t_end=100.0, warmup=10.0)
        reps = rec.find_spans("sim.replication")
        assert [s.attrs["rep"] for s in reps] == [0, 1, 2]
        runs = rec.find_spans("sim.run")
        rep_ids = {s.span_id for s in reps}
        assert all(r.parent_id in rep_ids for r in runs)
