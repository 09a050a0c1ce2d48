"""The deterministic-equivalence gate: under a virtual clock on a fixed
trace, the online runtime's per-job outcomes (completion node, kill
count, drop point) must match ``sim.runner.Simulation`` executing the
same TAGS policy on the same trace **exactly** -- same job ids, same
outcomes, same floats driving every decision.

This is the strongest statement the repo can make that the serving path
implements the paper's semantics: the offline simulator is already
pinned to the CTMC models, and the runtime is pinned job-for-job to the
simulator.
"""

import itertools

import numpy as np
import pytest

from repro.dists import Exponential, h2_balanced_means
from repro.faults import FaultInjector, FaultPlan
from repro.serve import (
    DispatchRuntime,
    Trace,
    TraceArrivals,
    TraceDemands,
    TraceLoad,
)
from repro.sim import (
    DeterministicTimeout,
    ErlangTimeout,
    PoissonArrivals,
    Simulation,
    TagsPolicy,
)

HORIZON = 1e12  # both sides run the trace to completion


def run_both(trace, make_policy, capacities, seed=42):
    """(sim outcomes, runtime outcomes) for one trace + policy."""
    sim = Simulation(
        TraceArrivals(trace),
        TraceDemands(trace),
        make_policy(),
        capacities,
        seed=seed,
        record_jobs=True,
    )
    sim_res = sim.run(t_end=HORIZON)
    rt = DispatchRuntime(
        TraceLoad(trace),
        make_policy(),
        capacities,
        rng=np.random.default_rng(seed),
        record_jobs=True,
    )
    rt_res = rt.run(HORIZON)
    return sim_res, rt_res


class TestExactEquivalence:
    def test_erlang_timeout_two_nodes(self):
        """Stochastic (Erlang) timeouts: the shared seed must produce the
        identical draw sequence, hence identical outcomes."""
        trace = Trace.synthesise(
            PoissonArrivals(5.0), Exponential(10.0), 4000, seed=7
        )
        sim_res, rt_res = run_both(
            trace,
            lambda: TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (10, 10),
        )
        assert sim_res.job_outcomes() == rt_res.job_outcomes()
        assert sim_res.completed == rt_res.completed
        assert np.array_equal(sim_res.response_times, rt_res.response_times)

    def test_deterministic_timeout_heavy_tail(self):
        """The real TAGS mechanism on an H2 heavy-tail workload, with
        forward drops (node 2 capacity 2)."""
        trace = Trace.synthesise(
            PoissonArrivals(8.0),
            h2_balanced_means(0.1, 0.99, 100.0),
            4000,
            seed=11,
        )
        sim_res, rt_res = run_both(
            trace,
            lambda: TagsPolicy(timeouts=(DeterministicTimeout(0.12),)),
            (10, 2),
        )
        assert sim_res.dropped_forward > 0  # the interesting case occurs
        assert sim_res.job_outcomes() == rt_res.job_outcomes()

    @pytest.mark.parametrize(
        "timeouts",
        [
            (DeterministicTimeout(0.1), DeterministicTimeout(0.5)),
            (ErlangTimeout(6, 10.0), ErlangTimeout(6, 2.0)),
        ],
        ids=["deterministic", "erlang"],
    )
    def test_three_node_cascade(self, timeouts):
        """N-node TAGS.  With stochastic timeouts a kill makes two draws
        at one instant (the forward target's service start, then the
        killing node's next one), so this case pins the draw order."""
        trace = Trace.synthesise(
            PoissonArrivals(6.0),
            h2_balanced_means(0.15, 0.95, 50.0),
            3000,
            seed=13,
        )
        sim_res, rt_res = run_both(
            trace,
            lambda: TagsPolicy(timeouts=timeouts),
            (8, 8, 8),
        )
        outcomes = sim_res.job_outcomes()
        assert outcomes == rt_res.job_outcomes()
        assert any(k >= 2 for _, _, k in outcomes.values())  # double kills

    def test_resume_variant(self):
        """The multi-level-feedback (resume) variant stays equivalent."""
        trace = Trace.synthesise(
            PoissonArrivals(4.0), Exponential(2.0), 2000, seed=17
        )
        sim_res, rt_res = run_both(
            trace,
            lambda: TagsPolicy(
                timeouts=(DeterministicTimeout(0.3),), resume=True
            ),
            (15, 15),
        )
        assert sim_res.job_outcomes() == rt_res.job_outcomes()

    def test_overload_with_arrival_drops(self):
        trace = Trace.synthesise(
            PoissonArrivals(20.0), Exponential(10.0), 3000, seed=19
        )
        sim_res, rt_res = run_both(
            trace,
            lambda: TagsPolicy(timeouts=(ErlangTimeout(6, 42.0),)),
            (4, 4),
        )
        assert sim_res.dropped_arrival > 0
        assert sim_res.job_outcomes() == rt_res.job_outcomes()
        assert sim_res.dropped_arrival == rt_res.dropped_arrival
        assert sim_res.dropped_forward == rt_res.dropped_forward

    def test_fault_plan_replay_matches(self):
        """Both hosts replaying the same FaultPlan see identical per-job
        fault outcomes: same jobs lost to failure, same work wasted --
        across every crash/degraded semantics combination."""
        trace = Trace.synthesise(
            PoissonArrivals(5.0), Exponential(10.0), 3000, seed=29
        )
        span = float(trace.arrival_times[-1])
        plan = FaultPlan.generate(
            horizon=span,
            crash_rate=0.01,
            repair_rate=0.05,
            nodes=(0, 1),
            seed=3,
        )
        assert len(plan) >= 4  # the storm actually happens
        policies = [
            lambda: TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            # resume: a crash restores the head job's remaining work
            lambda: TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),), resume=True),
        ]
        for make_policy, (on_crash, degraded) in itertools.product(
            policies,
            [("requeue", "shed"), ("drop", "shed"), ("requeue", "single_node")],
        ):
            sim = Simulation(
                TraceArrivals(trace),
                TraceDemands(trace),
                make_policy(),
                (10, 10),
                seed=42,
                record_jobs=True,
                faults=FaultInjector(plan, on_crash=on_crash, degraded=degraded),
            )
            sim_res = sim.run(t_end=HORIZON)
            rt = DispatchRuntime(
                TraceLoad(trace),
                make_policy(),
                (10, 10),
                rng=np.random.default_rng(42),
                record_jobs=True,
                faults=FaultInjector(plan, on_crash=on_crash, degraded=degraded),
            )
            rt_res = rt.run(HORIZON)
            assert sim_res.job_outcomes() == rt_res.job_outcomes(), (
                make_policy().resume,
                on_crash,
                degraded,
            )
            assert sim_res.lost_to_failure == rt_res.lost_to_failure
            assert sim_res.work_wasted == rt_res.work_wasted
            assert sim_res.lost_to_failure > 0  # faults actually bit

    def test_no_fault_equality_with_empty_plan(self):
        """An attached-but-empty injector must not perturb the runtime:
        outcomes still match a completely fault-free simulator run."""
        trace = Trace.synthesise(
            PoissonArrivals(5.0), Exponential(10.0), 1000, seed=31
        )
        sim_res, _ = run_both(
            trace,
            lambda: TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (10, 10),
        )
        rt = DispatchRuntime(
            TraceLoad(trace),
            TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (10, 10),
            rng=np.random.default_rng(42),
            record_jobs=True,
            faults=FaultInjector(FaultPlan()),
        )
        rt_res = rt.run(HORIZON)
        assert sim_res.job_outcomes() == rt_res.job_outcomes()

    def test_aggregate_metrics_match_too(self):
        """Beyond outcomes: queue-length time averages agree (same event
        times, same piecewise-constant trajectories)."""
        trace = Trace.synthesise(
            PoissonArrivals(5.0), Exponential(10.0), 2000, seed=23
        )
        horizon = float(trace.arrival_times[-1]) + 50.0
        sim = Simulation(
            TraceArrivals(trace),
            TraceDemands(trace),
            TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (10, 10),
            seed=5,
        )
        sim_res = sim.run(t_end=horizon)
        rt = DispatchRuntime(
            TraceLoad(trace),
            TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (10, 10),
            rng=np.random.default_rng(5),
        )
        rt_res = rt.run(horizon)
        assert sim_res.mean_queue_lengths == pytest.approx(
            rt_res.mean_queue_lengths, rel=1e-12
        )
        assert sim_res.throughput == rt_res.throughput
