"""The dispatcher runtime: semantics, admission control, live control,
obs integration, wall-clock smoke."""

import hashlib
import time

import numpy as np
import pytest

from repro import obs
from repro.dists import Exponential
from repro.faults import FaultPlan
from repro.models import MM1K
from repro.serve import (
    DispatchRuntime,
    PoissonLoad,
    Supervisor,
    Trace,
    TraceLoad,
    WallClock,
)
from repro.sim import (
    DeterministicTimeout,
    ErlangTimeout,
    JSQPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    TagsPolicy,
)

DEPTH_SAMPLES_SHA256 = "c4391b50af4aa5ce60b9119fc91326ec3940511edbcb503606ca5e3f28b3d3df"


def make_tags_runtime(lam=5.0, mu=10.0, t=51.0, n=6, caps=(10, 10), **kw):
    policy = TagsPolicy(timeouts=(ErlangTimeout(n, t),))
    return DispatchRuntime(
        PoissonLoad(lam, Exponential(mu)), policy, caps, **kw
    )


class TestBasicRuns:
    def test_single_node_matches_mm1k(self):
        """RandomPolicy with all weight on one node is an M/M/1/K served
        online."""
        lam, mu, K = 4.0, 5.0, 8
        rt = DispatchRuntime(
            PoissonLoad(lam, Exponential(mu)),
            RandomPolicy(weights=(1.0,)),
            (K,),
            seed=2,
        )
        res = rt.run(20_000.0, warmup=1000.0)
        ana = MM1K(lam, mu, K)
        assert res.mean_jobs == pytest.approx(ana.mean_jobs, rel=0.08)
        assert res.throughput == pytest.approx(ana.throughput, rel=0.05)
        assert res.loss_probability == pytest.approx(
            ana.blocking_probability, abs=0.015
        )

    def test_tags_kills_and_forwards(self):
        rt = make_tags_runtime(seed=1)
        res = rt.run(3000.0, warmup=300.0)
        assert res.killed > 0
        assert res.forwarded > 0
        assert res.completed > 0
        # flow sanity: everything offered is accounted for up to jobs in
        # flight at the horizon
        assert res.offered >= res.completed + res.dropped_arrival - 50

    def test_policies_without_timeouts(self):
        for policy in (
            RoundRobinPolicy(nodes=2),
            JSQPolicy(nodes=2),
            RandomPolicy(),
        ):
            rt = DispatchRuntime(
                PoissonLoad(5.0, Exponential(10.0)), policy, (10, 10), seed=4
            )
            res = rt.run(1000.0, warmup=100.0)
            assert res.killed == 0
            assert res.completed > 0

    def test_seeded_runs_reproduce(self):
        a = make_tags_runtime(seed=9).run(1000.0)
        b = make_tags_runtime(seed=9).run(1000.0)
        assert a.offered == b.offered
        assert a.completed == b.completed
        assert np.array_equal(a.response_times, b.response_times)

    def test_rng_stream_can_be_shared_style(self):
        """An explicit generator gives the same run as the equivalent
        seed (mirrors the ``sim.runner`` rng= parameter)."""
        a = make_tags_runtime(seed=9).run(500.0)
        b = make_tags_runtime(rng=np.random.default_rng(9)).run(500.0)
        assert a.offered == b.offered
        assert np.array_equal(a.response_times, b.response_times)


class TestAdmissionControl:
    def test_drop_on_full_node1(self):
        """Tiny node-1 capacity under overload: arrivals are refused."""
        rt = make_tags_runtime(lam=20.0, caps=(2, 10), seed=5)
        res = rt.run(500.0)
        assert res.dropped_arrival > 0
        assert res.loss_probability > 0.3

    def test_drop_after_timeout_node2(self):
        """Node 2 of capacity 1 under a short timeout: killed jobs find
        it full and are dropped."""
        policy = TagsPolicy(timeouts=(DeterministicTimeout(0.02),))
        rt = DispatchRuntime(
            PoissonLoad(8.0, Exponential(10.0)), policy, (10, 1), seed=6
        )
        res = rt.run(500.0)
        assert res.dropped_forward > 0

    def test_resume_semantics_carry_work(self):
        """resume=True serves strictly less total work than restart, so
        completions can only go up."""
        t_end = 2000.0
        demand = Exponential(2.0)  # long jobs vs a 0.3 timeout
        restart = DispatchRuntime(
            PoissonLoad(2.0, demand),
            TagsPolicy(timeouts=(DeterministicTimeout(0.3),)),
            (20, 20),
            seed=7,
        ).run(t_end)
        resume = DispatchRuntime(
            PoissonLoad(2.0, demand),
            TagsPolicy(timeouts=(DeterministicTimeout(0.3),), resume=True),
            (20, 20),
            seed=7,
        ).run(t_end)
        assert resume.completed >= restart.completed
        assert resume.mean_response_time < restart.mean_response_time


class TestLiveControl:
    def test_set_timeout_takes_effect(self):
        rt = make_tags_runtime(t=1000.0, seed=8)  # mean timeout 6ms: kill storm
        rt.schedule(500.0, lambda: rt.set_timeout(0, ErlangTimeout(6, 0.06)))
        res = rt.run(1000.0)
        # after the swap the timeout mean is 100s: kills all but stop.
        # compare kill rates in the two halves via the policy history
        assert res.killed > 0
        assert rt.current_timeout(0).t == 0.06

    def test_set_timeout_validates_node(self):
        rt = make_tags_runtime()
        with pytest.raises(ValueError, match="no timeout"):
            rt.set_timeout(1, ErlangTimeout(6, 1.0))
        rt2 = DispatchRuntime(
            PoissonLoad(5.0, Exponential(10.0)), JSQPolicy(), (10, 10)
        )
        with pytest.raises(ValueError, match="no timeout"):
            rt2.set_timeout(0, ErlangTimeout(6, 1.0))

    def test_schedule_fires_at_virtual_time(self):
        rt = make_tags_runtime(seed=1)
        seen = []
        rt.schedule(250.0, lambda: seen.append(rt.clock.now()))
        rt.run(500.0)
        assert seen == [250.0]

    def test_run_validates(self):
        rt = make_tags_runtime()
        with pytest.raises(ValueError, match="exceed"):
            rt.run(10.0, warmup=10.0)
        # a NaN horizon never ends; a negative warmup inflates duration
        with pytest.raises(ValueError, match="exceed"):
            rt.run(float("nan"))
        with pytest.raises(ValueError, match="exceed"):
            rt.run(10.0, warmup=-1.0)
        with pytest.raises(ValueError, match="capacities"):
            make_tags_runtime(caps=(10,))
        with pytest.raises(ValueError, match="capacities"):
            make_tags_runtime(caps=(10, 0))
        with pytest.raises(ValueError, match="speed"):
            DispatchRuntime(
                PoissonLoad(5.0, Exponential(10.0)),
                TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
                (10, 10),
                speeds=(1.0,),
            )

    def test_heterogeneous_speeds(self):
        """A 2x node-2 speed halves node-2 service times: fewer jobs
        pile up there than at speed 1."""
        slow = make_tags_runtime(lam=9.0, t=40.0, seed=3).run(2000.0)
        fast = make_tags_runtime(
            lam=9.0, t=40.0, seed=3, speeds=(1.0, 2.0)
        ).run(2000.0)
        assert fast.mean_queue_lengths[1] < slow.mean_queue_lengths[1]


class TestJobRecords:
    def test_job_log_accounts_for_every_finished_job(self):
        rt = make_tags_runtime(seed=11, record_jobs=True)
        res = rt.run(1000.0)
        outcomes = res.job_outcomes()
        by_kind = {}
        for outcome, _, _ in outcomes.values():
            by_kind[outcome] = by_kind.get(outcome, 0) + 1
        assert by_kind.get("completed", 0) == res.completed
        assert by_kind.get("dropped_arrival", 0) == res.dropped_arrival
        assert by_kind.get("dropped_forward", 0) == res.dropped_forward

    def test_job_log_off_by_default(self):
        res = make_tags_runtime(seed=11).run(200.0)
        assert res.jobs is None
        with pytest.raises(ValueError, match="record_jobs"):
            res.job_outcomes()


def _faults(faulted: bool) -> dict:
    """Runtime kwargs for a supervised run under a seeded crash plan."""
    if not faulted:
        return {}
    plan = FaultPlan.generate(
        horizon=2000.0, crash_rate=0.005, repair_rate=0.05, nodes=(0, 1), seed=3
    )
    return dict(faults=plan, supervisor=Supervisor(check_interval=2.0, seed=1))


class TestObsIntegration:
    def test_disabled_recorder_stays_empty(self):
        rec = obs.recorder()
        if rec.enabled:  # REPRO_OBS=record in the environment
            pytest.skip("recorder enabled process-wide")
        make_tags_runtime(seed=1).run(300.0)
        assert rec.spans == [] and rec.counters == {}

    def test_enabled_recorder_sees_the_run(self):
        with obs.use(obs.Recorder()) as rec:
            res = make_tags_runtime(seed=1, t=20.0).run(300.0)
        assert len(rec.find_spans("serve.run")) == 1
        assert rec.counter("serve.offered") == res.offered
        assert rec.counter("serve.completed") == res.completed
        assert rec.counter("serve.killed") == res.killed
        # every span holds program time, none the model's clock
        assert all(s.t0 >= rec.t_origin for s in rec.spans)
        depth = rec.gauges.get(("serve.queue_depth", (("node", 0),)))
        assert depth is not None and depth.count > 0

    def test_depth_samples_pinned(self):
        """The sampler files each node's depth every ``gauge_interval``
        model-seconds.  Pinned: sha256 of every ``(model time, node,
        depth)`` sample of a seeded run, recorded when the sampler was
        an asyncio task."""

        class Samples(obs.Recorder):
            def gauge(self, name, value, **attrs):
                if name == "serve.queue_depth":
                    samples.append((rt.clock.now(), attrs["node"], float(value)))
                super().gauge(name, value, **attrs)

        samples = []
        rt = DispatchRuntime(
            PoissonLoad(9.0, Exponential(10.0)),
            TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (6, 4),
            seed=3,
            gauge_interval=7.0,
        )
        with obs.use(Samples()):
            rt.run(1000.0, warmup=50.0)
        assert len(samples) == 2 * 142  # t = 7, 14, ..., 994
        assert samples[:2] == [(7.0, 0, 3.0), (7.0, 1, 1.0)]
        digest = hashlib.sha256(repr(samples).encode()).hexdigest()
        assert digest == DEPTH_SAMPLES_SHA256

    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
    def test_trace_explains_the_elapsed_time(self, faulted):
        """Inside an enclosing span the trace covers the run and spans
        no more wall time than the run took."""
        with obs.use(obs.Recorder()) as rec:
            start = time.perf_counter()
            with rec.span("outer"):
                make_tags_runtime(seed=1, t=20.0, **_faults(faulted)).run(2000.0)
            elapsed = time.perf_counter() - start
        assert rec.coverage() >= 0.95
        assert rec.wall_time() <= elapsed
        if faulted:
            assert rec.counter("serve.fault.crash") > 0
            assert rec.counter("serve.supervisor.restart") > 0

    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
    def test_recording_changes_no_result(self, faulted):
        def run(rec):
            with obs.use(rec):
                return make_tags_runtime(
                    seed=4, t=20.0, record_jobs=True, **_faults(faulted)
                ).run(2000.0, warmup=200.0)

        off, on = run(obs.NullRecorder()), run(obs.Recorder())
        assert on.job_outcomes() == off.job_outcomes()
        assert on.mean_queue_lengths == off.mean_queue_lengths
        assert on.response_times.tolist() == off.response_times.tolist()
        for count in (
            "offered", "completed", "killed", "forwarded", "dropped_arrival",
            "dropped_forward", "lost_to_failure", "still_queued",
        ):
            assert getattr(on, count) == getattr(off, count), count


class TestWallClockSmoke:
    def test_short_wall_run(self):
        """Real-time mode end to end (scaled 50x so ~0.2s wall)."""
        policy = TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),))
        rt = DispatchRuntime(
            PoissonLoad(5.0, Exponential(10.0)),
            policy,
            (10, 10),
            clock=WallClock(rate=50.0),
            seed=2,
        )
        res = rt.run(10.0)  # 10 model-seconds
        assert res.offered > 10
        assert res.completed > 0

    def test_trace_replay_on_wall_clock(self):
        trace = Trace([0.01] * 20, [0.001] * 20)
        policy = TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),))
        rt = DispatchRuntime(
            TraceLoad(trace), policy, (30, 30), clock=WallClock(rate=1.0)
        )
        res = rt.run(0.5)
        assert res.offered == 20
        assert res.completed == 20
