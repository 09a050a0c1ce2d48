"""Simulator validation against closed forms and the CTMC models."""

import numpy as np
import pytest

from repro.dists import Exponential, h2_balanced_means
from repro.models import MM1K, ShortestQueue, TagsExponential
from repro.sim import (
    ErlangTimeout,
    JSQPolicy,
    PoissonArrivals,
    RandomPolicy,
    RoundRobinPolicy,
    Simulation,
    TagsPolicy,
    replicate,
)


def run_sim(policy, lam, demand, capacities, seed=0, t_end=4000.0):
    sim = Simulation(
        PoissonArrivals(lam), demand, policy, capacities, seed=seed
    )
    return sim.run(t_end=t_end, warmup=400.0)


class TestAgainstMM1K:
    def test_single_node_random_policy(self):
        """RandomPolicy with weight 1 on one node is an M/M/1/K."""
        lam, mu, K = 4.0, 5.0, 8
        res = run_sim(
            RandomPolicy(weights=(1.0,)), lam, Exponential(mu), (K,), t_end=30_000.0
        )
        ana = MM1K(lam, mu, K)
        assert res.mean_jobs == pytest.approx(ana.mean_jobs, rel=0.05)
        assert res.throughput == pytest.approx(ana.throughput, rel=0.03)
        assert res.loss_probability == pytest.approx(
            ana.blocking_probability, abs=0.01
        )

    def test_two_node_random_split(self):
        lam, mu, K = 5.0, 10.0, 10
        res = run_sim(
            RandomPolicy(), lam, Exponential(mu), (K, K), t_end=30_000.0
        )
        node = MM1K(lam / 2, mu, K)
        assert res.mean_jobs == pytest.approx(2 * node.mean_jobs, rel=0.06)


class TestAgainstTagsCTMC:
    def test_erlang_timeout_exponential_service(self):
        """With the Erlang timeout the simulator and the Figure 3 CTMC
        describe the same system."""
        lam, mu, t, n = 5.0, 10.0, 51.0, 6
        policy = TagsPolicy(timeouts=(ErlangTimeout(n, t),))
        res = run_sim(policy, lam, Exponential(mu), (10, 10), t_end=60_000.0)
        exact = TagsExponential(lam=lam, mu=mu, t=t, n=n).metrics()
        assert res.mean_jobs == pytest.approx(exact.mean_jobs, rel=0.06)
        assert res.throughput == pytest.approx(exact.throughput, rel=0.02)
        assert res.mean_response_time == pytest.approx(
            exact.response_time, rel=0.06
        )

    def test_overload_loss_agrees(self):
        lam, mu, t, n = 13.0, 10.0, 42.0, 6
        policy = TagsPolicy(timeouts=(ErlangTimeout(n, t),))
        res = run_sim(policy, lam, Exponential(mu), (10, 10), t_end=30_000.0)
        exact = TagsExponential(lam=lam, mu=mu, t=t, n=n).metrics()
        assert res.loss_probability == pytest.approx(
            exact.loss_probability, abs=0.02
        )


class TestAgainstJsqCTMC:
    def test_exponential(self):
        lam, mu, K = 9.0, 10.0, 10
        res = run_sim(JSQPolicy(), lam, Exponential(mu), (K, K), t_end=30_000.0)
        exact = ShortestQueue(lam=lam, service=mu, K=K).metrics()
        assert res.mean_jobs == pytest.approx(exact.mean_jobs, rel=0.06)
        assert res.throughput == pytest.approx(exact.throughput, rel=0.02)


class TestTagsSemantics:
    def test_kill_and_restart_conserves_demand(self):
        """A job that needs D > timeout tau occupies node 1 for exactly tau
        and node 2 for exactly D (deterministic timeout): check via mean
        slowdown of an almost-deterministic workload."""
        from repro.sim import DeterministicTimeout
        from repro.dists import Erlang

        # demand ~ Erlang(50, 500) ~= 0.1 nearly deterministic, tau = 0.05
        policy = TagsPolicy(timeouts=(DeterministicTimeout(0.05),))
        res = run_sim(
            policy, 1.0, Erlang(50, 500.0), (10, 10), t_end=20_000.0
        )
        # every job times out (demand ~0.1 > 0.05) and completes at node 2:
        # response >= tau + demand
        assert res.dropped_forward == 0
        assert res.mean_response_time > 0.14

    def test_short_jobs_protected_from_long(self):
        """The TAGS promise: short jobs overtake long ones via the kill
        mechanism, so short-job response beats the no-timeout system."""
        from repro.sim import DeterministicTimeout

        d = h2_balanced_means(0.1, 0.99, 100.0)
        lam = 8.0
        tags = TagsPolicy(timeouts=(DeterministicTimeout(0.12),))
        rr = RandomPolicy(weights=(1.0, 0.0))  # everything to one node, K big
        res_tags = run_sim(tags, lam, d, (10, 10), t_end=30_000.0)
        res_one = run_sim(rr, lam, d, (20, 1), t_end=30_000.0)
        assert res_tags.mean_response_time < res_one.mean_response_time

    def test_round_robin_alternates(self):
        res = run_sim(
            RoundRobinPolicy(nodes=2), 5.0, Exponential(10.0), (10, 10)
        )
        # both nodes see load: queue averages within 20% of each other
        a, b = res.mean_queue_lengths
        assert a == pytest.approx(b, rel=0.2)


class TestReplicate:
    def test_replication_shapes(self):
        out = replicate(
            lambda seed: Simulation(
                PoissonArrivals(5.0),
                Exponential(10.0),
                RandomPolicy(),
                (10, 10),
                seed=seed,
            ),
            n_reps=3,
            t_end=500.0,
            warmup=50.0,
        )
        assert out["throughput"].shape == (3,)
        assert 0 < out["means"]["throughput"] <= 5.5

    def test_seeds_differ(self):
        out = replicate(
            lambda seed: Simulation(
                PoissonArrivals(5.0),
                Exponential(10.0),
                RandomPolicy(),
                (10, 10),
                seed=seed,
            ),
            n_reps=3,
            t_end=300.0,
            warmup=30.0,
        )
        assert len(set(out["throughput"])) == 3


class TestRngParameter:
    """``rng=`` accepts a prepared generator (shared-stream workflows,
    e.g. the serve runtime handing its generator over for equivalence
    runs) and must be draw-for-draw identical to the ``seed=`` path."""

    @staticmethod
    def make(**kw):
        from repro.sim import ErlangTimeout

        return Simulation(
            PoissonArrivals(5.0),
            Exponential(10.0),
            TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
            (10, 10),
            **kw,
        )

    def test_rng_equals_seed(self):
        a = self.make(seed=42).run(t_end=500.0)
        b = self.make(rng=np.random.default_rng(42)).run(t_end=500.0)
        assert a.completed == b.completed
        assert np.array_equal(a.response_times, b.response_times)
        assert a.mean_queue_lengths == b.mean_queue_lengths

    def test_rng_wins_over_seed(self):
        a = self.make(seed=0, rng=np.random.default_rng(42)).run(t_end=500.0)
        b = self.make(seed=42).run(t_end=500.0)
        assert np.array_equal(a.response_times, b.response_times)

    def test_seed_regression(self):
        """Pinned draw sequence: a refactor that reorders or adds RNG
        draws shows up here before it silently shifts every figure."""
        res = self.make(seed=42).run(t_end=500.0)
        assert res.offered == 2526
        assert res.completed == 2523
        assert float(res.response_times.sum()) == pytest.approx(
            455.9446550662724, rel=1e-12
        )


class TestJobRecords:
    @staticmethod
    def make(**kw):
        from repro.sim import ErlangTimeout

        return Simulation(
            PoissonArrivals(12.0),
            Exponential(10.0),
            TagsPolicy(timeouts=(ErlangTimeout(6, 42.0),)),
            (6, 3),
            **kw,
        )

    def test_outcomes_account_for_counters(self):
        res = self.make(seed=1, record_jobs=True).run(t_end=500.0)
        outcomes = res.job_outcomes()
        by_kind = {}
        for outcome, _, _ in outcomes.values():
            by_kind[outcome] = by_kind.get(outcome, 0) + 1
        assert by_kind["completed"] == res.completed
        assert by_kind["dropped_arrival"] == res.dropped_arrival
        assert by_kind["dropped_forward"] == res.dropped_forward
        # kill counts only on jobs that reached a timeout
        assert any(k > 0 for _, _, k in outcomes.values())
        assert all(
            k == 0 for o, _, k in outcomes.values() if o == "dropped_arrival"
        )

    def test_off_by_default(self):
        res = self.make(seed=1).run(t_end=100.0)
        assert res.jobs is None
        with pytest.raises(ValueError, match="record_jobs"):
            res.job_outcomes()


class TestValidation:
    def test_capacity_policy_mismatch(self):
        with pytest.raises(ValueError, match="nodes"):
            Simulation(
                PoissonArrivals(1.0), Exponential(1.0), JSQPolicy(), (5,)
            )

    def test_warmup_bounds(self):
        sim = Simulation(
            PoissonArrivals(1.0), Exponential(1.0), RandomPolicy(), (5, 5)
        )
        with pytest.raises(ValueError, match="exceed"):
            sim.run(t_end=10.0, warmup=10.0)
        # a NaN horizon never ends; a negative warmup inflates duration
        with pytest.raises(ValueError, match="exceed"):
            sim.run(t_end=float("nan"))
        with pytest.raises(ValueError, match="exceed"):
            sim.run(t_end=10.0, warmup=-1.0)

    def test_bad_capacity(self):
        with pytest.raises(ValueError, match="capacities"):
            Simulation(
                PoissonArrivals(1.0), Exponential(1.0), RandomPolicy(), (5, 0)
            )
