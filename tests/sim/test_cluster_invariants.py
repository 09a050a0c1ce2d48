"""The cluster's int queue lengths and inline time averages.

:class:`~repro.sim.cluster.Cluster` keeps ``lengths`` beside its queues
and the time-averaged lengths inline.  Over seeded faulted runs (both
crash modes, a warm-up reset mid-run) every transition must leave
``lengths == [len(q) for q in queues]``, and the final means must equal,
bit for bit, a :class:`~repro.sim.stats.TimeAverage` fed each node's new
length at each transition that changed it.
"""

import pytest

from repro.dists import h2_balanced_means
from repro.faults import FaultInjector, FaultPlan
from repro.sim import ErlangTimeout, PoissonArrivals, Simulation, TagsPolicy, TimeAverage
from repro.sim import runner
from repro.sim.cluster import Cluster

T_END = 3000.0
WARMUP = 300.0


class CheckedCluster(Cluster):
    """Checks the lengths after every transition and replays them into
    one :class:`TimeAverage` per node."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.oracle = [TimeAverage() for _ in self.queues]
        for avg in self.oracle:
            avg.reset(0.0, 0)
        self.seen = [0] * len(self.queues)
        self.transitions = 0

    def _check(self, now: float) -> None:
        assert self.lengths == [len(q) for q in self.queues]
        for node, (old, new) in enumerate(zip(self.seen, self.lengths)):
            if new != old:
                self.oracle[node].update(now, new)
        self.seen = list(self.lengths)
        self.transitions += 1

    def admit(self, now, demand):
        out = super().admit(now, demand)
        self._check(now)
        return out

    def fire(self, now, kind, node, epoch):
        out = super().fire(now, kind, node, epoch)
        if kind == "warmup":
            for avg, length in zip(self.oracle, self.lengths):
                avg.reset(now, length)
        self._check(now)
        return out

    def crash(self, now, node):
        super().crash(now, node)
        self._check(now)

    def recover(self, now, node):
        out = super().recover(now, node)
        self._check(now)
        return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("on_crash", ["drop", "requeue"])
def test_lengths_and_means_match_oracle(monkeypatch, seed, on_crash):
    clusters = []

    def make(*args, **kwargs):
        clusters.append(CheckedCluster(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(runner, "Cluster", make)
    plan = FaultPlan.generate(
        horizon=T_END, crash_rate=0.01, repair_rate=0.05, nodes=(0, 1, 2), seed=seed
    )
    res = Simulation(
        PoissonArrivals(7.0),
        h2_balanced_means(0.1, 0.95, 20.0),
        TagsPolicy(timeouts=(ErlangTimeout(6, 40.0), ErlangTimeout(6, 8.0))),
        (8, 8, 8),
        seed=seed,
        faults=FaultInjector(plan, on_crash=on_crash),
    ).run(T_END, warmup=WARMUP)
    (cluster,) = clusters
    assert cluster.transitions > 10_000
    assert cluster.faults.plan.events  # the run really was faulted
    want = tuple(avg.mean(T_END) for avg in cluster.oracle)
    assert res.mean_queue_lengths == want


def test_time_going_backwards_is_refused():
    cluster = Cluster(TagsPolicy(timeouts=()), (5,), (1.0,), None, t_end=10.0)
    cluster.admit(2.0, 100.0)
    with pytest.raises(ValueError, match="time went backwards"):
        cluster.admit(1.0, 100.0)
