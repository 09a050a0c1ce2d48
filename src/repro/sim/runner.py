"""The discrete-event engine and replication driver.

:class:`Simulation` runs the TAGS semantics of
:class:`~repro.sim.cluster.Cluster` (the state machine the online
:class:`repro.serve.dispatcher.DispatchRuntime` drives too) as a heap
loop: it draws the workload -- inter-arrival gaps, then each arrival's
demand -- and pops the cluster's scheduled outcomes in
``(time, push order)`` sequence.

**Fault injection** (``faults=``): a
:class:`~repro.faults.FaultPlan` / :class:`~repro.faults.FaultInjector`
replays node crashes, recoveries, service-rate degradation and arrival
surges into the run.  The injector owns the fault state, the cluster
owns its effect on queues and jobs; this loop only delivers the plan's
events at their times, ahead of any same-time arrival or outcome.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

import numpy as np

from repro import obs
from repro.faults.injector import FaultInjector
from repro.sim.cluster import Cluster, SimulationResult, check_nodes
from repro.sim.workload import demand_draw

__all__ = ["Simulation", "SimulationResult", "replicate", "replicate_until"]


class Simulation:
    """One simulation run of a policy over bounded FCFS nodes.

    Parameters
    ----------
    arrivals :
        Arrival process (``next_interarrival``).
    demand :
        Service-demand distribution (``draw``, or ``sample``; see
        :func:`~repro.sim.workload.demand_draw`).
    policy :
        Routing/timeout policy.
    capacities :
        Per-node capacity (queue + server).
    seed, rng :
        Either a seed for a private ``numpy.random.Generator`` or an
        existing generator to draw from (``rng`` wins when both are
        given).  Passing ``rng`` lets callers -- the ``repro.serve``
        controller and dispatcher in particular -- share or spawn
        reproducible streams across components; with ``seed`` alone the
        draw sequence is unchanged from earlier releases.
    record_jobs :
        Keep a per-job outcome log on the result (see
        :attr:`SimulationResult.jobs`).
    faults :
        Optional :class:`~repro.faults.FaultPlan` (wrapped in a default
        :class:`~repro.faults.FaultInjector`) or a configured injector:
        replays node crashes/recoveries, service degradation and
        arrival surges into the run (see the module docstring).
    """

    def __init__(
        self,
        arrivals,
        demand,
        policy,
        capacities,
        *,
        seed: int = 0,
        rng: "np.random.Generator | None" = None,
        speeds=None,
        record_jobs: bool = False,
        faults=None,
    ) -> None:
        self.arrivals = arrivals
        self.demand = demand
        self.policy = policy
        self.capacities, self.speeds = check_nodes(policy, capacities, speeds)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.record_jobs = record_jobs
        if faults is None or isinstance(faults, FaultInjector):
            self.faults = faults
        else:
            self.faults = FaultInjector(faults)

    # ------------------------------------------------------------------
    def run(self, t_end: float, warmup: float = 0.0) -> SimulationResult:
        cluster = Cluster(
            self.policy,
            self.capacities,
            self.speeds,
            self.rng,
            t_end=t_end,
            warmup=warmup,
            faults=self.faults,
            record_jobs=self.record_jobs,
        )
        rec = obs.recorder()
        t_wall0 = time.perf_counter() if rec.enabled else 0.0
        rng = self.rng
        inj = self.faults
        next_interarrival = self.arrivals.next_interarrival
        draw = demand_draw(self.demand)
        admit, fire = cluster.admit, cluster.fire
        # entries (time, push order, kind, node, payload); the push order
        # breaks time ties first-in first-out
        heap: list = []
        seq = 0
        for when, kind, node, epoch in cluster.initial():
            heappush(heap, (when, seq, kind, node, epoch))
            seq += 1
        if inj is not None:
            # fault events enter the heap before the first arrival, so a
            # fault always precedes same-time host events (lower seq)
            for ev in inj.events():
                heappush(heap, (ev.time, seq, "fault", ev.node, ev))
                seq += 1
        gap = next_interarrival(rng)
        if inj is not None and inj.arrival_factor != 1.0:
            gap = gap / inj.arrival_factor
        heappush(heap, (gap, seq, "arrival", -1, None))
        seq += 1
        while heap:
            now, _, kind, node, payload = heappop(heap)
            if now > t_end:
                break
            if kind == "arrival":
                gap = next_interarrival(rng)
                if inj is not None and inj.arrival_factor != 1.0:
                    gap = gap / inj.arrival_factor
                heappush(heap, (now + gap, seq, "arrival", -1, None))
                seq += 1
                outcomes = admit(now, draw(rng))
            elif kind == "fault":
                directive = inj.apply(payload, now)
                if directive == "crash":
                    cluster.crash(now, node)
                    continue
                if directive != "recover":
                    continue
                outcomes = cluster.recover(now, node)
            else:
                outcomes = fire(now, kind, node, payload)
            for when, kind, node, epoch in outcomes:
                heappush(heap, (when, seq, kind, node, epoch))
                seq += 1
        return cluster.result(rec, "sim", t_wall0)


def replicate(
    make_simulation,
    n_reps: int = 5,
    t_end: float = 5000.0,
    warmup: float = 500.0,
):
    """Run ``n_reps`` independent replications.

    ``make_simulation(seed)`` builds a fresh :class:`Simulation`.  Returns
    a dict of arrays keyed by metric, plus convenience means.  Each
    replication runs inside a ``sim.replication`` span, so a recorded
    replication study shows per-replication wall times.
    """
    rec = obs.recorder()
    metrics = {
        "throughput": [],
        "mean_jobs": [],
        "mean_response_time": [],
        "mean_slowdown": [],
        "loss_probability": [],
    }
    for rep in range(n_reps):
        with rec.span("sim.replication", rep=rep):
            res = make_simulation(rep).run(t_end, warmup)
        for key in metrics:
            metrics[key].append(getattr(res, key))
    out = {k: np.asarray(v) for k, v in metrics.items()}
    out["means"] = {k: float(v.mean()) for k, v in out.items()}
    return out


def replicate_until(
    make_simulation,
    metric: str = "mean_response_time",
    *,
    rel_half_width: float = 0.05,
    confidence: float = 0.95,
    min_reps: int = 4,
    max_reps: int = 64,
    t_end: float = 5000.0,
    warmup: float = 500.0,
):
    """Run independent replications until the metric's confidence interval
    is tight enough.

    Returns ``(mean, half_width, n_reps)`` where ``half_width`` is the
    t-based CI half-width over replications.  Replication-based CIs are
    statistically cleaner than batch means (true independence) at the cost
    of re-paying the warm-up per replication; this is the recommended way
    to produce publishable simulation numbers from this package.
    """
    from scipy.stats import t as t_dist

    if not (0 < rel_half_width):
        raise ValueError("rel_half_width must be positive")
    if min_reps < 2:
        raise ValueError("need at least two replications for a CI")
    rec = obs.recorder()
    values: list = []
    for rep in range(max_reps):
        with rec.span("sim.replication", rep=rep):
            res = make_simulation(rep).run(t_end, warmup)
        values.append(float(getattr(res, metric)))
        if len(values) < min_reps:
            continue
        arr = np.asarray(values)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1)) / np.sqrt(len(arr))
        half = float(t_dist.ppf(0.5 + confidence / 2, len(arr) - 1)) * se
        if mean != 0 and half / abs(mean) <= rel_half_width:
            return mean, half, len(values)
    arr = np.asarray(values)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1)) / np.sqrt(len(arr))
    half = float(t_dist.ppf(0.5 + confidence / 2, len(arr) - 1)) * se
    return mean, half, len(values)
