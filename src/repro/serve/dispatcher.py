"""The online dispatcher runtime: policies from ``sim`` run as services.

:class:`DispatchRuntime` executes an allocation policy
(:class:`~repro.sim.policies.TagsPolicy`, random, round-robin, JSQ --
anything answering ``route``/``timeout``/``forward``) over bounded FCFS
nodes.  The TAGS semantics -- admission with drop-on-full, the
service/timeout race, kill-and-forward with drop-after-timeout,
restart or resume, crash surgery, the warm-up reset, the result -- live
in :class:`~repro.sim.cluster.Cluster`, the state machine
``sim.runner`` drives too.  The runtime drives the same core from
its clock:

* the **load generator** is a chain of arrival timers on the runtime's
  :class:`~repro.serve.clock.Clock`: each arrival pulls the next
  ``(gap, demand)`` pair from a :mod:`~repro.serve.loadgen` source, sets
  its timer and admits itself;
* every outcome the core schedules (a completion, a kill, the end of the
  warm-up) and every fault-plan event likewise becomes one clock timer,
  whose callback hands it back to the core.  Arrival and outcome timers
  call the runtime's handler directly, with the core they were set for
  as an argument: a timer left on the clock by an ended run finds
  another core (or none running) and does nothing;
* optionally a **controller task** (:mod:`~repro.serve.controller`)
  re-tunes the timeout from live observations.

Under a :class:`~repro.serve.clock.VirtualClock` the runtime is a
deterministic discrete-event program whose per-job outcomes equal
``sim.runner.Simulation``'s on a shared trace
(``tests/serve/test_equivalence.py``).  Under a
:class:`~repro.serve.clock.WallClock` the same code serves in real time.

Instrumentation goes through :mod:`repro.obs` and is gated on
``recorder().enabled``; traced and untraced runs drive the same core,
so recording adds no per-job cost (the CI ``serve`` job benches off
vs. on).  A traced run files its ``serve.run`` span (wall time),
periodic queue-depth gauges and end-of-run counters mirroring the
simulator's.  Per-job facts (outcome, node, kills) live in the result's
job log (``record_jobs=True``), not in spans.

**Faults and resilience** (all off by default):

* ``faults=`` replays a :class:`~repro.faults.FaultPlan` /
  :class:`~repro.faults.FaultInjector` -- the same object the simulator
  accepts -- on the clock; the core voids the crashed node's pending
  outcome, wastes the attempt's work, and holds (``on_crash="requeue"``)
  or sheds (``"drop"``) its queue.
* ``supervisor=`` attaches a :class:`~repro.serve.supervisor.Supervisor`
  whose health-check/backoff loop performs restarts after a fault
  clears, so measured MTTR includes detection latency.
* ``forward_retries=`` / ``breaker=`` guard forwards with
  jittered-exponential-backoff retries and a
  :class:`~repro.faults.CircuitBreaker`; the killing node waits for the
  forward to resolve before it serves its next job, and jobs whose
  forward ultimately fails are ``dropped_forward`` (full target) or
  ``lost_to_failure`` (down target), never leaked.  Without either,
  forwarding is the core's plain kill-and-forward.

Retry backoff and supervisor jitter draw from private RNG streams, so
enabling them never perturbs the workload's draw sequence.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

import numpy as np

from repro import obs
from repro.faults.injector import FaultInjector
from repro.serve.clock import Clock, VirtualClock
from repro.sim.cluster import Cluster, JobRecord, SimulationResult, check_nodes

__all__ = ["JobRecord", "DispatchRuntime"]


class DispatchRuntime:
    """Online dispatcher over bounded per-node queues.

    Parameters mirror :class:`~repro.sim.runner.Simulation` where they
    overlap (``policy``, ``capacities``, ``speeds``, ``seed``/``rng``);
    the workload comes from a load generator instead of separate
    arrival/demand objects, and ``clock`` selects virtual or wall time.
    """

    def __init__(
        self,
        loadgen,
        policy,
        capacities,
        *,
        clock: "Clock | None" = None,
        speeds=None,
        seed: int = 0,
        rng: "np.random.Generator | None" = None,
        controller=None,
        record_jobs: bool = False,
        gauge_interval: float = 10.0,
        faults=None,
        supervisor=None,
        forward_retries: int = 0,
        retry_backoff: float = 0.5,
        retry_jitter: float = 0.1,
        breaker=None,
    ) -> None:
        self.loadgen = loadgen
        self.policy = policy
        self.capacities, self.speeds = check_nodes(policy, capacities, speeds)
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.controller = controller
        self.record_jobs = record_jobs
        if gauge_interval <= 0:
            raise ValueError("gauge_interval must be positive")
        self.gauge_interval = float(gauge_interval)
        if faults is None or isinstance(faults, FaultInjector):
            self.faults = faults
        else:
            self.faults = FaultInjector(faults)
        self.supervisor = supervisor
        if supervisor is not None:
            if self.faults is None:
                raise ValueError("a supervisor needs faults to supervise")
            self.faults.supervised = True
        if forward_retries < 0:
            raise ValueError("forward_retries must be >= 0")
        if retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if not 0 <= retry_jitter < 1:
            raise ValueError("retry_jitter must be in [0, 1)")
        self.forward_retries = int(forward_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_jitter = float(retry_jitter)
        self.breaker = breaker
        self._guarded = self.forward_retries > 0 or breaker is not None
        # private stream: retry jitter must not perturb the workload rng
        self._resilience_rng = np.random.default_rng([seed, 0x7E5])
        self._rec = obs.recorder()  # re-resolved at each arun()
        self.cluster: "Cluster | None" = None  # the running core
        self._tasks: set = set()  # live forward/supervisor/controller tasks
        self._sup_wake = None  # supervisor wake event, created in arun
        self._scheduled: list = []  # (delay, fn) buffered before arun
        self._running = False
        # sliding-window observations for the controller (pruned there)
        self.window_arrivals: deque = deque()
        self.window_completions: deque = deque()  # (time, demand)

    # -- live control ---------------------------------------------------
    def set_timeout(self, node: int, sampler) -> None:
        """Swap the policy's timeout sampler for ``node``.

        Takes effect at the next service start on that node (jobs whose
        race is already scheduled keep the old draw), which is exactly
        the semantics an operator changing a kill-timeout gets.
        """
        timeouts = getattr(self.policy, "timeouts", None)
        if timeouts is None or node >= len(timeouts):
            raise ValueError(f"policy has no timeout at node {node}")
        new = list(timeouts)
        new[node] = sampler
        self.policy.timeouts = tuple(new)

    def current_timeout(self, node: int = 0):
        return self.policy.timeout(node)

    def schedule(self, delay: float, fn) -> None:
        """Run ``fn()`` at model time ``now + delay`` (e.g. a load shift).

        Callable before the run starts (buffered) or while the runtime is
        live.
        """
        if self._running:
            self._at(self.clock.now() + delay, fn)
        else:
            self._scheduled.append((delay, fn))

    def queue_lengths(self) -> list:
        return list(self.cluster.lengths)

    # -- driving the core -----------------------------------------------
    def _at(self, when: float, fn, *args) -> None:
        """Call ``fn(*args)`` at model time ``when`` if this run lasts."""
        self.clock.call_at(when, self._due, self.cluster, fn, args)

    def _due(self, cluster, fn, args) -> None:
        # timers pending when a run ends stay on the clock: a wall clock
        # fires them during teardown, a reused clock in the next run
        if self._running and cluster is self.cluster:
            fn(*args)

    def _schedule(self, outcomes) -> None:
        call_at, fire, cluster = self.clock.call_at, self._fire, self.cluster
        for when, kind, node, epoch in outcomes:
            call_at(when, fire, cluster, kind, node, epoch)

    # _fire and _arrive run once per event: they set their successor
    # timers themselves rather than through _schedule/_next_arrival
    def _fire(self, cluster, kind: str, node: int, epoch: int) -> None:
        if not self._running or cluster is not self.cluster:
            return  # set by an earlier run (see _due)
        clock = self.clock
        now = clock.now()
        if kind == "kill" and self._guarded:
            job = cluster.kill(now, node, epoch)
            if job is not None:
                # a finished forward leaves the set: a run keeps no
                # object per kill
                task = asyncio.ensure_future(self._forward(job, node))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            return
        if (
            kind == "complete"
            and self.controller is not None
            and epoch == cluster.epoch[node]
        ):
            self.window_completions.append((now, cluster.queues[node][0].demand))
        call_at, fire = clock.call_at, self._fire
        for when, kind, node, epoch in cluster.fire(now, kind, node, epoch):
            call_at(when, fire, cluster, kind, node, epoch)

    def _sample_depths(self, cluster, rec) -> None:
        """File the ``serve.queue_depth`` gauges and set the next sample,
        a daemon timer ``gauge_interval`` on.

        Depth is sampled on a timer rather than at every queue event:
        per-event gauges would dominate the dispatch cost (the CI gate
        holds enabled recording to <= 10%), and the exact time-averaged
        depths are kept by the core regardless.
        """
        if not self._running or cluster is not self.cluster:
            return  # set by an earlier run (see _due)
        for i, length in enumerate(cluster.lengths):
            rec.gauge("serve.queue_depth", length, node=i)
        clock = self.clock
        clock.call_at(
            clock.now() + self.gauge_interval,
            self._sample_depths, cluster, rec, daemon=True,
        )

    def _next_arrival(self) -> None:
        """Pull the first job from the load source and set its arrival
        timer; each arrival sets its successor's the same way (a finite
        trace simply runs out)."""
        nxt = self.loadgen.next_job(self.rng)
        if nxt is not None:
            gap, demand = nxt
            inj = self.faults
            if inj is not None and inj.arrival_factor != 1.0:
                gap = gap / inj.arrival_factor
            clock = self.clock
            clock.call_at(clock.now() + gap, self._arrive, self.cluster, demand)

    def _arrive(self, cluster, demand: float) -> None:
        if not self._running or cluster is not self.cluster:
            return  # set by an earlier run (see _due)
        clock = self.clock
        call_at = clock.call_at
        now = clock.now()
        # the successor's timer before this arrival's outcomes: the order
        # sim pushes them, so same-instant ties break alike
        nxt = self.loadgen.next_job(self.rng)
        if nxt is not None:
            gap, next_demand = nxt
            inj = self.faults
            if inj is not None and inj.arrival_factor != 1.0:
                gap = gap / inj.arrival_factor
            call_at(now + gap, self._arrive, cluster, next_demand)
        if self.controller is not None:
            self.window_arrivals.append(now)
        fire = self._fire
        for when, kind, node, epoch in cluster.admit(now, demand):
            call_at(when, fire, cluster, kind, node, epoch)

    async def _forward(self, job: JobRecord, node: int) -> None:
        """Forward a killed job through the retry/breaker guard; ``node``
        serves nothing until the job is placed or given up.

        Each attempt must pass the breaker and find the target up with
        room; failed attempts back off exponentially with jitter.  A job
        whose attempts are exhausted is ``lost_to_failure`` when the
        target is down, ``dropped_forward`` otherwise.  A run ending
        mid-backoff leaves the job counted in ``still_queued``.
        """
        cluster = self.cluster
        breaker = self.breaker
        target = self.policy.forward(node)
        attempt = 0
        while True:
            now = self.clock.now()
            if target is not None and (breaker is None or breaker.allow(now)):
                if cluster.accepts(target):
                    if breaker is not None:
                        breaker.record_success(now)
                    self._schedule(cluster.forward(now, job, target))
                    break
                if breaker is not None:
                    breaker.record_failure(now)
            if target is None or attempt >= self.forward_retries:
                cluster.reject(now, job, node, target)
                break
            attempt += 1
            delay = self.retry_backoff * (2.0 ** (attempt - 1))
            if self.retry_jitter:
                delay *= 1.0 + self.retry_jitter * float(
                    self._resilience_rng.uniform(-1.0, 1.0)
                )
            await self.clock.sleep(delay)
        self._schedule(cluster.release(self.clock.now(), node))

    # -- fault handling -------------------------------------------------
    def _apply_fault(self, ev) -> None:
        now = self.clock.now()
        directive = self.faults.apply(ev, now)
        if directive == "crash":
            if self._rec.enabled:
                self._rec.add("serve.fault.crash")
            self.cluster.crash(now, ev.node)
            if self.supervisor is not None:
                self._sup_wake.set()
        elif directive == "recover":
            self._on_restart(ev.node, now)

    def _on_restart(self, node: int, now: float) -> None:
        """Bring a node back into service (recovery or supervisor restart)."""
        if self._rec.enabled:
            self._rec.add("serve.fault.restart")
        self._schedule(self.cluster.recover(now, node))

    # -- running --------------------------------------------------------
    async def arun(self, t_end: float, warmup: float = 0.0) -> SimulationResult:
        """Run until model time ``t_end``; measure after ``warmup``."""
        if self._running:
            raise RuntimeError("runtime is already running")
        # one recorder lookup per run (swapping recorders mid-run is
        # unsupported)
        rec = self._rec = obs.recorder()
        cluster = self.cluster = Cluster(
            self.policy,
            self.capacities,
            self.speeds,
            self.rng,
            t_end=t_end,
            warmup=warmup,
            faults=self.faults,
            record_jobs=self.record_jobs,
        )
        self._running = True
        t_wall0 = time.perf_counter() if rec.enabled else 0.0
        # timers in sim's heap order: warm-up end, plan events, arrivals
        self._schedule(cluster.initial())
        if self.faults is not None:
            for ev in self.faults.events():
                self._at(ev.time, self._apply_fault, ev)
        self._next_arrival()
        for delay, fn in self._scheduled:
            self._at(self.clock.now() + delay, fn)
        self._scheduled = []
        tasks = self._tasks = set()
        if rec.enabled:
            self.clock.call_at(
                self.clock.now() + self.gauge_interval,
                self._sample_depths, cluster, rec, daemon=True,
            )
        if self.supervisor is not None:
            self._sup_wake = asyncio.Event()
            self.supervisor.bind(self)
            tasks.add(asyncio.ensure_future(self.supervisor.run()))
        if self.controller is not None:
            self.controller.bind(self)
            tasks.add(asyncio.ensure_future(self.controller.run()))
        try:
            await self.clock.run_until(t_end)
        finally:
            self._running = False
            tasks = list(tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        return cluster.result(rec, "serve", t_wall0)

    def run(self, t_end: float, warmup: float = 0.0) -> SimulationResult:
        """Synchronous convenience wrapper around :meth:`arun`."""
        return asyncio.run(self.arun(t_end, warmup))
