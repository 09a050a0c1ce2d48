"""The TAGS cluster: one state machine behind the simulator and the runtime.

Semantics (true kill-and-restart TAGS, not the CTMC approximation):

* a job draws a single service **demand** on arrival and keeps it for life;
* at a node the head job is served FCFS at the node's speed; if the node
  has a timeout, a duration is drawn from the timeout sampler at *service
  start* and the job is killed when it fires first -- all prior work is
  lost;
* a killed job restarts (same demand, from scratch) at the policy's
  forward node, or is dropped if that node is full -- the paper's "lost at
  node 2 after completing a timed-out service" case; policies with
  ``resume=True`` (the multi-level-feedback variant of the paper's
  Section 6 open problem) carry the remaining work over instead;
* queues are bounded: an arrival routed to a full node is dropped.

:class:`Cluster` holds one run of those semantics with no clock of its
own.  Each transition -- :meth:`~Cluster.admit`, :meth:`~Cluster.fire`,
:meth:`~Cluster.crash`, :meth:`~Cluster.recover` -- takes the model time
and returns the outcomes it scheduled as ``(time, kind, node, epoch)``
tuples; the host hands each back to :meth:`~Cluster.fire` when its time
comes.  :class:`repro.sim.runner.Simulation` keeps them in a heap and
:class:`repro.serve.dispatcher.DispatchRuntime` sets one clock timer per
outcome, so the two hosts agree job for job by construction.

Because nothing but a crash preempts the head job, the winner of the
service/timeout race is known at service start and a busy node has
exactly one pending outcome.  A crash bumps the node's epoch; outcomes
scheduled before it are ignored when they fire.

Per-node queue lengths are kept as ints in :attr:`Cluster.lengths`
(``lengths[i] == len(queues[i])`` after every transition), which routing
and the capacity checks read.  The time-averaged lengths are kept inline
with :class:`~repro.sim.stats.TimeAverage`'s arithmetic: at each change
of node ``i``'s length the area grows by ``old length * (now - time of
the last change)``, and ``mean = (area + length * (t_end - last
change)) / (t_end - window start)``.

The core makes every draw on the shared generator except the workload's
own (inter-arrival gaps and demands, which the hosts draw): routing at
admission and the timeout at service start.  On a kill the forward
target starts its service, and draws, before the killing node starts its
next job.

**The job log** (``record_jobs=True``): a live job is a
:class:`JobRecord`, so at most the capacities' sum of them (plus one per
node held mid-forward) exist at a time.  A job that leaves writes one
row of the columnar :class:`JobLog` and its object is dropped; the
result writes rows, with outcome ``None``, for the jobs still in the
system.  The per-completion ``responses``/``slowdowns``/``demands`` are
``array("d")`` columns too, so a long run keeps bytes per job, not
objects the garbage collector must walk.

**Fault injection**: with a :class:`~repro.faults.FaultInjector` the
core consults its node state (down nodes accept and start nothing,
degradation scales the speed at service start, ``single_node`` mode
suppresses the timeout race while the forward target is down) and does
the crash-time queue surgery.  Jobs destroyed by failure are counted
``lost_to_failure``; the work an interrupted attempt had accumulated is
``work_wasted``.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.sim.stats import batch_means_ci

__all__ = [
    "OUTCOMES",
    "Cluster",
    "JobLog",
    "JobRecord",
    "JobRow",
    "SimulationResult",
    "check_nodes",
]

#: the job log's outcome codes: a job's code indexes this tuple, and 0
#: (``None``) marks a job still queued, in service or held mid-forward
#: when the run ended
OUTCOMES = (None, "completed", "dropped_arrival", "dropped_forward", "lost_to_failure")
_COMPLETED, _DROPPED_ARRIVAL, _DROPPED_FORWARD, _LOST = 1, 2, 3, 4


@dataclass(slots=True)
class JobRecord:
    """One live job: its arrival time, lifetime demand, the work still
    outstanding (under resume policies, after kills) and its kill count.
    When the job leaves the system its fields become one row of the
    run's :class:`JobLog` and the object is dropped.

    ``remaining`` is genuinely optional (``None`` means "not yet
    started": it is filled with the full demand on construction), so it
    is typed ``float | None`` rather than lying to the dataclass with a
    ``float`` annotation and a ``None`` default.
    """

    arrival_time: float
    demand: float
    remaining: float | None = None
    job_id: int = -1
    kills: int = 0

    def __post_init__(self) -> None:
        if self.remaining is None:
            self.remaining = self.demand


class JobLog(Sequence):
    """The job log of one run: one row per offered job, in columns.

    A job writes its row when it leaves the system (``add``); the
    run's result adds a row, with outcome ``None``, for every job still
    in it.  Each row costs ~40 bytes of ``array`` storage and no object.
    Rows are stored in the order jobs left; as a sequence the log reads
    in arrival (job id) order, each item a :class:`JobRow` view whose
    fields write through to the columns.
    """

    def __init__(self) -> None:
        self.job_id = array("q")
        self.arrival_time = array("d")
        self.demand = array("d")
        self.remaining = array("d")
        self.kills = array("l")
        self.outcome = array("b")  # an index into OUTCOMES
        self.node = array("h")  # -1 for no node
        self._order = np.empty(0, dtype=np.intp)
        self.add = self._writer()

    def _writer(self):
        """``add(job, outcome, node)``: write ``job``'s row, ``outcome``
        indexing :data:`OUTCOMES`.  It runs once per job, so it closes
        over the columns' ``append`` methods rather than looking them up
        (as a method it cost ~10% of a replay)."""
        job_ids, arrivals, demands, remainings, kills, outcomes, nodes = (
            column.append
            for column in (
                self.job_id, self.arrival_time, self.demand, self.remaining,
                self.kills, self.outcome, self.node,
            )
        )

        def add(job: JobRecord, outcome: int, node: int) -> None:
            job_ids(job.job_id)
            arrivals(job.arrival_time)
            demands(job.demand)
            remainings(job.remaining)
            kills(job.kills)
            outcomes(outcome)
            nodes(node)

        return add

    def _rows(self) -> np.ndarray:
        """Row index of each job, in arrival order."""
        if len(self._order) != len(self.job_id):
            self._order = np.argsort(np.asarray(self.job_id), kind="stable")
        return self._order

    def __len__(self) -> int:
        return len(self.job_id)

    def __getitem__(self, i: int) -> "JobRow":
        return JobRow(self, int(self._rows()[i]))

    def __iter__(self):
        for r in self._rows().tolist():
            yield JobRow(self, r)

    def outcomes(self) -> dict:
        """``job_id -> (outcome, node, kills)`` for jobs that left, in
        arrival order."""
        order = self._rows()
        left = order[np.asarray(self.outcome)[order] != 0]
        columns = (self.job_id, self.outcome, self.node, self.kills)
        return {
            job_id: (OUTCOMES[code], node, kills)
            for job_id, code, node, kills in zip(
                *(np.asarray(c)[left].tolist() for c in columns)
            )
        }


def _column(name: str, decode=None, encode=None) -> property:
    def fget(row):
        value = getattr(row.log, name)[row.index]
        return value if decode is None else decode(value)

    def fset(row, value):
        getattr(row.log, name)[row.index] = value if encode is None else encode(value)

    return property(fget, fset)


class JobRow:
    """One :class:`JobLog` row with :class:`JobRecord`'s fields plus the
    ``outcome`` and the ``node`` the job left from (both ``None`` for a
    job still in the system); assignments write to the log."""

    __slots__ = ("log", "index")

    def __init__(self, log: JobLog, index: int) -> None:
        self.log = log
        self.index = index

    arrival_time = _column("arrival_time")
    demand = _column("demand")
    remaining = _column("remaining")
    job_id = _column("job_id")
    kills = _column("kills")
    outcome = _column("outcome", OUTCOMES.__getitem__, OUTCOMES.index)
    node = _column(
        "node", lambda n: None if n < 0 else n, lambda n: -1 if n is None else n
    )


@dataclass
class SimulationResult:
    """Post-warm-up measurements of one run, from either host.

    ``demands`` is aligned with ``response_times``/``slowdowns`` (one entry
    per completed job), enabling per-size-class analysis -- TAGS's whole
    purpose is to treat short and long jobs differently, and
    Harchol-Balter's evaluation revolves around slowdown by job size.

    ``jobs`` (only with ``record_jobs=True``, never pruned at warm-up) is
    the run's :class:`JobLog`: one :class:`JobRow` per offered job in
    arrival order, ids assigned in arrival order; :meth:`job_outcomes`
    is the currency the equivalence tests compare between the hosts.

    Failure accounting (all zero without fault injection):
    ``lost_to_failure`` counts jobs destroyed by node failure (crashed
    away under ``on_crash="drop"``, shed because the routed or forward
    node was down), ``work_wasted`` the demand-units of service an
    interrupted attempt had accumulated when its node crashed, and
    ``still_queued`` the jobs left in queues (or mid-forward) at
    ``t_end`` -- so every offered job is accounted for exactly once
    (:attr:`accounted`).
    """

    duration: float
    offered: int
    completed: int
    dropped_arrival: int
    dropped_forward: int
    mean_queue_lengths: tuple
    response_times: np.ndarray
    slowdowns: np.ndarray
    demands: np.ndarray = field(default_factory=lambda: np.empty(0))
    # kept out of the repr: asyncio.run formats its main task's result
    # while restoring the SIGINT handler, and 10^5 records take seconds
    jobs: "JobLog | None" = field(default=None, repr=False)
    lost_to_failure: int = 0
    work_wasted: float = 0.0
    still_queued: int = 0
    killed: int = 0
    forwarded: int = 0

    def job_outcomes(self) -> dict:
        """``job_id -> (outcome, node, kills)`` for finished jobs."""
        if self.jobs is None:
            raise ValueError("run with record_jobs=True to keep job logs")
        return self.jobs.outcomes()

    @property
    def throughput(self) -> float:
        return self.completed / self.duration

    @property
    def offered_rate(self) -> float:
        return self.offered / self.duration

    @property
    def loss_probability(self) -> float:
        total = self.dropped_arrival + self.dropped_forward
        return total / self.offered if self.offered else 0.0

    @property
    def accounted(self) -> int:
        """Jobs accounted for: completed + dropped + lost + queued.

        Equals :attr:`offered` whenever the measurement window starts at
        time zero (``warmup=0``) -- the job-conservation invariant the
        fault-injection property tests pin for every seeded plan.
        """
        return (
            self.completed
            + self.dropped_arrival
            + self.dropped_forward
            + self.lost_to_failure
            + self.still_queued
        )

    @property
    def failure_loss_probability(self) -> float:
        return self.lost_to_failure / self.offered if self.offered else 0.0

    @property
    def mean_jobs(self) -> float:
        return float(sum(self.mean_queue_lengths))

    @property
    def mean_response_time(self) -> float:
        return float(self.response_times.mean()) if self.response_times.size else 0.0

    @property
    def mean_slowdown(self) -> float:
        return float(self.slowdowns.mean()) if self.slowdowns.size else 0.0

    def response_time_ci(self, n_batches: int = 20) -> tuple:
        return batch_means_ci(self.response_times, n_batches)

    # -- per-size-class views ------------------------------------------
    def class_mask(self, threshold: float) -> np.ndarray:
        """Boolean mask of *short* completed jobs (demand <= threshold)."""
        if self.demands.size != self.response_times.size:
            raise ValueError("this result carries no per-job demands")
        return self.demands <= threshold

    def mean_slowdown_by_class(self, threshold: float) -> tuple:
        """(short-job mean slowdown, long-job mean slowdown)."""
        short = self.class_mask(threshold)
        s = float(self.slowdowns[short].mean()) if short.any() else float("nan")
        l = (
            float(self.slowdowns[~short].mean())
            if (~short).any()
            else float("nan")
        )
        return s, l

    def mean_response_by_class(self, threshold: float) -> tuple:
        """(short-job mean response, long-job mean response)."""
        short = self.class_mask(threshold)
        s = (
            float(self.response_times[short].mean())
            if short.any()
            else float("nan")
        )
        l = (
            float(self.response_times[~short].mean())
            if (~short).any()
            else float("nan")
        )
        return s, l

    def slowdown_percentile(self, q: float) -> float:
        """Slowdown percentile (q in [0, 100])."""
        if self.slowdowns.size == 0:
            return float("nan")
        return float(np.percentile(self.slowdowns, q))


def check_nodes(policy, capacities, speeds=None) -> tuple:
    """Validated ``(capacities, speeds)`` tuples for ``policy``'s nodes
    (speeds default to 1)."""
    capacities = tuple(int(k) for k in capacities)
    if len(capacities) != policy.n_nodes():
        raise ValueError(
            f"policy expects {policy.n_nodes()} nodes, got "
            f"{len(capacities)} capacities"
        )
    if min(capacities) < 1:
        raise ValueError("capacities must be >= 1")
    if speeds is None:
        return capacities, (1.0,) * len(capacities)
    speeds = tuple(float(s) for s in speeds)
    if len(speeds) != len(capacities):
        raise ValueError("need one speed per node")
    if min(speeds) <= 0:
        raise ValueError("speeds must be positive")
    return capacities, speeds


class Cluster:
    """One run of a policy over bounded FCFS nodes (see the module
    docstring).

    ``capacities``/``speeds`` come from :func:`check_nodes`; ``rng`` is
    the generator every routing and timeout draw comes from; ``faults``
    an optional :class:`~repro.faults.FaultInjector`, re-armed here.  The
    run measures over ``[warmup, t_end]``, which must be finite with
    ``0 <= warmup < t_end``.
    """

    def __init__(
        self,
        policy,
        capacities,
        speeds,
        rng,
        *,
        t_end: float,
        warmup: float = 0.0,
        faults=None,
        record_jobs: bool = False,
    ) -> None:
        if not 0.0 <= warmup < t_end < math.inf:
            raise ValueError(
                "t_end must be finite and must exceed warmup, which must "
                f"be >= 0 (got t_end={t_end}, warmup={warmup})"
            )
        n = len(capacities)
        self.policy = policy
        self.capacities = capacities
        self.speeds = speeds
        self.rng = rng
        self.t_end = float(t_end)
        self.warmup = float(warmup)
        self.faults = faults
        if faults is not None:
            faults.reset(n)
        self.resume = bool(getattr(policy, "resume", False))
        self.queues = [deque() for _ in range(n)]
        self.lengths = [0] * n
        self.epoch = [0] * n
        # (start time, effective speed, work at start) of the attempt in
        # service; consulted on crash for waste and the resume restore
        self.attempt: list = [None] * n
        # serving, or holding a killed job that is still being forwarded
        self.busy = [False] * n
        # the job each node holds between kill() and release()
        self.held: list = [None] * n
        self.log: "JobLog | None" = JobLog() if record_jobs else None
        self.next_id = 0  # job ids by arrival order; never reset at warm-up
        self._start_measuring(0.0)

    def initial(self) -> list:
        """Outcomes to schedule before anything else: the end of the
        warm-up, so it precedes every same-time event."""
        return [(self.warmup, "warmup", -1, 0)] if self.warmup > 0 else []

    def _start_measuring(self, now: float) -> None:
        """Zero the counters and anchor the queue-length averages at
        ``now``; jobs in flight are kept."""
        self.offered = self.completed = self.killed = self.forwarded = 0
        self.dropped_arrival = self.dropped_forward = 0
        self.lost_to_failure = 0
        self.work_wasted = 0.0
        self.responses = array("d")
        self.slowdowns = array("d")
        self.demands = array("d")
        # per node: length-time area since t0, time of the last change
        n = len(self.queues)
        self._t0 = now
        self._area = [0.0] * n
        self._since = [now] * n

    # -- transitions ----------------------------------------------------
    def admit(self, now: float, demand: float) -> list:
        """A fresh arrival with service ``demand``: route it, drop it if
        the node is full (or down), else queue it."""
        self.offered += 1
        job = JobRecord(now, demand, demand, self.next_id)
        self.next_id += 1
        target = self.policy.route(self.lengths, self.rng)
        out: list = []
        if self.faults is not None and not self.faults.up[target]:
            # a down node accepts nothing; the arrival is shed
            self.lost_to_failure += 1
            self._finish(job, _LOST, target)
        elif self.lengths[target] >= self.capacities[target]:
            self.dropped_arrival += 1
            self._finish(job, _DROPPED_ARRIVAL, target)
        else:
            self._enqueue(now, job, target, out)
        return out

    def fire(self, now: float, kind: str, node: int, epoch: int) -> list:
        """A scheduled outcome falls due: ``"complete"``, ``"kill"``
        (kill and forward) or ``"warmup"``."""
        out: list = []
        if kind == "complete":
            if epoch != self.epoch[node]:
                return out  # scheduled before a crash; outcome voided
            job = self._pop(now, node)
            self.completed += 1
            demand = job.demand
            response = now - job.arrival_time
            self.responses.append(response)
            self.slowdowns.append(response / demand)
            self.demands.append(demand)
            self._finish(job, _COMPLETED, node)
        elif kind == "kill":
            # kill, forward and release in one pass; a runtime guarding
            # its forwards calls the three itself
            job = self._kill(now, node, epoch)
            if job is None:
                return out
            target = self.policy.forward(node)
            if self.accepts(target):
                self.forwarded += 1
                self._enqueue(now, job, target, out)
            else:
                self.reject(now, job, node, target)
        else:  # "warmup"
            self._start_measuring(now)
            return out
        self._start(now, node, out)
        return out

    def kill(self, now: float, node: int, epoch: int) -> "JobRecord | None":
        """The timeout won: take the killed job off ``node`` (None if the
        outcome is stale).  ``node`` stays busy, holding the job, until
        :meth:`release`, so a host forwarding the job itself holds the
        node meanwhile."""
        job = self._kill(now, node, epoch)
        if job is not None:
            self.held[node] = job
        return job

    def _kill(self, now: float, node: int, epoch: int) -> "JobRecord | None":
        if epoch != self.epoch[node]:
            return None  # scheduled before a crash; outcome voided
        job = self._pop(now, node)
        self.killed += 1
        job.kills += 1
        return job

    def accepts(self, target: "int | None") -> bool:
        """Whether ``target`` can take a forwarded job now."""
        return (
            target is not None
            and (self.faults is None or self.faults.up[target])
            and self.lengths[target] < self.capacities[target]
        )

    def forward(self, now: float, job: JobRecord, target: int) -> list:
        """Queue a killed job at ``target`` (which :meth:`accepts` it)."""
        self.forwarded += 1
        out: list = []
        self._enqueue(now, job, target, out)
        return out

    def reject(self, now: float, job: JobRecord, node: int, target) -> None:
        """A killed job ``target`` cannot take: lost to failure when the
        target is down, dropped after timeout otherwise."""
        if target is not None and self.faults is not None and not self.faults.up[target]:
            self.lost_to_failure += 1
            self._finish(job, _LOST, node)
        else:
            self.dropped_forward += 1
            self._finish(job, _DROPPED_FORWARD, node)

    def release(self, now: float, node: int) -> list:
        """``node``'s killed job is placed or gone: serve the next one."""
        self.held[node] = None
        out: list = []
        self._start(now, node, out)
        return out

    def crash(self, now: float, node: int) -> None:
        """``node`` went down: void its pending outcome, waste the
        attempt's work, and hold (``requeue``) or shed (``drop``) its
        queue."""
        self.epoch[node] += 1
        queue = self.queues[node]
        attempt = self.attempt[node]
        if attempt is not None:
            self.attempt[node] = None
            self.busy[node] = False
            start, speed, work = attempt
            self.work_wasted += (now - start) * speed
            if self.resume and self.faults.on_crash == "requeue":
                # the destroyed attempt's partial service is lost, but
                # credit from earlier kills is kept
                queue[0].remaining = work
        if self.faults.on_crash == "drop" and queue:
            self.lost_to_failure += len(queue)
            for job in queue:
                self._finish(job, _LOST, node)
            queue.clear()
            self._advance(now, node)
            self.lengths[node] = 0

    def recover(self, now: float, node: int) -> list:
        """``node`` is back in service: resume its queue."""
        out: list = []
        if not self.busy[node]:
            self._start(now, node, out)
        return out

    # -- internals ------------------------------------------------------
    def _start(self, now: float, node: int, out: list) -> None:
        """Start serving ``node``'s head job: draw the timeout and append
        the race's outcome to ``out``.

        A node of speed ``s`` finishes a demand-``D`` job in ``D/s`` wall
        time; the timeout races that wall-clock duration.  Under resume
        policies the job's *remaining* work is what is served (and
        decremented on a kill); under restart the full demand is, so prior
        service is lost.  A down node, or one with nothing queued, goes
        idle.
        """
        queue = self.queues[node]
        inj = self.faults
        if not queue or (inj is not None and not inj.up[node]):
            self.busy[node] = False
            return
        self.busy[node] = True
        job = queue[0]
        work = job.remaining if self.resume else job.demand
        speed = self.speeds[node]
        if inj is not None:
            speed = speed * inj.speed_factor[node]
        wall = work / speed
        self.attempt[node] = (now, speed, work)
        sampler = self.policy.timeout(node)
        if sampler is not None and (
            inj is None or not inj.suppress_timeout(self.policy.forward(node))
        ):
            tau = sampler.sample(self.rng)
            if tau < wall:
                if self.resume:
                    job.remaining = work - tau * speed
                out.append((now + tau, "kill", node, self.epoch[node]))
                return
        out.append((now + wall, "complete", node, self.epoch[node]))

    # _enqueue and _pop inline _advance: they run on every event
    def _enqueue(self, now: float, job: JobRecord, node: int, out: list) -> None:
        self.queues[node].append(job)
        since = self._since
        if now < since[node]:
            raise ValueError("time went backwards")
        length = self.lengths[node]
        self._area[node] += length * (now - since[node])
        since[node] = now
        self.lengths[node] = length + 1
        if not self.busy[node]:
            self._start(now, node, out)

    def _pop(self, now: float, node: int) -> JobRecord:
        self.attempt[node] = None
        job = self.queues[node].popleft()
        since = self._since
        if now < since[node]:
            raise ValueError("time went backwards")
        length = self.lengths[node]
        self._area[node] += length * (now - since[node])
        since[node] = now
        self.lengths[node] = length - 1
        return job

    def _advance(self, now: float, node: int) -> None:
        """Close ``node``'s current length's stretch of area at ``now``
        (the caller then sets the new length)."""
        since = self._since
        if now < since[node]:
            raise ValueError("time went backwards")
        self._area[node] += self.lengths[node] * (now - since[node])
        since[node] = now

    def _finish(self, job: JobRecord, outcome: int, node: int) -> None:
        """``job`` left from ``node``; ``outcome`` indexes :data:`OUTCOMES`."""
        if self.log is not None:
            self.log.add(job, outcome, node)

    # -- reporting ------------------------------------------------------
    def result(self, rec, host: str, t_wall0: float) -> SimulationResult:
        """The run's result; with ``rec`` enabled, also its ``<host>.run``
        span (wall time since ``t_wall0``) and ``<host>.*`` counters.

        Called once, at the end of the run: it writes the job log's rows
        for the jobs still queued or held.  The result's arrays view the
        core's."""
        t_end = self.t_end
        span = t_end - self._t0
        means = tuple(
            (area + length * (t_end - since)) / span if span > 0 else 0.0
            for area, length, since in zip(self._area, self.lengths, self._since)
        )
        held = [job for job in self.held if job is not None]
        log = self.log
        if log is not None:
            for job in (*(j for q in self.queues for j in q), *held):
                log.add(job, 0, -1)
        if rec.enabled:
            rec.record_span(
                f"{host}.run",
                t_wall0,
                time.perf_counter() - t_wall0,
                t_end=t_end,
                warmup=self.warmup,
                nodes=len(self.queues),
            )
            rec.add(f"{host}.offered", self.offered)
            rec.add(f"{host}.completed", self.completed)
            rec.add(f"{host}.killed", self.killed)
            rec.add(f"{host}.forwarded", self.forwarded)
            rec.add(f"{host}.dropped.arrival", self.dropped_arrival)
            rec.add(f"{host}.dropped.forward", self.dropped_forward)
            if self.faults is not None:
                rec.add(f"{host}.lost_to_failure", self.lost_to_failure)
                rec.gauge(f"{host}.work_wasted", self.work_wasted)
            for i, mean in enumerate(means):
                rec.gauge(f"{host}.mean_queue_length", mean, node=i)
        return SimulationResult(
            duration=t_end - self.warmup,
            offered=self.offered,
            completed=self.completed,
            dropped_arrival=self.dropped_arrival,
            dropped_forward=self.dropped_forward,
            mean_queue_lengths=means,
            response_times=np.asarray(self.responses),
            slowdowns=np.asarray(self.slowdowns),
            demands=np.asarray(self.demands),
            jobs=log,
            lost_to_failure=self.lost_to_failure,
            work_wasted=self.work_wasted,
            still_queued=sum(self.lengths) + len(held),
            killed=self.killed,
            forwarded=self.forwarded,
        )
