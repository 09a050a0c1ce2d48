"""The fault state machine both execution hosts drive.

A :class:`FaultInjector` owns everything about a fault trace that must
be *identical* between the offline simulator and the online runtime:
which nodes are up, the current speed/arrival multipliers, the crash
semantics (``on_crash``) and the degraded-mode policy (``degraded``).
The queues and job bookkeeping belong to the TAGS core both hosts
drive, :class:`repro.sim.cluster.Cluster`.  A host calls :meth:`apply`
when a plan event's time arrives and hands the returned directive
(``"crash"``/``"recover"``/``None``) to the core, which consults
:meth:`suppress_timeout`, :attr:`up` and :attr:`speed_factor` at every
decision the fault state influences (the hosts read
:attr:`arrival_factor` when they draw arrival gaps).  With one core
making every decision, the hosts' per-job fault outcomes agree exactly
(``tests/serve/test_equivalence.py``).

Crash semantics (``on_crash``)
------------------------------

``"requeue"`` (default)
    Jobs stay queued at the crashed node and wait for recovery.  The
    interrupted service attempt's work is lost: the head job's
    ``remaining`` is restored to its value at the attempt's start (so a
    resume policy keeps credit from *earlier* completed kills, but
    nothing from the attempt the crash destroyed).
``"drop"``
    The node's whole queue -- head included -- is discarded; every job
    is counted ``lost_to_failure``.

Degraded-mode policy (``degraded``)
-----------------------------------

``"shed"`` (default)
    Timeouts keep firing while the forward target is down; a killed job
    with a down target is counted ``lost_to_failure``.
``"single_node"``
    The timeout race is suppressed at service start while the forward
    target is down: the node serves every job to exhaustion, which for
    two-node TAGS is exactly M/M/1/K1 at node 1 -- the regime
    :mod:`repro.models.tags_breakdown` reduces to ``models.mm1k`` and
    ``serve/validate.py`` checks the live runtime against.

Supervised mode
---------------

With ``supervised=True`` (set by the runtime when a
:class:`repro.serve.Supervisor` is attached) a ``node_recover`` event
only marks the fault *cleared*; the node stays down until the
supervisor's :meth:`try_restart` succeeds, so measured MTTR includes
detection and backoff latency.

The injector also keeps the failure bookkeeping that does not depend on
host internals: per-node downtime intervals (availability, MTTR) and
crash/recovery counts.  One injector drives one run: hosts call
:meth:`reset` when a run starts.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan

__all__ = ["FaultInjector"]

ON_CRASH_CHOICES = ("requeue", "drop")
DEGRADED_CHOICES = ("shed", "single_node")


class FaultInjector:
    """Replays a :class:`~repro.faults.plan.FaultPlan` into a host.

    Parameters
    ----------
    plan :
        The fault schedule to replay.
    on_crash :
        What happens to a crashed node's queue: ``"requeue"`` or
        ``"drop"`` (see the module docstring).
    degraded :
        Timeout behaviour while the forward target is down: ``"shed"``
        or ``"single_node"``.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        on_crash: str = "requeue",
        degraded: str = "shed",
    ) -> None:
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(tuple(plan))
        if on_crash not in ON_CRASH_CHOICES:
            raise ValueError(f"on_crash must be one of {ON_CRASH_CHOICES}")
        if degraded not in DEGRADED_CHOICES:
            raise ValueError(f"degraded must be one of {DEGRADED_CHOICES}")
        self.plan = plan
        self.on_crash = on_crash
        self.degraded = degraded
        self.supervised = False
        self.n_nodes = 0
        self.reset(max(plan.max_node() + 1, 1))

    # ------------------------------------------------------------------
    def reset(self, n_nodes: int, t0: float = 0.0) -> None:
        """Re-arm for a fresh run over ``n_nodes`` nodes."""
        if self.plan.max_node() >= n_nodes:
            raise ValueError(
                f"plan references node {self.plan.max_node()}, "
                f"host has {n_nodes} nodes"
            )
        self.n_nodes = int(n_nodes)
        self.t0 = float(t0)
        self.up = [True] * self.n_nodes
        self.cleared = [True] * self.n_nodes
        self.speed_factor = [1.0] * self.n_nodes
        self.arrival_factor = 1.0
        self.crashes = 0
        self.recoveries = 0
        self._down_since = [None] * self.n_nodes
        self.downtimes = [[] for _ in range(self.n_nodes)]

    def events(self):
        """The plan's events in replay order."""
        return iter(self.plan)

    # -- state transitions ---------------------------------------------
    def apply(self, event, now: float) -> "str | None":
        """Apply one plan event at model time ``now``.

        Returns the directive the host must act on: ``"crash"`` (the
        node just went down -- interrupt service, do queue surgery),
        ``"recover"`` (the node just came up -- resume service) or
        ``None`` (state-only change, or redundant event).
        """
        kind = event.kind
        if kind == "node_crash":
            node = event.node
            self.cleared[node] = False
            if self.up[node]:
                self.up[node] = False
                self.crashes += 1
                self._down_since[node] = now
                return "crash"
            return None
        if kind == "node_recover":
            node = event.node
            self.cleared[node] = True
            if not self.supervised and not self.up[node]:
                self._mark_up(node, now)
                return "recover"
            return None
        if kind == "degrade":
            self.speed_factor[event.node] = event.factor
            return None
        if kind == "surge":
            self.arrival_factor = event.factor
            return None
        raise AssertionError(kind)  # pragma: no cover

    def try_restart(self, node: int, now: float) -> bool:
        """Supervisor path: restart ``node`` if its fault has cleared.

        Returns True when the node is (now) up.
        """
        if self.up[node]:
            return True
        if not self.cleared[node]:
            return False
        self._mark_up(node, now)
        return True

    def _mark_up(self, node: int, now: float) -> None:
        self.up[node] = True
        self.recoveries += 1
        start = self._down_since[node]
        self._down_since[node] = None
        if start is not None:
            self.downtimes[node].append((start, now))

    # -- decision helpers ----------------------------------------------
    def suppress_timeout(self, forward_target: "int | None") -> bool:
        """True when the degraded policy says "serve to exhaustion":
        ``single_node`` mode with the forward target down."""
        return (
            self.degraded == "single_node"
            and forward_target is not None
            and not self.up[forward_target]
        )

    # -- reporting ------------------------------------------------------
    def availability(self, node: int, t_end: float) -> float:
        """Fraction of ``[t0, t_end]`` the node was up (an open downtime
        counts as down through ``t_end``)."""
        span = t_end - self.t0
        if span <= 0:
            return 1.0
        down = sum(e - s for s, e in self.downtimes[node])
        if self._down_since[node] is not None:
            down += t_end - self._down_since[node]
        return max(0.0, 1.0 - down / span)

    def mttr(self) -> "float | None":
        """Mean time to recovery over *completed* downtimes (None when
        no node has recovered yet)."""
        durations = [e - s for per_node in self.downtimes for s, e in per_node]
        if not durations:
            return None
        return sum(durations) / len(durations)
