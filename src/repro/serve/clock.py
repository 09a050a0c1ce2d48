"""Virtual and wall clocks for the dispatcher runtime.

Every time-dependent actor in :mod:`repro.serve` (arrivals, the
cluster's scheduled outcomes, the controller) waits on a :class:`Clock`
rather than ``asyncio.sleep``, so the same runtime runs in two modes:

* :class:`VirtualClock` -- simulated time.  Timers live in a heap; the
  driver (:meth:`VirtualClock.run_until`) repeatedly lets every runnable
  task progress until the whole task set is blocked on timers, then fires
  the earliest timer and advances ``now`` to its deadline.  Nothing ever
  waits on the operating system, so a 10^5-arrival day of traffic runs in
  however long the dispatch decisions take to compute -- and, because
  timers fire in strict ``(deadline, creation order)`` sequence, the run
  is **deterministic**: the equivalence tests pin its per-job outcomes
  exactly to :class:`repro.sim.runner.Simulation`.  The runtime sets one
  :meth:`~VirtualClock.call_at` timer per arrival and per core outcome,
  so that path pushes onto and pops off the heap directly, as the
  simulator's own loop does: a heap entry is a plain
  ``(deadline, seq, fn, args)`` tuple, with no object per timer, and a
  sleep's is ``(deadline, seq, future, daemon)``.
* :class:`WallClock` -- real time via ``asyncio.sleep``, optionally
  scaled (``rate=10`` runs 10 model-seconds per wall-second).  This is
  the mode an actual deployment would use; tests only smoke it.

Knowing when "everything runnable has run" is the crux of virtual time.
The driver yields with ``asyncio.sleep(0)`` and checks the event loop's
ready queue; when it is empty every other task is parked on a timer
future (or an event/queue that only a timer can release), so firing the
next timer is causally safe.  CPython exposes the ready queue as
``loop._ready``; on loops without that attribute the driver falls back
to a bounded number of extra yields, which keeps correctness (each yield
runs a full ready round) at the cost of a little wasted spinning.
"""

from __future__ import annotations

import asyncio
import time
from heapq import heappop, heappush

__all__ = ["Clock", "VirtualClock", "WallClock"]


class Clock:
    """Interface shared by the two clocks."""

    def now(self) -> float:
        """Current model time (seconds since the clock started)."""
        raise NotImplementedError

    async def sleep(self, delay: float, *, daemon: bool = False) -> None:
        """Suspend the calling task for ``delay`` model-seconds.

        ``daemon=True`` marks a housekeeping sleep (periodic gauge
        sampling, controller ticks): on a virtual clock such timers
        fire in order while real work is pending but do not, by
        themselves, keep time grinding forward -- once only daemon
        timers remain the driver jumps straight to its deadline.
        Without this, an obs depth-sampler ticking every 10 model
        seconds would turn a drained ``run(1e12)`` trace replay into
        10^11 pointless timer fires.  Wall clocks ignore the flag.
        """
        raise NotImplementedError

    def call_at(self, deadline: float, fn, *args, daemon: bool = False) -> None:
        """Call ``fn(*args)`` from the event loop at model time
        ``deadline`` (at once if it has passed).  ``daemon`` is
        :meth:`sleep`'s flag: a daemon callback (a periodic sampler)
        does not by itself keep a virtual clock running."""
        raise NotImplementedError

    async def run_until(self, deadline: float) -> None:
        """Drive the clock to model time ``deadline`` (no-op for wall
        clocks beyond sleeping until it passes)."""
        raise NotImplementedError


async def _drain(max_rounds: int = 64) -> None:
    """Yield until every other task is blocked on a future.

    Each ``await asyncio.sleep(0)`` lets the loop run one full round of
    ready callbacks; the loop's ready queue being empty afterwards means
    no task can progress without an external wake-up.
    """
    loop = asyncio.get_running_loop()
    ready = getattr(loop, "_ready", None)
    if ready is None:  # non-CPython loop: bounded spin
        for _ in range(max_rounds):
            await asyncio.sleep(0)
        return
    while True:
        await asyncio.sleep(0)
        if not ready:
            return


def _cancelled(timer) -> bool:
    """Whether a heap entry is a cancelled sleep (callbacks, whose
    fourth field is their argument tuple, cannot be cancelled)."""
    return type(timer[3]) is not tuple and timer[2].cancelled()


class VirtualClock(Clock):
    """Deterministic simulated time over an asyncio loop.

    A heap entry is ``(deadline, seq, fn, args)`` for a callback or
    ``(deadline, seq, future, daemon)`` for a sleep; ``seq`` (creation
    order) breaks deadline ties, so no two entries compare further.  A
    daemon callback is an entry for :meth:`_daemon_call`.  The clock
    counts its daemon entries: while the heap holds more entries than
    that, real work is pending.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._timers: list = []
        self._seq = 0
        self._daemons = 0  # daemon entries in the heap

    def now(self) -> float:
        return self._now

    @property
    def pending_timers(self) -> int:
        return sum(1 for timer in self._timers if not _cancelled(timer))

    def next_deadline(self) -> float | None:
        """Earliest live timer deadline (None when no timers are set)."""
        timers = self._timers
        while timers and _cancelled(timers[0]):
            if heappop(timers)[3]:
                self._daemons -= 1
        return timers[0][0] if timers else None

    def sleep(self, delay: float, *, daemon: bool = False):
        if delay < 0:
            raise ValueError("cannot sleep a negative duration")
        fut = asyncio.get_running_loop().create_future()
        heappush(self._timers, (self._now + delay, self._seq, fut, daemon))
        self._seq += 1
        if daemon:
            self._daemons += 1
        return fut

    def call_at(self, deadline: float, fn, *args, daemon: bool = False) -> None:
        """Exact: the callback runs at ``deadline`` itself (a sleep of
        ``deadline - now`` can land one ulp off); a past deadline runs
        at ``now``.  One call per core outcome, so it pushes directly."""
        now = self._now
        if daemon:
            self._daemons += 1
            fn, args = self._daemon_call, (fn, args)
        heappush(self._timers, (now if now > deadline else deadline, self._seq, fn, args))
        self._seq += 1

    def _daemon_call(self, fn, args) -> None:
        self._daemons -= 1
        fn(*args)

    async def run_until(self, deadline: float) -> None:
        """Advance to ``deadline``, firing every timer due on the way.

        Timers fire one at a time in ``(deadline, creation)`` order with
        a full drain between fires, so all consequences of one event
        (enqueues, new timers) land before the next event's time is
        decided -- exactly the discrete-event contract of
        ``sim.runner``'s heap loop.  A :meth:`call_at` callback runs
        right here in this loop; the drain after it is skipped when it
        woke no task.

        Daemon timers fire in that same order *while* essential work is
        pending; once only daemon timers remain the system can no longer
        change state on its own, so the driver stops firing them and
        jumps to ``deadline``.  A cancelled sleep leaves the heap
        without moving ``now``.
        """
        ready = getattr(asyncio.get_running_loop(), "_ready", None)
        timers = self._timers
        await _drain()
        while len(timers) > self._daemons and timers[0][0] <= deadline:
            when, _, target, extra = heappop(timers)
            if type(extra) is tuple:  # a callback: target(*args)
                if when > self._now:
                    self._now = when
                target(*extra)
                if ready is None or ready:
                    await _drain()
                continue
            if extra:
                self._daemons -= 1
            if not target.cancelled():
                if when > self._now:
                    self._now = when
                target.set_result(None)
                await _drain()
        if deadline > self._now:
            self._now = deadline


class WallClock(Clock):
    """Real time, optionally scaled: ``rate`` model-seconds per second."""

    def __init__(self, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self._t0 = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self._t0) * self.rate

    async def sleep(self, delay: float, *, daemon: bool = False) -> None:
        if delay < 0:
            raise ValueError("cannot sleep a negative duration")
        await asyncio.sleep(delay / self.rate)

    def call_at(self, deadline: float, fn, *args, daemon: bool = False) -> None:
        delay = max(deadline - self.now(), 0.0) / self.rate
        asyncio.get_running_loop().call_later(delay, fn, *args)

    async def run_until(self, deadline: float) -> None:
        remaining = deadline - self.now()
        if remaining > 0:
            await asyncio.sleep(remaining / self.rate)
