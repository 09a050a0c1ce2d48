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
  simulator's own loop does.
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

    def call_at(self, deadline: float, fn, *args) -> None:
        """Call ``fn(*args)`` from the event loop at model time
        ``deadline`` (at once if it has passed)."""
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


class _Call:
    """A virtual-clock timer that runs a callback instead of waking a
    task."""

    __slots__ = ("fn", "args")

    def __init__(self, fn, args) -> None:
        self.fn = fn
        self.args = args

    @staticmethod
    def cancelled() -> bool:
        return False


class VirtualClock(Clock):
    """Deterministic simulated time over an asyncio loop."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._timers: list = []  # (deadline, seq, future, daemon)
        self._seq = 0
        self._essential = 0  # live non-daemon timers in the heap

    def now(self) -> float:
        return self._now

    @property
    def pending_timers(self) -> int:
        return sum(1 for *_, fut, _ in self._timers if not fut.cancelled())

    def next_deadline(self) -> float | None:
        """Earliest live timer deadline (None when no timers are set)."""
        while self._timers and self._timers[0][2].cancelled():
            _, _, _, daemon = heappop(self._timers)
            if not daemon:
                self._essential -= 1
        return self._timers[0][0] if self._timers else None

    def sleep(self, delay: float, *, daemon: bool = False):
        if delay < 0:
            raise ValueError("cannot sleep a negative duration")
        fut = asyncio.get_running_loop().create_future()
        heappush(self._timers, (self._now + delay, self._seq, fut, daemon))
        self._seq += 1
        if not daemon:
            self._essential += 1
        return fut

    def call_at(self, deadline: float, fn, *args) -> None:
        """Exact: the callback runs at ``deadline`` itself (a sleep of
        ``deadline - now`` can land one ulp off); a past deadline runs
        at ``now``.  One call per core outcome, so it pushes directly."""
        now = self._now
        heappush(
            self._timers,
            (now if now > deadline else deadline, self._seq, _Call(fn, args), False),
        )
        self._seq += 1
        self._essential += 1

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
        jumps to ``deadline``.
        """
        ready = getattr(asyncio.get_running_loop(), "_ready", None)
        timers = self._timers
        await _drain()
        while self._essential > 0:
            # next_deadline() inlined: drop cancelled sleeps off the top
            while timers:
                timer = timers[0][2]
                if type(timer) is _Call or not timer.cancelled():
                    break
                if not heappop(timers)[3]:
                    self._essential -= 1
            if not timers or timers[0][0] > deadline:
                break
            when, _, timer, daemon = heappop(timers)
            if not daemon:
                self._essential -= 1
            if when > self._now:
                self._now = when
            if type(timer) is _Call:
                timer.fn(*timer.args)
                if ready is None or ready:
                    await _drain()
            elif not timer.cancelled():
                timer.set_result(None)
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

    def call_at(self, deadline: float, fn, *args) -> None:
        delay = max(deadline - self.now(), 0.0) / self.rate
        asyncio.get_running_loop().call_later(delay, fn, *args)

    async def run_until(self, deadline: float) -> None:
        remaining = deadline - self.now()
        if remaining > 0:
            await asyncio.sleep(remaining / self.rate)
