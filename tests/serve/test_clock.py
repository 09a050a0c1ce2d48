"""Virtual/wall clock semantics: ordering, determinism, driving."""

import asyncio

import pytest

from repro.serve import VirtualClock, WallClock


def run(coro):
    return asyncio.run(coro)


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        async def main():
            clock = VirtualClock()
            assert clock.now() == 0.0
            await clock.run_until(10.0)
            return clock.now()

        assert run(main()) == 10.0

    def test_sleep_wakes_at_deadline(self):
        async def main():
            clock = VirtualClock()
            times = []

            async def sleeper(delay):
                await clock.sleep(delay)
                times.append(clock.now())

            tasks = [asyncio.ensure_future(sleeper(d)) for d in (3.0, 1.0, 2.0)]
            await clock.run_until(5.0)
            await asyncio.gather(*tasks)
            return times

        assert run(main()) == [1.0, 2.0, 3.0]

    def test_ties_fire_in_creation_order(self):
        async def main():
            clock = VirtualClock()
            order = []

            async def sleeper(tag):
                await clock.sleep(1.0)
                order.append(tag)

            tasks = [asyncio.ensure_future(sleeper(i)) for i in range(5)]
            await clock.run_until(1.0)
            await asyncio.gather(*tasks)
            return order

        assert run(main()) == [0, 1, 2, 3, 4]

    def test_chained_sleeps_stay_causal(self):
        """A timer consequence scheduled at fire time must beat later
        deadlines: 0.5+0.5 fires before the pre-existing 1.5 timer."""

        async def main():
            clock = VirtualClock()
            order = []

            async def chain():
                await clock.sleep(0.5)
                await clock.sleep(0.5)
                order.append(("chain", clock.now()))

            async def single():
                await clock.sleep(1.5)
                order.append(("single", clock.now()))

            tasks = [
                asyncio.ensure_future(single()),
                asyncio.ensure_future(chain()),
            ]
            await clock.run_until(2.0)
            await asyncio.gather(*tasks)
            return order

        assert run(main()) == [("chain", 1.0), ("single", 1.5)]

    def test_run_until_excludes_later_timers(self):
        async def main():
            clock = VirtualClock()
            fired = []

            async def sleeper():
                await clock.sleep(7.0)
                fired.append(clock.now())

            task = asyncio.ensure_future(sleeper())
            await clock.run_until(5.0)
            assert fired == [] and clock.now() == 5.0
            assert clock.pending_timers == 1
            assert clock.next_deadline() == 7.0
            await clock.run_until(10.0)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return fired

        assert run(main()) == [7.0]

    def test_timer_at_deadline_boundary_fires(self):
        async def main():
            clock = VirtualClock()
            fired = []

            async def sleeper():
                await clock.sleep(5.0)
                fired.append(clock.now())

            task = asyncio.ensure_future(sleeper())
            await clock.run_until(5.0)
            await asyncio.gather(task, return_exceptions=True)
            return fired

        assert run(main()) == [5.0]

    def test_cancelled_sleeper_is_skipped(self):
        async def main():
            clock = VirtualClock()

            async def sleeper():
                await clock.sleep(1.0)

            task = asyncio.ensure_future(sleeper())
            await asyncio.sleep(0)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await clock.run_until(2.0)
            return clock.now(), clock.pending_timers

        assert run(main()) == (2.0, 0)

    def test_daemon_callback_fires_in_order_but_keeps_nothing_running(self):
        """A daemon callback takes its (deadline, creation) turn among
        the essential timers; once only daemons remain the clock jumps
        to the deadline without firing them."""

        async def main():
            clock = VirtualClock()
            fired = []

            def tick():
                fired.append(("tick", clock.now()))
                clock.call_at(clock.now() + 1.0, tick, daemon=True)

            clock.call_at(1.0, tick, daemon=True)
            clock.call_at(1.0, fired.append, ("work", 1.0))
            clock.call_at(2.5, fired.append, ("work", 2.5))
            await clock.run_until(1e9)
            return fired, clock.now(), clock.pending_timers

        fired, now, pending = run(main())
        assert fired == [("tick", 1.0), ("work", 1.0), ("tick", 2.0), ("work", 2.5)]
        assert now == 1e9
        assert pending == 1  # the next tick, never fired

    def test_negative_sleep_rejected(self):
        async def main():
            clock = VirtualClock()
            with pytest.raises(ValueError, match="negative"):
                await clock.sleep(-1.0)

        run(main())

    def test_start_offset(self):
        clock = VirtualClock(start=100.0)
        assert clock.now() == 100.0


class TestWallClock:
    def test_sleep_and_now(self):
        async def main():
            clock = WallClock(rate=100.0)  # 100 model-seconds per second
            t0 = clock.now()
            await clock.sleep(1.0)  # 10 ms wall
            return clock.now() - t0

        elapsed = run(main())
        assert elapsed >= 1.0

    def test_run_until(self):
        async def main():
            clock = WallClock(rate=100.0)
            await clock.run_until(2.0)
            return clock.now()

        assert run(main()) >= 2.0

    def test_call_at_ignores_daemon(self):
        async def main():
            clock = WallClock(rate=100.0)
            fired = asyncio.Event()
            clock.call_at(clock.now() + 1.0, fired.set, daemon=True)
            await asyncio.wait_for(fired.wait(), 5.0)
            return clock.now()

        assert run(main()) >= 1.0

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            WallClock(rate=0.0)
