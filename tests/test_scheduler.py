"""Tests for the cooperative discrete-event scheduler."""

import pytest

from repro.sim import Delay, Scheduler, WaitLock
from repro.sim.scheduler import SchedulerStalledError


def _delays(*durations):
    for dt in durations:
        yield Delay(dt)


class TestBasicScheduling:
    def test_single_process_advances_clock(self):
        sched = Scheduler()
        sched.spawn("p", _delays(1.0, 2.0))
        sched.run()
        assert sched.clock.now == pytest.approx(3.0)

    def test_process_result(self):
        def proc():
            yield Delay(0.5)
            return "done"

        sched = Scheduler()
        handle = sched.spawn("p", proc())
        sched.run()
        assert handle.done
        assert handle.result == "done"

    def test_two_processes_interleave_in_time_order(self):
        log = []

        def proc(name, step):
            for i in range(3):
                yield Delay(step)
                log.append((name, round(sched.clock.now, 3)))

        sched = Scheduler()
        sched.spawn("fast", proc("fast", 1.0))
        sched.spawn("slow", proc("slow", 1.5))
        sched.run()
        # at the t=3.0 tie, slow enqueued its wake-up first (at t=1.5,
        # before fast's at t=2.0), so FIFO runs slow first
        assert log == [
            ("fast", 1.0), ("slow", 1.5), ("fast", 2.0), ("slow", 3.0),
            ("fast", 3.0), ("slow", 4.5),
        ]

    def test_spawn_at_future_time(self):
        times = []

        def proc():
            yield Delay(0.1)
            times.append(sched.clock.now)

        sched = Scheduler()
        sched.spawn("late", proc(), at=5.0)
        sched.run()
        assert times == [pytest.approx(5.1)]

    def test_run_until_bounds_virtual_time(self):
        def forever():
            while True:
                yield Delay(1.0)

        sched = Scheduler()
        sched.spawn("loop", forever())
        sched.run(until=10.5)
        assert sched.clock.now == pytest.approx(10.5)

    def test_fifo_among_simultaneous(self):
        order = []

        def proc(name):
            yield Delay(1.0)
            order.append(name)

        sched = Scheduler()
        sched.spawn("a", proc("a"))
        sched.spawn("b", proc("b"))
        sched.run()
        assert order == ["a", "b"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1)

    def test_unsupported_yield_raises(self):
        def bad():
            yield "nonsense"

        sched = Scheduler()
        sched.spawn("bad", bad())
        with pytest.raises(Exception):
            sched.run()


class TestBlockingAndWake:
    def test_waitlock_blocks_until_woken(self):
        log = []

        def waiter():
            yield WaitLock("ticket")
            log.append(("woke", sched.clock.now))

        def waker(proc):
            yield Delay(3.0)
            sched.wake(proc)

        sched = Scheduler()
        blocked = sched.spawn("waiter", waiter())
        sched.spawn("waker", waker(blocked))
        sched.run()
        assert log == [("woke", 3.0)]

    def test_wake_with_exception_throws_into_process(self):
        caught = []

        def waiter():
            try:
                yield WaitLock("t")
            except RuntimeError as err:
                caught.append(str(err))

        def killer(proc):
            yield Delay(1.0)
            sched.wake(proc, exception=RuntimeError("boom"))

        sched = Scheduler()
        blocked = sched.spawn("waiter", waiter())
        sched.spawn("killer", killer(blocked))
        sched.run()
        assert caught == ["boom"]

    def test_stall_raises_without_handler(self):
        def waiter():
            yield WaitLock("never")

        sched = Scheduler()
        sched.spawn("stuck", waiter())
        with pytest.raises(SchedulerStalledError):
            sched.run()

    def test_stall_handler_can_break_stall(self):
        def waiter():
            yield WaitLock("t")

        sched = Scheduler()
        stuck = sched.spawn("stuck", waiter())

        def handler(blocked):
            sched.wake(blocked[0])
            return True

        sched.add_stall_handler(handler)
        sched.run()
        assert stuck.done

    def test_run_until_done_returns_result(self):
        def quick():
            yield Delay(0.1)
            return 42

        def background():
            while True:
                yield Delay(0.5)

        sched = Scheduler()
        sched.spawn("bg", background())
        target = sched.spawn("target", quick())
        assert sched.run_until_done(target) == 42

    def test_cannot_wake_ready_process(self):
        def proc():
            yield Delay(1.0)

        sched = Scheduler()
        handle = sched.spawn("p", proc())
        with pytest.raises(Exception):
            sched.wake(handle)

    def test_process_exception_propagates(self):
        def bad():
            yield Delay(0.1)
            raise ValueError("exploded")

        sched = Scheduler()
        sched.spawn("bad", bad())
        with pytest.raises(ValueError, match="exploded"):
            sched.run()


class TestLiveProcessTracking:
    def test_finished_processes_are_released(self, items_server):
        """The scheduler holds O(live) processes, not every one it ever
        ran: a finished statement's result rows must become garbage."""
        background = items_server.scheduler.spawn(
            "bg", (Delay(1e9) for __ in range(2)))
        session = items_server.create_session(user="u")
        for i in range(1000):
            result = session.execute(
                f"SELECT name FROM items WHERE id = {i % 6 + 1}")
            assert result.error is None
        assert items_server.scheduler._processes == [background]

    def test_failed_process_is_released(self):
        def bad():
            yield Delay(0.1)
            raise ValueError("exploded")

        sched = Scheduler()
        sched.spawn("bad", bad())
        with pytest.raises(ValueError, match="exploded"):
            sched.run()
        assert sched._processes == []
