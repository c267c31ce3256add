"""Unit tests for the lock manager (modes, queues, deadlock detection)."""

import pytest

from repro.engine.locks import (LockManager, combine_modes, mode_covers)
from repro.errors import DeadlockError, QueryCancelledError
from repro.sim import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def locks(clock):
    return LockManager(clock)


RES = ("table", "t")
ROW = ("row", "t", 1)


class TestModeAlgebra:
    def test_mode_covers_reflexive(self):
        for mode in ("IS", "IX", "S", "U", "X"):
            assert mode_covers(mode, mode)

    def test_x_covers_everything(self):
        for mode in ("IS", "IX", "S", "U", "X"):
            assert mode_covers("X", mode)

    def test_s_covers_is(self):
        assert mode_covers("S", "IS")
        assert not mode_covers("S", "IX")
        assert not mode_covers("IS", "S")

    def test_combine_s_ix_escalates(self):
        assert combine_modes("S", "IX") == "X"

    def test_combine_respects_coverage(self):
        assert combine_modes("X", "S") == "X"
        assert combine_modes("IS", "IX") == "IX"


class TestGrantAndConflict:
    def test_immediate_grant_when_free(self, locks):
        ticket = locks.request(1, RES, "S")
        assert ticket.granted

    def test_shared_locks_compatible(self, locks):
        assert locks.request(1, RES, "S").granted
        assert locks.request(2, RES, "S").granted

    def test_exclusive_conflicts_with_shared(self, locks):
        locks.request(1, RES, "S")
        ticket = locks.request(2, RES, "X")
        assert not ticket.granted
        assert ticket.outcome is None

    def test_intent_locks_compatible_with_each_other(self, locks):
        assert locks.request(1, RES, "IS").granted
        assert locks.request(2, RES, "IX").granted

    def test_ix_blocks_s(self, locks):
        locks.request(1, RES, "IX")
        assert not locks.request(2, RES, "S").granted

    def test_reacquire_same_mode_instant(self, locks):
        locks.request(1, RES, "X")
        assert locks.request(1, RES, "X").granted
        assert locks.request(1, RES, "S").granted  # covered by X

    def test_conversion_bypasses_queue(self, locks):
        locks.request(1, RES, "S")
        locks.request(2, RES, "X")  # queued
        upgrade = locks.request(1, RES, "X")
        assert upgrade.granted  # conversion jumps ahead of waiter
        locks.cancel_wait(2)
        assert not locks.request(3, RES, "S").granted  # 1 now holds X

    def test_fifo_fairness(self, locks):
        locks.request(1, RES, "X")
        locks.request(2, RES, "X")  # waits
        later = locks.request(3, RES, "S")
        assert not later.granted  # may not jump the queue

    def test_release_grants_next_in_queue(self, locks, clock):
        locks.request(1, RES, "X")
        waiting = locks.request(2, RES, "X")
        clock.advance(2.0)
        locks.release_all(1)
        assert waiting.granted
        assert waiting.wait_time == pytest.approx(2.0)

    def test_release_grants_multiple_compatible(self, locks):
        locks.request(1, RES, "X")
        w1 = locks.request(2, RES, "S")
        w2 = locks.request(3, RES, "S")
        locks.release_all(1)
        assert w1.granted and w2.granted

    def test_release_single_resource(self, locks):
        locks.request(1, RES, "S")
        locks.request(1, ROW, "S")
        locks.release(1, RES)
        assert locks.request(2, RES, "X").granted
        assert not locks.request(3, ROW, "X").granted


class TestCallbacks:
    def test_block_and_unblock_callbacks(self, clock):
        blocked, unblocked = [], []
        locks = LockManager(
            clock,
            on_block=lambda t, b: blocked.append((t.txn_id,
                                                  [x.txn_id for x in b])),
            on_unblock=lambda t: unblocked.append(t.txn_id),
        )
        locks.request(1, RES, "X")
        locks.request(2, RES, "S")
        assert blocked == [(2, [1])]
        locks.release_all(1)
        assert unblocked == [2]

    def test_waker_invoked_on_grant(self, clock):
        woken = []
        locks = LockManager(clock, waker=lambda t: woken.append(t.txn_id))
        locks.request(1, RES, "X")
        locks.request(2, RES, "S")
        locks.release_all(1)
        assert woken == [2]


class TestWaitsForGraph:
    def test_edges(self, locks):
        locks.request(1, RES, "X")
        locks.request(2, RES, "S")
        edges = locks.waits_for_edges()
        assert edges == [(2, 1, RES)]

    def test_blocking_pairs_designates_blocker(self, locks):
        locks.request(1, RES, "S")
        locks.request(2, RES, "S")
        locks.request(3, RES, "X")
        pairs = locks.blocking_pairs()
        assert len(pairs) == 1
        ticket, blocker, resource = pairs[0]
        assert ticket.txn_id == 3
        assert blocker in (1, 2)
        assert resource == RES

    def test_deadlock_detected_at_enqueue(self, locks):
        locks.request(1, ("row", "t", 1), "X")
        locks.request(2, ("row", "t", 2), "X")
        locks.request(1, ("row", "t", 2), "X")  # 1 waits on 2
        victim = locks.request(2, ("row", "t", 1), "X")  # closes the cycle
        assert victim.outcome == "deadlock"
        with pytest.raises(DeadlockError):
            victim.resolve_or_raise()
        assert locks.deadlocks_detected == 1

    def test_no_false_deadlock(self, locks):
        locks.request(1, RES, "X")
        waiting = locks.request(2, RES, "X")
        assert waiting.outcome is None

    def test_three_party_deadlock(self, locks):
        r1, r2, r3 = ("r", 1), ("r", 2), ("r", 3)
        locks.request(1, r1, "X")
        locks.request(2, r2, "X")
        locks.request(3, r3, "X")
        locks.request(1, r2, "X")
        locks.request(2, r3, "X")
        closing = locks.request(3, r1, "X")
        assert closing.outcome == "deadlock"

    def test_detect_deadlocks_scan(self, locks):
        # build a cycle bypassing enqueue detection by editing nothing:
        # enqueue detection already prevents cycles, so scan finds none
        locks.request(1, RES, "X")
        locks.request(2, RES, "X")
        assert locks.detect_deadlocks() == []


class TestCancelAndAbort:
    def test_cancel_wait_removes_from_queue(self, locks):
        locks.request(1, RES, "X")
        waiting = locks.request(2, RES, "S")
        ticket = locks.cancel_wait(2)
        assert ticket is waiting
        assert ticket.outcome == "cancelled"
        with pytest.raises(QueryCancelledError):
            ticket.resolve_or_raise()
        assert locks.waits_for_edges() == []

    def test_cancel_unknown_txn_returns_none(self, locks):
        assert locks.cancel_wait(99) is None

    def test_abort_waiter_marks_deadlock(self, locks):
        locks.request(1, RES, "X")
        locks.request(2, RES, "S")
        ticket = locks.abort_waiter(2)
        assert ticket.outcome == "deadlock"

    def test_cancel_wakes_queue_behind(self, locks):
        locks.request(1, RES, "S")
        blocked_x = locks.request(2, RES, "X")
        queued_s = locks.request(3, RES, "S")
        assert not queued_s.granted  # behind the X in FIFO order
        locks.cancel_wait(2)
        assert queued_s.granted  # X removed, S now compatible
