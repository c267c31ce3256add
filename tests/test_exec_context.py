"""Unit tests for ExecContext and QueryContext."""

import pytest

from repro.engine.exec.context import ExecContext
from repro.engine.query import QueryContext, QueryState
from repro.errors import QueryCancelledError
from repro.sim.scheduler import WaitLock


@pytest.fixture
def ctx(items_server):
    txn = items_server.txns.begin(1)
    qctx = QueryContext(query_id=1, session_id=1, text="SELECT 1")
    return ExecContext(items_server, txn, qctx, {"p": 5})


class TestCharging:
    def test_charges_accumulate(self, ctx):
        ctx.charge(0.25)
        ctx.charge(0.75)
        assert ctx.take_cost() == pytest.approx(1.0)
        assert ctx.take_cost() == 0.0

    def test_cancel_raises_at_charge(self, ctx):
        ctx.qctx.cancel_requested = True
        with pytest.raises(QueryCancelledError):
            ctx.charge(0.1)

    def test_fetch_charge_uses_hit_ratio(self, ctx):
        ctx.fetch_charge("items")
        hot = ctx.take_cost()
        ctx.server.reserve_memory_pages(
            "t", ctx.server.costs.buffer_pool_pages)
        ctx.fetch_charge("items")
        cold = ctx.take_cost()
        ctx.server.reserve_memory_pages("t", 0)
        assert cold > hot


class TestLockAcquisition:
    def test_uncontended_lock_no_suspension(self, ctx):
        items = list(ctx.acquire_table_lock("items", "S"))
        assert items == []  # no WaitLock yielded
        assert not ctx.server.locks.request(99, ("table", "items"),
                                            "X").granted

    def test_read_locks_remembered_for_statement_release(self, ctx):
        list(ctx.acquire_table_lock("items", "S"))
        list(ctx.acquire_row_lock("items", 1, "S"))
        assert len(ctx.txn.statement_read_locks) == 2

    def test_write_locks_not_statement_released(self, ctx):
        list(ctx.acquire_table_lock("items", "IX"))
        list(ctx.acquire_row_lock("items", 1, "X"))
        assert ctx.txn.statement_read_locks == []

    def test_contended_lock_yields_waitlock(self, ctx, items_server):
        other = items_server.txns.begin(2)
        items_server.locks.request(other.txn_id, ("table", "items"), "X")
        gen = ctx.acquire_table_lock("items", "S")
        item = next(gen)
        assert isinstance(item, WaitLock)
        assert not item.ticket.granted


class TestQueryContext:
    def test_duration_uses_end_time_when_finished(self):
        qctx = QueryContext(query_id=1, session_id=1, text="x")
        qctx.start_time = 10.0
        qctx.end_time = 12.5
        assert qctx.duration_at(now=100.0) == 2.5

    def test_duration_live_when_running(self):
        qctx = QueryContext(query_id=1, session_id=1, text="x")
        qctx.start_time = 10.0
        assert qctx.duration_at(now=11.0) == 1.0

    def test_state_predicates(self):
        qctx = QueryContext(query_id=1, session_id=1, text="x")
        assert qctx.active and not qctx.finished
        qctx.state = QueryState.BLOCKED
        assert qctx.active
        qctx.state = QueryState.COMMITTED
        assert qctx.finished and not qctx.active
        qctx.state = QueryState.CANCELLED
        assert qctx.finished
