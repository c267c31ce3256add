"""Unit tests for the event bus and the transaction manager."""

import pytest

from repro.engine.catalog import ColumnDef, TableSchema
from repro.engine.events import EventBus
from repro.engine.locks import LockManager
from repro.engine.storage import Table
from repro.engine.txn import (IsolationLevel, Transaction,
                              TransactionManager, TxnState)
from repro.engine.types import SQLType
from repro.errors import TransactionError
from repro.sim import CostModel, SimClock


class TestEventBus:
    def test_subscribe_publish(self):
        bus = EventBus()
        seen = []
        bus.subscribe("query.commit", lambda e, p: seen.append((e, p["x"])))
        bus.publish("query.commit", {"x": 1})
        assert seen == [("query.commit", 1)]

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            EventBus().subscribe("query.explode", lambda e, p: None)

    def test_wildcard_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe("*", lambda e, p: seen.append(e))
        bus.publish("query.start", {})
        bus.publish("txn.commit", {})
        assert seen == ["query.start", "txn.commit"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = lambda e, p: seen.append(e)  # noqa: E731
        bus.subscribe("query.commit", handler)
        bus.unsubscribe("query.commit", handler)
        bus.publish("query.commit", {})
        assert seen == []

    def test_handlers_called_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe("query.commit", lambda e, p: order.append(1))
        bus.subscribe("query.commit", lambda e, p: order.append(2))
        bus.publish("query.commit", {})
        assert order == [1, 2]

    def test_has_subscribers(self):
        bus = EventBus()
        assert not bus.has_subscribers("query.commit")
        bus.subscribe("query.commit", lambda e, p: None)
        assert bus.has_subscribers("query.commit")

    def test_published_count(self):
        bus = EventBus()
        bus.publish("query.start", {})
        bus.publish("query.start", {})
        assert bus.published_count == 2


@pytest.fixture
def txn_world():
    clock = SimClock()
    locks = LockManager(clock)
    txns = TransactionManager(clock, locks, CostModel())
    schema = TableSchema("t", [
        ColumnDef("id", SQLType.INTEGER, nullable=False),
        ColumnDef("v", SQLType.FLOAT),
    ], primary_key=["id"])
    table = Table(schema)
    return clock, locks, txns, {"t": table}


class TestTransactionManager:
    def test_begin_assigns_increasing_ids(self, txn_world):
        __, __, txns, __ = txn_world
        t1 = txns.begin(1)
        t2 = txns.begin(1)
        assert t2.txn_id > t1.txn_id
        assert t1.active and t2.active

    def test_commit_releases_locks(self, txn_world):
        __, locks, txns, __ = txn_world
        txn = txns.begin(1)
        locks.request(txn.txn_id, ("row", "t", 1), "X")
        cost = txns.commit(txn)
        assert cost > 0
        assert txn.state is TxnState.COMMITTED
        assert locks.request(99, ("row", "t", 1), "X").granted

    def test_commit_twice_rejected(self, txn_world):
        __, __, txns, tables = txn_world
        txn = txns.begin(1)
        txns.commit(txn)
        with pytest.raises(TransactionError):
            txns.commit(txn)
        with pytest.raises(TransactionError):
            txns.rollback(txn, tables)

    def test_rollback_applies_undo_in_reverse(self, txn_world):
        __, __, txns, tables = txn_world
        table = tables["t"]
        txn = txns.begin(1)
        rowid = table.insert([1, 5.0])
        txn.record_undo("insert", "t", rowid)
        before = table.update(rowid, {1: 9.0})
        txn.record_undo("update", "t", rowid, before)
        txns.rollback(txn, tables)
        # update undone first, then insert undone
        assert table.row_count == 0
        assert txn.state is TxnState.ABORTED

    def test_record_undo_after_end_rejected(self, txn_world):
        __, __, txns, tables = txn_world
        txn = txns.begin(1)
        txns.commit(txn)
        with pytest.raises(TransactionError):
            txn.record_undo("insert", "t", 1)

    def test_read_committed_releases_statement_read_locks(self, txn_world):
        __, locks, txns, __ = txn_world
        txn = txns.begin(1)
        locks.request(txn.txn_id, ("row", "t", 1), "S")
        txn.statement_read_locks.append(("row", "t", 1))
        locks.request(txn.txn_id, ("row", "t", 2), "X")
        txns.release_statement_read_locks(txn)
        assert locks.request(99, ("row", "t", 1), "X").granted
        assert not locks.request(98, ("row", "t", 2), "S").granted

    def test_repeatable_read_keeps_read_locks(self, txn_world):
        __, locks, txns, __ = txn_world
        txn = txns.begin(1, isolation=IsolationLevel.REPEATABLE_READ)
        locks.request(txn.txn_id, ("row", "t", 1), "S")
        txn.statement_read_locks.append(("row", "t", 1))
        txns.release_statement_read_locks(txn)
        assert not locks.request(99, ("row", "t", 1), "X").granted
        assert txn.statement_read_locks == []

    def test_active_transactions_listing(self, txn_world):
        __, __, txns, __ = txn_world
        t1 = txns.begin(1)
        t2 = txns.begin(2)
        assert txns.active_transactions == [t1, t2]
        txns.commit(t1)
        assert txns.active_transactions == [t2]
