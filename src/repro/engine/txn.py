"""Transactions: undo logging, two-phase lock release, lifecycle states."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import TransactionError


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class IsolationLevel(enum.Enum):
    """Read-committed releases statement S locks at statement end;
    repeatable-read holds them to transaction end."""

    READ_COMMITTED = "read_committed"
    REPEATABLE_READ = "repeatable_read"


@dataclass
class UndoRecord:
    """One undo-log entry: enough to reverse an insert/update/delete."""

    op: str  # 'insert' | 'update' | 'delete'
    table: str
    rowid: int
    before: list | None = None


@dataclass
class Transaction:
    """A unit of work: owns locks, an undo log, and statement history."""

    txn_id: int
    session_id: int
    start_time: float
    isolation: IsolationLevel = IsolationLevel.READ_COMMITTED
    explicit: bool = False  # started by BEGIN (vs autocommit wrapper)
    state: TxnState = TxnState.ACTIVE
    undo_log: list[UndoRecord] = field(default_factory=list)
    statement_read_locks: list[Any] = field(default_factory=list)
    # SQLCM probe feed: per-statement records appended by the server
    statement_log: list[Any] = field(default_factory=list)
    end_time: float | None = None

    @property
    def active(self) -> bool:
        return self.state is TxnState.ACTIVE

    def record_undo(self, op: str, table: str, rowid: int,
                    before: list | None = None) -> None:
        if not self.active:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}"
            )
        self.undo_log.append(UndoRecord(op, table, rowid, before))


class TransactionManager:
    """Creates transactions and applies commit/rollback against storage."""

    def __init__(self, clock, lock_manager, costs):
        self._clock = clock
        self._locks = lock_manager
        self._costs = costs
        self._next_id = 1
        self._active: dict[int, Transaction] = {}

    @property
    def active_transactions(self) -> list[Transaction]:
        return list(self._active.values())

    def begin(self, session_id: int, *, explicit: bool = False,
              isolation: IsolationLevel = IsolationLevel.READ_COMMITTED
              ) -> Transaction:
        txn = Transaction(
            txn_id=self._next_id,
            session_id=session_id,
            start_time=self._clock.now,
            isolation=isolation,
            explicit=explicit,
        )
        self._next_id += 1
        self._active[txn.txn_id] = txn
        return txn

    def commit(self, txn: Transaction) -> float:
        """Commit: release all locks. Returns the virtual cost charged."""
        if not txn.active:
            raise TransactionError(
                f"cannot commit transaction in state {txn.state.value}"
            )
        txn.state = TxnState.COMMITTED
        txn.end_time = self._clock.now
        released = self._locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        return self._costs.txn_commit + released * self._costs.lock_release

    def rollback(self, txn: Transaction, tables: dict[str, Any]) -> float:
        """Roll back: apply the undo log in reverse, release locks."""
        if not txn.active:
            raise TransactionError(
                f"cannot rollback transaction in state {txn.state.value}"
            )
        cost = 0.0
        for record in reversed(txn.undo_log):
            table = tables[record.table.lower()]
            if record.op == "insert":
                table.delete(record.rowid)
            elif record.op == "update":
                table.overwrite(record.rowid, record.before)
            elif record.op == "delete":
                table.restore(record.rowid, record.before)
            cost += self._costs.txn_rollback_per_undo
        txn.undo_log.clear()
        txn.state = TxnState.ABORTED
        txn.end_time = self._clock.now
        released = self._locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        return cost + released * self._costs.lock_release

    def release_statement_read_locks(self, txn: Transaction) -> float:
        """Read-committed: drop S locks taken by the finished statement."""
        if txn.isolation is not IsolationLevel.READ_COMMITTED:
            txn.statement_read_locks.clear()
            return 0.0
        count = 0
        for resource in txn.statement_read_locks:
            self._locks.release(txn.txn_id, resource)
            count += 1
        txn.statement_read_locks.clear()
        return count * self._costs.lock_release
