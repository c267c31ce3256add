"""Execution context: cost charging and lock acquisition for operators."""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import QueryCancelledError
from repro.sim.scheduler import WaitLock


class ExecContext:
    """Shared state for one statement execution.

    Operators call :meth:`charge` for every unit of work (the charge
    accumulates and is converted to a scheduler ``Delay`` at suspension
    points and statement end) and ``yield from`` :meth:`acquire_lock` for
    every lock.  Cancellation is checked at both points, so an SQLCM
    ``Cancel`` action takes effect at the next charge or lock acquisition.
    """

    def __init__(self, server, txn, qctx, params: dict[str, Any] | None = None):
        self.server = server
        self.txn = txn
        self.qctx = qctx
        self.params = params or {}
        self.costs = server.costs
        self._accumulated = 0.0

    # -- cost accounting --------------------------------------------------------

    def charge(self, seconds: float) -> None:
        """Accumulate virtual-time cost; honor pending cancellation."""
        self._accumulated += seconds
        if self.qctx is not None and self.qctx.cancel_requested:
            raise QueryCancelledError(
                f"query {self.qctx.query_id} cancelled during execution"
            )

    def take_cost(self) -> float:
        """Drain the accumulated cost (converted to a Delay by the session)."""
        cost = self._accumulated
        self._accumulated = 0.0
        return cost

    # -- locking -----------------------------------------------------------------

    def acquire_table_lock(self, table: str, mode: str) -> Iterator[WaitLock]:
        yield from self.acquire_lock(("table", table.lower()), mode)

    def acquire_row_lock(self, table: str, rowid: int,
                         mode: str) -> Iterator[WaitLock]:
        yield from self.acquire_lock(("row", table.lower(), rowid), mode)

    def acquire_lock(self, resource, mode: str) -> Iterator[WaitLock]:
        """Acquire a lock, suspending (yield WaitLock) if it must wait.

        Read locks (S/IS) are remembered on the transaction for
        read-committed statement-end release.
        """
        self.charge(self.costs.lock_acquire)
        ticket = self.server.locks.request(
            self.txn.txn_id, resource, mode, self.qctx
        )
        if not ticket.granted:
            if ticket.outcome is not None:
                ticket.resolve_or_raise()  # immediate deadlock → raises here
            yield WaitLock(ticket)
            ticket.resolve_or_raise()
        if mode in ("S", "IS"):
            self.txn.statement_read_locks.append(resource)

    # -- storage helpers -----------------------------------------------------------

    def table(self, name: str):
        return self.server.table(name)

    def fetch_charge(self, table_name: str) -> None:
        """Charge one row fetch at the current buffer-cache hit ratio."""
        hit = self.server.buffer_hit_ratio(table_name)
        self.charge(self.costs.fetch_cost(hit))
