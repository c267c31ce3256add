"""The in-memory engine behind the :class:`ProbeDriver` interface.

This driver wraps the existing :class:`~repro.engine.server.DatabaseServer`
— the host *is* the monitored backend, so every probe is a direct read of
the structures SQLCM always consumed.  Construction is side-effect free:
nothing subscribes until :meth:`ProbeDriver.wire` runs, and the probe
reads replicate the monitor's historical access paths exactly so that a
``SQLCM(InMemoryDriver(server))`` produces the same state digest
as the pre-driver ``SQLCM(server)``.
"""

from __future__ import annotations

from repro.drivers.base import (DriverCapabilities, DriverResult,
                                ProbeDriver)
from repro.engine.planner.explain import explain_query
from repro.engine.server import DatabaseServer
from repro.errors import ReproError


class InMemoryDriver(ProbeDriver):
    """Probe driver over the package's own virtual-clock engine."""

    name = "inmemory"

    _CAPS = DriverCapabilities(
        events=True,
        plan_signatures=True,
        blocker_pairs=True,
        transactions=True,
        virtual_clock=True,
        in_engine_cost=True,
        cancel=True,
    )

    def __init__(self, server: DatabaseServer | None = None):
        super().__init__(server if server is not None else DatabaseServer())
        self._session = None
        self.statements_executed = 0

    # -- probe surfaces ----------------------------------------------------

    def capabilities(self) -> DriverCapabilities:
        return self._CAPS

    def active_queries(self) -> list:
        return self.host.active_queries()

    def active_transactions(self) -> list:
        return list(self.host.txns.active_transactions)

    def blocking_pairs(self) -> tuple[list, int]:
        server = self.host
        raw = server.locks.blocking_pairs()
        edges = len(server.locks.waits_for_edges())
        now = server.clock.now
        pairs = []
        for ticket, holder_txn, resource in raw:
            blocked_q = ticket.qctx
            blocker_q = server.current_query_of_txn(holder_txn)
            if blocked_q is None or blocker_q is None:
                continue
            wait = max(0.0, now - ticket.requested_at)
            pairs.append((blocker_q, blocked_q, resource, wait))
        return pairs, edges

    def completed_queries(self) -> list:
        return list(self.host.completed_queries)

    def execute(self, sql: str, params=None) -> DriverResult:
        if self._session is None or self._session.closed:
            self._session = self.host.create_session(
                user="dbo", application="app")
        self.statements_executed += 1
        try:
            result = self._session.execute(sql, params)
        except ReproError as err:
            # the engine already rolled back and published the failure
            # events; the driver contract reports errors, never raises
            return DriverResult(text=sql, error=str(err))
        return DriverResult(
            text=result.text,
            rows=result.rows,
            rows_affected=result.rows_affected,
            error=result.error,
            query=result.query,
        )

    def plan_text(self, sql: str) -> str:
        return explain_query(self.host, sql)

    def cancel(self, qctx) -> None:
        self.host.cancel_query(qctx)

    # -- snapshot catalog --------------------------------------------------

    def _snapshot_active_queries(self) -> list[dict]:
        now = self.host.clock.now
        return [
            {
                "query_id": q.query_id,
                "session_id": q.session_id,
                "text": q.text,
                "state": q.state.name.lower(),
                "elapsed": q.duration_at(now),
                "user": q.user,
                "application": q.application,
                "times_blocked": q.times_blocked,
                "time_blocked": q.time_blocked,
            }
            for q in self.host.active_queries()
        ]

    def _snapshot_blocking_chains(self) -> list[dict]:
        pairs, __ = self.blocking_pairs()
        return [
            {
                "blocker_query_id": blocker.query_id,
                "blocked_query_id": blocked.query_id,
                "resource": str(resource),
                "wait_seconds": wait,
            }
            for blocker, blocked, resource, wait in pairs
        ]

    def _snapshot_memory_pressure(self) -> dict:
        server = self.host
        costs = server.costs
        working = sum(
            t.page_count(costs.rows_per_page)
            for t in server.tables_by_name().values()
        )
        tables = server.tables_by_name()
        sample = next(iter(tables)) if tables else ""
        total = costs.buffer_pool_pages
        return {
            "pages_total": total,
            "pages_free": max(0, total - server.reserved_pages - working),
            "reserved_pages": server.reserved_pages,
            "working_set_pages": working,
            "hit_ratio": server.buffer_hit_ratio(sample) if sample else 1.0,
        }

    # -- introspection -----------------------------------------------------

    def backend_info(self) -> str:
        return "repro.engine.DatabaseServer (virtual clock)"

    def counters(self) -> dict:
        return {
            "statements_executed": self.statements_executed,
            "active_queries": len(self.host.active_queries()),
            "completed_queries": len(self.host.completed_queries),
            "monitor_cost_total": self.host.monitor_cost_total,
        }
