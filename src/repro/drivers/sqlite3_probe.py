"""A real database behind the probe interface: sqlite3.

This driver monitors a stdlib :mod:`sqlite3` database through the three
callback hooks the library exposes:

* ``set_trace_callback`` — statement text as sqlite begins it (orphan
  detection + counters),
* ``set_authorizer`` — transaction boundaries (``SQLITE_TRANSACTION``)
  and per-statement read/write classification,
* ``set_progress_handler`` — invoked every ``progress_ops`` VM
  instructions; each invocation advances the sidecar host's virtual
  clock by ``tick_seconds`` and, by returning non-zero, implements
  asynchronous cancel.

Time is *deterministic*, not wall-clock: a query's duration is a pure
function of the sqlite VM work it performs (ticks) plus fixed
per-statement epsilons, so the accuracy-vs-interval benchmark reproduces
bit-identically in CI.  A short PK lookup finishes inside one progress
window (≈ 0 ticks) and is invisible to coarse polling; a big scan or
join accumulates hundreds of ticks — exactly the asymmetry the paper's
Figure 3 exploits.

What sqlite cannot probe, the capability flags admit:

* ``virtual_clock=False`` — there is no scheduler to interleave
  processes; polling monitors ride :meth:`add_tick_listener` instead.
* ``in_engine_cost=False`` — monitoring work cannot delay the workload
  from inside sqlite; the drained monitor-cost pool is kept as the
  *estimate* ``probe_cost`` rather than injected into query time.
* blocker detection is a **busy-handler shim**: connections run with
  ``busy_timeout=0`` so a lock conflict surfaces immediately as
  ``OperationalError: database is locked``; the driver maps it to
  ``query.blocked``/``query.block_released`` events, retries with a
  deterministic backoff, and exposes the wait through
  :meth:`blocking_pairs` and the ``blocking_chains`` snapshot.  sqlite
  locks the whole database file, so the blocked resource is always the
  database, never a finer-grained row or page.

Everything above the driver is unchanged SQLCM: events carry real
:class:`~repro.engine.query.QueryContext` objects on the sidecar host's
bus, so rules, LATs, streams, incidents, and the Top-K tracker work
against sqlite exactly as against the in-memory engine.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.signatures import digest
from repro.drivers.base import (DriverCapabilities, DriverResult,
                                ProbeDriver)
from repro.engine.query import QueryContext, QueryState
from repro.engine.server import DatabaseServer, ServerConfig
from repro.errors import DriverError

_STR_LITERAL = re.compile(r"'(?:[^']|'')*'")
_NUM_LITERAL = re.compile(r"\b\d+(?:\.\d+)?\b")
_WHITESPACE = re.compile(r"\s+")

_DML = {"INSERT", "UPDATE", "DELETE", "REPLACE"}
_TXN_WORDS = {"BEGIN", "COMMIT", "END", "ROLLBACK"}


def sql_template(sql: str) -> str:
    """Literal-free statement template (the signature grouping key)."""
    text = _STR_LITERAL.sub("?", sql)
    text = _NUM_LITERAL.sub("?", text)
    return _WHITESPACE.sub(" ", text).strip().rstrip(";").upper()


def _head_word(sql: str) -> str:
    match = re.match(r"\s*([A-Za-z]+)", sql)
    return match.group(1).upper() if match else ""


def _query_type(head: str) -> str:
    if head in ("SELECT", "INSERT", "UPDATE", "DELETE"):
        return head
    return "OTHER"


@dataclass
class _PlanEntry:
    """Per-template signature record (stands in for the engine's cached
    plan in the ``query.compile`` payload; signatures pre-filled so
    SQLCM's fill step copies instead of walking plan trees)."""

    text: str
    logical_signature: bytes
    physical_signature: bytes
    plan_rows: tuple = ()


@dataclass
class _SQLiteTxn:
    """Synthesized transaction record (sqlite exposes no txn ids)."""

    txn_id: int
    session_id: int
    start_time: float
    explicit: bool
    end_time: float | None = None
    statement_log: list = field(default_factory=list)


@dataclass
class _Wait:
    """One in-flight lock wait (feeds blocking_pairs / blocking_chains)."""

    blocked: QueryContext
    blockers: list
    resource: str
    since: float


class SQLiteConnection:
    """One monitored sqlite connection; doubles as the session object in
    ``session.*`` / ``txn.*`` event payloads (same attribute surface)."""

    def __init__(self, driver: "SQLiteDriver", session_id: int,
                 user: str, application: str):
        self.driver = driver
        self.session_id = session_id
        self.user = user
        self.application = application
        self.closed = False
        self.conn = sqlite3.connect(driver.path)
        # busy shim: fail lock waits immediately; the driver turns the
        # failure into blocked events + deterministic backoff retries
        self.conn.execute("PRAGMA busy_timeout=0")
        self.conn.isolation_level = None  # explicit txn control
        self.conn.set_progress_handler(self._on_progress,
                                       driver.progress_ops)
        self.conn.set_trace_callback(self._on_trace)
        self.conn.set_authorizer(self._on_authorize)
        self.txn: _SQLiteTxn | None = None
        self.current_query: QueryContext | None = None
        self.last_query: QueryContext | None = None

    # -- sqlite callbacks --------------------------------------------------

    def _on_progress(self) -> int:
        driver = self.driver
        if driver._in_probe:
            return 0
        driver.vm_ticks += 1
        driver._advance(driver.tick_seconds)
        driver._fire_ticks()
        qctx = self.current_query
        if qctx is not None and qctx.cancel_requested:
            return 1  # aborts the statement: "interrupted"
        return 0

    def _on_trace(self, statement: str) -> None:
        driver = self.driver
        if driver._in_probe:
            return
        driver.statements_traced += 1
        if self.current_query is None:
            # statement reached sqlite outside execute() (executescript,
            # raw cursor use): count it so coverage gaps are visible
            driver.orphan_statements += 1

    def _on_authorize(self, action, arg1, arg2, dbname, source) -> int:
        driver = self.driver
        if not driver._in_probe:
            if action == sqlite3.SQLITE_TRANSACTION:
                driver.txn_ops += 1
            elif action == sqlite3.SQLITE_READ:
                driver.read_ops += 1
            elif action in (sqlite3.SQLITE_INSERT, sqlite3.SQLITE_UPDATE,
                            sqlite3.SQLITE_DELETE):
                driver.write_ops += 1
        return sqlite3.SQLITE_OK

    # -- statement execution ----------------------------------------------

    def execute(self, sql: str, params=None) -> DriverResult:
        if self.closed:
            raise DriverError("connection is closed")
        head = _head_word(sql)
        if head in _TXN_WORDS:
            return self._execute_txn_control(sql, head)
        return self._execute_statement(sql, params, head)

    def _execute_txn_control(self, sql: str, head: str) -> DriverResult:
        """BEGIN/COMMIT/ROLLBACK: transaction events, no query context
        (mirrors the in-memory engine, where control statements are not
        queries)."""
        driver = self.driver
        host = driver.host
        driver._advance(driver.statement_epsilon)
        try:
            self.conn.execute(sql)
        except sqlite3.Error as exc:
            return DriverResult(text=sql, error=str(exc))
        if head == "BEGIN":
            self.txn = _SQLiteTxn(
                txn_id=driver._next_txn_id(),
                session_id=self.session_id,
                start_time=host.clock.now,
                explicit=True,
            )
            host.events.publish("txn.begin",
                                {"txn": self.txn, "session": self})
        elif self.txn is not None:
            txn = self.txn
            self.txn = None
            txn.end_time = host.clock.now
            name = "txn.commit" if head in ("COMMIT", "END") \
                else "txn.rollback"
            host.publish_txn_event(name, txn, self)
            driver.probe_cost += host.take_monitor_cost()
        return DriverResult(text=sql)

    def _execute_statement(self, sql: str, params,
                           head: str) -> DriverResult:
        driver = self.driver
        host = driver.host
        driver._advance(driver.statement_epsilon)

        qctx = QueryContext(
            query_id=driver._next_query_id(),
            session_id=self.session_id,
            text=sql,
            params=dict(params) if isinstance(params, dict) else {},
            application=self.application,
            user=self.user,
            query_type=_query_type(head),
        )
        qctx.start_time = host.clock.now
        driver._active[qctx.query_id] = qctx
        self.current_query = qctx
        host.events.publish("query.start", {"query": qctx})

        entry, cached = driver._plan_entry(self, sql)
        if entry is not None:
            host.events.publish("query.compile", {
                "query": qctx, "cached": cached, "entry": entry,
            })
            # no SQLCM wired: copy what its fill step would have copied
            if qctx.logical_signature is None:
                qctx.logical_signature = entry.logical_signature
                qctx.physical_signature = entry.physical_signature
        qctx.state = QueryState.RUNNING

        rows, error, state = self._run_with_busy_shim(qctx, sql, params,
                                                      head)
        driver._advance(driver.statement_epsilon)
        self._finish(qctx, state, rows, error)
        self.last_query = qctx
        self.current_query = None
        driver.probe_cost += host.take_monitor_cost()
        return DriverResult(
            text=sql, rows=rows, rows_affected=qctx.rows_affected,
            error=error, query=qctx,
        )

    def _run_with_busy_shim(self, qctx: QueryContext, sql: str, params,
                            head: str):
        """Execute with the blocked-query protocol: busy errors become
        blocked events + deterministic backoff retries."""
        driver = self.driver
        host = driver.host
        bind = params if params is not None else ()
        attempt = 0
        wait: _Wait | None = None
        while True:
            try:
                cursor = self.conn.execute(sql, bind)
                rows = cursor.fetchall() if cursor.description else []
                if head in _DML:
                    qctx.rows_affected = max(0, cursor.rowcount)
                if qctx.query_type == "SELECT":
                    qctx.result_rows = rows
                if wait is not None:
                    self._release_wait(qctx, wait)
                return rows, None, QueryState.COMMITTED
            except sqlite3.OperationalError as exc:
                message = str(exc)
                lowered = message.lower()
                if "interrupted" in lowered or qctx.cancel_requested:
                    if wait is not None:
                        self._abandon_wait(qctx, wait)
                    return [], message, QueryState.CANCELLED
                if "locked" not in lowered and "busy" not in lowered:
                    if wait is not None:
                        self._abandon_wait(qctx, wait)
                    return [], message, QueryState.FAILED
                if wait is None:
                    wait = self._enter_wait(qctx)
                attempt += 1
                driver.busy_retries_total += 1
                if attempt >= driver.busy_retries:
                    self._abandon_wait(qctx, wait)
                    return [], message, QueryState.FAILED
                driver._advance(driver.busy_backoff)
                driver._fire_ticks()
                hook = driver.busy_hook
                if hook is not None:
                    hook(driver, qctx, attempt)
            except sqlite3.Error as exc:
                if wait is not None:
                    self._abandon_wait(qctx, wait)
                return [], str(exc), QueryState.FAILED

    # -- blocked-query protocol -------------------------------------------

    def _enter_wait(self, qctx: QueryContext) -> _Wait:
        driver = self.driver
        host = driver.host
        resource = f"db:{driver.path}"
        qctx.state = QueryState.BLOCKED
        qctx.times_blocked += 1
        qctx.blocked_on = resource
        blockers = driver._find_blockers(self)
        for blocker in blockers:
            blocker.queries_blocked += 1
        wait = _Wait(blocked=qctx, blockers=blockers, resource=resource,
                     since=host.clock.now)
        driver._waits[qctx.query_id] = wait
        host.events.publish("query.blocked", {
            "query": qctx, "resource": resource, "blockers": blockers,
        })
        return wait

    def _release_wait(self, qctx: QueryContext, wait: _Wait) -> None:
        driver = self.driver
        host = driver.host
        waited = max(0.0, host.clock.now - wait.since)
        qctx.time_blocked += waited
        qctx.blocked_on = None
        qctx.state = QueryState.RUNNING
        blocker = wait.blockers[0] if wait.blockers else None
        if blocker is not None:
            blocker.time_blocking_others += waited
        driver._waits.pop(qctx.query_id, None)
        host.events.publish("query.block_released", {
            "query": qctx, "blocker": blocker,
            "resource": wait.resource, "wait_time": waited,
        })

    def _abandon_wait(self, qctx: QueryContext, wait: _Wait) -> None:
        """The blocked query dies without acquiring the lock."""
        driver = self.driver
        qctx.time_blocked += max(0.0,
                                 driver.host.clock.now - wait.since)
        qctx.blocked_on = None
        driver._waits.pop(qctx.query_id, None)

    # -- completion --------------------------------------------------------

    def _finish(self, qctx: QueryContext, state: QueryState,
                rows: list, error: str | None) -> None:
        """Mirror ``server.finish_query`` + the autocommit txn event."""
        driver = self.driver
        host = driver.host
        qctx.state = state
        qctx.end_time = host.clock.now
        qctx.error = error
        driver._active.pop(qctx.query_id, None)
        driver._completed.append(qctx)
        event = {
            QueryState.COMMITTED: "query.commit",
            QueryState.CANCELLED: "query.cancel",
            QueryState.FAILED: "query.rollback",
        }[state]
        host.events.publish(event, {"query": qctx})
        if self.txn is not None:
            qctx.txn_id = self.txn.txn_id
            self.txn.statement_log.append(qctx)
        elif state is QueryState.COMMITTED:
            # autocommit: synthesize the implicit transaction's commit,
            # as the in-memory engine publishes after query.commit
            txn = _SQLiteTxn(
                txn_id=driver._next_txn_id(),
                session_id=self.session_id,
                start_time=qctx.start_time,
                explicit=False,
                end_time=qctx.end_time,
            )
            txn.statement_log.append(qctx)
            qctx.txn_id = txn.txn_id
            host.publish_txn_event("txn.commit", txn, self)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.driver._connections.remove(self)
        self.driver.host.events.publish("session.logout",
                                        {"session": self})
        self.conn.close()


class SQLiteDriver(ProbeDriver):
    """Probe driver over a real sqlite3 database file.

    The *host* is a sidecar :class:`DatabaseServer` that contributes the
    virtual clock, the event bus, the monitor-cost ledger, and storage
    for ``Persist`` targets — sqlite itself holds the workload data.
    """

    name = "sqlite"

    _CAPS = DriverCapabilities(
        events=True,
        plan_signatures=True,
        blocker_pairs=True,
        transactions=True,
        virtual_clock=False,
        in_engine_cost=False,
        cancel=True,
    )

    def __init__(self, path: str, host: DatabaseServer | None = None,
                 progress_ops: int = 50, tick_seconds: float = 0.0005,
                 statement_epsilon: float = 1e-6,
                 busy_retries: int = 25, busy_backoff: float = 0.002):
        if host is None:
            host = DatabaseServer(
                ServerConfig(track_completed_queries=False))
        super().__init__(host)
        self.path = path
        self.progress_ops = progress_ops
        self.tick_seconds = tick_seconds
        self.statement_epsilon = statement_epsilon
        self.busy_retries = busy_retries
        self.busy_backoff = busy_backoff
        #: test/workload hook called on every busy retry:
        #: ``fn(driver, blocked_qctx, attempt)`` — lets a harness make
        #: the blocker commit while another statement waits
        self.busy_hook: Callable | None = None
        self._qid = 0
        self._txn_id = 0
        self._session_id = 0
        self._active: dict[int, QueryContext] = {}
        self._completed: list[QueryContext] = []
        self._waits: dict[int, _Wait] = {}
        self._plan_cache: dict[str, _PlanEntry] = {}
        self._tick_listeners: list[Callable] = []
        self._in_probe = False
        self._connections: list[SQLiteConnection] = []
        # counters (surface of .driver / describe())
        self.vm_ticks = 0
        self.statements_traced = 0
        self.orphan_statements = 0
        self.busy_retries_total = 0
        self.txn_ops = 0
        self.read_ops = 0
        self.write_ops = 0
        self.probe_cost = 0.0
        self._primary = self.connect(user="dbo", application="app")

    # -- connections -------------------------------------------------------

    def connect(self, user: str = "dbo",
                application: str = "app") -> SQLiteConnection:
        """Open a monitored connection (a session in event terms)."""
        self._session_id += 1
        conn = SQLiteConnection(self, self._session_id, user, application)
        self._connections.append(conn)
        self.host.events.publish("session.login", {"session": conn})
        return conn

    # -- id allocation / clock ---------------------------------------------

    def _next_query_id(self) -> int:
        self._qid += 1
        return self._qid

    def _next_txn_id(self) -> int:
        self._txn_id += 1
        return self._txn_id

    def _advance(self, dt: float) -> None:
        self.host.clock.advance(dt)

    def _fire_ticks(self) -> None:
        if not self._tick_listeners:
            return
        # listeners must not recurse into sqlite (their reads are pure
        # snapshot probes); the guard also keeps their EXPLAIN-free
        self._in_probe = True
        try:
            now = self.host.clock.now
            for listener in list(self._tick_listeners):
                listener(now)
        finally:
            self._in_probe = False

    def add_tick_listener(self, listener: Callable) -> None:
        self._tick_listeners.append(listener)

    # -- probe surfaces ----------------------------------------------------

    def capabilities(self) -> DriverCapabilities:
        return self._CAPS

    def active_queries(self) -> list:
        return list(self._active.values())

    def active_transactions(self) -> list:
        return [c.txn for c in self._connections if c.txn is not None]

    def blocking_pairs(self) -> tuple[list, int]:
        now = self.host.clock.now
        pairs = []
        for wait in self._waits.values():
            for blocker in wait.blockers:
                pairs.append((blocker, wait.blocked, wait.resource,
                              max(0.0, now - wait.since)))
        return pairs, len(self._waits)

    def completed_queries(self) -> list:
        return list(self._completed)

    def execute(self, sql: str, params=None) -> DriverResult:
        return self._primary.execute(sql, params)

    def _find_blockers(self, waiter: SQLiteConnection) -> list:
        """Connections holding the database lock the waiter wants."""
        blockers = []
        for conn in self._connections:
            if conn is waiter or conn.closed:
                continue
            if conn.conn.in_transaction:
                held_by = None
                if conn.txn is not None and conn.txn.statement_log:
                    held_by = conn.txn.statement_log[-1]
                elif conn.last_query is not None:
                    held_by = conn.last_query
                if held_by is not None:
                    blockers.append(held_by)
        return blockers

    # -- plans and signatures ----------------------------------------------

    def _plan_entry(self, conn: SQLiteConnection,
                    sql: str) -> tuple[_PlanEntry | None, bool]:
        template = sql_template(sql)
        entry = self._plan_cache.get(template)
        if entry is not None:
            return entry, True
        plan_rows = self._explain_rows(conn, sql)
        logical = digest(f"sqlite|logical|{template}")
        physical = digest("sqlite|physical|" + template + "|"
                          + "|".join(plan_rows))
        # charge the signature computation like the engine would
        self.host.add_monitor_cost(
            self.host.costs.signature_per_node * (1 + len(plan_rows)))
        entry = _PlanEntry(
            text=template,
            logical_signature=logical,
            physical_signature=physical,
            plan_rows=tuple(plan_rows),
        )
        self._plan_cache[template] = entry
        return entry, False

    def _explain_rows(self, conn: SQLiteConnection,
                      sql: str) -> list[str]:
        self._in_probe = True  # probe work must not tick the clock
        try:
            cursor = conn.conn.execute("EXPLAIN QUERY PLAN " + sql)
            return [str(row[-1]) for row in cursor.fetchall()]
        except sqlite3.Error:
            return []  # DDL / unplannable statements sign on template only
        finally:
            self._in_probe = False

    def plan_text(self, sql: str) -> str:
        rows = self._explain_rows(self._primary, sql)
        header = f"EXPLAIN QUERY PLAN {sql_template(sql)}"
        return "\n".join([header] + ["  " + row for row in rows])

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
            for q in self._active.values()
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
        self._in_probe = True
        try:
            conn = self._primary.conn
            page_count = conn.execute("PRAGMA page_count").fetchone()[0]
            page_size = conn.execute("PRAGMA page_size").fetchone()[0]
            freelist = conn.execute("PRAGMA freelist_count").fetchone()[0]
            cache_pages = conn.execute("PRAGMA cache_size").fetchone()[0]
        finally:
            self._in_probe = False
        return {
            "pages_total": page_count,
            "pages_free": freelist,
            "page_size": page_size,
            "cache_pages": cache_pages,
            "bytes_on_disk": page_count * page_size,
        }

    # -- introspection -----------------------------------------------------

    def backend_info(self) -> str:
        return f"sqlite3 {sqlite3.sqlite_version} @ {self.path}"

    def counters(self) -> dict:
        return {
            "statements_traced": self.statements_traced,
            "orphan_statements": self.orphan_statements,
            "vm_ticks": self.vm_ticks,
            "busy_retries_total": self.busy_retries_total,
            "txn_ops": self.txn_ops,
            "read_ops": self.read_ops,
            "write_ops": self.write_ops,
            "plan_templates": len(self._plan_cache),
            "active_queries": len(self._active),
            "completed_queries": len(self._completed),
            "probe_cost_estimate": self.probe_cost,
        }

    def close(self) -> None:
        for conn in list(self._connections):
            conn.close()
