"""The monitoring service: an asyncio TCP server over one engine.

One :class:`MonitorService` owns one :class:`~repro.engine.server
.DatabaseServer` + :class:`~repro.core.engine.SQLCM` pair and multiplexes
many concurrent client connections onto it.  Each connection carries one
engine :class:`~repro.engine.session.Session` (opened by the ``hello``
handshake through the existing ``create_session``/``set_authenticator``
hooks); clients submit SQL and monitoring commands as JSON-line frames
(see :mod:`repro.service.protocol`) and may subscribe to pushed
``stream_alert``/``incident`` events.

**The virtual clock stays authoritative.**  The engine never blocks the
event loop: a *pump* task steps it — advances the scheduler by exactly
``config.tick`` virtual seconds, then settles the service state (finished
statement processes become responses, the backpressure queue is
re-examined, per-connection push outboxes are flushed).  The pump steps
as soon as a statement starts and otherwise every
``config.pump_interval`` wall seconds, so a request never waits out an
idle tick.  Wall time only paces the steps: what a statement sees is set
by the ticks it spans, never by how long the pump slept between them.
Because asyncio is single-threaded, connection handlers and the pump
never race; tests stay deterministic in virtual time.

**Admission control closes the loop with the overload governor.**  Every
``sql`` request is classed (CRITICAL / NORMAL / BEST_EFFORT, defaulting
to the connection's ``hello`` declaration) and passed through
``governor.admit_request``.  Past SAMPLED the ladder starts refusing
work: a shed BEST_EFFORT request is either queued (bounded, with a
virtual-time deadline) or answered immediately with an ``overloaded``
error carrying ``retry_after`` — explicit backpressure instead of silent
queue growth, so the paper's < 4% envelope holds under live client load.
"""

from __future__ import annotations

import asyncio
import os
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.core.actions import (CancelAction, InsertAction, SendMailAction,
                                SetTimerAction, cancel_with_outcome)
from repro.core.engine import SQLCM
from repro.core.governor import NORMAL, validate_criticality
from repro.core.incidents import OpenIncidentAction
from repro.core.lat import LATDefinition
from repro.core.rules import Rule
from repro.drivers.base import from_url, resolve
from repro.engine.server import DatabaseServer, ServerConfig
from repro.errors import (ActionError, EngineError, IncidentError, LATError,
                          ProtocolError, ReproError, RuleError, SchemaError,
                          ServiceError, StreamError)
from repro.service import endpoints
from repro.service.protocol import (E_AUTH, E_BAD_REQUEST, E_DENIED,
                                    E_INTERNAL, E_OVERLOADED, E_PARSE,
                                    E_PROTOCOL, E_RECOVERING, E_SQL,
                                    E_UNSUPPORTED,
                                    MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                    SERVER_NAME, TOPICS, Push, Request,
                                    Response, decode_frame, encode_frame,
                                    parse_request)
from repro.sim.scheduler import SchedulerStalledError

#: sentinel returned by op handlers whose response is produced later by
#: the pump (executing or queued statements)
_DEFERRED = object()


@dataclass
class ServiceConfig:
    """Tunables for one service instance."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral, read .port after start
    tick: float = 0.02                # virtual seconds advanced per pump
    # idle cadence: wall seconds between pump steps while no statement
    # starts (a started statement wakes the pump at once)
    pump_interval: float = 0.001
    queue_limit: int = 16             # max queued (shed) requests
    queue_timeout: float = 1.0        # virtual seconds a queued request waits
    admin_users: tuple = ("admin",)   # users allowed to cancel other queries
    default_criticality: str = NORMAL
    # virtual seconds a connection may sit idle before the service reaps
    # it (None = never); any request — a 'ping' heartbeat is the cheapest
    # — refreshes the deadline
    idle_timeout: float | None = None
    # virtual seconds between automatic durability checkpoints (used only
    # when the service runs with a durability directory)
    checkpoint_interval: float = 30.0


@dataclass
class _Pending:
    """One in-flight statement on a connection (executing or queued)."""

    request_id: int
    proc: Any = None                  # scheduler Process, None while queued


@dataclass
class _Queued:
    """One shed request parked in the backpressure queue."""

    conn: "ClientConnection"
    request: Request
    criticality: str
    deadline: float                   # virtual time the wait expires


class ClientConnection:
    """Per-socket state: wire, session, subscriptions, push outbox."""

    def __init__(self, service: "MonitorService",
                 writer: asyncio.StreamWriter):
        self.service = service
        self.writer = writer
        self.session = None           # engine Session after hello
        self.criticality = service.config.default_criticality
        self.pending: _Pending | None = None
        self.topics: set[str] = set()
        self.outbox: list[Push] = []
        self.closed_wire = False      # reader saw EOF / socket error
        self.closing = False          # waiting for in-flight proc to settle
        # virtual time of the last request (idle-timeout bookkeeping)
        self.last_active = service.db.clock.now

    def send_frame(self, frame: dict) -> None:
        if self.closed_wire:
            return
        try:
            self.writer.write(encode_frame(frame))
        except (ConnectionError, RuntimeError):
            self.closed_wire = True

    def send_response(self, response: Response) -> None:
        self.send_frame(response.to_frame())


class MonitorService:
    """The long-running monitoring server (one engine, many clients)."""

    def __init__(self, db=None, sqlcm: SQLCM | None = None,
                 config: ServiceConfig | None = None,
                 durable_dir: str | None = None):
        self.config = config or ServiceConfig()
        # ``db`` (a DatabaseServer or a ProbeDriver) is what a monitor is
        # built over when none is handed in; a monitor brings its own
        if sqlcm is None:
            sqlcm = SQLCM(db if db is not None else DatabaseServer(
                ServerConfig(track_completed_queries=True)))
        self.sqlcm = sqlcm
        self.driver = sqlcm.driver
        self.db = self.driver.host
        # an external backend (sqlite) has no scheduler to pump and runs
        # statements synchronously instead of as engine processes
        self._external = not self.driver.capabilities().virtual_clock
        self._connections: list[ClientConnection] = []
        self._queue: list[_Queued] = []
        self._server: asyncio.base_events.Server | None = None
        self._pump_task: asyncio.Task | None = None
        # the idle pump awaits _wake; _start_statement resolves it and
        # sets _work, which also covers a start inside the pump's step
        self._wake: asyncio.Future | None = None
        self._work = False
        self._running = False
        self._incident_listener_attached = False
        self.port: int | None = None
        # supervised-restart state: "running" | "recovering"; the pump
        # walks _restart_stage 1 (detach) -> 2 (recover) between ticks
        self.state = "running"
        self.restarts = 0
        self._restart_stage = 0
        self.last_recovery = None
        # optional callable(sqlcm) run on the rebuilt monitor before the
        # checkpoint is restored (re-registers callback-based components)
        self.recovery_setup = None
        self.durable_dir = durable_dir
        self.durability = None
        # service-tier counters (the status endpoint reports these)
        self.connections_total = 0
        self.requests_total = 0
        self.requests_shed = 0
        self.requests_queued_total = 0
        self.pushes_sent = 0
        self.connections_reaped = 0
        self.db.events.subscribe("sqlcm.stream_alert", self._on_stream_alert)
        if durable_dir is not None:
            from repro.core.durability import DurabilityManager
            self.durability = DurabilityManager(
                self.sqlcm, durable_dir,
                checkpoint_interval=self.config.checkpoint_interval)
            self.durability.attach()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the pump task."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_FRAME_BYTES + 1024)
        self.port = self._server.sockets[0].getsockname()[1]
        self._running = True
        self._pump_task = asyncio.get_running_loop().create_task(
            self._pump())

    async def stop(self) -> None:
        """Stop accepting, drop connections, stop the pump."""
        self._running = False
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        for conn in list(self._connections):
            conn.closed_wire = True
            try:
                conn.writer.close()
            except RuntimeError:
                pass
            self._finalize(conn)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.durability is not None:
            self.durability.detach()
        # let connection-handler tasks observe their closed transports
        await asyncio.sleep(0)
        await asyncio.sleep(0)

    def describe(self) -> dict:
        """Service-tier counters for the ``status`` endpoint."""
        return {
            "server": SERVER_NAME,
            "protocol_version": PROTOCOL_VERSION,
            "driver": self.driver.name,
            "state": self.state,
            "restarts": self.restarts,
            "connections": len(self._connections),
            "connections_total": self.connections_total,
            "connections_reaped": self.connections_reaped,
            "requests_total": self.requests_total,
            "requests_shed": self.requests_shed,
            "requests_queued": len(self._queue),
            "requests_queued_total": self.requests_queued_total,
            "pushes_sent": self.pushes_sent,
            "tick": self.config.tick,
        }

    # -- the pump: virtual time + settlement ------------------------------

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        timer = None
        try:
            while self._running:
                self._work = False
                if self._restart_stage:
                    self._restart_step()
                self._advance()
                self._settle()
                if self._work:
                    # a statement was re-admitted inside this step: run it
                    # on the next one, after the connection readers' turn
                    await asyncio.sleep(0)
                    continue
                self._wake = loop.create_future()
                timer = loop.call_later(self.config.pump_interval,
                                        self._wake_pump)
                await self._wake
                timer.cancel()
        finally:
            # a done future left behind would make the next pump (after
            # stop()/start() or a cancellation mid-wait) spin
            if timer is not None:
                timer.cancel()
            self._wake = None

    def _wake_pump(self) -> None:
        wake = self._wake
        if wake is not None and not wake.done():
            wake.set_result(None)

    # -- supervised restart ------------------------------------------------

    def request_restart(self) -> None:
        """Ask the pump to rebuild the monitor from its durability
        directory without dropping the TCP listener.

        Thread-safe (a bare attribute store); requires the service to
        have been started with a durability directory.  Clients keep
        their sockets and subscriptions: requests arriving while the
        monitor rebuilds are refused with the ``recovering`` code, and
        pushes resume once the rebuilt monitor reattaches.
        """
        if self.durable_dir is None:
            raise ServiceError("service has no durability directory",
                               code=E_BAD_REQUEST)
        if self._restart_stage == 0:
            self._restart_stage = 1

    def _restart_step(self) -> None:
        if self._restart_stage == 1:
            # tick 1: take the old monitor off the bus.  The engine, its
            # sessions, and every client socket stay up; only the
            # monitoring brain goes away — exactly what a monitor-process
            # crash leaves behind.
            self.state = "recovering"
            if self.durability is not None:
                self.durability.detach()
                self.durability = None
            self.sqlcm.detach()
            self._incident_listener_attached = False
            self._restart_stage = 2
            return
        # tick 2: rebuild from the latest checkpoint + journal, reattach
        # durability (which starts a fresh generation), and resume.
        from repro.core.durability import DurabilityManager
        report = DurabilityManager.recover(
            self.durable_dir, self.driver, setup=self.recovery_setup)
        self.last_recovery = report
        self.sqlcm = report.sqlcm
        self.durability = DurabilityManager(
            self.sqlcm, self.durable_dir,
            checkpoint_interval=self.config.checkpoint_interval)
        self.durability.attach()
        # re-arm pushes: subscriptions live on the connections, but the
        # incident listener points at the dead manager
        if any("incident" in conn.topics for conn in self._connections):
            self._ensure_incident_listener()
        self._restart_stage = 0
        self.restarts += 1
        self.state = "running"

    def _advance(self) -> None:
        """Advance the engine by one tick of virtual time.

        A stalled scheduler (every process lock-blocked on a peer's
        future commit, and the deadlock detector found no cycle) is
        normal in a server — idle virtual time must still pass so lock
        waits age, timers stay meaningful, and incidents can resolve.
        """
        clock = self.db.clock
        target = clock.now + self.config.tick
        if self._external:
            # no scheduler to drive: backend work advances the clock on
            # its own (driver ticks); idle time still has to pass
            clock.advance_to(target)
        else:
            try:
                self.db.run(until=target)
            except SchedulerStalledError:
                pass
            if clock.now < target:
                clock.advance_to(target)
        if self.state == "recovering":
            return  # the monitor is mid-rebuild; only time passes
        if self.sqlcm.has_streams:
            # window boundaries are normally flushed by the event path;
            # during idle ticks the pump drains them so subscribed
            # clients still see alerts for windows that closed in quiet
            self.sqlcm.stream_engine().flush()
        if self.durability is not None:
            self.durability.maybe_checkpoint(clock.now)

    def _settle(self) -> None:
        self._settle_statements()
        self._settle_queue()
        self._reap_idle()
        self._flush_pushes()

    def _reap_idle(self) -> None:
        """Close connections idle past ``config.idle_timeout``.

        Virtual seconds, like every other deadline in the service; a
        ``ping`` heartbeat (or any request) refreshes the clock.  A
        reaped connection goes through the same teardown as a vanished
        client: an in-flight statement is cancelled and the engine
        session rolls back, so a mid-transaction idler cannot pin locks
        forever."""
        timeout = self.config.idle_timeout
        if timeout is None:
            return
        now = self.db.clock.now
        for conn in list(self._connections):
            if conn.closed_wire or now - conn.last_active < timeout:
                continue
            self.connections_reaped += 1
            self.db.obs.count("sqlcm.service.reaped")
            conn.closed_wire = True
            try:
                conn.writer.close()
            except RuntimeError:
                pass
            self._on_disconnect(conn)

    def _settle_statements(self) -> None:
        for conn in list(self._connections):
            pending = conn.pending
            if pending is None or pending.proc is None \
                    or not pending.proc.done:
                continue
            conn.pending = None
            if not conn.closed_wire:
                conn.send_response(self._statement_response(pending))
            if conn.closing or conn.closed_wire:
                self._finalize(conn)

    def _statement_response(self, pending: _Pending) -> Response:
        proc = pending.proc
        if proc.error is not None:
            # statement_process absorbs engine errors; anything that
            # still escaped is a server bug, reported honestly
            return Response(pending.request_id, ok=False, code=E_INTERNAL,
                            message=str(proc.error))
        result = proc.result
        if result is None or result.error:
            message = result.error if result is not None else "no result"
            return Response(pending.request_id, ok=False, code=E_SQL,
                            message=message)
        return Response(pending.request_id, ok=True, data={
            "rows": result.rows,
            "rows_affected": result.rows_affected,
        })

    def _settle_queue(self) -> None:
        now = self.db.clock.now
        still: list[_Queued] = []
        for entry in self._queue:
            conn = entry.conn
            if conn.closed_wire:
                conn.pending = None
                self._finalize(conn)
                continue
            governor = self.sqlcm.governor
            admitted, retry_after = (governor.admit_request(entry.criticality)
                                     if governor is not None else (True, 0.0))
            if admitted:
                self._start_statement(conn, entry.request)
            elif now >= entry.deadline:
                self.requests_shed += 1
                conn.pending = None
                conn.send_response(Response(
                    entry.request.id, ok=False, code=E_OVERLOADED,
                    message="request expired in the admission queue",
                    retry_after=retry_after))
            else:
                still.append(entry)
        self._queue = still

    def _flush_pushes(self) -> None:
        for conn in self._connections:
            if not conn.outbox or conn.closed_wire:
                conn.outbox.clear()
                continue
            for push in conn.outbox:
                conn.send_frame(push.to_frame())
                self.pushes_sent += 1
            conn.outbox.clear()

    # -- push sources -----------------------------------------------------

    def _on_stream_alert(self, event: str, payload: dict) -> None:
        self._push("stream_alert", dict(payload),
                   payload.get("time", self.db.clock.now))

    def _on_incident(self, payload: dict) -> None:
        self._push("incident", dict(payload),
                   payload.get("time", self.db.clock.now))

    def _push(self, topic: str, data: dict, time: float) -> None:
        for conn in self._connections:
            if topic in conn.topics and not conn.closed_wire:
                conn.outbox.append(Push(topic=topic, data=data, time=time))

    def _ensure_incident_listener(self) -> None:
        if self._incident_listener_attached:
            return
        self.sqlcm.incident_manager().add_listener(self._on_incident)
        self._incident_listener_attached = True

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = ClientConnection(self, writer)
        self._connections.append(conn)
        self.connections_total += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break
                if not line:
                    break
                self._handle_line(conn, line)
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break
        finally:
            self._on_disconnect(conn)
            try:
                writer.close()
            except RuntimeError:
                pass

    def _handle_line(self, conn: ClientConnection, line: bytes) -> None:
        line = line.strip()
        if not line:
            return
        frame = None
        try:
            frame = decode_frame(line)
            request = parse_request(frame)
        except ProtocolError as err:
            raw_id = frame.get("id") if isinstance(frame, dict) else None
            request_id = raw_id if isinstance(raw_id, int) else -1
            conn.send_response(Response(request_id, ok=False, code=E_PARSE,
                                        message=str(err)))
            return
        self.requests_total += 1
        conn.last_active = self.db.clock.now
        response = self._dispatch(conn, request)
        if response is not _DEFERRED:
            conn.send_response(response)

    def _dispatch(self, conn: ClientConnection, request: Request):
        handler = getattr(self, f"_op_{request.op}", None)
        if conn.session is None and request.op != "hello":
            return Response(request.id, ok=False, code=E_PROTOCOL,
                            message="handshake required: send 'hello' first")
        if self.state != "running" and request.op not in (
                "hello", "ping", "status", "goodbye"):
            return Response(
                request.id, ok=False, code=E_RECOVERING,
                message="monitor is recovering from a restart; retry",
                retry_after=self.config.tick * 2)
        if handler is None:
            return Response(request.id, ok=False, code=E_UNSUPPORTED,
                            message=f"unknown op {request.op!r}")
        try:
            data = handler(conn, request)
        except ProtocolError as err:
            return Response(request.id, ok=False, code=E_PROTOCOL,
                            message=str(err))
        except ServiceError as err:
            return Response(request.id, ok=False, code=err.code,
                            message=str(err), retry_after=err.retry_after)
        except (RuleError, LATError, StreamError, SchemaError,
                IncidentError, ActionError, ValueError, KeyError,
                TypeError) as err:
            return Response(request.id, ok=False, code=E_BAD_REQUEST,
                            message=str(err))
        except ReproError as err:
            return Response(request.id, ok=False, code=E_SQL,
                            message=str(err))
        except Exception as err:  # never kill the reader loop
            return Response(request.id, ok=False, code=E_INTERNAL,
                            message=str(err))
        if data is _DEFERRED:
            return _DEFERRED
        return Response(request.id, ok=True, data=data)

    def _on_disconnect(self, conn: ClientConnection) -> None:
        conn.closed_wire = True
        conn.topics.clear()
        if conn.pending is not None and conn.pending.proc is not None \
                and not conn.pending.proc.done:
            # a statement is still executing (e.g. parked on a lock):
            # cancel it; the aborting process rolls its transaction back,
            # then _settle_statements finalizes the session
            qctx = conn.session.current_query
            if qctx is not None and not qctx.finished:
                self.db.cancel_query(qctx)
            conn.closing = True
            return
        self._finalize(conn)

    def _finalize(self, conn: ClientConnection) -> None:
        """Last teardown step: close the engine session, forget the conn."""
        if conn in self._connections:
            self._connections.remove(conn)
        self._queue = [e for e in self._queue if e.conn is not conn]
        session = conn.session
        conn.session = None
        if session is None:
            return
        if self._external:
            session.close()  # driver connection teardown
        elif self.db.session(session.session_id) is not None:
            # rolls back any abandoned transaction (see
            # DatabaseServer.close_session) so locks never leak
            self.db.close_session(session)

    # -- op handlers ------------------------------------------------------

    def _op_hello(self, conn: ClientConnection, request: Request) -> dict:
        if conn.session is not None:
            raise ProtocolError("handshake already completed")
        payload = request.payload
        version = payload.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {version!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})")
        user = payload.get("user") or "dbo"
        application = payload.get("application") or "service-client"
        try:
            if self._external:
                # the backend session is a monitored driver connection;
                # external backends do their own authentication
                conn.session = self.driver.connect(
                    user=user, application=application)
            else:
                conn.session = self.db.create_session(
                    user=user,
                    application=application,
                    credential=payload.get("credential"),
                )
        except EngineError as err:
            raise ServiceError(str(err), code=E_AUTH) from None
        conn.criticality = validate_criticality(
            payload.get("criticality")
            or self.config.default_criticality)
        return {
            "server": SERVER_NAME,
            "version": PROTOCOL_VERSION,
            "session_id": conn.session.session_id,
            "time": self.db.clock.now,
        }

    def _op_ping(self, conn: ClientConnection, request: Request) -> dict:
        return {"time": self.db.clock.now}

    def _op_goodbye(self, conn: ClientConnection, request: Request) -> dict:
        # respond, then close the wire; the reader's EOF runs teardown
        conn.send_response(Response(request.id, ok=True, data={}))
        try:
            conn.writer.close()
        except RuntimeError:
            pass
        return _DEFERRED

    def _op_sql(self, conn: ClientConnection, request: Request):
        if conn.pending is not None:
            raise ProtocolError(
                "a statement is already in flight on this connection "
                "(the protocol does not pipeline)")
        sql = request.payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ServiceError("'sql' must be a non-empty string",
                               code=E_BAD_REQUEST)
        criticality = validate_criticality(
            request.payload.get("criticality") or conn.criticality)
        governor = self.sqlcm.governor
        if governor is not None:
            admitted, retry_after = governor.admit_request(criticality)
            if not admitted:
                if len(self._queue) < self.config.queue_limit:
                    conn.pending = _Pending(request.id, proc=None)
                    self._queue.append(_Queued(
                        conn=conn, request=request,
                        criticality=criticality,
                        deadline=(self.db.clock.now
                                  + self.config.queue_timeout)))
                    self.requests_queued_total += 1
                    return _DEFERRED
                self.requests_shed += 1
                raise ServiceError(
                    "service is shedding load; retry later",
                    code=E_OVERLOADED, retry_after=retry_after)
        if self._external:
            # external backends execute synchronously through the driver
            # (no engine process to park on the scheduler)
            result = conn.session.execute(
                request.payload["sql"], request.payload.get("params"))
            if result.error:
                raise ServiceError(result.error, code=E_SQL)
            return {"rows": result.rows,
                    "rows_affected": result.rows_affected}
        self._start_statement(conn, request)
        return _DEFERRED

    def _start_statement(self, conn: ClientConnection,
                         request: Request) -> None:
        session = conn.session
        sql = request.payload["sql"]
        params = request.payload.get("params") or {}
        proc = self.db.scheduler.spawn(
            f"service-s{session.session_id}-r{request.id}",
            session.statement_process(sql, params))
        # the lock manager's waker finds a session's runnable process
        # through session.process — without this, a cancelled lock wait
        # would never wake
        session.process = proc
        conn.pending = _Pending(request.id, proc=proc)
        # the one place that wakes the pump: a fresh request, or one the
        # pump's own step re-admitted from the queue
        self._work = True
        self._wake_pump()

    def _op_install_lat(self, conn: ClientConnection,
                        request: Request) -> dict:
        p = request.payload
        definition = LATDefinition(
            name=p["name"],
            monitored_class=p.get("monitored_class", "Query"),
            grouping=list(p.get("grouping") or []),
            aggregations=list(p.get("aggregations") or []),
            ordering=list(p.get("ordering") or []),
            max_rows=p.get("max_rows"),
            max_bytes=p.get("max_bytes"),
            criticality=p.get("criticality", "normal"),
        )
        self.sqlcm.create_lat(definition)
        return {"lat": definition.name}

    def _op_install_rule(self, conn: ClientConnection,
                         request: Request) -> dict:
        p = request.payload
        actions = [self._build_action(spec)
                   for spec in (p.get("actions") or [])]
        rule = Rule(
            name=p["name"],
            event=p["event"],
            condition=p.get("condition"),
            actions=actions,
            criticality=p.get("criticality", "normal"),
        )
        self.sqlcm.add_rule(rule)
        return {"rule": rule.name}

    @staticmethod
    def _build_action(spec: dict):
        kind = spec.get("type")
        if kind == "insert":
            return InsertAction(spec["lat"])
        if kind == "open_incident":
            return OpenIncidentAction(
                incident_class=spec["incident_class"],
                signature=spec["signature"],
                severity=spec.get("severity", "warning"),
                summary=spec.get("summary", ""),
            )
        if kind == "send_mail":
            return SendMailAction(text=spec.get("text", ""),
                                  address=spec.get("address", "dba"))
        if kind == "cancel":
            return CancelAction(target=spec.get("target", "Query"))
        if kind == "set_timer":
            return SetTimerAction(timer_name=spec["timer"],
                                  interval=float(spec["interval"]),
                                  repeats=int(spec.get("repeats", -1)))
        raise ActionError(f"unknown action type {kind!r}")

    def _op_remove_rule(self, conn: ClientConnection,
                        request: Request) -> dict:
        name = request.payload["name"]
        self.sqlcm.remove_rule(name)
        return {"removed": name}

    def _op_install_stream(self, conn: ClientConnection,
                           request: Request) -> dict:
        p = request.payload
        query = self.sqlcm.stream_engine().register(
            p["text"],
            name=p.get("name"),
            sink_lat=p.get("sink_lat"),
            max_alerts=int(p.get("max_alerts", 256)),
            criticality=p.get("criticality", "normal"),
        )
        return {"stream": query.spec.name}

    def _op_status(self, conn: ClientConnection, request: Request) -> dict:
        return endpoints.status_snapshot(self)

    def _op_metrics(self, conn: ClientConnection, request: Request) -> dict:
        return endpoints.metrics_snapshot(self.db)

    def _op_incidents(self, conn: ClientConnection,
                      request: Request) -> dict:
        incident_id = request.payload.get("incident_id")
        if incident_id is not None:
            incident_id = int(incident_id)
        return endpoints.incidents_endpoint(self.sqlcm, incident_id)

    def _op_investigate(self, conn: ClientConnection,
                        request: Request) -> dict:
        return endpoints.investigate_endpoint(
            self.sqlcm,
            int(request.payload["incident_id"]),
            window=float(request.payload.get("window", 5.0)),
        )

    def _op_subscribe(self, conn: ClientConnection,
                      request: Request) -> dict:
        topics = request.payload.get("topics") or []
        for topic in topics:
            if topic not in TOPICS:
                raise ServiceError(
                    f"unknown topic {topic!r}; expected one of {TOPICS}",
                    code=E_BAD_REQUEST)
        for topic in topics:
            conn.topics.add(topic)
            if topic == "incident":
                self._ensure_incident_listener()
        return {"topics": sorted(conn.topics)}

    def _op_unsubscribe(self, conn: ClientConnection,
                        request: Request) -> dict:
        for topic in request.payload.get("topics") or []:
            conn.topics.discard(topic)
        return {"topics": sorted(conn.topics)}

    def _op_restart(self, conn: ClientConnection, request: Request) -> dict:
        if conn.session.user not in self.config.admin_users:
            raise ServiceError(
                f"user {conn.session.user!r} may not restart the monitor",
                code=E_DENIED)
        self.request_restart()
        return {"state": "recovering", "restarts": self.restarts}

    def _op_cancel(self, conn: ClientConnection, request: Request) -> dict:
        if conn.session.user not in self.config.admin_users:
            raise ServiceError(
                f"user {conn.session.user!r} may not cancel queries",
                code=E_DENIED)
        query_id = int(request.payload["query_id"])
        for qctx in self.driver.active_queries():
            if qctx.query_id == query_id:
                ok = cancel_with_outcome(self.sqlcm, None, "service", qctx)
                return {"query_id": query_id, "cancelled": ok}
        raise ServiceError(f"no active query #{query_id}",
                           code=E_BAD_REQUEST)


class ServiceRunner:
    """Run a :class:`MonitorService` on a background thread.

    The synchronous harness tests/benches/the CLI need: start the asyncio
    loop in a daemon thread, block until the socket is bound, and stop it
    cleanly from the caller's thread.
    """

    def __init__(self, service: MonitorService):
        self.service = service
        self.error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()

    def start(self) -> int:
        """Start the service; returns the bound port."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="monitor-service")
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServiceError("service failed to start within 10s")
        if self.error is not None:
            raise ServiceError(f"service failed to start: {self.error}")
        return self.service.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        self._stop_event = asyncio.Event()

        async def main() -> None:
            try:
                await self.service.start()
            except BaseException as err:
                self.error = err
                self._ready.set()
                return
            self._ready.set()
            await self._stop_event.wait()
            await self.service.stop()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self._stop_event is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:
            return
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServiceRunner":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_main(argv: list[str] | None = None) -> int:
    """``python -m repro serve`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Start the SQLCM monitoring service (TCP/JSON-lines).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7433)
    parser.add_argument(
        "--driver", default=None, metavar="URL",
        help="probe-driver URL for the monitored backend "
             "(e.g. sqlite:/path/to/app.db); default: the built-in "
             "in-memory engine")
    parser.add_argument(
        "--durable", default=None, metavar="DIR",
        help="durability directory: checkpoint + journal monitor state "
             "there, recover from it on startup, and allow supervised "
             "'restart' requests")
    args = parser.parse_args(argv)

    driver = resolve(from_url(args.driver) if args.driver else DatabaseServer(
        ServerConfig(track_completed_queries=True)))
    driver.host.enable_observability()
    # a previous incarnation's checkpoint + journal (if any) becomes the
    # starting state; no directory or an empty one starts fresh
    if args.durable and os.path.isdir(args.durable) \
            and os.listdir(args.durable):
        from repro.core.durability import DurabilityManager
        report = DurabilityManager.recover(args.durable, driver)
        sqlcm = report.sqlcm
        print(f"recovered monitor state from {args.durable} "
              f"(generation {report.generation}, "
              f"{report.records_replayed} journal records)")
    else:
        sqlcm = SQLCM(driver)
    if driver.capabilities().in_engine_cost:
        # the governor's feedback loop needs monitoring cost to land in
        # the workload's own timeline; external backends can't offer that
        sqlcm.enable_governor()
    sqlcm.incident_manager()
    service = MonitorService(sqlcm=sqlcm, durable_dir=args.durable,
                             config=ServiceConfig(
                                 host=args.host, port=args.port))

    async def main() -> None:
        await service.start()
        print(f"{SERVER_NAME} v{PROTOCOL_VERSION} listening on "
              f"{args.host}:{service.port}  backend={driver.backend_info()}"
              f"  (ctrl-c to stop)")
        try:
            await service._server.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0
