"""The continuous stream-query engine.

Registered queries hear the same :class:`~repro.engine.events.EventBus` hook
points as the ECA rule engine — through it: the monitor is the bus's one
subscriber, and hands each event to its stream queries after its rules —
and run synchronously in the triggering query's execution path, charging
the monitor-cost pool exactly like rules do
("pay only for what you monitor").  Each event updates one pane of each
matching query's window state (O(#aggregates)); window results are emitted
lazily when the virtual clock crosses a pane boundary, by merging panes —
never by rescanning events.

Queries of one *pane shape* — event, window, WHERE text, GROUP BY
attributes and AGG (function, attribute) pairs — share one
:class:`PaneGroup`: the event is folded into its panes once and each
window merged once, while every member charges, filters and publishes as
if it were alone (DESIGN.md section 7, "Shared panes").

Alerts close the loop three ways:

* kept in the query's bounded in-memory ring (``StreamQuery.alerts``);
* published as a ``sqlcm.stream_alert`` meta-event, which ECA rules
  subscribe to as ``StreamAlert.Alert`` (an alert can send mail, insert
  into a LAT, cancel a query — the full action vocabulary);
* optionally inserted into a sink LAT defined over the StreamAlert class.

Failure semantics mirror the rule engine's fault-isolation layer: ingest
and window emission each run inside an isolation boundary (fault sites
``stream.eval`` and ``stream.window``, registered with the injector at
engine construction), failures charge the clock and feed a per-query
circuit breaker, and a faulted window boundary is *lost, not retried* —
the boundary cursor always advances, so one poisoned window cannot wedge
the stream.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core import state
from repro.core.actions import InsertAction
from repro.core.aggregates import aggregate_function
from repro.core.governor import validate_criticality
from repro.core.resilience import (QuarantinePolicy, RuleHealthRegistry,
                                   register_fault_sites)
from repro.errors import DurabilityError, StreamError
from repro.obs.observability import NULL_OBS
from repro.stream.anomaly import (DeviationOperator, DeviationSpec,
                                  TopKOperator, TopKSpec)
from repro.stream.language import StreamSpec, parse_stream_query
from repro.stream.windows import WindowState

_SIGNATURE_HINTS = ("logical_signature", "physical_signature",
                    "number_of_instances")

STREAM_FAULT_SITES = ("stream.eval", "stream.window")

register_fault_sites(*STREAM_FAULT_SITES)


def pane_shape(spec: StreamSpec) -> tuple:
    """What queries sharing panes have in common: everything that decides
    which events reach a pane and what a pane holds."""
    return (spec.engine_event, spec.window,
            None if spec.where is None else spec.where.text,
            tuple(g.attribute for g in spec.groups),
            tuple((a.func.upper(), a.attribute) for a in spec.aggs))


class PaneGroup:
    """The stream queries of one pane shape sharing one window state and
    one boundary cursor.

    Every member has ingested the same events and taken the same windows,
    so the group folds an event into ``window`` once and merges a window
    once, and each member then charges, filters and publishes it as its
    own.  A member about to do otherwise — disabled, quarantined, shed, hit
    by a fault — leaves first for a group of its own, holding its panes
    (:meth:`StreamEngine._split`); it never comes back.

    While a shared group flushes, ``steps`` logs each move of the cursor —
    ``(boundary, window)`` for a window the panes gave (see :meth:`take`),
    ``(cursor, None)`` for a skip — and ``progress`` counts the steps each
    member has taken, so later members reuse the windows, and
    :meth:`state_at` rebuilds a member that leaves part-way from
    ``origin``, the cursor and panes the flush began with.
    """

    __slots__ = ("window", "next_boundary", "members", "flush", "origin",
                 "steps", "progress")

    def __init__(self, window: WindowState, members: list):
        self.window = window
        self.next_boundary: int | None = None
        self.members = members
        self.flush = 0  # serial of the flush whose log is open; 0: none
        self.origin: tuple | None = None
        self.steps: list[tuple] = []
        self.progress: dict = {}

    @property
    def fresh(self) -> bool:
        """Nothing ingested yet: a new query of the shape may join."""
        return self.next_boundary is None and not self.window.update_ops

    def open(self, serial: int) -> None:
        """Start the flush log at the cursor and panes as they stand."""
        self.flush = serial
        self.origin = (self.next_boundary, self.window.panes())
        self.steps.clear()
        self.progress.clear()

    def close(self) -> None:
        self.flush = 0
        self.origin = None
        self.steps.clear()
        self.progress.clear()

    def take(self, query, boundary: int, step: tuple | None) -> tuple:
        """``query`` takes the window at ``boundary``: ``step``, taken by
        an earlier member, or — at the head of the log — the panes' own,
        which moves the cursor past it.  Returns ``(rows, combine_ops,
        {column names: named rows})``; the members share the named rows
        of the window when they name its columns alike."""
        if step is not None:
            self.progress[query] = self.progress.get(query, 0) + 1
            return step
        step = (*self.window.emit(boundary), {})
        self.next_boundary = boundary + 1
        if self.flush:
            self.steps.append((boundary, step))
            self.progress[query] = len(self.steps)
        return step

    def skip(self, query, cursor: int) -> None:
        """Move the cursor to ``cursor`` past boundaries that see no pane."""
        self.next_boundary = cursor
        if self.flush:
            self.steps.append((cursor, None))
            self.progress[query] = len(self.steps)

    def state_at(self, pos: int) -> tuple[WindowState, int | None]:
        """A private copy of the panes and cursor of a member that has
        taken the first ``pos`` steps of the flush log."""
        if pos == len(self.steps):
            return self.window.copy(), self.next_boundary
        cursor, panes = self.origin
        window = self.window.copy(panes)
        for boundary, step in self.steps[:pos]:
            if step is None:
                cursor = boundary
            else:
                window.emit(boundary)
                cursor = boundary + 1
        return window, cursor


class StreamQuery:
    """One registered continuous query: spec + pane group + operators."""

    # the registration (spec text, sink, criticality, ring size) and the
    # child holders are saved by the checkpoint walk; the pane group is
    # rebuilt at registration, its window and cursor saved per member
    STATE = (
        *state.fields(sum, "events_seen", "events_ingested",
                      "where_rejected", "windows_emitted", "alert_count",
                      "errors"),
        *state.fields(state.first, "enabled", "next_boundary", "last_error"),
        # the alert ring is saved as window rows and rebuilt by ``alert``;
        # per-shard rings have no merge order: the control's is kept
        *state.walked("spec", "sink_lat", "criticality", "window",
                      "deviation", "topk", "alerts"),
        *state.transient("panes", "columns"),
    )

    def __init__(self, spec: StreamSpec, panes: PaneGroup,
                 sink_lat: str | None = None, max_alerts: int = 256,
                 criticality: str = "normal"):
        self.spec = spec
        self.panes = panes
        # the names of a window row's columns: GROUP BY, then AGG aliases
        self.columns = (tuple(g.alias for g in spec.groups)
                        + tuple(a.alias for a in spec.aggs))
        self.sink_lat = sink_lat
        self.criticality = validate_criticality(criticality)
        self.deviation: DeviationOperator | None = None
        self.topk: TopKOperator | None = None
        if isinstance(spec.anomaly, DeviationSpec):
            self.deviation = DeviationOperator(spec.anomaly)
        elif isinstance(spec.anomaly, TopKSpec):
            self.topk = TopKOperator(spec.anomaly)
        self.enabled = True
        self.alerts: deque = deque(maxlen=max_alerts)
        self.events_seen = 0
        self.events_ingested = 0
        self.where_rejected = 0
        self.windows_emitted = 0
        self.alert_count = 0
        self.errors = 0
        self.last_error: str | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def window(self) -> WindowState:
        return self.panes.window

    @property
    def next_boundary(self) -> int | None:
        """Pane boundary of the next window to emit; None until the first
        event."""
        return self.panes.next_boundary

    @next_boundary.setter
    def next_boundary(self, value: int | None) -> None:
        self.panes.next_boundary = value

    def alert(self, kind: str, key: tuple, row: dict, window_end: float,
              time: float, *anomaly: Any) -> dict:
        """The alert of ``kind`` on window row ``row`` of group ``key``.
        ``anomaly`` holds what the row does not determine: ``value,
        baseline, sigma`` of a deviation, ``rank`` of a top-k; every other
        field derives from the query.  Publishing and checkpoint recovery
        both build alerts here, so a recovered alert is the live one."""
        spec = self.spec
        baseline = sigma = rank = None
        if kind == "deviation":
            column = self.deviation.spec.column
            value, baseline, sigma = anomaly
        else:
            if kind == "topk":
                column = self.topk.spec.column
                rank, = anomaly
            else:
                column = spec.aggs[0].alias
            value = row.get(column)
        return {
            "stream": spec.name,
            "kind": kind,
            "group": ", ".join(str(v) for v in key) if key else None,
            "key": key,
            "column": column,
            "value": value,
            "baseline": baseline,
            "sigma": sigma,
            "rank": rank,
            "window_start": window_end - spec.window.length,
            "window_end": window_end,
            "time": time,
            "row": dict(row),
        }

    def describe(self) -> dict[str, Any]:
        """Flat stats snapshot (CLI ``.streams`` / report rows)."""
        members = self.panes.members
        return {
            "name": self.spec.name,
            "event": self.spec.event_spec,
            "window": (f"{self.spec.window.kind}"
                       f"({self.spec.window.length:g}"
                       f"/{self.spec.window.hop:g})"),
            "groups": self.window.group_count,
            "seen": self.events_seen,
            "ingested": self.events_ingested,
            "windows": self.windows_emitted,
            "alerts": self.alert_count,
            "errors": self.errors,
            # the first member of a shared pane group, None when alone
            "panes": members[0].spec.name if len(members) > 1 else None,
        }


class StreamEngine:
    """All stream queries of one SQLCM instance, sharing its event bus,
    cost pool, fault injector, and virtual clock."""

    STATE = (
        *state.fields(sum, "events_seen", "alerts_published",
                      "errors"),
        *state.walked("_queries", "health"),
        *state.transient("_sqlcm", "server", "_by_event", "_subscribed",
                         "_shapes", "_in_emit", "_flush_serial", "_opened"),
    )

    def __init__(self, sqlcm, quarantine: QuarantinePolicy | None = None):
        self._sqlcm = sqlcm
        self.server = sqlcm.server
        self._queries: dict[str, StreamQuery] = {}
        self._by_event: dict[str, list[StreamQuery]] = {}
        self._subscribed: set[str] = set()
        # the newest pane group of each shape: one a new query may join
        self._shapes: dict[tuple, PaneGroup] = {}
        self.health = RuleHealthRegistry(quarantine)
        self._in_emit = False
        self._flush_serial = 0
        self._opened: list[PaneGroup] = []  # groups logging this flush
        self.events_seen = 0
        self.alerts_published = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # query management
    # ------------------------------------------------------------------

    def register(self, text: str, *, name: str | None = None,
                 sink_lat: str | None = None,
                 max_alerts: int = 256,
                 criticality: str = "normal") -> StreamQuery:
        """Parse, validate, and activate one stream query.  It shares the
        panes of the queries of its shape if their group has ingested
        nothing yet; otherwise it starts a group, with empty panes."""
        spec = parse_stream_query(text, name=name, schema=self._sqlcm.schema)
        key = spec.name.lower()
        if key in self._queries:
            raise StreamError(f"stream query {spec.name!r} already exists")
        if sink_lat is not None:
            lat = self._sqlcm.lat(sink_lat)  # raises LATError if unknown
            if lat.definition.monitored_class.lower() != "streamalert":
                raise StreamError(
                    f"sink LAT {sink_lat!r} must be defined over the "
                    f"StreamAlert class, not "
                    f"{lat.definition.monitored_class!r}")
        shape = pane_shape(spec)
        group = self._shapes.get(shape)
        if group is None or not group.fresh:
            group = self._shapes[shape] = PaneGroup(WindowState(
                spec.window, [aggregate_function(a.func) for a in spec.aggs]),
                [])
        query = StreamQuery(spec, group, sink_lat=sink_lat,
                            max_alerts=max_alerts, criticality=criticality)
        group.members.append(query)
        self._queries[key] = query
        self._by_event.setdefault(spec.engine_event, []).append(query)
        # the monitor hands the queries their events: it subscribes to an
        # event its rule hooks do not cover.  A monitor fed explicitly (a
        # replay shard) never touches the bus
        sqlcm = self._sqlcm
        event = spec.engine_event
        if sqlcm.bus_subscribed and event not in self._subscribed and \
                event not in sqlcm.SUBSCRIBED_EVENTS + ("query.compile",):
            self.server.events.subscribe(event, sqlcm._on_engine_event)
            self._subscribed.add(event)
        self._sqlcm.invalidate_signature_cache()
        if self._sqlcm.journal is not None:
            self._sqlcm.journal.stream_registered(query)
        return query

    def remove(self, name: str) -> None:
        query = self._queries.pop(name.lower(), None)
        if query is None:
            raise StreamError(f"unknown stream query {name!r}")
        self._by_event[query.spec.engine_event].remove(query)
        group = query.panes
        self._split(group, [query], group.progress.get(query, 0))
        # the health record goes with the query: a later query reusing the
        # name must not inherit error counts or quarantine state
        self.health.drop(query.spec.name)
        if self._sqlcm.governor is not None:
            self._sqlcm.governor.forget_stream(query.spec.name)
        self._sqlcm.invalidate_signature_cache()
        if self._sqlcm.journal is not None:
            self._sqlcm.journal.append("stream_remove",
                                       {"name": query.spec.name})

    def detach(self) -> None:
        """Unsubscribe from the host bus (supervised restart teardown)."""
        for event in self._subscribed:
            self.server.events.unsubscribe(event, self._sqlcm._on_engine_event)
        self._subscribed.clear()

    def query(self, name: str) -> StreamQuery:
        try:
            return self._queries[name.lower()]
        except KeyError:
            raise StreamError(f"unknown stream query {name!r}") from None

    def queries(self) -> list[StreamQuery]:
        return list(self._queries.values())

    def enable(self, name: str, enabled: bool = True) -> None:
        self.query(name).enabled = enabled

    def quarantined_queries(self) -> list[str]:
        quarantined = {h.name for h in self.health.quarantined()}
        return [q.spec.name for q in self._queries.values()
                if q.spec.name.lower() in quarantined]

    def release_quarantine(self, name: str) -> None:
        self.query(name)  # raises on unknown name
        self.health.release(name)

    @property
    def signatures_needed(self) -> bool:
        """Some query groups/aggregates/filters on a signature attribute."""
        for query in self._queries.values():
            spec = query.spec
            attrs = [g.attribute.lower() for g in spec.groups]
            attrs += [a.attribute.lower() for a in spec.aggs
                      if a.attribute is not None]
            if any(a in _SIGNATURE_HINTS for a in attrs):
                return True
            # bound references, not a text scan (aliases or string
            # literals mentioning "signature" must not force signatures)
            if spec.where is not None and \
                    spec.where.attributes & set(_SIGNATURE_HINTS):
                return True
        return False

    # ------------------------------------------------------------------
    # pane groups: members leaving
    # ------------------------------------------------------------------

    def _split(self, group: PaneGroup, members: list,
               pos: int | None = None) -> PaneGroup:
        """``members`` leave ``group`` for a group of their own, with the
        panes and cursor they hold: those of a member that took ``pos``
        steps of the group's flush log (all of them by default)."""
        window, cursor = group.state_at(
            len(group.steps) if pos is None else pos)
        split = PaneGroup(window, members)
        split.next_boundary = cursor
        for member in members:
            group.members.remove(member)
            member.panes = split
        return split

    def _settle(self, queries: list[StreamQuery]) -> None:
        """An event reaching pane groups in the middle of their flush:
        members that have not yet taken every window the flush gave their
        group leave it, since the event lands in their panes before those
        windows do."""
        serial = self._flush_serial
        for group in {query.panes: None for query in queries}:
            if group.flush != serial:
                continue
            behind: dict[int, list] = {}
            for member in group.members:
                pos = group.progress.get(member, 0)
                if pos < len(group.steps):
                    behind.setdefault(pos, []).append(member)
            for pos, members in behind.items():
                self._split(group, members, pos)

    def _observe(self, group: PaneGroup, members: list, key: tuple,
                 values: list, now: float) -> None:
        """``members`` of ``group`` took ``key`` and ``values`` at
        ``now``: the other members leave, then the panes fold them once."""
        if len(members) < len(group.members):
            self._split(group, [member for member in group.members
                                if member not in members])
        group.window.observe(key, values, now)
        if group.next_boundary is None:
            group.next_boundary = group.window.spec.pane_index(now) + 1

    # ------------------------------------------------------------------
    # event path: flush due boundaries, then ingest
    # ------------------------------------------------------------------

    def ingest(self, queries: list[StreamQuery], context: dict | None
               ) -> None:
        """One engine event, from the monitor after its rules: ``queries``
        are those over the event, ``context`` the event's objects.

        Each query, in registration order, takes the event: its gates,
        charges and counters are its own; what its pane group takes is
        worked out by the first member that gets there, and folded into
        the group's panes once, after the loop."""
        self.events_seen += 1
        now = self.server.clock.now
        # windows whose end time has passed close *before* the new event is
        # applied, so an event at t never lands in a window ending <= t
        if not self._in_emit:
            self._flush(now)
        obs = self.server.obs
        health = self.health
        governor = self._sqlcm.governor
        if self._in_emit:
            self._settle(queries)
        # pane group -> [key, values, members that took them], or () when
        # WHERE rejected the event
        taken: dict[PaneGroup, Any] = {}
        for query in list(queries):
            query.events_seen += 1
            if not query.enabled:
                continue
            if not health.all_clear and \
                    not health.allow(query.spec.name, now):
                continue
            if governor is not None and not governor.admit_stream(query):
                continue
            if obs is NULL_OBS:
                self._ingest(query, context, now, taken)
            else:
                with obs.attrib("stream", query.spec.name):
                    self._ingest(query, context, now, taken)
        for group, taking in taken.items():
            if not taking:
                continue
            key, values, members = taking
            self._observe(group, members, key, values, now)
            if group.flush:
                # in the middle of the group's flush: it goes on from here
                group.open(group.flush)

    def _ingest(self, query: StreamQuery, context: dict | None, now: float,
                taken: dict) -> None:
        """One query's ingest inside its isolation boundary."""
        try:
            if self._sqlcm.faults is not None:
                self._sqlcm.check_fault("stream.eval")
            self._take(query, context, now, taken)
        except Exception as err:
            self._record_failure(query, "stream.eval", err)

    def _take(self, query: StreamQuery, context: dict | None, now: float,
              taken: dict) -> None:
        spec = query.spec
        server = self.server
        costs = server.costs
        server.add_monitor_cost(costs.stream_ingest)
        obj = None if context is None else context.get(spec.class_key)
        if obj is None:
            return
        if spec.where is not None:
            server.add_monitor_cost(
                costs.stream_where_atomic * spec.where.atomic_count)
        group = query.panes
        taking = taken.get(group)
        if taking is None:
            taking = taken[group] = self._extract(spec, group.window,
                                                  context, obj, now)
        if not taking:
            query.where_rejected += 1
            return
        server.add_monitor_cost(costs.stream_pane_update * len(spec.aggs))
        query.events_ingested += 1
        taking[2].append(query)
        if not self.health.all_clear:
            self.health.record_success(spec.name)

    @staticmethod
    def _extract(spec: StreamSpec, window: WindowState, context: dict,
                 obj, now: float) -> Any:
        """What one event gives a pane group: ``()`` when WHERE rejects
        it, else ``[key, values, []]``."""
        if spec.where is not None and not spec.where.evaluate(context, {}):
            return ()
        key = tuple(obj.get(g.attribute) for g in spec.groups)
        if not window.in_order(key, now):
            raise StreamError(
                "stream events must arrive in virtual-time order")
        values = [1 if a.attribute is None else obj.get(a.attribute)
                  for a in spec.aggs]
        return [key, values, []]

    # ------------------------------------------------------------------
    # window emission
    # ------------------------------------------------------------------

    def flush(self, now: float | None = None) -> None:
        """Emit every window boundary due at (or before) virtual ``now``.

        The event path calls this automatically; call it explicitly to
        drain trailing windows at the end of a run or before reporting.
        An explicit flush is an entry into the monitor of its own: with a
        journal attached, one ``stream_flush`` record when it moved a
        cursor.
        """
        if self._in_emit:
            return
        now = self.server.clock.now if now is None else now
        sqlcm = self._sqlcm
        if sqlcm.journal is None or sqlcm.tape is not None:
            self._flush(now)
        else:
            sqlcm.journal.entry("stream_flush", {"time": now}, self._flush,
                                now)

    def _flush(self, now: float) -> bool:
        """Emit the windows due at ``now``; True when a cursor moved."""
        self._in_emit = True
        self._flush_serial += 1
        advanced = False
        try:
            for query in list(self._queries.values()):
                if self._flush_query(query, now):
                    advanced = True
        finally:
            self._in_emit = False
            for group in self._opened:
                group.close()
            self._opened.clear()
        return advanced

    def _flush_query(self, query: StreamQuery, now: float) -> bool:
        """One query's turn at the boundaries due at ``now``; True when it
        moved a cursor.  The first member of a shared pane group to get
        here drives the group's cursor and logs what the panes gave; the
        members after it take the same windows from the log."""
        current = query.spec.window.pane_index(now)
        serial = self._flush_serial
        moved = False
        while True:
            group = query.panes
            cursor = group.next_boundary
            if group.flush != serial:
                if cursor is None or cursor > current:
                    return moved
                if len(group.members) > 1:
                    group.open(serial)
                    self._opened.append(group)
                elif not query.enabled:
                    return moved
            pos = group.progress.get(query, 0)
            if not query.enabled:
                # its panes and cursor stay where this flush found them
                self._split(group, [query], pos)
                return moved
            if pos < len(group.steps):
                boundary, step = group.steps[pos]
                if step is None:
                    group.progress[query] = pos + 1
                elif not self._emit_boundary(query, boundary, group, step):
                    self._split(group, [query], pos).next_boundary = \
                        boundary + 1
                    moved = True
                continue
            if cursor > current:
                return moved
            moved = True
            earliest = group.window.earliest_pane()
            if earliest is None:
                # no live panes: every remaining boundary is empty
                group.skip(query, current + 1)
                return moved
            if cursor <= earliest:
                # window closes before any live pane starts: skip ahead to
                # the first boundary that can see a pane
                group.skip(query, earliest + 1)
                continue
            if not self._emit_boundary(query, cursor, group, None):
                # the boundary cursor advances even when emission failed: a
                # poisoned window is lost, not retried forever
                if len(group.members) > 1:
                    group = self._split(group, [query])
                group.next_boundary = cursor + 1

    def _emit_boundary(self, query: StreamQuery, boundary: int,
                       group: PaneGroup, step: tuple | None) -> bool:
        """``query``'s window at ``boundary`` — ``step``, the one an
        earlier member of its pane group took, or None for the panes' own.
        False when the window is lost before the query takes it: to
        quarantine, or to a fault."""
        name = query.spec.name
        if not self.health.all_clear and \
                not self.health.allow(name, self.server.clock.now):
            return False
        obs = self.server.obs
        if obs is NULL_OBS:
            return self._take_window(query, boundary, group, step)
        with obs.attrib("stream", name), \
                obs.span(f"stream.window:{name}", "stream",
                         boundary=boundary):
            return self._take_window(query, boundary, group, step)

    def _take_window(self, query: StreamQuery, boundary: int,
                     group: PaneGroup, step: tuple | None) -> bool:
        taken = False
        try:
            if self._sqlcm.faults is not None:
                self._sqlcm.check_fault("stream.window")
            window = group.take(query, boundary, step)
            taken = True
            self._evaluate_window(query, boundary, *window)
            if not self.health.all_clear:
                self.health.record_success(query.spec.name)
        except Exception as err:
            self._record_failure(query, "stream.window", err)
        return taken

    def _evaluate_window(self, query: StreamQuery, boundary: int,
                         raw_rows: list, combine_ops: int,
                         named: dict) -> None:
        spec = query.spec
        costs = self.server.costs
        self.server.add_monitor_cost(costs.stream_pane_merge * combine_ops)
        if not raw_rows:
            return
        query.windows_emitted += 1
        window_end = spec.window.boundary_time(boundary)
        columns = query.columns
        rows = named.get(columns)
        if rows is None:
            # read-only from here: an alert carries a copy of its row
            rows = named[columns] = [
                (key, dict(zip(columns, (*key, *results))))
                for key, results in raw_rows]
        self.server.add_monitor_cost(costs.stream_emit_row * len(rows))

        if spec.having is not None:
            for key, row in rows:
                if spec.having.evaluate({}, {"window": row}):
                    self._publish(query, "having", key, row, window_end)
        elif query.deviation is None and query.topk is None:
            for key, row in rows:
                self._publish(query, "window", key, row, window_end)
        if query.deviation is not None:
            column = query.deviation.spec.column
            for key, row in rows:
                self.server.add_monitor_cost(costs.stream_anomaly_update)
                flagged = query.deviation.observe(key, row.get(column))
                if flagged is not None:
                    self._publish(query, "deviation", key, row, window_end,
                                  flagged.value, flagged.baseline,
                                  flagged.sigma)
        if query.topk is not None:
            self.server.add_monitor_cost(
                costs.stream_anomaly_update * len(rows))
            by_row = {id(row): key for key, row in rows}
            for rank, row in query.topk.rank([row for __, row in rows]):
                self._publish(query, "topk", by_row[id(row)], row,
                              window_end, rank)

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------

    def _publish(self, query: StreamQuery, kind: str, key: tuple,
                 row: dict, window_end: float, *anomaly: Any) -> None:
        alert = query.alert(kind, key, row, window_end,
                            self.server.clock.now, *anomaly)
        query.alerts.append(alert)
        query.alert_count += 1
        self.alerts_published += 1
        self.server.obs.count("sqlcm.stream.alerts")
        if query.sink_lat is not None \
                and self._sqlcm.has_lat(query.sink_lat):
            # the one LAT-maintenance path: governor gate, charges,
            # eviction events and the ("lat", name) attribution frame
            InsertAction(query.sink_lat).execute(
                self._sqlcm, None,
                {"streamalert": self._sqlcm.factory.stream_alert(alert)}, {})
        self.server.add_monitor_cost(self.server.costs.stream_alert_publish)
        # the meta-event: ECA rules consume it as StreamAlert.Alert, and
        # stream queries over StreamAlert.Alert ingest it (flush deferred
        # by the _in_emit guard, so alert cascades cannot recurse)
        self._sqlcm.publish_alert(alert)

    # ------------------------------------------------------------------
    # failure accounting
    # ------------------------------------------------------------------

    def _record_failure(self, query: StreamQuery, site: str,
                        error: BaseException) -> None:
        if isinstance(error, DurabilityError):
            raise error  # a replay that diverged from its record
        self.server.add_monitor_cost(self.server.costs.rule_error_cost)
        query.errors += 1
        query.last_error = f"{type(error).__name__}: {error}"
        self.errors += 1
        self.health.record_failure(query.spec.name, site, error,
                                   self.server.clock.now)
