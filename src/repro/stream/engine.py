"""The continuous stream-query engine.

Registered queries subscribe to the same :class:`~repro.engine.events.EventBus`
hook points as the ECA rule engine and run synchronously in the triggering
query's execution path, charging the monitor-cost pool exactly like rules do
("pay only for what you monitor").  Each event updates one pane of each
matching query's window state (O(#aggregates)); window results are emitted
lazily when the virtual clock crosses a pane boundary, by merging panes —
never by rescanning events.

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
from repro.errors import StreamError
from repro.stream.anomaly import (DeviationOperator, DeviationSpec,
                                  TopKOperator, TopKSpec)
from repro.stream.language import StreamSpec, parse_stream_query
from repro.stream.windows import WindowState

_SIGNATURE_HINTS = ("logical_signature", "physical_signature",
                    "number_of_instances")

STREAM_FAULT_SITES = ("stream.eval", "stream.window")

register_fault_sites(*STREAM_FAULT_SITES)


class StreamQuery:
    """One registered continuous query: spec + window state + operators."""

    # the registration (spec text, sink, criticality, ring size) and the
    # child holders are saved by the checkpoint walk
    STATE = (
        *state.fields(sum, "events_seen", "events_ingested",
                      "where_rejected", "windows_emitted", "alert_count",
                      "errors"),
        # per-shard alert rings have no merge order: the control's is kept
        *state.fields(state.first, "enabled", "next_boundary", "last_error",
                      "alerts"),
        *state.walked("spec", "sink_lat", "criticality", "window",
                      "deviation", "topk"),
    )

    def __init__(self, spec: StreamSpec, sink_lat: str | None = None,
                 max_alerts: int = 256, criticality: str = "normal"):
        self.spec = spec
        self.sink_lat = sink_lat
        self.criticality = validate_criticality(criticality)
        self.window = WindowState(
            spec.window, [aggregate_function(a.func) for a in spec.aggs])
        self.deviation: DeviationOperator | None = None
        self.topk: TopKOperator | None = None
        if isinstance(spec.anomaly, DeviationSpec):
            self.deviation = DeviationOperator(spec.anomaly)
        elif isinstance(spec.anomaly, TopKSpec):
            self.topk = TopKOperator(spec.anomaly)
        self.enabled = True
        # pane boundary of the next window to emit; None until first event
        self.next_boundary: int | None = None
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

    def describe(self) -> dict[str, Any]:
        """Flat stats snapshot (CLI ``.streams`` / report rows)."""
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
        }


class StreamEngine:
    """All stream queries of one SQLCM instance, sharing its event bus,
    cost pool, fault injector, and virtual clock."""

    STATE = (
        *state.fields(sum, "events_seen", "alerts_published",
                      "errors"),
        *state.walked("_queries", "health"),
        *state.transient("_sqlcm", "server", "_by_event", "_subscribed",
                         "_in_emit", "replaying"),
    )

    def __init__(self, sqlcm, quarantine: QuarantinePolicy | None = None):
        self._sqlcm = sqlcm
        self.server = sqlcm.server
        self._queries: dict[str, StreamQuery] = {}
        self._by_event: dict[str, list[StreamQuery]] = {}
        self._subscribed: set[str] = set()
        self.health = RuleHealthRegistry(quarantine)
        self._in_emit = False
        # True while durability recovery re-runs journaled flushes: alert
        # rings and counters rebuild, but the sink-LAT insert and the bus
        # publish are suppressed (both were journaled separately)
        self.replaying = False
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
        """Parse, validate, and activate one stream query."""
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
        query = StreamQuery(spec, sink_lat=sink_lat, max_alerts=max_alerts,
                            criticality=criticality)
        self._queries[key] = query
        self._by_event.setdefault(spec.engine_event, []).append(query)
        # a monitor fed explicitly (a replay shard) never touches the
        # bus: its owner hands it events via deliver()
        if spec.engine_event not in self._subscribed and \
                getattr(self._sqlcm, "bus_subscribed", True):
            self.server.events.subscribe(spec.engine_event, self._on_event)
            self._subscribed.add(spec.engine_event)
        self._sqlcm.invalidate_signature_cache()
        if self._sqlcm.journal is not None:
            self._sqlcm.journal.stream_registered(query)
        return query

    def deliver(self, event: str, payload: dict) -> None:
        """Explicit event delivery for bus-less (shard-local) engines."""
        self._on_event(event, payload)

    def remove(self, name: str) -> None:
        query = self._queries.pop(name.lower(), None)
        if query is None:
            raise StreamError(f"unknown stream query {name!r}")
        self._by_event[query.spec.engine_event].remove(query)
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
            self.server.events.unsubscribe(event, self._on_event)
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
    # event path: flush due boundaries, then ingest
    # ------------------------------------------------------------------

    def _on_event(self, event: str, payload: dict) -> None:
        queries = self._by_event.get(event)
        if not queries:
            return
        self.events_seen += 1
        now = self.server.clock.now
        # windows whose end time has passed close *before* the new event is
        # applied, so an event at t never lands in a window ending <= t
        if not self._in_emit:
            self._flush(now)
        journal = self._sqlcm.journal
        if journal is None:
            self._ingest_all(queries, event, payload, now, None)
            return
        # one stream_obs record per event: the observations in ingest
        # order, and the queries that failed.  The event is a journal
        # group, so a record the loop appends (a failing query's health)
        # cannot commit ahead of the observations of the queries before it
        batch: dict = {"time": now, "obs": []}
        seq = journal.seq
        journal.groups_open += 1
        try:
            self._ingest_all(queries, event, payload, now, batch)
        finally:
            journal.groups_open -= 1
        if batch["obs"] or journal.seq != seq:
            journal.append("stream_obs", batch)

    def _ingest_all(self, queries: list[StreamQuery], event: str,
                    payload: dict, now: float, batch: dict | None) -> None:
        obs = self.server.obs
        governor = self._sqlcm.governor
        context: dict | None = None
        built = False
        for query in list(queries):
            query.events_seen += 1
            if not query.enabled:
                continue
            if not self.health.allow(query.spec.name, now):
                continue
            if governor is not None and not governor.admit_stream(query):
                continue
            with obs.attrib("stream", query.spec.name):
                try:
                    self._sqlcm.check_fault("stream.eval")
                    if not built:
                        context = self._sqlcm._build_context(event, payload)
                        built = True
                    self._ingest(query, context, now, batch)
                except Exception as err:
                    self._record_failure(query, "stream.eval", err)
                    if batch is not None:
                        batch.setdefault("failed", []).append(
                            [query.spec.name, query.last_error])

    def _ingest(self, query: StreamQuery, context: dict | None,
                now: float, batch: dict | None) -> None:
        spec = query.spec
        costs = self.server.costs
        self.server.add_monitor_cost(costs.stream_ingest)
        obj = None if context is None else context.get(spec.class_key)
        if obj is None:
            return
        if spec.where is not None:
            self.server.add_monitor_cost(
                costs.stream_where_atomic * spec.where.atomic_count)
            if not spec.where.evaluate(context, {}):
                query.where_rejected += 1
                return
        key = tuple(obj.get(g.attribute) for g in spec.groups)
        values = [1 if a.attribute is None else obj.get(a.attribute)
                  for a in spec.aggs]
        ops = query.window.observe(key, values, now)
        self.server.add_monitor_cost(costs.stream_pane_update * ops)
        if query.next_boundary is None:
            query.next_boundary = spec.window.pane_index(now) + 1
        query.events_ingested += 1
        if batch is not None:
            batch["obs"].append([spec.name, key, values])
        self.health.record_success(query.spec.name)

    # ------------------------------------------------------------------
    # window emission
    # ------------------------------------------------------------------

    def flush(self, now: float | None = None) -> None:
        """Emit every window boundary due at (or before) virtual ``now``.

        The event path calls this automatically; call it explicitly to
        drain trailing windows at the end of a run or before reporting.
        """
        if self._in_emit:
            return
        self._flush(self.server.clock.now if now is None else now)

    def _flush(self, now: float) -> None:
        self._in_emit = True
        advanced = False
        try:
            for query in list(self._queries.values()):
                before = query.next_boundary
                self._flush_query(query, now)
                if query.next_boundary != before:
                    advanced = True
        finally:
            self._in_emit = False
        journal = self._sqlcm.journal
        if journal is not None and advanced and not self.replaying:
            journal.append("stream_flush", {"time": now})

    def _flush_query(self, query: StreamQuery, now: float) -> None:
        if query.next_boundary is None or not query.enabled:
            return
        spec = query.spec
        current = spec.window.pane_index(now)
        while query.next_boundary <= current:
            earliest = query.window.earliest_pane()
            if earliest is None:
                # no live panes: every remaining boundary is empty
                query.next_boundary = current + 1
                return
            if query.next_boundary <= earliest:
                # window closes before any live pane starts: skip ahead to
                # the first boundary that can see a pane
                query.next_boundary = earliest + 1
                continue
            self._emit_boundary(query, query.next_boundary)
            # the boundary cursor advances even when emission failed: a
            # poisoned window is lost, not retried forever
            query.next_boundary += 1

    def _emit_boundary(self, query: StreamQuery, boundary: int) -> None:
        now = self.server.clock.now
        if not self.health.allow(query.spec.name, now):
            return
        obs = self.server.obs
        with obs.attrib("stream", query.spec.name), \
                obs.span(f"stream.window:{query.spec.name}", "stream",
                         boundary=boundary):
            try:
                self._sqlcm.check_fault("stream.window")
                self._evaluate_window(query, boundary)
                self.health.record_success(query.spec.name)
            except Exception as err:
                self._record_failure(query, "stream.window", err)

    def _evaluate_window(self, query: StreamQuery, boundary: int) -> None:
        spec = query.spec
        costs = self.server.costs
        raw_rows, combine_ops = query.window.emit(boundary)
        self.server.add_monitor_cost(costs.stream_pane_merge * combine_ops)
        if not raw_rows:
            return
        query.windows_emitted += 1
        window_end = spec.window.boundary_time(boundary)
        window_start = window_end - spec.window.length
        rows: list[tuple[tuple, dict]] = []
        for key, results in raw_rows:
            row: dict[str, Any] = {}
            for group, value in zip(spec.groups, key):
                row[group.alias] = value
            for agg, value in zip(spec.aggs, results):
                row[agg.alias] = value
            rows.append((key, row))
        self.server.add_monitor_cost(costs.stream_emit_row * len(rows))

        primary = spec.aggs[0].alias
        if spec.having is not None:
            for key, row in rows:
                if spec.having.evaluate({}, {"window": row}):
                    self._publish(query, "having", key, row, primary,
                                  row.get(primary), window_start, window_end)
        elif query.deviation is None and query.topk is None:
            for key, row in rows:
                self._publish(query, "window", key, row, primary,
                              row.get(primary), window_start, window_end)
        if query.deviation is not None:
            column = query.deviation.spec.column
            for key, row in rows:
                self.server.add_monitor_cost(costs.stream_anomaly_update)
                flagged = query.deviation.observe(key, row.get(column))
                if flagged is not None:
                    self._publish(query, "deviation", key, row, column,
                                  flagged.value, window_start, window_end,
                                  baseline=flagged.baseline,
                                  sigma=flagged.sigma)
        if query.topk is not None:
            column = query.topk.spec.column
            self.server.add_monitor_cost(
                costs.stream_anomaly_update * len(rows))
            by_row = {id(row): key for key, row in rows}
            for rank, row in query.topk.rank([row for __, row in rows]):
                self._publish(query, "topk", by_row[id(row)], row, column,
                              row.get(column), window_start, window_end,
                              rank=rank)

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------

    def _publish(self, query: StreamQuery, kind: str, key: tuple,
                 row: dict, column: str, value: Any,
                 window_start: float, window_end: float,
                 baseline: float | None = None, sigma: float | None = None,
                 rank: int | None = None) -> None:
        costs = self.server.costs
        now = self.server.clock.now
        alert = {
            "stream": query.spec.name,
            "kind": kind,
            "group": ", ".join(str(v) for v in key) if key else None,
            "key": key,
            "column": column,
            "value": value,
            "baseline": baseline,
            "sigma": sigma,
            "rank": rank,
            "window_start": window_start,
            "window_end": window_end,
            "time": now,
            "row": dict(row),
        }
        query.alerts.append(alert)
        query.alert_count += 1
        self.alerts_published += 1
        self.server.obs.count("sqlcm.stream.alerts")
        if self.replaying:
            # journal replay: the sink-LAT insert and the downstream
            # incident cascade were journaled separately (lat_insert /
            # incident records), so re-driving them here would double-apply
            return
        if query.sink_lat is not None \
                and self._sqlcm.has_lat(query.sink_lat):
            # the one LAT-maintenance path: governor gate, charges,
            # eviction events and the ("lat", name) attribution frame
            InsertAction(query.sink_lat).execute(
                self._sqlcm, None,
                {"streamalert": self._sqlcm.factory.stream_alert(alert)}, {})
        self.server.add_monitor_cost(costs.stream_alert_publish)
        # the meta-event: ECA rules consume it as StreamAlert.Alert, and
        # stream queries over StreamAlert.Alert ingest it (flush deferred
        # by the _in_emit guard, so alert cascades cannot recurse)
        self.server.events.publish("sqlcm.stream_alert", alert)

    # ------------------------------------------------------------------
    # failure accounting
    # ------------------------------------------------------------------

    def _record_failure(self, query: StreamQuery, site: str,
                        error: BaseException) -> None:
        self.server.add_monitor_cost(self.server.costs.rule_error_cost)
        query.errors += 1
        query.last_error = f"{type(error).__name__}: {error}"
        self.errors += 1
        self.health.record_failure(query.spec.name, site, error,
                                   self.server.clock.now)
