"""Monitored objects: probe values assembled on demand.

Section 4.1: probes are "assembled into monitored objects on demand (i.e.,
at the time of rule-evaluation)".  A :class:`MonitoredObject` therefore holds
a reference to the underlying engine object (a
:class:`~repro.engine.query.QueryContext`, a transaction, a timer) and
extracts attribute values lazily when a rule condition or a LAT insert reads
them.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.core.schema import MonitoredClassDef
from repro.errors import SchemaError

#: one probe of a monitored class: ``fn(source, factory)`` -> value
_Extractor = Callable[[Any, Any], Any]


class _NoMemo(dict):
    """The memo of an object kept past its dispatch: it remembers nothing,
    so every read probes the source again."""

    __slots__ = ()

    def __setitem__(self, key: str, value: Any) -> None:
        pass


_NO_MEMO = _NoMemo()


class MonitoredObject:
    """One instance of a monitored class with lazy probe extraction.

    ``extractors`` is the class's probe table — ``{lowercase attribute:
    fn(source, factory)}``, shared by every object of the class — and
    ``extra`` holds values this one object overrides or adds.

    Each probe runs at most once per object: its value is kept in the
    object's memo.  An object lives for one event's dispatch (or one
    iteration-scope expansion inside it), and virtual time does not move
    inside a dispatch, so the 64 rules that read ``Query.Duration`` of one
    commit all read the same value.  What changes a source inside a
    dispatch is an action; the engine calls :meth:`forget` after one that
    may (see ``Action.reads_context_only``).  An object kept beyond its
    dispatch is a :meth:`detached` copy."""

    __slots__ = ("class_def", "_extractors", "_extra", "source", "_factory",
                 "_memo")

    def __init__(self, class_def: MonitoredClassDef,
                 extractors: dict[str, _Extractor],
                 extra: dict[str, Any] | None = None,
                 source: Any = None, factory: Any = None):
        self.class_def = class_def
        self._extractors = extractors
        self._extra = extra or {}
        self.source = source
        self._factory = factory
        self._memo: dict[str, Any] = {}

    @property
    def class_name(self) -> str:
        return self.class_def.name

    def get(self, attribute: str) -> Any:
        """Probe one attribute (case-insensitive)."""
        return self._probe(attribute.lower())

    def _probe(self, key: str) -> Any:
        """Probe one attribute by its lowercase name: what generated
        condition code calls, the name lowered once when it was bound."""
        memo = self._memo
        if key in memo:
            return memo[key]
        if key in self._extra:
            return self._extra[key]
        extractor = self._extractors.get(key)
        if extractor is None:
            raise SchemaError(
                f"class {self.class_name} exposes no probe {key!r}"
            )
        value = memo[key] = extractor(self.source, self._factory)
        return value

    def forget(self) -> None:
        """Drop the memo: the next read of each attribute probes again."""
        self._memo.clear()

    def detached(self) -> "MonitoredObject":
        """A copy that probes its source on every read, for keeping after
        the dispatch (a dead letter's context): replayed later, it reads
        the source as it is then, not as it was during the dispatch."""
        copy = MonitoredObject(self.class_def, self._extractors, self._extra,
                               self.source, self._factory)
        copy._memo = _NO_MEMO
        return copy

    def snapshot(self, attributes: list[str] | None = None) -> dict[str, Any]:
        """Materialize attribute values into a plain dict."""
        if attributes is None:
            attributes = list(self.class_def.attributes)
        return {name: self.get(name) for name in attributes}

    def __repr__(self) -> str:  # pragma: no cover
        return f"MonitoredObject({self.class_name})"


# -- probe tables: one per class, built once ----------------------------------
#
# ``fn(source, factory)``: ``source`` is the engine-side record the object
# wraps.  A Transaction's probes also read the statements its event carried,
# so their second argument is a :class:`_TransactionScope`.

def _query_resource(qctx, factory):
    return str(qctx.blocked_on) if qctx.blocked_on is not None else None


_QUERY_PROBES: dict[str, _Extractor] = {
    "id": lambda q, f: q.query_id,
    "query_text": lambda q, f: q.text,
    "logical_signature": lambda q, f: q.logical_signature,
    "physical_signature": lambda q, f: q.physical_signature,
    "start_time": lambda q, f: q.start_time,
    "duration": lambda q, f: q.duration_at(f._clock.now),
    "estimated_cost": lambda q, f: q.estimated_cost,
    "time_blocked": lambda q, f: q.time_blocked,
    "times_blocked": lambda q, f: q.times_blocked,
    "queries_blocked": lambda q, f: q.queries_blocked,
    "time_blocking_others": lambda q, f: q.time_blocking_others,
    "number_of_instances": lambda q, f: f._sqlcm.instance_count(
        q.logical_signature),
    "query_type": lambda q, f: q.query_type,
    "user": lambda q, f: q.user,
    "application": lambda q, f: q.application,
    "rows_affected": lambda q, f: q.rows_affected,
    "estimated_rows": lambda q, f: (q.plan.estimated_rows
                                    if q.plan is not None else 0.0),
    "actual_rows": lambda q, f: (len(q.result_rows)
                                 if q.query_type == "SELECT"
                                 else q.rows_affected),
    "wait_time": lambda q, f: 0.0,
    "resource": _query_resource,
}


class _TransactionScope(NamedTuple):
    factory: "ObjectFactory"
    statements: list


def _transaction_duration(txn, scope):
    end = txn.end_time if txn.end_time is not None \
        else scope.factory._clock.now
    return max(0.0, end - txn.start_time)


def _first_statement(attribute: str) -> _Extractor:
    def probe(txn, scope):
        statements = scope.statements
        return getattr(statements[0], attribute) if statements else ""
    return probe


def _statement_sum(attribute: str) -> _Extractor:
    return lambda txn, scope: sum(getattr(q, attribute)
                                  for q in scope.statements)


_TRANSACTION_PROBES: dict[str, _Extractor] = {
    "id": lambda t, s: t.txn_id,
    "query_text": lambda t, s: "; ".join(q.text for q in s.statements),
    "logical_signature": lambda t, s: s.factory._sqlcm.transaction_signature(
        s.statements, physical=False),
    "physical_signature": lambda t, s: s.factory._sqlcm.transaction_signature(
        s.statements, physical=True),
    "start_time": lambda t, s: t.start_time,
    "duration": _transaction_duration,
    "estimated_cost": _statement_sum("estimated_cost"),
    "time_blocked": _statement_sum("time_blocked"),
    "times_blocked": _statement_sum("times_blocked"),
    "queries_blocked": _statement_sum("queries_blocked"),
    "statement_count": lambda t, s: len(s.statements),
    "user": _first_statement("user"),
    "application": _first_statement("application"),
}

_SESSION_PROBES: dict[str, _Extractor] = {
    "id": lambda s, f: s.session_id,
    "user": lambda s, f: s.user,
    "application": lambda s, f: s.application,
    "login_time": lambda s, f: f._clock.now,
}

_TIMER_PROBES: dict[str, _Extractor] = {
    "id": lambda t, f: t.timer_id,
    "name": lambda t, f: t.name,
    "current_time": lambda t, f: f._clock.now,
    "interval": lambda t, f: t.interval,
    "remaining_alarms": lambda t, f: t.remaining,
}


class ObjectFactory:
    """Builds monitored objects from engine-side records.

    The factory needs the SQLCM engine for cross-cutting probes
    (``Number_of_instances`` comes from SQLCM's per-signature instance
    counter; transaction signatures come from the signature registry).
    """

    def __init__(self, sqlcm):
        self._sqlcm = sqlcm
        self._clock = sqlcm.server.clock

    # -- Query / Blocker / Blocked -----------------------------------------------

    def query(self, qctx, class_def: MonitoredClassDef | None = None,
              extra: dict[str, Any] | None = None) -> MonitoredObject:
        """Wrap a QueryContext as a Query (or Blocker/Blocked) object."""
        cls = class_def or self._sqlcm.schema.monitored_class("Query")
        return MonitoredObject(cls, _QUERY_PROBES, extra, qctx, self)

    def blocker(self, qctx, resource, wait_time: float = 0.0) -> MonitoredObject:
        cls = self._sqlcm.schema.monitored_class("Blocker")
        return self.query(qctx, cls, extra={
            "wait_time": wait_time, "resource": str(resource),
        })

    def blocked(self, qctx, resource, wait_time: float) -> MonitoredObject:
        cls = self._sqlcm.schema.monitored_class("Blocked")
        return self.query(qctx, cls, extra={
            "wait_time": wait_time, "resource": str(resource),
        })

    # -- Transaction --------------------------------------------------------------

    def transaction(self, txn, statements: list) -> MonitoredObject:
        cls = self._sqlcm.schema.monitored_class("Transaction")
        return MonitoredObject(cls, _TRANSACTION_PROBES, source=txn,
                               factory=_TransactionScope(self, statements))

    # -- Session ------------------------------------------------------------------

    def session(self, session) -> MonitoredObject:
        """Wrap an engine session (successful login/logout events)."""
        cls = self._sqlcm.schema.monitored_class("Session")
        return MonitoredObject(cls, _SESSION_PROBES, source=session,
                               factory=self)

    def failed_login(self, payload: dict) -> MonitoredObject:
        """A Session object for a *failed* login (no real session exists)."""
        cls = self._sqlcm.schema.monitored_class("Session")
        return MonitoredObject(cls, {}, extra={
            "id": 0,
            "user": payload.get("user"),
            "application": payload.get("application"),
            "login_time": payload.get("time"),
        })

    # -- Timer -------------------------------------------------------------------

    def timer(self, timer) -> MonitoredObject:
        cls = self._sqlcm.schema.monitored_class("Timer")
        return MonitoredObject(cls, _TIMER_PROBES, source=timer,
                               factory=self)

    # -- LAT evicted rows -----------------------------------------------------------

    def evicted_row(self, lat_name: str, row_values: dict[str, Any]
                    ) -> MonitoredObject:
        cls = self._sqlcm.schema.monitored_class("Evicted")
        extra = {key.lower(): value for key, value in row_values.items()}
        extra["lat_name"] = lat_name
        return MonitoredObject(cls, {}, extra, source=row_values)

    # -- stream alerts (continuous-query output) ----------------------------------

    def stream_alert(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one stream-query alert (the ``sqlcm.stream_alert`` event)."""
        cls = self._sqlcm.schema.monitored_class("StreamAlert")
        return MonitoredObject(cls, {}, extra={
            "stream_name": payload.get("stream"),
            "kind": payload.get("kind"),
            "group_key": payload.get("group"),
            "aggregate": payload.get("column"),
            "value": payload.get("value"),
            "baseline": payload.get("baseline"),
            "sigma": payload.get("sigma"),
            "rank": payload.get("rank"),
            "window_start": payload.get("window_start"),
            "window_end": payload.get("window_end"),
            "current_time": payload.get("time"),
        }, source=payload)

    # -- rule failures (meta-monitoring) -----------------------------------------

    def rule_failure(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one isolated rule failure (the ``sqlcm.rule_error`` event)."""
        cls = self._sqlcm.schema.monitored_class("RuleFailure")
        return MonitoredObject(cls, {}, extra={
            "rule_name": payload.get("rule"),
            "site": payload.get("site"),
            "error": payload.get("error"),
            "error_count": payload.get("error_count", 0),
            "quarantined": payload.get("quarantined", False),
            "current_time": payload.get("time"),
        }, source=payload)

    # -- incidents / remediations (meta-monitoring) -------------------------------

    def incident(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one incident lifecycle transition
        (the ``sqlcm.incident`` event)."""
        cls = self._sqlcm.schema.monitored_class("Incident")
        return MonitoredObject(cls, {}, extra={
            "id": payload.get("incident_id"),
            "class": payload.get("incident_class"),
            "signature": payload.get("signature"),
            "phase": payload.get("phase"),
            "state": payload.get("state"),
            "severity": payload.get("severity"),
            "occurrences": payload.get("occurrences", 1),
            "summary": payload.get("summary"),
            "current_time": payload.get("time"),
        }, source=payload)

    def remediation(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one remediation attempt (the ``sqlcm.remediation`` event)."""
        cls = self._sqlcm.schema.monitored_class("Remediation")
        return MonitoredObject(cls, {}, extra={
            "incident_id": payload.get("incident_id"),
            "incident_class": payload.get("incident_class"),
            "signature": payload.get("signature"),
            "action": payload.get("action"),
            "target": payload.get("target"),
            "outcome": payload.get("outcome"),
            "detail": payload.get("detail"),
            "current_time": payload.get("time"),
        }, source=payload)

    # -- governor transitions (meta-monitoring) ----------------------------------

    def governor_transition(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one overload-governor ladder transition
        (the ``sqlcm.governor_transition`` event)."""
        cls = self._sqlcm.schema.monitored_class("Governor")
        return MonitoredObject(cls, {}, extra={
            "from_state": payload.get("from_state"),
            "to_state": payload.get("to_state"),
            "reason": payload.get("reason"),
            "overhead_ratio": payload.get("overhead_ratio"),
            "estimated_ratio": payload.get("estimated_ratio"),
            "suspended_count": payload.get("suspended_count", 0),
            "current_time": payload.get("time"),
        }, source=payload)
