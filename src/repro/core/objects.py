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
from repro.errors import DurabilityError, SchemaError

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


class _RecordedObject(MonitoredObject):
    """An object built inside a journaled entry: :meth:`forget` starts a
    new memo instead of clearing the old one, so the entry's record holds
    every value each generation read."""

    __slots__ = ("generations",)

    def __init__(self, *args):
        super().__init__(*args)
        self.generations = [self._memo]

    def forget(self) -> None:
        self._memo = {}
        self.generations.append(self._memo)

    def image(self) -> list:
        """``[extra or None, [memo, ...]]``, trailing empty memos dropped."""
        generations = self.generations
        while len(generations) > 1 and not generations[-1]:
            generations.pop()
        return [self._extra or None, generations]


class _Unrecorded(dict):
    """The probe table of a replayed object: any probe its memo lacks was
    not read when the entry ran, so the replay has diverged."""

    def get(self, key, default=None):
        def unrecorded(source, factory):
            raise DurabilityError(
                f"replay read probe {key!r}, which the journal did not "
                f"record for this entry")
        return unrecorded


_UNRECORDED = _Unrecorded()


class _ReplayedObject(MonitoredObject):
    """An object rebuilt from a journal record: its memos are the values
    the entry read, one per generation, and it has no source to probe."""

    __slots__ = ("_generations", "_at")

    def __init__(self, class_def: MonitoredClassDef, image: list):
        extra, generations = image
        super().__init__(class_def, _UNRECORDED, extra)
        self._generations = generations
        self._at = 0
        self._memo = generations[0]

    def forget(self) -> None:
        self._at += 1
        generations = self._generations
        self._memo = generations[self._at] \
            if self._at < len(generations) else {}


# -- probe tables: one per class, built once ----------------------------------
#
# ``fn(source, factory)``: ``source`` is the engine-side record the object
# wraps.  A Transaction's probes also read the statements its event carried,
# so their second argument is a :class:`_TransactionScope`.

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

    #: every object the factory builds; the journal's factories override it
    _new = MonitoredObject

    # -- Query / Blocker / Blocked -----------------------------------------------

    def query(self, qctx, class_def: MonitoredClassDef | None = None,
              extra: dict[str, Any] | None = None) -> MonitoredObject:
        """Wrap a QueryContext as a Query (or Blocker/Blocked) object."""
        cls = class_def or self._sqlcm.schema.monitored_class("Query")
        return self._new(cls, _QUERY_PROBES, extra, qctx, self)

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
        return self._new(cls, _TRANSACTION_PROBES, None, txn,
                         _TransactionScope(self, statements))

    # -- Session ------------------------------------------------------------------

    def session(self, session) -> MonitoredObject:
        """Wrap an engine session (successful login/logout events)."""
        cls = self._sqlcm.schema.monitored_class("Session")
        return self._new(cls, _SESSION_PROBES, None, session, self)

    def failed_login(self, payload: dict) -> MonitoredObject:
        """A Session object for a *failed* login (no real session exists)."""
        cls = self._sqlcm.schema.monitored_class("Session")
        return self._new(cls, {}, {
            "id": 0,
            "user": payload.get("user"),
            "application": payload.get("application"),
            "login_time": payload.get("time"),
        })

    # -- Timer -------------------------------------------------------------------

    def timer(self, timer) -> MonitoredObject:
        cls = self._sqlcm.schema.monitored_class("Timer")
        return self._new(cls, _TIMER_PROBES, None, timer, self)

    # -- LAT evicted rows -----------------------------------------------------------

    def evicted_row(self, lat_name: str, row_values: dict[str, Any]
                    ) -> MonitoredObject:
        cls = self._sqlcm.schema.monitored_class("Evicted")
        extra = {key.lower(): value for key, value in row_values.items()}
        extra["lat_name"] = lat_name
        return self._new(cls, {}, extra, row_values)

    # -- stream alerts (continuous-query output) ----------------------------------

    def stream_alert(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one stream-query alert (the ``sqlcm.stream_alert`` event)."""
        cls = self._sqlcm.schema.monitored_class("StreamAlert")
        return self._new(cls, {}, {
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
        }, payload)

    # -- rule failures (meta-monitoring) -----------------------------------------

    def rule_failure(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one isolated rule failure (the ``sqlcm.rule_error`` event)."""
        cls = self._sqlcm.schema.monitored_class("RuleFailure")
        return self._new(cls, {}, {
            "rule_name": payload.get("rule"),
            "site": payload.get("site"),
            "error": payload.get("error"),
            "error_count": payload.get("error_count", 0),
            "quarantined": payload.get("quarantined", False),
            "current_time": payload.get("time"),
        }, payload)

    # -- incidents / remediations (meta-monitoring) -------------------------------

    def incident(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one incident lifecycle transition
        (the ``sqlcm.incident`` event)."""
        cls = self._sqlcm.schema.monitored_class("Incident")
        return self._new(cls, {}, {
            "id": payload.get("incident_id"),
            "class": payload.get("incident_class"),
            "signature": payload.get("signature"),
            "phase": payload.get("phase"),
            "state": payload.get("state"),
            "severity": payload.get("severity"),
            "occurrences": payload.get("occurrences", 1),
            "summary": payload.get("summary"),
            "current_time": payload.get("time"),
        }, payload)

    def remediation(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one remediation attempt (the ``sqlcm.remediation`` event)."""
        cls = self._sqlcm.schema.monitored_class("Remediation")
        return self._new(cls, {}, {
            "incident_id": payload.get("incident_id"),
            "incident_class": payload.get("incident_class"),
            "signature": payload.get("signature"),
            "action": payload.get("action"),
            "target": payload.get("target"),
            "outcome": payload.get("outcome"),
            "detail": payload.get("detail"),
            "current_time": payload.get("time"),
        }, payload)

    # -- governor transitions (meta-monitoring) ----------------------------------

    def governor_transition(self, payload: dict[str, Any]) -> MonitoredObject:
        """Wrap one overload-governor ladder transition
        (the ``sqlcm.governor_transition`` event)."""
        cls = self._sqlcm.schema.monitored_class("Governor")
        return self._new(cls, {}, {
            "from_state": payload.get("from_state"),
            "to_state": payload.get("to_state"),
            "reason": payload.get("reason"),
            "overhead_ratio": payload.get("overhead_ratio"),
            "estimated_ratio": payload.get("estimated_ratio"),
            "suspended_count": payload.get("suspended_count", 0),
            "current_time": payload.get("time"),
        }, payload)


# -- the factories of a journaled entry and of its replay ---------------------

class RecordingFactory(ObjectFactory):
    """The factory while a journaled entry runs: it builds objects that keep
    every memo generation and lists them in creation order, the order the
    entry's record holds their images in."""

    def __init__(self, sqlcm):
        super().__init__(sqlcm)
        self.objects: list[_RecordedObject] = []

    def _new(self, *args) -> MonitoredObject:
        obj = _RecordedObject(*args)
        self.objects.append(obj)
        return obj


class ReplayFactory(ObjectFactory):
    """The factory while recovery replays an entry: the n-th object it
    builds is the n-th one the entry built, rebuilt from its image; the
    source passed in (there is none in a replay) is ignored."""

    def __init__(self, sqlcm, images: list):
        super().__init__(sqlcm)
        self.images = images
        self.built = 0

    def _new(self, class_def, *ignored) -> MonitoredObject:
        return self.replayed(class_def)

    def replayed(self, class_def: MonitoredClassDef | str) -> MonitoredObject:
        """The next recorded object, as one of ``class_def``."""
        if isinstance(class_def, str):
            class_def = self._sqlcm.schema.monitored_class(class_def)
        if self.built == len(self.images):
            raise DurabilityError(
                f"replay built a {class_def.name} object the journal did "
                f"not record ({self.built} recorded)")
        image = self.images[self.built]
        self.built += 1
        return _ReplayedObject(class_def, image)
