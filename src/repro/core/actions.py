"""Rule actions (paper Section 5.3).

``Insert``, ``Reset``, ``Persist``, ``SendMail``, ``RunExternal``,
``Cancel``, ``Set`` — executed in order when a rule fires.  Side-effecting
actions that the paper delivers externally (mail, external programs) are
delivered to in-process sinks (:class:`Mail` outbox, command journal) so
monitoring applications and tests can observe them; a real deployment would
swap the sinks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.core.objects import MonitoredObject
from repro.errors import ActionError
from repro.obs.observability import NULL_OBS

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][\w]*)\.([A-Za-z_][\w]*)\}")


@dataclass
class Mail:
    """One delivered SendMail message."""

    time: float
    address: str
    body: str


@dataclass
class Command:
    """One RunExternal invocation record."""

    time: float
    command: str


def _substitute(template: str, context: dict[str, MonitoredObject],
                lat_rows: dict[str, dict | None]) -> str:
    """Replace ``{Class.Attr}`` / ``{LAT.Column}`` placeholders with values."""

    def repl(match: re.Match) -> str:
        qualifier, attr = match.group(1).lower(), match.group(2)
        obj = context.get(qualifier)
        if obj is not None:
            return str(obj.get(attr))
        row = lat_rows.get(qualifier)
        if row is not None:
            lowered = {k.lower(): v for k, v in row.items()}
            if attr.lower() in lowered:
                return str(lowered[attr.lower()])
        return match.group(0)

    return _PLACEHOLDER_RE.sub(repl, template)


class Action:
    """Base class for rule actions."""

    #: side-effecting actions (mail, external programs, persist writes) get
    #: bounded retry + dead-lettering from the engine's isolation boundary;
    #: internal actions (LAT maintenance, cancel, timers) fail fast instead
    #: because retrying them is not idempotent-safe.  Each delivery is an
    #: effect outside the monitor (``SQLCM.effect``): a journaled entry
    #: records its outcome, and a replay of the entry reads it back
    side_effect = False

    #: execute() changes nothing a probe of the context's objects reads.
    #: After any other action the objects forget the probe values kept so
    #: far in the dispatch (Set re-arms the very timer that alerted; a
    #: callback or an external handler can touch anything), so the rules
    #: after it probe again
    reads_context_only = False

    def required_classes(self, sqlcm) -> set[str]:
        """Monitored classes that must be in context for this action."""
        return set()

    def validate(self, sqlcm, rule) -> None:
        """Called at rule registration; raise ActionError on bad wiring."""

    def execute(self, sqlcm, rule, context: dict[str, MonitoredObject],
                lat_rows: dict[str, dict | None]) -> None:
        raise NotImplementedError

    def describe(self, context: dict[str, MonitoredObject],
                 lat_rows: dict[str, dict | None]) -> str:
        """Human-readable payload for dead-letter entries."""
        return repr(self)


@dataclass
class InsertAction(Action):
    """``Insert(LATName)`` — insert/update the in-context object's row."""

    lat_name: str

    reads_context_only = True

    def required_classes(self, sqlcm) -> set[str]:
        lat = sqlcm.lat(self.lat_name)
        return {lat.definition.monitored_class.lower()}

    def validate(self, sqlcm, rule) -> None:
        sqlcm.lat(self.lat_name)  # raises if missing

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        governor = sqlcm.governor
        if governor is not None and not governor.lat_allowed(self.lat_name):
            return  # the overload governor suspended this LAT's maintenance
        # the rule's plan holds the LAT while the set of LATs stands; an
        # action run outside a dispatch (no rule, no plan yet) looks it up
        plan = rule.plan if rule is not None else None
        target = plan.inserts.get(self.lat_name) if plan is not None else None
        if target is None:
            lat = sqlcm.lat(self.lat_name)
            target = lat, lat.definition.monitored_class.lower()
        lat, class_key = target
        obj = context.get(class_key)
        if obj is None:
            raise ActionError(
                f"Insert({self.lat_name}): no {class_key!r} object in context"
            )
        obs = sqlcm.server.obs
        if obs is NULL_OBS:  # nobody attributes or traces: no frames
            self._maintain(sqlcm, lat, obj)
            return
        # the LAT, not the firing rule, owns maintenance cost — the paper
        # calls LAT maintenance "the biggest factor" and attribution must
        # be able to show that
        with obs.attrib("lat", self.lat_name), \
                obs.span(f"lat.insert:{self.lat_name}", "lat"):
            evicted = self._maintain(sqlcm, lat, obj)
        if obs.enabled:
            obs.count("sqlcm.lat.inserts")
            if evicted:
                obs.count("sqlcm.lat.evictions", len(evicted))
            obs.gauge(f"sqlcm.lat.rows.{self.lat_name.lower()}", len(lat))
            obs.gauge(f"sqlcm.lat.occupancy.{self.lat_name.lower()}",
                      lat.occupancy())

    def _maintain(self, sqlcm, lat, obj) -> list[dict]:
        """Charge, insert, and queue an evict event per row pushed out."""
        server = sqlcm.server
        costs = server.costs
        server.add_monitor_cost(costs.lat_insert + 3 * costs.lat_latch)
        sqlcm.check_fault("lat.insert")
        evicted = lat.insert(obj, sqlcm.sample_weight)
        if evicted:
            server.add_monitor_cost(costs.lat_evict * len(evicted))
            for row in evicted:
                sqlcm.enqueue_evict_event(self.lat_name, row)
        return evicted


@dataclass
class ResetAction(Action):
    """``Reset(LATName)`` — clear the LAT and free its memory."""

    lat_name: str

    def validate(self, sqlcm, rule) -> None:
        sqlcm.lat(self.lat_name)

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        sqlcm.server.add_monitor_cost(sqlcm.server.costs.lat_latch)
        sqlcm.lat(self.lat_name).reset()


@dataclass
class PersistAction(Action):
    """``Persist(TableName, Attr...)`` — write an object or a whole LAT to a
    disk-resident table (with an extra timestamp column)."""

    table: str
    attributes: list[str] | None = None
    source: str | None = None  # class name or LAT name; default: event class

    side_effect = True

    def _resolve_source(self, sqlcm, rule) -> tuple[str, str]:
        """Returns ("lat"|"class", lowercase name)."""
        name = self.source
        if name is None:
            if rule is None or rule.event_class is None:
                raise ActionError("Persist needs an explicit source")
            name = rule.event_class.name
        key = name.lower()
        if sqlcm.has_lat(key):
            return "lat", key
        if sqlcm.schema.has_class(name):
            return "class", key
        raise ActionError(
            f"Persist source {name!r} is neither a LAT nor a class"
        )

    def validate(self, sqlcm, rule) -> None:
        kind, name = self._resolve_source(sqlcm, rule)
        if kind == "class" and self.attributes:
            cls = sqlcm.schema.monitored_class(name)
            if cls.name.lower() != "evicted":
                for attr in self.attributes:
                    cls.attribute(attr)

    def required_classes(self, sqlcm) -> set[str]:
        if self.source is not None and not sqlcm.has_lat(self.source.lower()) \
                and sqlcm.schema.has_class(self.source):
            return {self.source.lower()}
        return set()

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        kind, name = self._resolve_source(sqlcm, rule)
        if kind == "lat":
            sqlcm.persist_lat(name, self.table)
            return
        obj = context.get(name)
        if obj is None:
            raise ActionError(f"Persist: no {name!r} object in context")
        sqlcm.persist_object(obj, self.table, self.attributes)

    def describe(self, context, lat_rows) -> str:
        return f"Persist -> {self.table} (source={self.source or 'event'})"


@dataclass
class SendMailAction(Action):
    """``SendMail(Text, Address)`` — deliver to the SQLCM outbox.

    ``{Class.Attr}`` and ``{LAT.Column}`` placeholders are substituted.
    """

    text: str
    address: str

    side_effect = True

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        sqlcm.server.add_monitor_cost(sqlcm.server.costs.sendmail_cost)
        body = _substitute(self.text, context, lat_rows)
        sqlcm.check_fault("sink")
        sqlcm.outbox.append(Mail(sqlcm.server.clock.now, self.address, body))

    def describe(self, context, lat_rows) -> str:
        return (f"SendMail to {self.address}: "
                f"{_substitute(self.text, context, lat_rows)}")


@dataclass
class RunExternalAction(Action):
    """``RunExternal(Command)`` — record to the command journal and invoke
    the engine's external handler, if one is registered."""

    command: str

    side_effect = True

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        sqlcm.server.add_monitor_cost(sqlcm.server.costs.runexternal_cost)
        rendered = _substitute(self.command, context, lat_rows)
        sqlcm.check_fault("sink")
        if sqlcm.external_handler is not None:
            sqlcm.external_handler(rendered)
        # journal records *delivered* invocations: appended only after the
        # handler succeeds so retried deliveries are not double-counted
        sqlcm.command_journal.append(
            Command(sqlcm.server.clock.now, rendered)
        )

    def describe(self, context, lat_rows) -> str:
        return f"RunExternal: {_substitute(self.command, context, lat_rows)}"


@dataclass
class CallbackAction(Action):
    """Extension action: invoke a Python callable with (sqlcm, context).

    The paper notes SQLCM "offers a generic interface to integrate new
    monitored objects, events and probes"; this is the equivalent extension
    point on the action side, used by in-server applications (e.g. the
    resource governor's MPL policy) that need engine state a declarative
    action cannot reach.
    """

    callback: Any
    required: tuple[str, ...] = ()

    def required_classes(self, sqlcm) -> set[str]:
        return {name.lower() for name in self.required}

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        self.callback(sqlcm, context)


_CANCELLABLE = {"query", "blocker", "blocked"}


def cancel_with_outcome(sqlcm, rule, target: str, qctx) -> bool:
    """Cancel ``qctx`` and surface the outcome instead of swallowing it.

    ``Server.cancel_query`` returns ``False`` when the victim has already
    finished (e.g. a blocker idling in transaction think time) — an outcome
    DBAs need to see, because the rule *looked* like it acted but nothing
    was released.  Publishes a ``sqlcm.cancel`` event either way and bumps
    ``sqlcm.cancel.failed`` on the no-op path.  Returns the cancel result.
    """
    ok = sqlcm.server.cancel_query(qctx)
    obs = sqlcm.server.obs
    obs.count("sqlcm.cancel.requested")
    if not ok:
        obs.count("sqlcm.cancel.failed")
    sqlcm.server.events.publish("sqlcm.cancel", {
        "rule": rule.name if rule is not None else None,
        "target": target,
        "query_id": qctx.query_id,
        "ok": ok,
        "time": sqlcm.server.clock.now,
    })
    return ok


@dataclass
class CancelAction(Action):
    """``Cancel()`` — cancel the in-context Query / Blocker / Blocked.

    The cancel signal is asynchronous: all remaining rules for the current
    event run first; the victim notices at its next execution step.
    """

    target: str = "Query"

    def validate(self, sqlcm, rule) -> None:
        if self.target.lower() not in _CANCELLABLE:
            raise ActionError(
                f"Cancel can only target Query/Blocker/Blocked, "
                f"not {self.target!r}"
            )

    def required_classes(self, sqlcm) -> set[str]:
        return {self.target.lower()}

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        # the cancel acts on the engine, outside the monitor
        sqlcm.effect(self._cancel, sqlcm, rule, context)

    def _cancel(self, sqlcm, rule, context) -> None:
        obj = context.get(self.target.lower())
        if obj is None:
            raise ActionError(f"Cancel: no {self.target!r} object in context")
        qctx = obj.source
        if qctx is None:
            raise ActionError("Cancel target has no underlying query")
        cancel_with_outcome(sqlcm, rule, self.target, qctx)


@dataclass
class SetTimerAction(Action):
    """``Set(Time, number_alarms)`` — configure a Timer object.

    ``repeats``: 0 disables the timer, a negative number loops forever.
    """

    timer_name: str
    interval: float
    repeats: int = -1

    def validate(self, sqlcm, rule) -> None:
        if self.interval <= 0 and self.repeats != 0:
            raise ActionError("timer interval must be positive")

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        sqlcm.set_timer(self.timer_name, self.interval, self.repeats)
