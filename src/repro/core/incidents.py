"""Incident lifecycle + closed-loop auto-remediation.

The paper's ECA rules stop at *alerting*: Cancel exists, but nothing turns
"a rule fired" into a tracked operational state with a scripted fix and a
verified recovery.  This module closes that loop (the ROADMAP's "chaos
scenarios + closed-loop auto-remediation" item, following SAQL's
detect-then-respond shape from PAPERS.md):

* :class:`IncidentManager` dedups and correlates rule firings and stream
  alerts into open -> acked -> resolved *incidents*, keyed by
  ``(incident class, signature)``.  Repeated detections of the same
  condition bump an occurrence counter instead of opening duplicates.
* Escalation and quiet-period auto-resolve run on the existing timer
  subsystem: the manager arms a ``Timer.Alert`` sweep rule, so its own
  upkeep is ordinary monitoring work charged to the monitor-cost pool.
* Remediation actions (:class:`CancelBlockerAction`,
  :class:`QuarantineRuleAction`, :class:`ResetLATAction`) are ECA actions
  guarded by a *remediation budget* and a *flap detector*: a fix that does
  not stick cannot thrash the system — further attempts are recorded as
  ``suppressed`` rather than executed.
* Every lifecycle transition dispatches a ``sqlcm.incident`` meta-event and
  every remediation attempt a ``sqlcm.remediation`` meta-event, so rules
  (and stream queries) can watch the remediation loop itself.
* History is persisted into real engine tables (``sqlcm_incidents``,
  ``sqlcm_remediations``, ``sqlcm_alerts``) so the investigation layer
  (:mod:`repro.monitoring.investigate`) can answer time-windowed
  "what led to incident X" queries after the fact (AIQL-style).

Note: arming the sweep timer keeps the scheduler runnable forever; drive
servers that host an incident manager with ``server.run(until=...)`` (or
``run_until_done``), not a bare ``run()``.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.core import state as schema  # ``Incident.state`` is a field
from repro.core.actions import (Action, CallbackAction, _PLACEHOLDER_RE,
                                _substitute, cancel_with_outcome)
from repro.core.rules import Rule
from repro.errors import ActionError, IncidentError

# incident states
INCIDENT_OPEN = "open"
INCIDENT_ACKED = "acked"
INCIDENT_RESOLVED = "resolved"

#: the manager's escalation / auto-resolve sweep timer (and rule) name
SWEEP_TIMER = "sqlcm_incident_sweep"

#: history tables written when ``IncidentPolicy.history`` is on
INCIDENT_TABLE = "sqlcm_incidents"
REMEDIATION_TABLE = "sqlcm_remediations"
ALERT_TABLE = "sqlcm_alerts"


@dataclass
class IncidentPolicy:
    """Tuning knobs for the incident lifecycle and its guardrails.

    ``escalation_timeout``: an incident open and unacknowledged this long
    is escalated to ``critical`` severity (once).  ``clear_after``: an
    active incident with no new detections for this long auto-resolves —
    the recovery verification of the remediation loop.  ``sweep_interval``
    is the period of the timer that applies both; 0 disables the timer
    (sweeps must then be driven manually via :meth:`IncidentManager.sweep`).

    ``max_remediations`` attempts are allowed per incident within a rolling
    ``remediation_window``; beyond that, attempts are suppressed.  A key
    that re-opens ``flap_threshold`` times within ``flap_window`` is
    *flapping*: the fix is not sticking, so further automated remediation
    is suppressed until the window drains (a DBA call, not a loop).

    ``history`` persists incidents/remediations/alerts into engine tables;
    ``alert_kinds`` selects which stream-alert kinds open incidents
    (``window`` emissions are routine output, not anomalies).
    """

    escalation_timeout: float = 10.0
    clear_after: float = 2.0
    sweep_interval: float = 0.5
    max_remediations: int = 3
    remediation_window: float = 60.0
    flap_threshold: int = 3
    flap_window: float = 60.0
    history: bool = True
    alert_to_incident: bool = True
    alert_kinds: tuple = ("deviation", "topk", "having")

    def __post_init__(self) -> None:
        if self.escalation_timeout <= 0 or self.clear_after <= 0:
            raise IncidentError(
                "escalation_timeout and clear_after must be positive")
        if self.max_remediations < 1:
            raise IncidentError("max_remediations must be >= 1")
        if self.flap_threshold < 2:
            raise IncidentError("flap_threshold must be >= 2")


@dataclass
class RemediationRecord:
    """One remediation attempt against an incident."""

    time: float
    incident_id: int
    action: str
    target: str
    outcome: str  # "ok" | "failed" | "suppressed"
    detail: str = ""


@dataclass
class Incident:
    """One deduplicated operational incident."""

    incident_id: int
    incident_class: str
    signature: str
    severity: str
    summary: str
    opened_at: float
    state: str = INCIDENT_OPEN
    acked_at: float | None = None
    resolved_at: float | None = None
    resolution: str | None = None
    last_seen: float = 0.0
    occurrences: int = 1
    escalated: bool = False
    remediations: list[RemediationRecord] = field(
        default_factory=list,
        metadata=schema.mark(element=RemediationRecord))
    #: ordered (time, phase, detail) lifecycle entries — the unit of the
    #: chaos determinism tests' timeline digest
    timeline: list[tuple] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str]:
        return (self.incident_class.lower(), self.signature)

    @property
    def active(self) -> bool:
        return self.state in (INCIDENT_OPEN, INCIDENT_ACKED)

    def snapshot(self) -> tuple:
        """Hashable state for digests and determinism assertions."""
        return (self.incident_id, self.incident_class, self.signature,
                self.severity, self.state, self.opened_at, self.resolved_at,
                self.occurrences, tuple(self.timeline),
                tuple((r.time, r.action, r.target, r.outcome)
                      for r in self.remediations))


class IncidentManager:
    """Incident dedup/correlation, escalation, and remediation guardrails.

    One instance per :class:`~repro.core.engine.SQLCM`, created lazily by
    :meth:`SQLCM.incident_manager` (pay only for what you monitor).  All
    bookkeeping charges the monitor-cost pool.
    """

    # the counters ride every journaled incident image; the incidents
    # themselves (and the construction-time policy) are saved one by one
    STATE = (
        ("_open_times", schema.first, deque),
        *schema.fields(schema.first, "_active", "_next_id", "opened",
                      "deduplicated", "resolved_count", "escalations",
                      "remediation_counts"),
        *schema.walked("policy", "_incidents"),
        *schema.transient("sqlcm", "server", "_listeners", "_history_ready",
                         "hears_alerts"),
    )

    def __init__(self, sqlcm, policy: IncidentPolicy | None = None):
        self.sqlcm = sqlcm
        self.server = sqlcm.server
        self.policy = policy or IncidentPolicy()
        self._incidents: dict[int, Incident] = {}
        self._active: dict[tuple[str, str], int] = {}
        self._next_id = 1
        #: per-key open times inside the flap window
        self._open_times: dict[tuple[str, str], deque] = {}
        # counters (the report section and benchmarks read these)
        self.opened = 0
        self.deduplicated = 0
        self.resolved_count = 0
        self.escalations = 0
        self.remediation_counts = {"ok": 0, "failed": 0, "suppressed": 0}
        #: callables fired on every lifecycle transition (service pushes);
        #: each receives the same payload the ``sqlcm.incident`` meta-event
        #: carries.  Listener errors are isolated, never propagated.
        self._listeners: list = []
        self._history_ready = False
        #: stream alerts reach the manager through the monitor's entry
        #: for ``sqlcm.stream_alert`` (``SQLCM._enter``)
        self.hears_alerts = bool(self.policy.alert_to_incident
                                 or self.policy.history)
        if sqlcm.journal is not None:
            # before the sweeper: replay re-creates the manager — and with
            # it the sweep rule — where it stood in the rule order
            sqlcm.journal.incidents_changed(self, [])
        if self.policy.sweep_interval > 0:
            self._install_sweeper()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def report(self, incident_class: str, signature: str, *,
               severity: str = "warning", summary: str = "") -> Incident:
        """Record one detection: open a new incident or bump an active one.

        Dedup key is ``(incident_class, signature)``: a second detection of
        the same condition while the incident is active increments
        ``occurrences`` instead of opening a duplicate.
        """
        costs = self.server.costs
        now = self.server.clock.now
        key = (incident_class.lower(), str(signature))
        active_id = self._active.get(key)
        if active_id is not None:
            self.server.add_monitor_cost(costs.incident_update)
            incident = self._incidents[active_id]
            incident.occurrences += 1
            incident.last_seen = now
            self.deduplicated += 1
            self._journal_incident(incident)
            return incident
        self.server.add_monitor_cost(costs.incident_open)
        incident = Incident(
            incident_id=self._next_id,
            incident_class=incident_class,
            signature=str(signature),
            severity=severity,
            summary=summary,
            opened_at=now,
            last_seen=now,
        )
        self._next_id += 1
        self._incidents[incident.incident_id] = incident
        self._active[key] = incident.incident_id
        opens = self._open_times.setdefault(key, deque())
        opens.append(now)
        self._trim(opens, now - self.policy.flap_window)
        self.opened += 1
        obs = self.server.obs
        obs.count("sqlcm.incidents.opened")
        obs.gauge("sqlcm.incidents.open", len(self._active))
        self._timeline(incident, "opened", summary)
        self._dispatch_incident(incident, "opened")
        self._history_incident(incident, "opened")
        return incident

    def ack(self, incident_id: int, by: str = "dba") -> Incident:
        """Acknowledge an open incident (stops escalation)."""
        incident = self.incident(incident_id)
        if incident.state != INCIDENT_OPEN:
            raise IncidentError(
                f"incident #{incident_id} is {incident.state}, not open")
        now = self.server.clock.now
        self.server.add_monitor_cost(self.server.costs.incident_update)
        incident.state = INCIDENT_ACKED
        incident.acked_at = now
        self._timeline(incident, "acked", by)
        self._dispatch_incident(incident, "acked")
        self._history_incident(incident, "acked")
        return incident

    def resolve(self, incident_id: int, resolution: str = "",
                by: str = "dba") -> Incident:
        """Close an active incident; a later re-detection opens a new one."""
        incident = self.incident(incident_id)
        if not incident.active:
            raise IncidentError(f"incident #{incident_id} is already resolved")
        now = self.server.clock.now
        self.server.add_monitor_cost(self.server.costs.incident_update)
        incident.state = INCIDENT_RESOLVED
        incident.resolved_at = now
        incident.resolution = resolution or f"resolved by {by}"
        self._active.pop(incident.key, None)
        self.resolved_count += 1
        obs = self.server.obs
        obs.count("sqlcm.incidents.resolved")
        obs.gauge("sqlcm.incidents.open", len(self._active))
        self._timeline(incident, "resolved", incident.resolution)
        self._dispatch_incident(incident, "resolved")
        self._history_incident(incident, "resolved")
        return incident

    def sweep(self) -> None:
        """Escalate stale open incidents; auto-resolve quiet ones.

        Normally driven by the ``sqlcm_incident_sweep`` timer rule; callable
        directly in tests or when the policy disables the timer.
        """
        now = self.server.clock.now
        policy = self.policy
        self.server.add_monitor_cost(self.server.costs.incident_sweep_base)
        for incident_id in list(self._active.values()):
            incident = self._incidents[incident_id]
            if incident.state == INCIDENT_OPEN and not incident.escalated \
                    and now - incident.opened_at >= policy.escalation_timeout:
                self.server.add_monitor_cost(
                    self.server.costs.incident_update)
                incident.escalated = True
                incident.severity = "critical"
                self.escalations += 1
                self.server.obs.count("sqlcm.incidents.escalated")
                self._timeline(incident, "escalated",
                               f"unacknowledged for "
                               f"{policy.escalation_timeout:g}s")
                self._dispatch_incident(incident, "escalated")
                self._history_incident(incident, "escalated")
            if now - incident.last_seen >= policy.clear_after:
                self.resolve(
                    incident.incident_id,
                    resolution=f"auto: quiet for {policy.clear_after:g}s",
                    by="sweeper")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def incident(self, incident_id: int) -> Incident:
        incident = self._incidents.get(incident_id)
        if incident is None:
            raise IncidentError(f"unknown incident #{incident_id}")
        return incident

    def incidents(self, state: str | None = None) -> list[Incident]:
        out = list(self._incidents.values())
        if state is not None:
            out = [i for i in out if i.state == state]
        return out

    def open_incidents(self) -> list[Incident]:
        """Active (open or acked) incidents, oldest first."""
        return [self._incidents[i] for i in sorted(self._active.values())]

    def active(self, incident_class: str, signature: str) -> Incident | None:
        """The active incident with this key, if any."""
        incident_id = self._active.get(
            (incident_class.lower(), str(signature)))
        return None if incident_id is None else self._incidents[incident_id]

    def remediations(self) -> list[RemediationRecord]:
        """All remediation records across incidents, in attempt order."""
        records = [r for i in self._incidents.values()
                   for r in i.remediations]
        records.sort(key=lambda r: (r.time, r.incident_id))
        return records

    def timeline_digest(self) -> int:
        """CRC32 over every incident's full timeline and remediations.

        Two same-seed chaos runs must produce identical digests (the
        governor's ``sample_digest`` technique applied to incidents).
        """
        entries = tuple(
            self._incidents[i].snapshot()
            for i in sorted(self._incidents)
        )
        return zlib.crc32(repr(entries).encode("utf-8"))

    # ------------------------------------------------------------------
    # remediation guardrails
    # ------------------------------------------------------------------

    def remediation_allowed(self, incident: Incident) -> tuple[bool, str]:
        """Budget + flap check; returns (allowed, suppression reason)."""
        policy = self.policy
        now = self.server.clock.now
        opens = self._open_times.get(incident.key)
        if opens is not None:
            self._trim(opens, now - policy.flap_window)
            if len(opens) >= policy.flap_threshold:
                return False, (
                    f"flapping: key re-opened {len(opens)} times within "
                    f"{policy.flap_window:g}s")
        horizon = now - policy.remediation_window
        attempts = sum(1 for r in incident.remediations
                       if r.outcome != "suppressed" and r.time >= horizon)
        if attempts >= policy.max_remediations:
            return False, (
                f"budget exhausted: {attempts} attempts within "
                f"{policy.remediation_window:g}s")
        return True, ""

    def record_remediation(self, incident: Incident, action: str,
                           target: str, outcome: str,
                           detail: str = "") -> RemediationRecord:
        """Account one remediation attempt and surface it as a meta-event."""
        now = self.server.clock.now
        record = RemediationRecord(
            time=now, incident_id=incident.incident_id, action=action,
            target=target, outcome=outcome, detail=detail)
        incident.remediations.append(record)
        self.remediation_counts[outcome] = \
            self.remediation_counts.get(outcome, 0) + 1
        obs = self.server.obs
        obs.count("sqlcm.remediation.attempts")
        obs.count(f"sqlcm.remediation.{outcome}")
        self._timeline(incident, f"remediation:{outcome}",
                       f"{action} -> {target}" + (f" ({detail})"
                                                  if detail else ""))
        if self.sqlcm._rules_by_event.get("sqlcm.remediation"):
            self.sqlcm.dispatch_event("sqlcm.remediation", {
                "incident_id": incident.incident_id,
                "incident_class": incident.incident_class,
                "signature": incident.signature,
                "action": action,
                "target": target,
                "outcome": outcome,
                "detail": detail,
                "time": now,
            })
        self._history_remediation(record, incident)
        return record

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _trim(times: deque, horizon: float) -> None:
        while times and times[0] < horizon:
            times.popleft()

    def _timeline(self, incident: Incident, phase: str,
                  detail: str = "") -> None:
        incident.timeline.append(
            (self.server.clock.now, phase, detail))
        # every lifecycle phase (and every remediation attempt — see
        # record_remediation) ends in a timeline entry, so this is the
        # one durable-image hook that covers them all
        self._journal_incident(incident)

    def _journal_incident(self, incident: Incident) -> None:
        if self.sqlcm.journal is not None:
            self.sqlcm.journal.incidents_changed(self, [incident])

    def add_listener(self, listener) -> None:
        """Register a callable fired on every incident lifecycle
        transition (opened / acked / escalated / resolved).  Used by the
        service tier to push incident events to subscribed clients."""
        self._listeners.append(listener)

    def _dispatch_incident(self, incident: Incident, phase: str) -> None:
        """Surface one lifecycle transition: notify registered listeners,
        then dispatch the ``sqlcm.incident`` meta-event (only when some
        rule listens — pay for what you monitor)."""
        if not self._listeners \
                and not self.sqlcm._rules_by_event.get("sqlcm.incident"):
            return
        payload = {
            "incident_id": incident.incident_id,
            "incident_class": incident.incident_class,
            "signature": incident.signature,
            "phase": phase,
            "state": incident.state,
            "severity": incident.severity,
            "occurrences": incident.occurrences,
            "summary": incident.summary,
            "time": self.server.clock.now,
        }
        tape = self.sqlcm.tape
        if tape is None or not tape.replaying:
            for listener in list(self._listeners):
                try:
                    listener(payload)
                except Exception:
                    pass
        if self.sqlcm._rules_by_event.get("sqlcm.incident"):
            self.sqlcm.dispatch_event("sqlcm.incident", payload)

    def _install_sweeper(self) -> None:
        self.sqlcm.add_rule(Rule(
            name=SWEEP_TIMER,
            event="Timer.Alert",
            condition=f"Timer.Name = '{SWEEP_TIMER}'",
            actions=[CallbackAction(lambda sqlcm, context: self.sweep())],
            criticality="critical",
        ))
        self.sqlcm.set_timer(SWEEP_TIMER, self.policy.sweep_interval, -1)

    # -- stream-alert sink ----------------------------------------------

    def _on_stream_alert(self, payload: dict) -> None:
        self._history_alert(payload)
        if not self.policy.alert_to_incident:
            return
        kind = payload.get("kind")
        if kind not in self.policy.alert_kinds:
            return
        stream = payload.get("stream")
        group = payload.get("group")
        signature = stream if group is None else f"{stream}|{group}"
        value = payload.get("value")
        self.report(
            f"stream.{kind}", signature,
            summary=f"stream {stream} {kind} alert: "
                    f"{payload.get('column')}={value}"
                    + (f" group={group}" if group is not None else ""))

    # -- history persistence --------------------------------------------

    _INCIDENT_COLUMNS = ("incident_id", "incident_class", "signature",
                         "phase", "state", "severity", "occurrences",
                         "detail")
    _REMEDIATION_COLUMNS = ("incident_id", "incident_class", "signature",
                            "action", "target", "outcome", "detail")
    _ALERT_COLUMNS = ("stream", "kind", "group_key", "column_name", "value")

    def history_tables(self) -> tuple[str, str, str]:
        """Engine table names the history feature persists into."""
        return (INCIDENT_TABLE, REMEDIATION_TABLE, ALERT_TABLE)

    def _ensure_history(self) -> bool:
        if not self.policy.history:
            return False
        if not self._history_ready:
            from repro.engine.types import SQLType
            self.sqlcm._ensure_reporting_table(
                INCIDENT_TABLE, list(self._INCIDENT_COLUMNS),
                [SQLType.INTEGER, SQLType.STRING, SQLType.STRING,
                 SQLType.STRING, SQLType.STRING, SQLType.STRING,
                 SQLType.INTEGER, SQLType.STRING])
            self.sqlcm._ensure_reporting_table(
                REMEDIATION_TABLE, list(self._REMEDIATION_COLUMNS),
                [SQLType.INTEGER, SQLType.STRING, SQLType.STRING,
                 SQLType.STRING, SQLType.STRING, SQLType.STRING,
                 SQLType.STRING])
            self.sqlcm._ensure_reporting_table(
                ALERT_TABLE, list(self._ALERT_COLUMNS),
                [SQLType.STRING, SQLType.STRING, SQLType.STRING,
                 SQLType.STRING, SQLType.FLOAT])
            self._history_ready = True
        return True

    def _history_row(self, table_name: str, values: list) -> None:
        self.server.add_monitor_cost(self.server.costs.persist_row)
        now = self.server.clock.now
        tape = self.sqlcm.tape
        # a replay writes the row only into a server that lacks the
        # history its checkpoint carried (a live restart keeps its own)
        if tape is None or not tape.replaying or tape.history:
            self.server.table(table_name).insert(values + [now])
        if self.sqlcm.journal is not None:
            self.sqlcm.journal.append("history", {
                "table": table_name, "values": values, "time": now})

    def _history_incident(self, incident: Incident, phase: str) -> None:
        if not self._ensure_history():
            return
        detail = incident.summary if phase == "opened" else \
            (incident.resolution or "") if phase == "resolved" else ""
        self._history_row(INCIDENT_TABLE, [
            incident.incident_id, incident.incident_class,
            incident.signature, phase, incident.state, incident.severity,
            incident.occurrences, detail])

    def _history_remediation(self, record: RemediationRecord,
                             incident: Incident) -> None:
        if not self._ensure_history():
            return
        self._history_row(REMEDIATION_TABLE, [
            record.incident_id, incident.incident_class,
            incident.signature, record.action, record.target,
            record.outcome, record.detail])

    def _history_alert(self, payload: dict) -> None:
        if not self._ensure_history():
            return
        try:
            value = float(payload.get("value"))
        except (TypeError, ValueError):
            value = 0.0
        self._history_row(ALERT_TABLE, [
            payload.get("stream"), payload.get("kind"),
            payload.get("group"), payload.get("column"), value])


# ---------------------------------------------------------------------------
# incident-producing and remediation ECA actions
# ---------------------------------------------------------------------------


def _template_classes(sqlcm, *templates: str) -> set[str]:
    """Schema classes referenced by ``{Class.Attr}`` placeholders."""
    needed: set[str] = set()
    for template in templates:
        for match in _PLACEHOLDER_RE.finditer(template or ""):
            qualifier = match.group(1)
            if sqlcm.schema.has_class(qualifier) \
                    and not sqlcm.has_lat(qualifier):
                needed.add(qualifier.lower())
    return needed


@dataclass
class OpenIncidentAction(Action):
    """``OpenIncident(Class, Signature)`` — report a detection.

    ``signature`` and ``summary`` support ``{Class.Attr}`` placeholders;
    the rendered signature is the dedup key, so e.g.
    ``"{Blocker.Resource}"`` correlates all firings about one hot resource
    into one incident.
    """

    incident_class: str
    signature: str
    severity: str = "warning"
    summary: str = ""

    def validate(self, sqlcm, rule) -> None:
        if not self.incident_class or not self.signature:
            raise ActionError("OpenIncident needs a class and a signature")

    def required_classes(self, sqlcm) -> set[str]:
        return _template_classes(sqlcm, self.signature, self.summary)

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        manager = sqlcm.incident_manager()
        manager.report(
            self.incident_class,
            _substitute(self.signature, context, lat_rows),
            severity=self.severity,
            summary=_substitute(self.summary, context, lat_rows),
        )


@dataclass
class RemediationAction(Action):
    """Base class for guarded remediation actions.

    Subclasses implement :meth:`_remediate` returning
    ``(ok, target, detail)``.  ``execute`` finds (or opens) the incident
    matching the rendered signature, consults the manager's budget and
    flap guardrails, and records the attempt's outcome — ``ok``,
    ``failed``, or ``suppressed`` — which also dispatches the
    ``sqlcm.remediation`` meta-event.
    """

    incident_class: str
    signature: str

    def validate(self, sqlcm, rule) -> None:
        if not self.incident_class or not self.signature:
            raise ActionError(
                f"{type(self).__name__} needs an incident class and "
                f"signature")

    def required_classes(self, sqlcm) -> set[str]:
        return _template_classes(sqlcm, self.signature)

    def _remediate(self, sqlcm, rule, context, lat_rows
                   ) -> tuple[bool, str, str]:
        raise NotImplementedError

    def execute(self, sqlcm, rule, context, lat_rows) -> None:
        manager = sqlcm.incident_manager()
        sqlcm.server.add_monitor_cost(
            sqlcm.server.costs.remediation_attempt)
        signature = _substitute(self.signature, context, lat_rows)
        incident = manager.active(self.incident_class, signature)
        if incident is None:
            # remediation without a prior OpenIncident still gets tracked
            incident = manager.report(
                self.incident_class, signature,
                summary=f"implicit (opened by {type(self).__name__})")
        allowed, reason = manager.remediation_allowed(incident)
        name = type(self).__name__
        if not allowed:
            manager.record_remediation(incident, name, "", "suppressed",
                                       reason)
            return
        ok, target, detail = self._remediate(sqlcm, rule, context, lat_rows)
        manager.record_remediation(incident, name, target,
                                   "ok" if ok else "failed", detail)


@dataclass
class CancelBlockerAction(RemediationAction):
    """Cancel the in-context Blocker (or Query) via ``Server.cancel_query``.

    The classic blocking-storm fix: kill the statement holding the hot
    resource.  The cancel outcome is honest — cancelling an
    already-finished statement (e.g. a blocker idling in transaction think
    time) reports ``failed``, not silent success.
    """

    target: str = "Blocker"

    def required_classes(self, sqlcm) -> set[str]:
        return super().required_classes(sqlcm) | {self.target.lower()}

    def _remediate(self, sqlcm, rule, context, lat_rows):
        return sqlcm.effect(self._cancel, sqlcm, rule, context)

    def _cancel(self, sqlcm, rule, context):
        obj = context.get(self.target.lower())
        if obj is None:
            raise ActionError(
                f"CancelBlocker: no {self.target!r} object in context")
        qctx = obj.source
        if qctx is None:
            raise ActionError("CancelBlocker target has no underlying query")
        ok = cancel_with_outcome(sqlcm, rule, self.target, qctx)
        return (ok, f"query#{qctx.query_id}",
                "cancel requested" if ok else "query already finished")


@dataclass
class QuarantineRuleAction(RemediationAction):
    """Quarantine a named rule via the fault-isolation circuit breaker.

    The overload fix: when a monitoring component itself is the problem
    (e.g. a hostile best-effort rule driving the governor up the ladder),
    take it out of the evaluation path.
    """

    rule_name: str = ""

    def validate(self, sqlcm, rule) -> None:
        super().validate(sqlcm, rule)
        if not self.rule_name:
            raise ActionError("QuarantineRule needs a rule name")

    def _remediate(self, sqlcm, rule, context, lat_rows):
        name = self.rule_name
        if name.lower() not in sqlcm.rules:
            return False, name, "unknown rule"
        if sqlcm.health.health_of(name).quarantined:
            return False, name, "already quarantined"
        by = rule.name if rule is not None else "remediation"
        sqlcm.health.quarantine(name, sqlcm.server.clock.now,
                                f"remediation by rule {by!r}")
        return True, name, "quarantined"


@dataclass
class ResetLATAction(RemediationAction):
    """Reset a named LAT, releasing its memory.

    Companion to :class:`QuarantineRuleAction`: after suspending a
    misbehaving component, drop the state it accumulated.
    """

    lat_name: str = ""

    def validate(self, sqlcm, rule) -> None:
        super().validate(sqlcm, rule)
        if not self.lat_name:
            raise ActionError("ResetLAT needs a LAT name")

    def _remediate(self, sqlcm, rule, context, lat_rows):
        if not sqlcm.has_lat(self.lat_name):
            return False, self.lat_name, "unknown LAT"
        lat = sqlcm.lat(self.lat_name)
        rows = len(lat)
        sqlcm.server.add_monitor_cost(sqlcm.server.costs.lat_latch)
        lat.reset()
        return True, self.lat_name, f"dropped {rows} rows"
