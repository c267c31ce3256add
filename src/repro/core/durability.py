"""Crash-safe monitor durability: checkpoint + journal + recovery.

The monitor's state — rules and their health, LAT contents, stream window
panes, open incidents, the governor ladder, dead letters, pending timers —
lives in memory; this module makes it survive being killed.  Two on-disk
structures per *generation* N:

* ``checkpoint-000N.ckpt`` — an **atomic checkpoint**: the full monitor
  state serialized as one text file (versioned header, one ``section``
  line per subsystem with a CRC32 over its payload, an ``end`` line with
  a CRC over the section table), written to a temp file and published
  with ``os.replace``.  A reader either sees a complete, verified
  checkpoint or rejects the file and falls back to generation N-1.
* ``journal-000N.wal`` — an **append-only logical redo journal** of every
  mutation made after checkpoint N, one CRC-framed line per record.  The
  reader is torn-tail tolerant: it stops at the first record that fails
  its CRC, fails to parse, or lacks its trailing newline, then discards
  any trailing records past the last *committed* one.  Records written
  inside an event dispatch are committed as a group by the per-event
  ``counts`` marker; records written outside dispatch commit alone.

Recovery loads the newest valid checkpoint and replays its journal, so
the restored monitor's :meth:`~repro.core.engine.SQLCM.state_digest`
equals the digest at the last committed journal record before the crash
— the same replay-stable digest that proves sharded == serial in
:mod:`repro.shard`.  Crash-point fault injection rides the existing
:class:`~repro.core.resilience.FaultInjector` at two new sites
(``durability.checkpoint``, ``durability.append``); the
``monitor_crash`` chaos drill and ``tests/test_durability.py`` kill the
monitor at every site and assert digest equality after rebuild.

What "the monitor's state" is, is not decided here: every stateful class
declares its durable fields once (:mod:`repro.core.state`), checkpoint
sections and journal record images are ``dump`` images of those
declarations, and :func:`build_sections` is one walk over a *sequence*
of monitors — a serial monitor alone, or a sharded deployment's shard
monitors folded field by field with each field's declared merge-op.

Deliberately **not** persisted (see DESIGN.md section 14): the pending
event queue and in-flight dispatch (the journal only commits completed
event groups), the outbox/command side-effect logs (already delivered),
the signature registry's numeric ids (rebuilt on demand; instance counts
are keyed by signature bytes which do round-trip), the governor's open
measurement window, and per-stream ``events_seen``/``where_rejected``
tallies between checkpoints.
"""

from __future__ import annotations

import ast
import os
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.actions import (Action, CancelAction, InsertAction,
                                ResetAction, PersistAction,
                                RunExternalAction, SendMailAction,
                                SetTimerAction)
from repro.core.engine import SQLCM, fold_lat, fold_window
from repro.core.governor import GovernorPolicy
from repro.core.incidents import (CancelBlockerAction, Incident,
                                  IncidentPolicy, OpenIncidentAction,
                                  QuarantineRuleAction, ResetLATAction)
from repro.core.lat import LAT, LATDefinition, _Row
from repro.core.resilience import DeadLetter, RuleHealth
from repro.core.rules import Rule
from repro.core.state import (dec_plain, dec_state, dump, enc_plain,
                              enc_state, literalize, load, load_into)
from repro.errors import DurabilityError, FaultInjected

CHECKPOINT_HEADER = "SQLCM-CHECKPOINT v2"


# ---------------------------------------------------------------------------
# images the field codec cannot derive: polymorphic actions, registrations
# ---------------------------------------------------------------------------

# every declaratively-constructed action round-trips; CallbackAction holds
# a live closure and cannot (its rules are re-created by the recovery
# ``setup`` callback or reported as placeholders)
_ACTION_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (InsertAction, ResetAction, PersistAction, SendMailAction,
                RunExternalAction, CancelAction, SetTimerAction,
                OpenIncidentAction, CancelBlockerAction,
                QuarantineRuleAction, ResetLATAction)
}


def action_spec(action: Action) -> list | None:
    cls = _ACTION_TYPES.get(type(action).__name__)
    if type(action) is not cls:
        return None
    return [cls.__name__, dump(action)]


def action_from_spec(spec: list) -> Action:
    name, image = spec
    return load(_ACTION_TYPES[name], image)


def rule_image(clones: Sequence[Rule]) -> dict:
    """One rule's image: its declared fields folded across its per-shard
    clones (counters summed), plus the action specs."""
    return dump(*clones) | {
        "actions": [action_spec(a) for a in clones[0].actions]}


def stream_registration(query) -> dict:
    """What ``StreamEngine.register`` needs to re-create a query."""
    return {
        "text": query.spec.text,
        "name": query.name,
        "sink_lat": query.sink_lat,
        "criticality": query.criticality,
        "max_alerts": query.alerts.maxlen,
    }


def _register_stream(streams, data: dict):
    return streams.register(
        data["text"], name=data["name"], sink_lat=data["sink_lat"],
        max_alerts=data["max_alerts"], criticality=data["criticality"])


# ---------------------------------------------------------------------------
# the append-only journal
# ---------------------------------------------------------------------------

@dataclass
class JournalRecord:
    seq: int
    kind: str
    commit: bool
    time: float
    data: Any


class Journal:
    """Append-only logical redo journal with group-commit markers.

    One CRC-framed text line per record::

        <crc32 of payload, 8 hex chars> <repr((seq, kind, commit, time, data))>\\n

    ``commit`` semantics: records appended while the owning monitor is
    inside event dispatch default to ``False`` — the per-event ``counts``
    record at the end of ``_process_event`` carries an explicit
    ``commit=True`` and commits the whole group.  Records appended
    outside dispatch commit alone.  Recovery replays records only up to
    and including the last committed one; an uncommitted tail (crash
    mid-event) is discarded, exactly like a torn tail.

    A fault injected at ``durability.append`` marks the journal **dead**
    (the process crashed as far as the disk is concerned): subsequent
    appends are dropped silently, simulating post-crash execution the
    recovery must not see.  ``partial`` mode additionally writes a torn
    half-line first.  A real ``OSError`` also fails open — monitoring
    must never die because its journal disk did — and bumps the
    ``sqlcm.durability.journal_failed`` metric.
    """

    def __init__(self, sqlcm: SQLCM,
                 dispatching: Callable[[], bool] | None = None):
        self._sqlcm = sqlcm
        self._dispatching = (dispatching if dispatching is not None
                             else lambda: sqlcm._dispatching)
        self._file = None
        self.path: str | None = None
        self.seq = 0
        self.dead = False
        self.records_written = 0
        self.on_commit: list[Callable[[], None]] = []

    @property
    def clock(self):
        return self._sqlcm.server.clock

    def rotate(self, path: str) -> None:
        """Close the current segment and start a fresh one (post-checkpoint)."""
        self.close()
        self._file = open(path, "w", encoding="utf-8")
        self.path = path
        self.dead = False

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def append(self, kind: str, data: Any, commit: bool | None = None) -> None:
        if self.dead or self._file is None:
            return
        if commit is None:
            commit = not self._dispatching()
        self.seq += 1
        payload = repr((self.seq, kind, bool(commit), self.clock.now,
                        literalize(data)))
        line = f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n"
        try:
            self._sqlcm.check_fault("durability.append")
        except FaultInjected as err:
            if err.mode == "partial":
                # a torn tail: the first half of the line hit the disk
                self._file.write(line[: max(1, len(line) // 2)])
                self._file.flush()
            self.dead = True
            return
        try:
            self._file.write(line)
            self._file.flush()
        except OSError:
            self.dead = True
            self._sqlcm.server.obs.count("sqlcm.durability.journal_failed")
            return
        self.records_written += 1
        if commit:
            for callback in self.on_commit:
                callback()

    # convenience appenders used by the wired subsystems; state records
    # (dataclasses) are turned into images by ``literalize`` on append

    def lat_created(self, definition: LATDefinition) -> None:
        self.append("lat_create", {"definition": definition})

    def lat_dropped(self, name: str) -> None:
        self.append("lat_drop", {"name": name})

    def rule_added(self, rule: Rule) -> None:
        self.append("rule_add", {"rule": rule_image([rule])})

    def rule_removed(self, name: str) -> None:
        self.append("rule_remove", {"name": name})

    def rule_enabled(self, name: str, enabled: bool) -> None:
        self.append("rule_enable", {"name": name, "enabled": enabled})

    def stream_registered(self, query) -> None:
        self.append("stream_register", stream_registration(query))

    def stream_removed(self, name: str) -> None:
        self.append("stream_remove", {"name": name})

    def health_changed(self, namespace: str, health: RuleHealth) -> None:
        self.append("health", {"ns": namespace, "image": health})

    def incident_changed(self, manager, incident: Incident) -> None:
        self.append("incident", {"incident": incident,
                                 "manager": dump(manager)})

    def governor_changed(self, governor) -> None:
        self.append("governor", dump(governor))

    def dead_lettered(self, entry: DeadLetter) -> None:
        self.append("deadletter", {"entry": entry})

    def attach_stream_health(self, streams) -> None:
        """Wire a (possibly lazily-created) stream engine's health registry."""
        streams.health.journal_hook = (
            lambda health: self.health_changed("stream", health))


def read_journal(path: str) -> tuple[list[JournalRecord], int]:
    """Read a journal segment, tolerating a torn tail.

    Returns ``(committed_records, discarded)`` where ``discarded`` counts
    valid-but-uncommitted trailing records plus any torn line.  Reading
    stops at the first line that fails its CRC, fails to parse, or lacks
    its trailing newline.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "r", encoding="utf-8", newline="") as handle:
        content = handle.read()
    records: list[JournalRecord] = []
    torn = 0
    pieces = content.split("\n")
    # a well-formed file ends with "\n", leaving one empty trailing piece;
    # anything else in the final slot is a torn line
    if pieces and pieces[-1] == "":
        pieces.pop()
    elif pieces:
        torn = 1
        pieces.pop()
    for line in pieces:
        crc_hex, sep, payload = line.partition(" ")
        if not sep or len(crc_hex) != 8:
            torn = 1
            break
        try:
            if int(crc_hex, 16) != zlib.crc32(payload.encode("utf-8")):
                torn = 1
                break
            seq, kind, commit, time, data = ast.literal_eval(payload)
        except (ValueError, SyntaxError):
            torn = 1
            break
        records.append(JournalRecord(seq, kind, commit, time, data))
    last_commit = -1
    for index, record in enumerate(records):
        if record.commit:
            last_commit = index
    committed = records[: last_commit + 1]
    discarded = len(records) - len(committed) + torn
    return committed, discarded


# ---------------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------------

def render_checkpoint(sections: dict[str, Any]) -> str:
    lines = [CHECKPOINT_HEADER]
    table_crc = 0
    for name, payload in sections.items():
        text = repr(payload)
        crc = zlib.crc32(text.encode("utf-8"))
        table_crc = zlib.crc32(f"{name}:{crc:08x}".encode("utf-8"), table_crc)
        lines.append(f"section {name} {crc:08x} {text}")
    lines.append(f"end {table_crc:08x}")
    return "\n".join(lines) + "\n"


def parse_checkpoint(path: str) -> dict[str, Any]:
    """Parse and CRC-verify a checkpoint; raises DurabilityError if invalid."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        content = handle.read()
    lines = content.split("\n")
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise DurabilityError(f"{path}: bad checkpoint header")
    sections: dict[str, Any] = {}
    table_crc = 0
    ended = False
    for line in lines[1:]:
        if not line:
            continue
        if line.startswith("section "):
            if ended:
                raise DurabilityError(f"{path}: section after end marker")
            try:
                __, name, crc_hex, text = line.split(" ", 3)
            except ValueError:
                raise DurabilityError(f"{path}: malformed section line")
            if int(crc_hex, 16) != zlib.crc32(text.encode("utf-8")):
                raise DurabilityError(f"{path}: CRC mismatch in {name!r}")
            try:
                sections[name] = ast.literal_eval(text)
            except (ValueError, SyntaxError) as err:
                raise DurabilityError(
                    f"{path}: unreadable section {name!r}") from err
            table_crc = zlib.crc32(f"{name}:{crc_hex}".encode("utf-8"),
                                   table_crc)
        elif line.startswith("end "):
            if int(line.split(" ", 1)[1], 16) != table_crc:
                raise DurabilityError(f"{path}: section table CRC mismatch")
            ended = True
        else:
            raise DurabilityError(f"{path}: unrecognized line")
    if not ended:
        raise DurabilityError(f"{path}: missing end marker (torn write)")
    return sections


# ---------------------------------------------------------------------------
# the checkpoint walk: one pass over a sequence of monitors
# ---------------------------------------------------------------------------

def _lat_image(lat: LAT) -> dict:
    return dump(lat) | {
        "definition": dump(lat.definition),
        "rows": [(row.key, [enc_state(s) for s in row.states], row.seq)
                 for row in lat._rows.values()],
    }


def _load_lat(lat: LAT, data: dict) -> None:
    lat._rows.clear()
    aggs = lat.definition.aggregations
    for key, states, seq in data["rows"]:
        key = tuple(key)
        decoded = [dec_state(enc, func, spec.aging)
                   for enc, spec, func in zip(states, aggs, lat._functions)]
        lat._rows[key] = _Row(key, decoded, seq)
    load_into(lat, data)


def _query_image(copies: Sequence) -> dict:
    """One stream query across its per-shard ``copies``: registration and
    anomaly history from the control shard's, counters summed, panes
    merged."""
    query = copies[0]
    image = stream_registration(query) | dump(*copies)
    image["window"] = dump(*(q.window for q in copies)) | {
        "groups": [(key, [(pane, [enc_plain(s) for s in states])
                          for pane, states in panes])
                   for key, panes in fold_window(copies).groups.items()]}
    if query.deviation is not None:
        image["deviation"] = dump(*(q.deviation for q in copies)) | {
            "history": [(key, list(values)) for key, values
                        in query.deviation._history.items()]}
    if query.topk is not None:
        image["topk"] = dump(*(q.topk for q in copies))
    return image


def _load_query(streams, data: dict):
    query = load_into(_register_stream(streams, data), data)
    window = load_into(query.window, data["window"])
    window.groups = {
        tuple(key): deque((pane, [dec_plain(enc, func)
                                  for enc, func in zip(states, window.funcs)])
                          for pane, states in panes)
        for key, panes in data["window"]["groups"]}
    if query.deviation is not None and "deviation" in data:
        operator = load_into(query.deviation, data["deviation"])
        operator._history = {
            tuple(key): deque(values, maxlen=operator.spec.history)
            for key, values in data["deviation"]["history"]}
    if query.topk is not None and "topk" in data:
        load_into(query.topk, data["topk"])
    return query


def build_sections(monitors: Sequence[SQLCM]) -> dict[str, Any]:
    """The full monitor state as checkpoint sections, folded across
    ``monitors`` by each field's declared merge-op.

    A serial monitor is the one-element sequence: its live LATs and
    windows are read in place.  A sharded deployment passes its shard
    monitors, control shard first: totals and counters sum, LAT
    partitions and window panes merge, and registrations and supervisory
    state (health, incidents, governor ladder, dead letters, timers) are
    the control shard's — recovery always rebuilds a *serial* monitor.
    """
    control = monitors[0]
    sections: dict[str, Any] = {
        "meta": {"version": 2, "time": control.server.clock.now}
                | dump(*monitors),
    }
    incidents = control._incidents
    if incidents is not None:
        sections["incidents"] = {
            "policy": dump(incidents.policy),
            "manager": dump(incidents),
            "incidents": [dump(incident)
                          for incident in incidents._incidents.values()],
        }
    sections["lats"] = [_lat_image(fold_lat(monitors, name))
                        for name in control._lats]
    sections["rules"] = [
        rule_image([m.rules[key] for m in monitors if key in m.rules])
        for key in control.rules]
    streams = control._streams
    if streams is not None:
        engines = [m._streams for m in monitors if m._streams is not None]
        sections["streams"] = {
            "engine": dump(*engines),
            "queries": [_query_image([e.query(name) for e in engines])
                        for name in streams._queries],
        }
    health = {"engine": dump(control.health)}
    if streams is not None:
        health["stream"] = dump(streams.health)
    sections["health"] = health
    governor = control.governor
    sections["governor"] = None if governor is None else dump(governor)
    sections["deadletters"] = dump(control.dead_letters)
    sections["timers"] = [
        (timer.name, timer.interval, timer.remaining)
        for timer in control.timer_service.timers()]
    if incidents is not None and incidents.policy.history:
        tables = {}
        for table_name in incidents.history_tables():
            if control.server.catalog.has_table(table_name):
                table = control.server.table(table_name)
                tables[table_name] = [
                    literalize(list(row)) for __, row in table.scan()]
        sections["history"] = tables
    return sections


# ---------------------------------------------------------------------------
# checkpoint restore + journal replay
# ---------------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What a recovery did; ``sqlcm`` is the rebuilt serial monitor."""

    sqlcm: SQLCM
    generation: int
    checkpoint_path: str
    journal_path: str
    records_replayed: int = 0
    records_discarded: int = 0
    placeholder_rules: list[str] = field(default_factory=list)


class _Restorer:
    """Applies checkpoint sections and journal records to a fresh monitor."""

    def __init__(self, sqlcm: SQLCM, report: RecoveryReport):
        self.sqlcm = sqlcm
        self.report = report
        self.pending_timers: dict[str, tuple[float, int]] = {}
        # history rows replay only into a server that did not already
        # hold the history tables (a live supervised restart keeps them)
        self.apply_history = True

    # -- checkpoint ------------------------------------------------------

    def load_checkpoint(self, sections: dict[str, Any]) -> None:
        sqlcm = self.sqlcm
        meta = sections["meta"]
        sqlcm.server.clock.advance_to(meta["time"])
        load_into(sqlcm, meta)
        incidents = sections.get("incidents")
        if incidents is not None:
            self.apply_history = not sqlcm.server.catalog.has_table(
                "sqlcm_incidents")
            manager = sqlcm.incident_manager(
                load(IncidentPolicy, incidents["policy"]))
            for image in incidents["incidents"]:
                manager._incidents[image["incident_id"]] = load(Incident,
                                                                image)
            load_into(manager, incidents["manager"])
        for lat_data in sections.get("lats", ()):
            definition = load(LATDefinition, lat_data["definition"])
            if not sqlcm.has_lat(definition.name):
                sqlcm.create_lat(definition)
        for image in sections.get("rules", ()):
            self._restore_rule(image)
        streams_data = sections.get("streams")
        if streams_data is not None:
            streams = sqlcm.stream_engine()
            for query_data in streams_data["queries"]:
                if query_data["name"].lower() in streams._queries:
                    # re-registered by an earlier restore step; refresh state
                    streams.remove(query_data["name"])
                _load_query(streams, query_data)
            load_into(streams, streams_data["engine"])
        for lat_data in sections.get("lats", ()):
            _load_lat(sqlcm.lat(lat_data["definition"]["name"]), lat_data)
        health = sections.get("health", {})
        load_into(sqlcm.health, health.get("engine", {}))
        if health.get("stream"):
            load_into(sqlcm.stream_engine().health, health["stream"])
        governor = sections.get("governor")
        if governor is not None:
            self._replay_governor(governor, meta["time"])
        load_into(sqlcm.dead_letters, sections.get("deadletters", {}))
        for name, interval, remaining in sections.get("timers", ()):
            self.pending_timers[name.lower()] = (name, interval, remaining)
        history = sections.get("history")
        if history and self.apply_history:
            self._restore_history(history)

    def _restore_rule(self, image: dict) -> None:
        sqlcm = self.sqlcm
        rule = sqlcm.rules.get(image["name"].lower())
        if rule is None:
            actions = [action_from_spec(spec) for spec in image["actions"]
                       if spec is not None]
            if len(actions) < len(image["actions"]):
                # a callback action cannot be rebuilt from disk; the
                # recovery setup() callback is the supported path — report
                # the rule so the operator knows
                self.report.placeholder_rules.append(image["name"])
            if not actions:
                return  # a pure-callback rule (e.g. an app component's)
            rule = sqlcm.add_rule(load(Rule, image, actions=actions))
        rule.enabled = image["enabled"]
        rule.fire_count = image["fire_count"]
        rule.evaluation_count = image["evaluation_count"]

    def _restore_history(self, tables: dict[str, list]) -> None:
        sqlcm = self.sqlcm
        manager = sqlcm._incidents
        if manager is None:
            return
        manager._ensure_history()
        for table_name, rows in tables.items():
            if not sqlcm.server.catalog.has_table(table_name):
                continue
            table = sqlcm.server.table(table_name)
            for row in rows:
                table.insert(list(row))

    # -- journal ---------------------------------------------------------

    def replay(self, records: list[JournalRecord]) -> None:
        for record in records:
            self.sqlcm.server.clock.advance_to(record.time)
            handler = getattr(self, f"_replay_{record.kind}", None)
            if handler is None:
                raise DurabilityError(
                    f"unknown journal record kind {record.kind!r}")
            handler(record.data, record.time)
            self.report.records_replayed += 1

    def finish(self) -> None:
        """Re-arm pending timers (last: their processes need final clock)."""
        for name, interval, remaining in self.pending_timers.values():
            self.sqlcm.set_timer(name, interval, remaining)

    def _replay_lat_insert(self, data: dict, t: float) -> None:
        if self.sqlcm.has_lat(data["lat"]):
            self.sqlcm.lat(data["lat"]).insert(
                data["values"], data["weight"], now=data["time"])

    def _replay_lat_seed(self, data: dict, t: float) -> None:
        if self.sqlcm.has_lat(data["lat"]):
            self.sqlcm.lat(data["lat"]).seed_row(
                data["values"], now=data["time"])

    def _replay_lat_reset(self, data: dict, t: float) -> None:
        if self.sqlcm.has_lat(data["lat"]):
            self.sqlcm.lat(data["lat"]).reset()

    def _replay_lat_del(self, data: dict, t: float) -> None:
        if self.sqlcm.has_lat(data["lat"]):
            self.sqlcm.lat(data["lat"]).delete_row(tuple(data["key"]))

    def _replay_lat_create(self, data: dict, t: float) -> None:
        definition = load(LATDefinition, data["definition"])
        if not self.sqlcm.has_lat(definition.name):
            self.sqlcm.create_lat(definition)

    def _replay_lat_drop(self, data: dict, t: float) -> None:
        if self.sqlcm.has_lat(data["name"]):
            self.sqlcm.drop_lat(data["name"])

    def _replay_rule_add(self, data: dict, t: float) -> None:
        image = data["rule"]
        if image["name"].lower() not in self.sqlcm.rules:
            image = image | {"fire_count": 0, "evaluation_count": 0}
        self._restore_rule(image)

    def _replay_rule_remove(self, data: dict, t: float) -> None:
        if data["name"].lower() in self.sqlcm.rules:
            self.sqlcm.remove_rule(data["name"])

    def _replay_rule_enable(self, data: dict, t: float) -> None:
        rule = self.sqlcm.rules.get(data["name"].lower())
        if rule is not None:
            rule.enabled = data["enabled"]

    def _replay_stream_register(self, data: dict, t: float) -> None:
        streams = self.sqlcm.stream_engine()
        if data["name"].lower() not in streams._queries:
            _register_stream(streams, data)

    def _replay_stream_remove(self, data: dict, t: float) -> None:
        streams = self.sqlcm._streams
        if streams is not None and data["name"].lower() in streams._queries:
            streams.remove(data["name"])

    def _replay_stream_obs(self, data: dict, t: float) -> None:
        streams = self.sqlcm._streams
        if streams is None:
            return
        query = streams._queries.get(data["stream"].lower())
        if query is None:
            return
        key = tuple(data["key"])
        query.window.observe(key, list(data["values"]), data["time"])
        if query.next_boundary is None:
            query.next_boundary = (
                query.spec.window.pane_index(data["time"]) + 1)
        query.events_ingested += 1

    def _replay_stream_flush(self, data: dict, t: float) -> None:
        streams = self.sqlcm._streams
        if streams is None:
            return
        streams.replaying = True
        try:
            streams.flush(data["time"])
        finally:
            streams.replaying = False

    def _replay_counts(self, data: dict, t: float) -> None:
        sqlcm = self.sqlcm
        sqlcm.events_handled += 1
        sqlcm.rule_firings += data["firings"]
        sqlcm.rule_errors += data["errors"]
        for name, evals, fires in data["rules"]:
            rule = sqlcm.rules.get(name.lower())
            if rule is not None:
                rule.evaluation_count += evals
                rule.fire_count += fires

    def _replay_instance(self, data: dict, t: float) -> None:
        counts = self.sqlcm._instance_counts
        sig = bytes.fromhex(data["sig"])
        counts[sig] = counts.get(sig, 0) + data["delta"]

    def _replay_health(self, data: dict, t: float) -> None:
        if data["ns"] == "stream":
            registry = self.sqlcm.stream_engine().health
        else:
            registry = self.sqlcm.health
        image = data["image"]
        registry._health[image["name"]] = load(RuleHealth, image)

    def _replay_incident(self, data: dict, t: float) -> None:
        manager = self.sqlcm.incident_manager()
        image = data["incident"]
        manager._incidents[image["incident_id"]] = load(Incident, image)
        load_into(manager, data["manager"])

    def _replay_governor(self, data: dict, t: float) -> None:
        if self.sqlcm.governor is None:
            self.sqlcm.enable_governor(load(GovernorPolicy, data["policy"]))
        load_into(self.sqlcm.governor, data)

    def _replay_deadletter(self, data: dict, t: float) -> None:
        self.sqlcm.dead_letters._entries.append(
            load(DeadLetter, data["entry"]))

    def _replay_timer(self, data: dict, t: float) -> None:
        self.pending_timers[data["name"].lower()] = (
            data["name"], data["interval"], data["repeats"])

    def _replay_history(self, data: dict, t: float) -> None:
        if not self.apply_history:
            return
        sqlcm = self.sqlcm
        manager = sqlcm._incidents
        if manager is not None:
            manager._ensure_history()
        if sqlcm.server.catalog.has_table(data["table"]):
            sqlcm.server.table(data["table"]).insert(
                list(data["values"]) + [data["time"]])


# ---------------------------------------------------------------------------
# the durability manager
# ---------------------------------------------------------------------------

def _checkpoint_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"checkpoint-{generation:04d}.ckpt")


def _journal_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"journal-{generation:04d}.wal")


def _list_generations(directory: str) -> list[int]:
    generations = []
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            if name.startswith("checkpoint-") and name.endswith(".ckpt"):
                try:
                    generations.append(int(name[len("checkpoint-"):-5]))
                except ValueError:
                    continue
    return sorted(generations)


class DurabilityManager:
    """Owns one monitor's on-disk durability state.

    ``attach()`` wires the journal hooks into every subsystem and takes
    the initial checkpoint; ``checkpoint()`` publishes a new generation
    atomically and rotates the journal; :func:`recover` (also exposed as
    a static method) rebuilds a monitor from the newest valid generation.

    ``target`` may be a serial :class:`SQLCM` or a
    :class:`~repro.shard.sharded.ShardedSQLCM` — sharded journals merge
    into the shared segment and recovery always rebuilds a serial
    monitor (the digest proof in :mod:`repro.shard` guarantees equality).
    """

    def __init__(self, target, directory: str,
                 checkpoint_interval: float | None = None):
        self.target = target
        self.directory = directory
        self.checkpoint_interval = checkpoint_interval
        self.sharded = hasattr(target, "shards")
        #: the monitors the checkpoint walk folds, control shard first
        self.monitors: list[SQLCM] = (target.monitors if self.sharded
                                      else [target])
        self.control = self.monitors[0]
        if self.sharded:
            monitors = self.monitors
            self.journal = Journal(
                self.control,
                dispatching=lambda: any(m._dispatching for m in monitors))
        else:
            self.journal = Journal(target)
        existing = _list_generations(directory)
        self.generation = existing[-1] if existing else 0
        self.last_checkpoint_at: float | None = None
        self.checkpoints_taken = 0
        self.attached = False

    @property
    def clock(self):
        return self.control.server.clock

    # -- wiring ----------------------------------------------------------

    def attach(self) -> "DurabilityManager":
        """Install journal hooks on every subsystem, then checkpoint."""
        os.makedirs(self.directory, exist_ok=True)
        journal = self.journal
        for sqlcm in self.monitors:
            sqlcm.journal = journal
            for lat in sqlcm.lats():
                lat.journal = journal
        if not self.sharded:
            sqlcm = self.target
            sqlcm.health.journal_hook = (
                lambda health: journal.health_changed("engine", health))
            if sqlcm._streams is not None:
                journal.attach_stream_health(sqlcm._streams)
            sqlcm.dead_letters.journal_hook = journal.dead_lettered
        self.attached = True
        self.checkpoint()
        return self

    def detach(self) -> None:
        """Remove every journal hook and close the journal file."""
        for sqlcm in self.monitors:
            sqlcm.journal = None
            for lat in sqlcm.lats():
                lat.journal = None
            sqlcm.health.journal_hook = None
            if sqlcm._streams is not None:
                sqlcm._streams.health.journal_hook = None
            sqlcm.dead_letters.journal_hook = None
        self.journal.close()
        self.attached = False

    close = detach

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self) -> str:
        """Write a new checkpoint generation atomically; rotate the journal.

        Protocol: render the full state, consult the
        ``durability.checkpoint`` fault site (an *exception* fault models
        a crash before the rename — the temp file never becomes visible;
        a *partial* fault models a torn write that does become visible —
        recovery CRC-rejects it and falls back a generation), publish via
        ``os.replace``, and only then start the new journal segment and
        prune generations older than the previous one.
        """
        if self.control._dispatching:
            raise DurabilityError("cannot checkpoint mid-dispatch")
        generation = self.generation + 1
        content = render_checkpoint(build_sections(self.monitors))
        partial: FaultInjected | None = None
        try:
            self.control.check_fault("durability.checkpoint")
        except FaultInjected as err:
            if err.mode != "partial":
                raise  # crash mid-checkpoint: nothing became visible
            partial = err
            content = content[: max(1, int(len(content) * 0.6))]
        path = _checkpoint_path(self.directory, generation)
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(temp, path)
        if partial is not None:
            # the torn checkpoint landed, but the journal of the previous
            # generation was never rotated away — recovery falls back to it
            raise partial
        self.generation = generation
        self.journal.rotate(_journal_path(self.directory, generation))
        self._prune()
        self.last_checkpoint_at = self.clock.now
        self.checkpoints_taken += 1
        return path

    def maybe_checkpoint(self, now: float | None = None) -> str | None:
        """Checkpoint when the configured interval has elapsed."""
        if self.checkpoint_interval is None or not self.attached:
            return None
        if self.control._dispatching:
            return None
        now = self.clock.now if now is None else now
        last = self.last_checkpoint_at
        if last is not None and now - last < self.checkpoint_interval:
            return None
        return self.checkpoint()

    def _prune(self) -> None:
        """Keep the current and previous generations; drop older files."""
        for generation in _list_generations(self.directory):
            if generation <= self.generation - 2:
                for path in (_checkpoint_path(self.directory, generation),
                             _journal_path(self.directory, generation)):
                    if os.path.exists(path):
                        os.remove(path)

    def describe(self) -> dict:
        return {
            "directory": self.directory,
            "generation": self.generation,
            "checkpoints_taken": self.checkpoints_taken,
            "last_checkpoint_at": self.last_checkpoint_at,
            "checkpoint_interval": self.checkpoint_interval,
            "journal_records": self.journal.records_written,
            "journal_dead": self.journal.dead,
            "sharded": self.sharded,
        }

    # -- recovery --------------------------------------------------------

    @staticmethod
    def recover(directory: str, *, server=None, driver=None,
                setup: Callable[[SQLCM], None] | None = None,
                sqlcm: SQLCM | None = None) -> RecoveryReport:
        """Rebuild a serial monitor from the newest valid generation.

        Tries checkpoint generations newest-first; a generation whose
        checkpoint fails CRC verification (torn write) is skipped in
        favor of the previous one, whose journal kept growing because
        rotation only happens after a successful checkpoint publish.

        ``setup`` runs against the fresh monitor before any state is
        applied — it is the hook for re-registering components whose
        rules carry live callbacks (AutoRemediator, app rule packs);
        rules that cannot be rebuilt and were not pre-registered are
        listed in ``RecoveryReport.placeholder_rules``.
        """
        generations = _list_generations(directory)
        if not generations:
            raise DurabilityError(f"no checkpoint found in {directory!r}")
        chosen = None
        sections = None
        for generation in reversed(generations):
            path = _checkpoint_path(directory, generation)
            try:
                sections = parse_checkpoint(path)
            except (DurabilityError, OSError):
                continue
            chosen = generation
            break
        if chosen is None or sections is None:
            raise DurabilityError(
                f"no valid checkpoint generation in {directory!r}")
        if sqlcm is None:
            sqlcm = SQLCM(server, driver=driver)
        if setup is not None:
            setup(sqlcm)
        journal_path = _journal_path(directory, chosen)
        report = RecoveryReport(
            sqlcm=sqlcm, generation=chosen,
            checkpoint_path=_checkpoint_path(directory, chosen),
            journal_path=journal_path)
        restorer = _Restorer(sqlcm, report)
        restorer.load_checkpoint(sections)
        records, discarded = read_journal(journal_path)
        report.records_discarded = discarded
        restorer.replay(records)
        restorer.finish()
        return report


# ---------------------------------------------------------------------------
# kill-and-rebuild harness
# ---------------------------------------------------------------------------

class DigestTap:
    """Records ``(virtual time, digest)`` at every committed journal append.

    The last point is the state a correct recovery must reproduce: a
    crash can only lose the uncommitted tail, so the recovered monitor's
    digest must equal the digest at the last commit marker the disk saw.
    """

    def __init__(self, manager: DurabilityManager,
                 digest_fn: Callable[[], int] | None = None):
        self._fn = digest_fn or manager.target.state_digest
        self._clock = manager.clock
        self.points: list[tuple[float, int]] = []
        self._capture()  # the post-attach checkpoint state is point zero
        manager.journal.on_commit.append(self._capture)

    def _capture(self) -> None:
        self.points.append((self._clock.now, self._fn()))

    @property
    def last(self) -> tuple[float, int]:
        return self.points[-1]


def verify_recovery(directory: str, tap: DigestTap, *, server=None,
                    setup: Callable[[SQLCM], None] | None = None
                    ) -> RecoveryReport:
    """Recover from ``directory`` and assert digest equality with ``tap``.

    Raises :class:`DurabilityError` on mismatch; returns the report on
    success.  The recovered monitor's clock is advanced to the capture
    time first (aging aggregates and integrity signatures read the
    clock).
    """
    report = DurabilityManager.recover(directory, server=server, setup=setup)
    target_time, expected = tap.last
    report.sqlcm.server.clock.advance_to(target_time)
    actual = report.sqlcm.state_digest()
    if actual != expected:
        raise DurabilityError(
            f"recovered digest 0x{actual:08x} != pre-crash digest "
            f"0x{expected:08x} (generation {report.generation}, "
            f"{report.records_replayed} records replayed, "
            f"{report.records_discarded} discarded)")
    return report
