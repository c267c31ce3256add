"""The single state schema: completeness, round trip, and 1-shard identity.

Every stateful class declares its fields once (``STATE`` tuple or dataclass
fields, see :mod:`repro.core.state`).  These tests fail — naming the
attribute — when an attribute is added without deciding its durability and
merge-op, and prove that the records the checkpoint walk emits are exactly
what a recovery applies back.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import re
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (DatabaseServer, EventTrace, InsertAction, LATDefinition,
                   Rule, SendMailAction, ServerConfig, ShardedSQLCM, SQLCM)
from repro.core import state
from repro.core.aggregates import AgingSpec
from repro.core import durability
from repro.core.durability import (HANDLERS, DurabilityManager, frame,
                                   read_checkpoint, read_journal)
from repro.core.engine import fold_lat, fold_window
from repro.core.governor import (GOV_SHEDDING, GovernorPolicy,
                                 GovernorTransition)
from repro.core.incidents import Incident, IncidentPolicy, RemediationRecord
from repro.core.lat import AggSpec, GroupSpec, OrderSpec
from repro.core.resilience import DeadLetter, RuleHealth
from repro.errors import DurabilityError

from test_durability import strict

#: dataclass state records, with the fields each keeps out of its image
RECORDS = {
    RuleHealth: set(), GovernorPolicy: set(), GovernorTransition: set(),
    IncidentPolicy: set(), Incident: set(), RemediationRecord: set(),
    LATDefinition: set(), GroupSpec: set(), AggSpec: set(),
    OrderSpec: set(), AgingSpec: set(),
    DeadLetter: {"action_obj", "context", "lat_rows"},
    Rule: {"actions", "event_class", "event_def", "compiled_condition",
           "plan"},
}


def populated_monitor():
    """A monitor with every kind of durable state present and non-default."""
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    server.execute_ddl(
        "CREATE TABLE items (id INT NOT NULL PRIMARY KEY, price FLOAT)")
    loader = server.create_session()
    loader.execute("INSERT INTO items (id, price) VALUES (1, 1.5), (2, 2.0)")
    server.close_session(loader)
    sqlcm = SQLCM(server)
    sqlcm.create_lat(LATDefinition(
        name="Aged", monitored_class="Query",
        grouping=["Query.User AS U"],
        aggregations=[
            AggSpec("SUM", "Duration", "S", AgingSpec(window=10, delta=2)),
            "COUNT(Query.ID) AS N", "FIRST(Query.Application) AS App",
            "LAST(Query.Application) AS LastApp"],
        ordering=["N DESC"], max_rows=50))
    sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                        actions=[InsertAction("Aged")]))
    # between two user rules: the manager registers its own sweep rule, and
    # rule order is part of what a checkpoint carries
    manager = sqlcm.incident_manager(IncidentPolicy(escalation_timeout=3.0,
                                                    clear_after=1000.0))
    sqlcm.add_rule(Rule(name="mailer", event="Query.Commit",
                        condition="Query.Duration > 1000",
                        actions=[SendMailAction("slow", "dba@example.com")],
                        criticality="best_effort"))
    streams = sqlcm.stream_engine()
    streams.register(
        "STREAM dev FROM Query.Commit GROUP BY Query.User AS U "
        "WINDOW TUMBLING(2) AGG COUNT(*) AS N ANOMALY DEVIATION(N, 2, 4)")
    streams.register(
        "STREAM top FROM Query.Commit GROUP BY Query.User AS U "
        "WINDOW SLIDING(4, 2) AGG COUNT(*) AS N ANOMALY TOPK(N, 2)")
    governor = sqlcm.enable_governor()
    sqlcm.set_timer("t1", 5.0, 3)
    for i in range(12):
        session = server.create_session(user=f"u{i % 3}")
        session.execute("SELECT id FROM items WHERE id = 1")
        server.close_session(session)
        server.clock.advance(0.7)
    # FIRST/LAST rows that never saw a value keep the empty sentinel
    sqlcm.lat("Aged").seed_row({"U": "seeded", "N": 4})
    incident = manager.report("blocking", "items", summary="hot row")
    manager.record_remediation(incident, "CancelBlocker", "query#7", "ok")
    manager.record_remediation(incident, "CancelBlocker", "", "suppressed",
                               "budget exhausted")
    server.run(until=server.clock.now + 5.0)  # sweeps escalate it
    assert incident.escalated
    sqlcm.health.quarantine("mailer", server.clock.now, "test quarantine")
    governor._transition(server.clock.now, GOV_SHEDDING, 0.09, 0.12,
                         "escalate")
    assert governor.suspended
    sqlcm.dead_letters.append(DeadLetter(
        time=server.clock.now, rule="mailer", action="SendMailAction",
        payload="slow -> dba@example.com", error="SinkError: down",
        attempts=3, action_obj=object(), context={"query": object()}))
    streams.flush()
    return server, sqlcm


def holders(sqlcm):
    """Every live ``STATE``-declared holder reachable from a monitor."""
    found = [sqlcm, sqlcm.governor, sqlcm._incidents, sqlcm.health,
             sqlcm.dead_letters, sqlcm._streams, sqlcm._streams.health,
             *sqlcm.lats()]
    for query in sqlcm._streams.queries():
        found += [query, query.window]
        found += [op for op in (query.deviation, query.topk) if op]
    return found


class TestCompleteness:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_every_record_field_is_dumped_or_marked(self, cls):
        dumped = {f.name for f in state.schema(cls)}
        everything = {f.name for f in dataclasses.fields(cls)}
        assert everything - dumped == RECORDS[cls]

    def test_every_holder_attribute_is_declared(self, tmp_path):
        server, sqlcm = populated_monitor()
        # attached, so the journal hooks exist as instance attributes too
        DurabilityManager(sqlcm, str(tmp_path)).attach()
        seen = set()
        for holder in holders(sqlcm):
            cls = type(holder)
            seen.add(cls.__name__)
            declared = {entry[0] for entry in cls.STATE}
            undeclared = set(vars(holder)) - declared
            assert not undeclared, (
                f"{cls.__name__} attributes with no durability decision "
                f"(add them to {cls.__name__}.STATE): {sorted(undeclared)}")
            stale = {name for name in declared if not hasattr(holder, name)}
            assert not stale, f"{cls.__name__}.STATE names no attribute: " \
                              f"{sorted(stale)}"
        assert seen == {"SQLCM", "OverloadGovernor", "IncidentManager",
                        "RuleHealthRegistry", "DeadLetterJournal",
                        "StreamEngine", "LAT", "StreamQuery", "WindowState",
                        "DeviationOperator", "TopKOperator"}

    def test_records_round_trip_through_their_image(self):
        server, sqlcm = populated_monitor()
        incident = sqlcm._incidents.active("blocking", "items")
        records = [incident, incident.remediations[0],
                   sqlcm.health.health_of("mailer"), sqlcm.governor.policy,
                   sqlcm.governor.transitions[-1], sqlcm._incidents.policy,
                   sqlcm.lat("Aged").definition]
        def image(record):
            return state.loads(state.dumps(record))
        for record in records:
            assert state.load(type(record), image(record)) == record
        letter = sqlcm.dead_letters.entries()[0]
        restored = state.load(DeadLetter, image(letter))
        assert restored.action_obj is None and restored.context is None
        assert state.dumps(restored) == state.dumps(letter)


#: dict keys of every kind a record may carry, tag-shaped strings included
codec_keys = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.booleans(),
    st.sampled_from([math.inf, -math.inf, "~t", "~d", "~b", "~", "~x", ""]),
    st.text(max_size=3), st.tuples(st.integers(-2, 2), st.text(max_size=2)))
codec_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=4), st.binary(max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children), st.tuples(children, children),
        st.dictionaries(codec_keys, children, max_size=3)),
    max_leaves=12)


def same(a, b) -> bool:
    """``a == b`` with types kept apart (tuple/list, bool/int), nan equal
    to nan and the sign of a zero compared."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return same(list(a.items()), list(b.items()))
    return a == b


class TestCodec:
    @settings(max_examples=300)
    @given(codec_values)
    def test_loads_reads_back_what_dumps_wrote(self, value):
        text = state.dumps(value)
        assert text.isascii() and "\n" not in text
        assert same(state.loads(text), value)

    def test_sets_and_records_travel_as_their_images(self):
        health = RuleHealth("r", error_count=2)
        assert state.loads(state.dumps({3, 1, 2})) == [1, 2, 3]
        image = state.loads(state.dumps({"h": health}))["h"]
        assert image == state.loads(state.dumps(state.fold([health])))
        assert state.load(RuleHealth, image) == health


def checkpoint_records(manager):
    """The newest checkpoint of ``manager``, read back as records."""
    path = f"{manager.directory}/checkpoint-{manager.generation:04d}.ckpt"
    records, discarded = read_journal(path)
    assert discarded == 0
    return records


class TestCheckpointRoundTrip:
    def test_emit_write_read_apply_emit_is_a_fixed_point(self, tmp_path):
        server, sqlcm = populated_monitor()
        manager = DurabilityManager(sqlcm, str(tmp_path / "a")).attach()
        on_disk = checkpoint_records(manager)
        # only the end marker commits, and it counts what precedes it
        assert [r.commit for r in on_disk] == \
            [False] * (len(on_disk) - 1) + [True]
        assert on_disk[0].kind == "checkpoint" \
            and on_disk[0].data == {"version": durability.CHECKPOINT_VERSION}
        assert on_disk[-1].kind == "checkpoint_end" \
            and on_disk[-1].data["records"] == len(on_disk) - 1

        def only(kind):
            return [r.data for r in on_disk if r.kind == kind]
        # the walk emitted the interesting shapes, not their defaults
        aged, = only("lat_image")
        assert any(enc[0] == "A" for __, states, __ in aged["rows"]
                   for enc in states)
        assert any(enc == ["E"] for __, states, __ in aged["rows"]
                   for enc in states)
        governor, = only("governor")
        assert governor["state"] == GOV_SHEDDING
        incidents, = only("incidents")
        blocking, = (image for image in incidents["incidents"]
                     if image["incident_class"] == "blocking")
        assert blocking["escalated"] and len(blocking["remediations"]) == 2
        mailer, = (data["image"] for data in only("health")
                   if data["image"]["name"] == "mailer")
        assert mailer["state"] == "quarantined"
        letters, = only("deadletters")
        assert len(letters["entries"]) == 1
        manager.detach()
        report = DurabilityManager.recover(str(tmp_path / "a"))
        assert report.records_replayed == 0
        again = DurabilityManager(report.sqlcm, str(tmp_path / "b")).attach()
        assert checkpoint_records(again) == on_disk
        report.sqlcm.server.clock.advance_to(server.clock.now)
        assert report.sqlcm.state_digest() == sqlcm.state_digest()

    def test_v2_section_checkpoint_is_not_a_valid_checkpoint(self, tmp_path):
        server, sqlcm = populated_monitor()
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        manager.detach()
        path = tmp_path / f"checkpoint-{manager.generation:04d}.ckpt"
        path.write_text("SQLCM-CHECKPOINT v2\n"
                        "section meta 1b3b2b5f {'version': 2, 'time': 0.0}\n"
                        "end 0f4a3c21\n", encoding="utf-8")
        with pytest.raises(DurabilityError, match="no valid checkpoint"):
            DurabilityManager.recover(str(tmp_path))

    def test_a_directory_of_version_3_checkpoints_is_refused_by_name(
            self, tmp_path):
        """Version 3 wrote ``repr`` record lines: whole and CRC-valid, they
        are refused as what they are, not read as torn files."""
        def v3_line(seq, kind, commit, data):
            payload = repr((seq, kind, commit, 0.0, data))
            return f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n"
        header = v3_line(1, "checkpoint", False, {"version": 3})
        for generation in (1, 2):
            (tmp_path / f"checkpoint-{generation:04d}.ckpt").write_text(
                header + v3_line(2, "checkpoint_end", True, {
                    "records": 1, "crc": zlib.crc32(header[:8].encode())}),
                encoding="utf-8")
        with pytest.raises(DurabilityError,
                           match="a version 3 checkpoint.*reads version 7"):
            DurabilityManager.recover(str(tmp_path))
        with pytest.raises(DurabilityError, match="no end marker"):
            (tmp_path / "checkpoint-0002.ckpt").write_text(
                header[:20], encoding="utf-8")
            read_checkpoint(str(tmp_path / "checkpoint-0002.ckpt"))

    def test_a_directory_of_version_4_checkpoints_is_refused_by_name(
            self, tmp_path):
        """Version 4 journaled one ``stream_obs`` observation per query:
        its files are whole JSON lines, refused by the version they
        carry."""
        header = frame(1, "checkpoint", False, 0.0, {"version": 4})
        (tmp_path / "checkpoint-0001.ckpt").write_text(
            header + frame(2, "checkpoint_end", True, 0.0, {
                "records": 1, "crc": zlib.crc32(header[:8].encode())}),
            encoding="utf-8")
        with pytest.raises(DurabilityError, match="a version 4 checkpoint; "
                           "this build reads version 7 only"):
            DurabilityManager.recover(str(tmp_path))

    def test_a_directory_of_version_5_checkpoints_is_refused_by_name(
            self, tmp_path):
        """Version 5 journaled what each event did (``counts``,
        ``lat_insert``, ``stream_obs`` records), not the event itself:
        refused by the version it carries."""
        header = frame(1, "checkpoint", False, 0.0, {"version": 5})
        (tmp_path / "checkpoint-0001.ckpt").write_text(
            header + frame(2, "checkpoint_end", True, 0.0, {
                "records": 1, "crc": zlib.crc32(header[:8].encode())}),
            encoding="utf-8")
        with pytest.raises(DurabilityError, match="a version 5 checkpoint; "
                           "this build reads version 7 only"):
            DurabilityManager.recover(str(tmp_path))

    def test_a_directory_of_version_6_checkpoints_is_refused_by_name(
            self, tmp_path):
        """Version 6 held each alert of a ring as a whole dict, version 7
        holds its window row: refused by the version it carries."""
        header = frame(1, "checkpoint", False, 0.0, {"version": 6})
        (tmp_path / "checkpoint-0001.ckpt").write_text(
            header + frame(2, "checkpoint_end", True, 0.0, {
                "records": 1, "crc": zlib.crc32(header[:8].encode())}),
            encoding="utf-8")
        with pytest.raises(DurabilityError, match="a version 6 checkpoint; "
                           "this build reads version 7 only"):
            DurabilityManager.recover(str(tmp_path))


SRC = Path(__file__).resolve().parent.parent / "src"

#: ``journal.append("kind", ...)`` and ``journal.entry("kind", ...)``
#: anywhere, and the ``self``/``out`` spellings of the journal's own builders
#: and the checkpoint walk in durability.py
_APPEND_RE = re.compile(
    r"""\bjournal\.(?:append|entry)\(\s*['"]([a-z_]+)['"]""")
_OWN_APPEND_RE = re.compile(
    r"""\b(?:self|out)\.append\(\s*['"]([a-z_]+)['"]""")


def appended_kinds() -> set[str]:
    kinds: set[str] = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        kinds.update(_APPEND_RE.findall(text))
        if path.name == "durability.py":
            kinds.update(_OWN_APPEND_RE.findall(text))
    return kinds


class TestRecordKinds:
    """One apply table: every kind written anywhere has exactly one handler
    in :data:`HANDLERS`, and the table lists nothing that is never written."""

    def test_grep_finds_the_known_call_sites(self):
        """Guard the guard."""
        kinds = appended_kinds()
        assert {"lat_insert", "event", "dispatch", "stream_flush", "timer",
                "history", "rule_add", "lat_image", "checkpoint_end"} <= kinds

    def test_every_appended_kind_has_a_handler_and_no_handler_is_dead(self):
        assert appended_kinds() == set(HANDLERS)

    def test_every_kind_the_checkpoint_walk_emits_has_a_handler(
            self, tmp_path):
        server, sqlcm = populated_monitor()
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        emitted = {record.kind for record in checkpoint_records(manager)}
        assert emitted <= set(HANDLERS)
        # the populated monitor makes the walk emit its whole vocabulary
        assert emitted >= {"checkpoint", "lat_create", "rule_add",
                           "incidents", "stream_register", "lat_image",
                           "stream_image", "totals", "health", "governor",
                           "deadletters", "timer", "checkpoint_end"}

    def test_the_table_is_one_dict_literal_with_no_repeated_kind(self):
        tree = ast.parse(Path(durability.__file__).read_text("utf-8"))
        table, = (node.value for node in ast.walk(tree)
                  if isinstance(node, ast.AnnAssign)
                  and getattr(node.target, "id", None) == "HANDLERS")
        keys = [key.value for key in table.keys]
        assert sorted(keys) == sorted(set(keys)) == sorted(HANDLERS)

    def test_unknown_kind_is_a_durability_error(self, tmp_path):
        server, sqlcm = populated_monitor()
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        manager.detach()
        with open(manager.journal.path, "a", encoding="utf-8") as handle:
            handle.write(frame(1, "lat_teleport", True, 0.0, {}))
        with pytest.raises(DurabilityError, match="unknown journal record"):
            DurabilityManager.recover(str(tmp_path))


    def test_a_journal_from_before_restore_was_one_record_is_refused(
            self, tmp_path):
        """``lat_seed`` (one self-committing record per restored row) is
        no longer a kind: such a journal is refused by name, not replayed
        as something else."""
        server, sqlcm = populated_monitor()
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        manager.detach()
        assert "lat_seed" not in HANDLERS and len(HANDLERS) == 25
        with open(manager.journal.path, "a", encoding="utf-8") as handle:
            handle.write(frame(1, "lat_seed", True, 0.0, {
                "lat": "Aged", "values": {"U": "x", "N": 1}, "time": 0.0}))
        with pytest.raises(DurabilityError, match="'lat_seed'"):
            DurabilityManager.recover(str(tmp_path))


class TestOneShardFoldIsTheSerialMonitor:
    def test_fold_reads_live_objects_in_place(self):
        server, sqlcm = populated_monitor()
        folded = state.fold([sqlcm])
        assert folded["_instance_counts"] is sqlcm._instance_counts
        assert folded["events_handled"] == sqlcm.events_handled
        assert fold_lat([sqlcm], "Aged") is sqlcm.lat("Aged")
        query = sqlcm.stream_engine().query("dev")
        assert fold_window([query]) is query.window

    def test_an_alert_ring_is_walked_and_round_trips(self, tmp_path):
        """The ring is no field of a query's image: the checkpoint walk
        writes each alert as its window row, and recovery rebuilds it."""
        server, sqlcm = populated_monitor()
        query = sqlcm.stream_engine().query("top")
        assert ("alerts", None) in type(query).STATE
        assert "alerts" not in state.fold([query]) and query.alerts
        DurabilityManager(sqlcm, str(tmp_path)).attach().detach()
        recovered = DurabilityManager.recover(str(tmp_path)).sqlcm
        assert strict(list(recovered.stream_engine().query("top").alerts)) \
            == strict(list(query.alerts))

    def test_one_shard_facade_merges_nothing(self):
        server = DatabaseServer(ServerConfig(track_completed_queries=True))
        trace = EventTrace().attach(server)
        for i in range(4):
            session = server.create_session(user=f"u{i % 2}")
            session.execute("SELECT 1")
            server.close_session(session)
        trace.detach()
        facade = ShardedSQLCM(DatabaseServer(), n_shards=1)
        facade.create_lat(LATDefinition(
            name="L", grouping=["Query.User AS U"],
            aggregations=["COUNT(Query.ID) AS N"]))
        facade.add_rule(Rule(name="r", event="Query.Commit",
                             actions=[InsertAction("L")]))
        facade.run_trace(trace)
        control = facade.shards[0].sqlcm
        assert len(control.lat("L")) == 2
        assert facade.merged_lat("L") is control.lat("L")
        assert facade.state_digest() == control.state_digest()
