"""The single state schema: completeness, round trip, and 1-shard identity.

Every stateful class declares its fields once (``STATE`` tuple or dataclass
fields, see :mod:`repro.core.state`).  These tests fail — naming the
attribute — when an attribute is added without deciding its durability and
merge-op, and prove that what the checkpoint walk dumps is exactly what a
recovery loads back.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (DatabaseServer, InsertAction, LATDefinition, Rule,
                   SendMailAction, ServerConfig, ShardedSQLCM, SQLCM)
from repro.core import state
from repro.core.aggregates import AgingSpec
from repro.core.durability import (DurabilityManager, build_sections,
                                   parse_checkpoint)
from repro.core.engine import fold_lat, fold_window
from repro.core.governor import (GOV_SHEDDING, GovernorPolicy,
                                 GovernorTransition)
from repro.core.incidents import Incident, IncidentPolicy, RemediationRecord
from repro.core.lat import AggSpec, GroupSpec, OrderSpec
from repro.core.resilience import DeadLetter, RuleHealth
from repro.errors import DurabilityError

#: dataclass state records, with the fields each keeps out of its image
RECORDS = {
    RuleHealth: set(), GovernorPolicy: set(), GovernorTransition: set(),
    IncidentPolicy: set(), Incident: set(), RemediationRecord: set(),
    LATDefinition: set(), GroupSpec: set(), AggSpec: set(),
    OrderSpec: set(), AgingSpec: set(),
    DeadLetter: {"action_obj", "context", "lat_rows"},
    Rule: {"actions", "event_class", "event_def", "compiled_condition"},
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
    # first, as recovery re-creates it: the manager registers its own
    # sweep rule, and rule order is part of the image
    manager = sqlcm.incident_manager(IncidentPolicy(escalation_timeout=3.0,
                                                    clear_after=1000.0))
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
        for record in records:
            assert state.load(type(record), state.dump(record)) == record
        letter = sqlcm.dead_letters.entries()[0]
        restored = state.load(DeadLetter, state.dump(letter))
        assert restored.action_obj is None and restored.context is None
        assert state.dump(restored) == state.dump(letter)


class TestCheckpointRoundTrip:
    def test_dump_render_parse_load_dump_is_a_fixed_point(self, tmp_path):
        server, sqlcm = populated_monitor()
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        path = tmp_path / f"checkpoint-{manager.generation:04d}.ckpt"
        on_disk = parse_checkpoint(str(path))
        # the walk dumped the interesting shapes, not their defaults
        aged = on_disk["lats"][0]
        assert any(enc[0] == "A" for __, states, __ in aged["rows"]
                   for enc in states)
        assert any(enc == ["E"] for __, states, __ in aged["rows"]
                   for enc in states)
        assert on_disk["governor"]["state"] == GOV_SHEDDING
        blocking, = (image for image in on_disk["incidents"]["incidents"]
                     if image["incident_class"] == "blocking")
        assert blocking["escalated"] and len(blocking["remediations"]) == 2
        assert on_disk["health"]["engine"]["_health"]["mailer"]["state"] \
            == "quarantined"
        assert len(on_disk["deadletters"]["_entries"]) == 1
        manager.detach()
        report = DurabilityManager.recover(str(tmp_path))
        assert report.records_replayed == 0
        assert build_sections([report.sqlcm]) == on_disk
        report.sqlcm.server.clock.advance_to(server.clock.now)
        assert report.sqlcm.state_digest() == sqlcm.state_digest()

    def test_v1_checkpoint_is_rejected_by_the_header_check(self, tmp_path):
        server, sqlcm = populated_monitor()
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        manager.detach()
        path = tmp_path / f"checkpoint-{manager.generation:04d}.ckpt"
        text = path.read_text(encoding="utf-8")
        assert text.startswith("SQLCM-CHECKPOINT v2\n")
        path.write_text(text.replace("CHECKPOINT v2", "CHECKPOINT v1", 1),
                        encoding="utf-8")
        with pytest.raises(DurabilityError, match="bad checkpoint header"):
            parse_checkpoint(str(path))
        with pytest.raises(DurabilityError, match="no valid checkpoint"):
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
        assert state.fold([query])["alerts"] is query.alerts

    def test_one_shard_facade_merges_nothing(self):
        server = DatabaseServer(ServerConfig(track_completed_queries=True))
        facade = ShardedSQLCM(server, n_shards=1)
        facade.create_lat(LATDefinition(
            name="L", grouping=["Query.User AS U"],
            aggregations=["COUNT(Query.ID) AS N"]))
        facade.add_rule(Rule(name="r", event="Query.Commit",
                             actions=[InsertAction("L")]))
        control = facade.shards[0].sqlcm
        assert facade.merged_lat("L") is control.lat("L")
        assert facade.state_digest() == control.state_digest()
