"""Tests for the SQLCM schema (Appendix A) and monitored objects."""

import pytest

from repro import SQLCM
from repro.core.objects import MonitoredObject
from repro.core.schema import (AttributeDef, EventDef, MonitoredClassDef,
                               SCHEMA)
from repro.engine.types import SQLType
from repro.errors import SchemaError


class TestSchemaContents:
    def test_five_paper_classes_present(self):
        for name in ("Query", "Transaction", "Blocker", "Blocked", "Timer"):
            assert SCHEMA.has_class(name)

    def test_query_attributes_match_appendix_a(self):
        cls = SCHEMA.monitored_class("Query")
        for attr in ("ID", "Query_Text", "Logical_Signature",
                     "Physical_Signature", "Start_Time", "Duration",
                     "Estimated_Cost", "Time_Blocked", "Times_Blocked",
                     "Queries_Blocked", "Number_of_instances", "Query_Type"):
            assert cls.has_attribute(attr)

    def test_query_events(self):
        cls = SCHEMA.monitored_class("Query")
        for event in ("Start", "Compile", "Commit", "Cancel", "Rollback",
                      "Blocked", "Block_Released"):
            assert cls.event(event).engine_event.startswith("query.")

    def test_blocker_blocked_extend_query_schema(self):
        for name in ("Blocker", "Blocked"):
            cls = SCHEMA.monitored_class(name)
            assert cls.has_attribute("Duration")
            assert cls.has_attribute("Wait_Time")
            assert cls.has_attribute("Resource")

    def test_timer_attributes(self):
        cls = SCHEMA.monitored_class("Timer")
        assert cls.has_attribute("Current_Time")
        assert cls.event("Alert").engine_event == "timer.alert"

    def test_transaction_signature_attr_is_blob(self):
        cls = SCHEMA.monitored_class("Transaction")
        assert cls.attribute("Logical_Signature").sql_type is SQLType.BLOB

    def test_resolve_event_spec(self):
        cls, event = SCHEMA.resolve_event("Query.Commit")
        assert cls.name == "Query"
        assert event.engine_event == "query.commit"

    def test_resolve_bad_specs(self):
        with pytest.raises(SchemaError):
            SCHEMA.resolve_event("QueryCommit")
        with pytest.raises(SchemaError):
            SCHEMA.resolve_event("Query.Explode")
        with pytest.raises(SchemaError):
            SCHEMA.resolve_event("Ghost.Commit")

    def test_schema_extensible(self):
        schema_classes = len(SCHEMA.classes())
        table_class = MonitoredClassDef(
            "TestTable",
            [AttributeDef("Name", SQLType.STRING)],
            [EventDef("Grow", "query.commit")],
        )
        SCHEMA.register_class(table_class)
        try:
            assert SCHEMA.has_class("TestTable")
            with pytest.raises(SchemaError):
                SCHEMA.register_class(table_class)
        finally:
            SCHEMA._classes.pop("testtable")
        assert len(SCHEMA.classes()) == schema_classes


class TestMonitoredObjects:
    def test_query_object_probes(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session(user="alice",
                                              application="crm")
        result = session.execute("SELECT id FROM items WHERE id = 1")
        obj = sqlcm.factory.query(result.query)
        assert obj.get("ID") == result.query.query_id
        assert obj.get("query_text") == "SELECT id FROM items WHERE id = 1"
        assert obj.get("User") == "alice"
        assert obj.get("Application") == "crm"
        assert obj.get("Query_Type") == "SELECT"
        assert obj.get("Duration") > 0
        assert obj.get("Estimated_Cost") > 0
        assert obj.get("Times_Blocked") == 0

    def test_unknown_probe_raises(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session()
        result = session.execute("SELECT id FROM items WHERE id = 1")
        obj = sqlcm.factory.query(result.query)
        with pytest.raises(SchemaError):
            obj.get("Imaginary")

    def test_snapshot_materializes_attributes(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session()
        result = session.execute("SELECT id FROM items WHERE id = 1")
        obj = sqlcm.factory.query(result.query)
        snap = obj.snapshot(["ID", "Query_Type"])
        assert snap == {"ID": result.query.query_id, "Query_Type": "SELECT"}

    def test_blocker_object_extras(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session()
        result = session.execute("SELECT id FROM items WHERE id = 1")
        obj = sqlcm.factory.blocker(result.query, ("row", "items", 1), 2.5)
        assert obj.class_name == "Blocker"
        assert obj.get("Wait_Time") == 2.5
        assert "items" in obj.get("Resource")

    def test_transaction_object_reads_its_first_statement(self,
                                                          items_server):
        sqlcm = SQLCM(items_server)
        commits = []
        items_server.events.subscribe("txn.commit",
                                      lambda e, p: commits.append(p))
        session = items_server.create_session(user="u", application="app")
        for sql in ("BEGIN", "SELECT id FROM items WHERE id = 1",
                    "UPDATE items SET qty = 1 WHERE id = 2", "COMMIT"):
            session.execute(sql)
        txn = commits[-1]["txn"]
        obj = sqlcm.factory.transaction(txn, commits[-1]["statements"])
        assert obj.snapshot(["User", "Application", "Statement_Count"]) \
            == {"User": "u", "Application": "app", "Statement_Count": 2}
        assert sqlcm.factory.transaction(txn, []).get("User") == ""

    def test_timer_object(self, items_server):
        sqlcm = SQLCM(items_server)
        timer = sqlcm.set_timer("t1", interval=5.0, repeats=2)
        obj = sqlcm.factory.timer(timer)
        assert obj.get("Name") == "t1"
        assert obj.get("Interval") == 5.0
        assert obj.get("Remaining_Alarms") == 2
        assert obj.get("Current_Time") == items_server.clock.now

    def test_evicted_row_object(self, items_server):
        sqlcm = SQLCM(items_server)
        obj = sqlcm.factory.evicted_row("MyLat", {"App": "x", "N": 3})
        assert obj.get("app") == "x"
        assert obj.get("N") == 3
        assert obj.get("lat_name") == "MyLat"

    def test_duration_live_for_running_query(self, items_server):
        sqlcm = SQLCM(items_server)
        seen = []
        items_server.events.subscribe(
            "query.start",
            lambda e, p: seen.append(
                sqlcm.factory.query(p["query"]).get("Duration")),
        )
        session = items_server.create_session()
        session.execute("SELECT id FROM items WHERE id = 1")
        assert seen == [0.0]
