"""Tests for Persist actions and LAT persist/restore (paper Section 4.3)."""

import pytest

from repro import (InsertAction, LATDefinition, PersistAction, Rule, SQLCM)
from repro.errors import ActionError, PersistCorruptionError


@pytest.fixture
def monitored(items_server):
    return items_server, SQLCM(items_server)


def _run(server, sql):
    session = server.create_session()
    result = session.execute(sql)
    server.close_session(session)
    return result


class TestPersistObject:
    def test_persist_creates_table_and_appends_timestamp(self, monitored):
        server, sqlcm = monitored
        sqlcm.add_rule(Rule(
            name="log_updates", event="Query.Commit",
            condition="Query.Query_Type = 'UPDATE'",
            actions=[PersistAction("update_log",
                                   ["ID", "Query_Text", "Duration"],
                                   source="Query")],
        ))
        _run(server, "UPDATE items SET qty = 1 WHERE id = 1")
        _run(server, "SELECT id FROM items WHERE id = 1")  # not persisted
        table = server.table("update_log")
        assert table.row_count == 1
        row = next(iter(table.scan()))[1]
        assert row[1].startswith("UPDATE items")
        assert len(row) == 4  # 3 attributes + sqlcm_ts
        assert row[3] == pytest.approx(server.clock.now, abs=1.0)

    def test_persist_all_attributes_by_default(self, monitored):
        server, sqlcm = monitored
        sqlcm.add_rule(Rule(
            name="log_all", event="Query.Commit",
            actions=[PersistAction("full_log", source="Query")],
        ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        table = server.table("full_log")
        query_cls_attr_count = len(
            sqlcm.schema.monitored_class("Query").attributes)
        assert len(table.schema.columns) == query_cls_attr_count + 1

    def test_persist_validates_attributes(self, monitored):
        server, sqlcm = monitored
        with pytest.raises(Exception):
            sqlcm.add_rule(Rule(
                name="bad", event="Query.Commit",
                actions=[PersistAction("t", ["NoSuchAttr"],
                                       source="Query")],
            ))

    def test_persist_unknown_source_rejected(self, monitored):
        server, sqlcm = monitored
        action = PersistAction("t", source="Martian")
        with pytest.raises(ActionError):
            action.validate(sqlcm, None)


class TestPersistLAT:
    def _lat(self, sqlcm):
        sqlcm.create_lat(LATDefinition(
            name="App_LAT",
            grouping=["Query.Application AS App"],
            aggregations=[
                "COUNT(Query.ID) AS N",
                "AVG(Query.Duration) AS Avg_D",
            ],
        ))
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[InsertAction("App_LAT")]))

    def test_persist_lat_writes_all_rows(self, monitored):
        server, sqlcm = monitored
        self._lat(sqlcm)
        for __ in range(3):
            _run(server, "SELECT id FROM items WHERE id = 1")
        written = sqlcm.persist_lat("App_LAT", "app_report")
        assert written == 1
        table = server.table("app_report")
        assert table.row_count == 1
        row = next(iter(table.scan()))[1]
        assert row[1] == 3  # N

    def test_persist_lat_repeatedly_appends(self, monitored):
        server, sqlcm = monitored
        self._lat(sqlcm)
        _run(server, "SELECT id FROM items WHERE id = 1")
        sqlcm.persist_lat("App_LAT", "app_report")
        _run(server, "SELECT id FROM items WHERE id = 1")
        sqlcm.persist_lat("App_LAT", "app_report")
        assert server.table("app_report").row_count == 2

    def test_restore_lat_roundtrip(self, monitored):
        server, sqlcm = monitored
        self._lat(sqlcm)
        for __ in range(4):
            _run(server, "SELECT id FROM items WHERE id = 1")
        before = sqlcm.lat("App_LAT").rows()
        sqlcm.persist_lat("App_LAT", "app_snapshot")

        # simulate restart: clear and re-upload
        sqlcm.lat("App_LAT").reset()
        assert sqlcm.lat("App_LAT").rows() == []
        restored = sqlcm.restore_lat("App_LAT", "app_snapshot")
        assert restored == 1
        after = sqlcm.lat("App_LAT").rows()
        assert after[0]["N"] == before[0]["N"]
        assert after[0]["Avg_D"] == pytest.approx(before[0]["Avg_D"])

    def test_restored_lat_continues_aggregating(self, monitored):
        server, sqlcm = monitored
        self._lat(sqlcm)
        for __ in range(4):
            _run(server, "SELECT id FROM items WHERE id = 1")
        sqlcm.persist_lat("App_LAT", "snap")
        sqlcm.lat("App_LAT").reset()
        sqlcm.restore_lat("App_LAT", "snap")
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert sqlcm.lat("App_LAT").rows()[0]["N"] == 5

    def test_corrupt_restore_leaves_live_lat_unchanged(self, monitored):
        """Atomicity: a failed restore must not touch the in-memory LAT."""
        server, sqlcm = monitored
        self._lat(sqlcm)
        for __ in range(2):
            _run(server, "SELECT id FROM items WHERE id = 1")
        sqlcm.persist_lat("App_LAT", "snap")
        table = server.table("snap")
        rowid = next(iter(table.scan()))[0]
        table.update(rowid, {1: 999})  # flip N behind the checksum
        for __ in range(3):  # live LAT moves past the snapshot
            _run(server, "SELECT id FROM items WHERE id = 1")
        before = sqlcm.lat("App_LAT").rows()
        with pytest.raises(PersistCorruptionError):
            sqlcm.restore_lat("App_LAT", "snap")
        # neither reset to empty nor half-swapped to the snapshot's 999
        assert sqlcm.lat("App_LAT").rows() == before

    def test_decode_failure_mid_seed_leaves_live_lat_unchanged(
            self, monitored):
        """Rows seed into a scratch LAT; the swap is all-or-nothing."""
        server, sqlcm = monitored
        self._lat(sqlcm)
        for app in ("alpha", "beta"):
            session = server.create_session(application=app)
            session.execute("SELECT id FROM items WHERE id = 1")
            server.close_session(session)
        # a hand-made table (no checksum column, so nothing validates it)
        # whose second row cannot decode: the first row seeds cleanly, the
        # second must abort the whole swap
        server.execute_ddl(
            "CREATE TABLE snap (App VARCHAR(30), N VARCHAR(10), Avg_D FLOAT)")
        table = server.table("snap")
        table.insert(["gamma", "3", 1.0])
        table.insert(["delta", "bogus", 1.0])
        before = sqlcm.lat("App_LAT").rows()
        assert len(before) == 2
        with pytest.raises(ValueError):
            sqlcm.restore_lat("App_LAT", "snap")
        assert sqlcm.lat("App_LAT").rows() == before
        table.delete(next(rowid for rowid, row in table.scan()
                          if row[0] == "delta"))
        assert sqlcm.restore_lat("App_LAT", "snap") == 1
        assert len(sqlcm.lat("App_LAT")) == 3

    def test_persist_via_rule_action(self, monitored):
        server, sqlcm = monitored
        self._lat(sqlcm)
        sqlcm.add_rule(Rule(
            name="flush_on_update", event="Query.Commit",
            condition="Query.Query_Type = 'UPDATE'",
            actions=[PersistAction("flushed", source="App_LAT")],
        ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        _run(server, "UPDATE items SET qty = 2 WHERE id = 1")
        assert server.catalog.has_table("flushed")
        assert server.table("flushed").row_count >= 1
