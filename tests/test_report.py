"""Tests for the DBA text reports."""

import io
import re

import pytest

from repro import (InsertAction, LATDefinition, Rule, SQLCM, Statement)
from repro.cli import Shell
from repro.monitoring.report import (blocking_health, full_report,
                                     lat_contents,
                                     monitoring_configuration,
                                     server_activity, stream_activity)


@pytest.fixture
def world(items_server):
    sqlcm = SQLCM(items_server)
    sqlcm.create_lat(LATDefinition(
        name="AppLat",
        grouping=["Query.Application AS App"],
        aggregations=["COUNT(Query.ID) AS N",
                      "AVG(Query.Duration) AS AvgD"],
    ))
    sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                        actions=[InsertAction("AppLat")]))
    return items_server, sqlcm


class TestReports:
    def test_monitoring_configuration_lists_rules_and_lats(self, world):
        server, sqlcm = world
        text = monitoring_configuration(sqlcm)
        assert "track" in text
        assert "Query.Commit" in text
        assert "AppLat" in text

    def test_lat_contents_renders_rows(self, world):
        server, sqlcm = world
        session = server.create_session(application="crm")
        session.execute("SELECT id FROM items WHERE id = 1")
        text = lat_contents(sqlcm, "AppLat")
        assert "crm" in text
        assert "App" in text and "N" in text

    def test_lat_contents_empty(self, world):
        __, sqlcm = world
        assert "empty" in lat_contents(sqlcm, "AppLat")

    def test_blocking_health_idle(self, world):
        server, sqlcm = world
        text = blocking_health(server, sqlcm)
        assert "no queries are currently blocked" in text
        assert "deadlocks detected so far: 0" in text

    def test_blocking_health_shows_waits(self, world):
        server, sqlcm = world
        writer = server.create_session(user="w")
        reader = server.create_session(user="r")
        writer.submit_script([
            "BEGIN",
            "UPDATE items SET qty = 0 WHERE id = 1",
            Statement("COMMIT", think_time=5.0),
        ])
        reader.submit_script([
            Statement("SELECT name FROM items WHERE id = 1",
                      think_time=0.1),
        ])
        server.run(until=1.0)  # reader is mid-wait now
        text = blocking_health(server, sqlcm)
        assert "blocked qid" in text
        assert "UPDATE items" in text
        server.run()  # drain

    def test_server_activity_recent_queries(self, world):
        server, sqlcm = world
        session = server.create_session()
        session.execute("SELECT id FROM items WHERE id = 1")
        text = server_activity(server)
        assert "SELECT id FROM items" in text
        assert "committed" in text

    def test_full_report_combines_sections(self, world):
        server, sqlcm = world
        text = full_report(server, sqlcm)
        assert "SERVER ACTIVITY" in text
        assert "BLOCKING HEALTH" in text
        assert "MONITORING CONFIGURATION" in text

    def test_cli_report_command(self, world):
        out = io.StringIO()
        shell = Shell(out=out)
        shell.execute_line(".report")
        assert "MONITORING CONFIGURATION" in out.getvalue()


class TestSubSecondWindows:
    """A window shorter than a second prints its two bounds, not ``[5s,5s)``
    for every window."""

    @pytest.fixture
    def shell(self):
        out = io.StringIO()
        shell = Shell(out=out)
        shell.execute_line(".stream STREAM fast FROM Query.Commit "
                           "WINDOW SLIDING(0.05, 0.01) AGG COUNT(*) AS N")
        shell.run_script("CREATE TABLE t (a INT PRIMARY KEY);"
                         "INSERT INTO t VALUES (1); SELECT a FROM t;")
        shell.server.clock.advance(0.1)
        return shell, out

    @staticmethod
    def assert_distinct_bounds(bounds):
        assert len(bounds) >= 2
        for start, end in bounds:
            assert float(end) - float(start) == pytest.approx(0.05)
        assert len(set(bounds)) == len(bounds)

    def test_cli_alerts(self, shell):
        shell, out = shell
        shell.execute_line(".alerts")
        self.assert_distinct_bounds(
            re.findall(r"window=\[(\S+)s,(\S+)s\)", out.getvalue()))

    def test_report_streams_section(self, shell):
        shell, __ = shell
        self.assert_distinct_bounds(
            re.findall(r"\[(\S+),(\S+)\)", stream_activity(shell.sqlcm)))
