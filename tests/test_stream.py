"""Tests for the continuous stream-query subsystem.

Covers the declarative language (parse + bind errors), the engine's
event path (WHERE filtering, lazy window flush, HAVING / anomaly
alerts), the three sinks (alert ring, sink LAT, ``sqlcm.stream_alert``
meta-event consumed by ECA rules), and the failure semantics (isolation
at the ``stream.eval`` / ``stream.window`` fault sites, boundary-lost
not-retried, per-query quarantine).
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro import (DatabaseServer, FaultInjector, LATDefinition,
                   QuarantinePolicy, Rule, SendMailAction, ServerConfig,
                   SQLCM)
from repro.core.actions import CallbackAction
from repro.core.durability import DurabilityManager
from repro.core.resilience import RuleHealthRegistry
from repro.engine.query import QueryContext
from repro.errors import StreamError, StreamSyntaxError
from repro.sim.costs import CostModel
from repro.stream import (DeviationSpec, STREAM_FAULT_SITES, TopKSpec,
                          parse_stream_query)

_IDS = itertools.count(1)


def commit(server, t, duration, *, sig=None, user="u", app="tests",
           text="SELECT 1", qtype="SELECT", rows=0):
    """Advance the clock to ``t`` and publish one synthetic query.commit."""
    server.clock.advance_to(t)
    qctx = QueryContext(
        query_id=next(_IDS), session_id=1, text=text, user=user,
        application=app, query_type=qtype, start_time=t - duration,
        end_time=t, logical_signature=sig, rows_affected=rows)
    server.events.publish("query.commit", {"query": qctx})
    return qctx


# ---------------------------------------------------------------------------
# language
# ---------------------------------------------------------------------------

class TestLanguage:
    def test_full_statement_parses_and_binds(self):
        spec = parse_stream_query(
            "STREAM slow_apps FROM Query.Commit "
            "WHERE Query.Duration > 0.001 "
            "GROUP BY Query.Application AS App "
            "WINDOW SLIDING(10, 2) "
            "AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS N "
            "HAVING Window.Avg_D > 0.05 AND Window.N >= 3 "
            "ANOMALY DEVIATION(Avg_D, 3, 12)")
        assert spec.name == "slow_apps"
        assert spec.event_spec == "Query.Commit"
        assert spec.engine_event == "query.commit"
        assert spec.where is not None and spec.where.classes == {"query"}
        assert [(g.attribute, g.alias) for g in spec.groups] == \
            [("Application", "App")]
        assert (spec.window.kind, spec.window.length, spec.window.hop) == \
            ("sliding", 10.0, 2.0)
        assert [(a.func, a.attribute, a.alias) for a in spec.aggs] == \
            [("AVG", "Duration", "Avg_D"), ("COUNT", None, "N")]
        assert spec.having is not None
        assert isinstance(spec.anomaly, DeviationSpec)
        assert spec.anomaly.column == "Avg_D"
        assert spec.anomaly.k == 3.0 and spec.anomaly.history == 12
        assert spec.output_columns == ("App", "Avg_D", "N")

    def test_default_aliases_and_name_parameter(self):
        spec = parse_stream_query(
            "FROM Query.Commit WINDOW TUMBLING(5) "
            "AGG AVG(Query.Duration), COUNT(*)", name="t1")
        assert spec.name == "t1"
        assert spec.output_columns == ("Avg_Duration", "Count")
        assert spec.groups == ()

    def test_window_kinds(self):
        sliding = parse_stream_query(
            "STREAM s FROM Query.Commit WINDOW SLIDING(10) AGG COUNT(*)")
        assert sliding.window.hop == 1.0  # default: ten panes per window
        hopping = parse_stream_query(
            "STREAM h FROM Query.Commit WINDOW HOPPING(6, 2) AGG COUNT(*)")
        assert hopping.window.panes_per_window == 3
        topk = parse_stream_query(
            "STREAM k FROM Query.Commit GROUP BY Query.User "
            "WINDOW TUMBLING(5) AGG SUM(Query.Duration) AS Total "
            "ANOMALY TOPK(Total, 2)")
        assert isinstance(topk.anomaly, TopKSpec)
        assert topk.anomaly.k == 2

    @pytest.mark.parametrize("text,fragment", [
        ("WINDOW TUMBLING(5) AGG COUNT(*)", "must start with"),
        ("STREAM s FROM Query.Commit AGG COUNT(*)", "WINDOW clause"),
        ("STREAM s FROM Query.Commit WINDOW TUMBLING(5)", "AGG clause"),
        ("STREAM s AGG COUNT(*) FROM Query.Commit WINDOW TUMBLING(5)",
         "must start with"),
        ("STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
         "AGG COUNT(*) HAVING Window.Count > 0 GROUP BY Query.User",
         "out of order"),
        ("STREAM s FROM Query.Commit FROM Query.Commit "
         "WINDOW TUMBLING(5) AGG COUNT(*)", "duplicate FROM"),
        ("STREAM s FROM Query.Commit GROUP Query.User "
         "WINDOW TUMBLING(5) AGG COUNT(*)", "expected BY"),
        ("STREAM s FROM Query.Commit WINDOW SIDEWAYS(5) AGG COUNT(*)",
         "unknown window kind"),
        ("STREAM s FROM Query.Commit WINDOW TUMBLING(5, 2) AGG COUNT(*)",
         "single length"),
        ("STREAM s FROM Query.Commit WINDOW HOPPING(6) AGG COUNT(*)",
         "explicit hop"),
        ("STREAM s FROM Query.Commit WINDOW TUMBLING(5) AGG MEDIAN(*)",
         "unknown aggregate"),
        ("STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
         "AGG SUM(*)", "is not defined"),
        ("STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
         "AGG COUNT(*) AS N, SUM(Query.Duration) AS N", "duplicate output"),
        ("STREAM s FROM Query.Commit WINDOW TUMBLING(5) AGG COUNT(*) AS N "
         "ANOMALY DEVIATION(Missing, 3)", "not an output column"),
        ("STREAM s FROM Query.Commit WINDOW TUMBLING(5) AGG COUNT(*) AS N "
         "ANOMALY SPIKES(N, 3)", "unknown anomaly operator"),
        ("FROM Query.Commit WINDOW TUMBLING(5) AGG COUNT(*)",
         "needs a name"),
    ])
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(StreamSyntaxError, match=fragment):
            parse_stream_query(text)

    def test_where_may_only_reference_the_from_class(self):
        with pytest.raises(StreamSyntaxError, match="only reference Query"):
            parse_stream_query(
                "STREAM s FROM Query.Commit "
                "WHERE Transaction.Duration > 1 "
                "WINDOW TUMBLING(5) AGG COUNT(*)")

    def test_group_and_agg_attributes_are_schema_checked(self):
        with pytest.raises(Exception):  # SchemaError from attribute lookup
            parse_stream_query(
                "STREAM s FROM Query.Commit GROUP BY Query.Nonsense "
                "WINDOW TUMBLING(5) AGG COUNT(*)")

    def test_having_binds_against_output_columns(self):
        # Window.<col> references survive clause splitting (WINDOW is also
        # a clause word) and bind case-insensitively
        spec = parse_stream_query(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
            "AGG COUNT(*) AS N HAVING Window.n >= 2")
        assert spec.having.evaluate({}, {"window": {"n": 3}})
        assert not spec.having.evaluate({}, {"window": {"n": 1}})


# ---------------------------------------------------------------------------
# engine: registration + event path
# ---------------------------------------------------------------------------

class TestEngine:
    def test_register_remove_and_duplicates(self, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s1 FROM Query.Commit WINDOW TUMBLING(5) AGG COUNT(*)")
        assert streams.query("S1") is query  # case-insensitive lookup
        assert sqlcm.has_streams
        with pytest.raises(StreamError, match="already exists"):
            streams.register(
                "STREAM s1 FROM Query.Commit WINDOW TUMBLING(5) "
                "AGG COUNT(*)")
        streams.remove("s1")
        with pytest.raises(StreamError, match="unknown stream query"):
            streams.query("s1")

    def test_sink_lat_must_cover_streamalert(self, sqlcm):
        sqlcm.create_lat(LATDefinition(
            name="Q_LAT", monitored_class="Query",
            grouping=["Query.User AS U"],
            aggregations=["COUNT(Query.ID) AS N"]))
        with pytest.raises(StreamError, match="StreamAlert"):
            sqlcm.stream_engine().register(
                "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
                "AGG COUNT(*)", sink_lat="Q_LAT")

    def test_where_filters_and_counts(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit WHERE Query.Duration > 0.1 "
            "WINDOW TUMBLING(10) AGG COUNT(*) AS N")
        commit(server, 1.0, 0.01)
        commit(server, 2.0, 0.5)
        commit(server, 3.0, 0.02)
        assert query.events_seen == 3
        assert query.events_ingested == 1
        assert query.where_rejected == 2

    def test_tumbling_window_emits_correct_aggregates(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit GROUP BY Query.User AS U "
            "WINDOW TUMBLING(10) "
            "AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS N")
        for i in range(4):
            commit(server, 1.0 + i, 0.2, user="alice")
        commit(server, 5.0, 0.6, user="bob")
        # nothing emits until the clock passes the window end
        assert query.windows_emitted == 0
        server.clock.advance_to(11.0)
        streams.flush()
        assert query.windows_emitted == 1
        rows = {a["row"]["U"]: a["row"] for a in query.alerts}
        assert rows["alice"]["N"] == 4
        assert rows["alice"]["Avg_D"] == pytest.approx(0.2)
        assert rows["bob"]["N"] == 1
        assert all(a["kind"] == "window" for a in query.alerts)
        assert all(a["window_start"] == 0.0 and a["window_end"] == 10.0
                   for a in query.alerts)

    def test_event_arrival_flushes_due_windows_first(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
            "AGG COUNT(*) AS N")
        commit(server, 1.0, 0.01)
        # this event is at t=12: the [0,5) window closes before it lands
        commit(server, 12.0, 0.01)
        assert query.windows_emitted == 1
        [alert] = query.alerts
        assert alert["row"]["N"] == 1 and alert["window_end"] == 5.0

    def test_having_gates_alerts(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit GROUP BY Query.User AS U "
            "WINDOW TUMBLING(10) AGG AVG(Query.Duration) AS Avg_D "
            "HAVING Window.Avg_D > 0.1")
        for i in range(3):
            commit(server, 1.0 + i, 0.01, user="fast")
            commit(server, 1.2 + i, 0.5, user="slow")
        server.clock.advance_to(10.0)
        streams.flush()
        assert [a["row"]["U"] for a in query.alerts] == ["slow"]
        assert query.alerts[0]["kind"] == "having"
        assert query.alerts[0]["value"] == pytest.approx(0.5)

    def test_sliding_windows_overlap(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit WINDOW SLIDING(4, 2) "
            "AGG COUNT(*) AS N")
        commit(server, 1.0, 0.01)
        commit(server, 3.0, 0.01)
        server.clock.advance_to(8.0)
        streams.flush()
        # overlapping boundaries every 2s; [0,4) sees both events
        counts = [(a["window_start"], a["window_end"], a["row"]["N"])
                  for a in query.alerts]
        assert counts == [(-2.0, 2.0, 1), (0.0, 4.0, 2), (2.0, 6.0, 1)]

    def test_disabled_query_ignores_events(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(5) AGG COUNT(*)")
        streams.enable("s", False)
        commit(server, 1.0, 0.01)
        assert query.events_ingested == 0
        streams.enable("s")
        commit(server, 2.0, 0.01)
        assert query.events_ingested == 1

    def test_real_query_execution_feeds_streams(self, items_server):
        sqlcm = SQLCM(items_server)
        query = sqlcm.stream_engine().register(
            "STREAM s FROM Query.Commit GROUP BY Query.User AS U "
            "WINDOW TUMBLING(1) AGG COUNT(*) AS N, MAX(Query.Duration)")
        session = items_server.create_session(user="app")
        for __ in range(3):
            result = session.execute("SELECT price FROM items WHERE id = 1")
            assert result.error is None
        items_server.clock.advance(2.0)
        sqlcm.stream_engine().flush()
        assert query.events_ingested == 3
        assert query.windows_emitted >= 1
        total = sum(a["row"]["N"] for a in query.alerts)
        assert total == 3

    def test_stream_grouping_on_signature_forces_signatures(
            self, items_server):
        sqlcm = SQLCM(items_server)
        assert not sqlcm.signatures_needed
        query = sqlcm.stream_engine().register(
            "STREAM s FROM Query.Commit "
            "GROUP BY Query.Logical_Signature AS Sig "
            "WINDOW TUMBLING(1) AGG COUNT(*) AS N")
        assert sqlcm.signatures_needed
        session = items_server.create_session()
        session.execute("SELECT price FROM items WHERE id = 2")
        items_server.clock.advance(2.0)
        sqlcm.stream_engine().flush()
        [alert] = query.alerts
        assert isinstance(alert["key"][0], bytes)  # a real signature

    def test_monitor_cost_is_charged(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        streams.register(
            "STREAM s FROM Query.Commit WHERE Query.Duration >= 0 "
            "WINDOW TUMBLING(5) AGG COUNT(*) AS N")
        server.take_monitor_cost()
        commit(server, 1.0, 0.01)
        server.clock.advance_to(6.0)
        streams.flush()
        assert server.take_monitor_cost() > 0.0


# ---------------------------------------------------------------------------
# anomaly operators in the pipeline
# ---------------------------------------------------------------------------

class TestAnomalies:
    def test_deviation_flags_shifted_window(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(2) "
            "AGG AVG(Query.Duration) AS Avg_D "
            "ANOMALY DEVIATION(Avg_D, 3, 8)")
        t = 0.5
        for __ in range(10):  # quiet baseline: one window per 2s
            commit(server, t, 0.01)
            t += 2.0
        commit(server, t, 0.5)  # the spike
        t += 2.0
        server.clock.advance_to(t + 4.0)
        streams.flush()
        flagged = [a for a in query.alerts if a["kind"] == "deviation"]
        assert len(flagged) == 1
        assert flagged[0]["value"] == pytest.approx(0.5)
        assert flagged[0]["baseline"] == pytest.approx(0.01)
        assert flagged[0]["sigma"] is not None

    def test_topk_ranks_window_rows(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit GROUP BY Query.User AS U "
            "WINDOW TUMBLING(10) AGG SUM(Query.Duration) AS Total "
            "ANOMALY TOPK(Total, 2)")
        commit(server, 1.0, 0.1, user="low")
        commit(server, 2.0, 0.5, user="mid")
        commit(server, 3.0, 0.9, user="high")
        server.clock.advance_to(11.0)
        streams.flush()
        ranked = [(a["rank"], a["row"]["U"]) for a in query.alerts]
        assert ranked == [(1, "high"), (2, "mid")]
        assert all(a["kind"] == "topk" for a in query.alerts)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

class TestSinks:
    def test_alert_ring_is_bounded(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(1) "
            "AGG COUNT(*) AS N", max_alerts=3)
        for i in range(8):
            commit(server, 0.5 + i, 0.01)
        server.clock.advance_to(10.0)
        streams.flush()
        assert query.alert_count == 8
        assert len(query.alerts) == 3  # ring kept only the newest

    def test_sink_lat_receives_alerts(self, server, sqlcm):
        sqlcm.create_lat(LATDefinition(
            name="Alert_LAT", monitored_class="StreamAlert",
            grouping=["StreamAlert.Stream_Name AS Stream"],
            aggregations=["COUNT(StreamAlert.Kind) AS N",
                          "LAST(StreamAlert.Value) AS Last_Value"],
            ordering=["N DESC"], max_rows=10))
        streams = sqlcm.stream_engine()
        streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
            "AGG COUNT(*) AS N", sink_lat="Alert_LAT")
        commit(server, 1.0, 0.01)
        commit(server, 2.0, 0.01)
        server.clock.advance_to(6.0)
        streams.flush()
        [row] = sqlcm.lat("Alert_LAT").rows()
        assert row["Stream"] == "s"
        assert row["N"] == 1
        assert row["Last_Value"] == 2  # COUNT of the window

    def test_sink_lat_is_maintained_like_a_rule_insert(self):
        """The sink insert is ``InsertAction``'s: a bounded sink LAT's
        evictions are charged, and its cost is the LAT's, not the
        stream's."""
        def run(costs):
            server = DatabaseServer(ServerConfig(costs=costs))
            server.enable_observability()
            sqlcm = SQLCM(server)
            sqlcm.create_lat(LATDefinition(
                name="Sink", monitored_class="StreamAlert",
                grouping=["StreamAlert.Group_Key AS G"],
                aggregations=["COUNT(StreamAlert.Kind) AS N"],
                ordering=["N DESC"], max_rows=1))
            streams = sqlcm.stream_engine()
            streams.register(
                "STREAM s FROM Query.Commit GROUP BY Query.User AS U "
                "WINDOW TUMBLING(5) AGG COUNT(*) AS N", sink_lat="Sink")
            for i, user in enumerate(("a", "b", "c")):
                commit(server, 1.0 + i, 0.01, user=user)
            server.clock.advance_to(6.0)
            streams.flush()
            return server, sqlcm.lat("Sink")
        priced, sink = run(CostModel())
        free, __ = run(dataclasses.replace(CostModel(), lat_evict=0.0))
        assert sink.eviction_count == 2  # three alert groups, one row
        assert priced.monitor_cost_total - free.monitor_cost_total == \
            pytest.approx(CostModel().lat_evict * sink.eviction_count)
        assert priced.obs.attribution.totals[("lat", "sink")] > 0

    def test_drop_lat_refuses_active_sink(self, server, sqlcm):
        """Regression: ``drop_lat`` guarded rule-referenced LATs but let a
        stream query's sink LAT go, silently stopping alert sinking."""
        from repro.errors import LATError
        sqlcm.create_lat(LATDefinition(
            name="Sink_LAT", monitored_class="StreamAlert",
            grouping=["StreamAlert.Stream_Name AS Stream"],
            aggregations=["COUNT(StreamAlert.Kind) AS N"]))
        streams = sqlcm.stream_engine()
        streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
            "AGG COUNT(*) AS N", sink_lat="Sink_LAT")
        with pytest.raises(LATError, match="alert sink"):
            sqlcm.drop_lat("Sink_LAT")
        # removing the stream query releases the LAT
        streams.remove("s")
        sqlcm.drop_lat("Sink_LAT")
        assert not sqlcm.has_lat("Sink_LAT")

    def test_stream_alert_closes_the_loop_through_eca_rules(
            self, server, sqlcm):
        """Acceptance: a sliding-window stream query with HAVING fires a
        ``sqlcm.stream_alert`` that an ordinary ECA rule consumes."""
        streams = sqlcm.stream_engine()
        streams.register(
            "STREAM slow_users FROM Query.Commit "
            "GROUP BY Query.User AS U "
            "WINDOW SLIDING(10, 5) "
            "AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS N "
            "HAVING Window.Avg_D > 0.1 AND Window.N >= 2")
        seen = []
        sqlcm.add_rule(Rule(
            name="page_dba", event="StreamAlert.Alert",
            condition="StreamAlert.Value > 0.1",
            actions=[
                CallbackAction(lambda s, c: seen.append(
                    (c["streamalert"].get("Stream_Name"),
                     c["streamalert"].get("Group_Key")))),
                SendMailAction(
                    "stream {StreamAlert.Stream_Name} flagged "
                    "{StreamAlert.Group_Key}", "dba@example.com"),
            ]))
        for i in range(4):
            commit(server, 1.0 + i, 0.01, user="fast")
            commit(server, 1.3 + i, 0.4, user="slow")
        server.clock.advance_to(12.0)
        streams.flush()
        assert seen and all(s == ("slow_users", "slow") for s in seen)
        assert len(sqlcm.outbox) == len(seen)
        assert "slow_users" in sqlcm.outbox[0].body
        assert "slow" in sqlcm.outbox[0].body


# ---------------------------------------------------------------------------
# failure semantics
# ---------------------------------------------------------------------------

class TestFaults:
    def test_fault_sites_are_registered(self, sqlcm):
        sqlcm.stream_engine()
        injector = FaultInjector()
        for site in STREAM_FAULT_SITES:
            injector.fail_next(site, count=0)  # unknown sites would raise

    def test_eval_fault_drops_one_event_not_the_stream(self, items_server):
        sqlcm = SQLCM(items_server)
        query = sqlcm.stream_engine().register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
            "AGG COUNT(*) AS N")
        injector = FaultInjector()
        injector.fail_next("stream.eval", count=1)
        sqlcm.set_fault_injector(injector)
        session = items_server.create_session()
        # the faulted evaluation never surfaces on the monitored query
        result = session.execute("SELECT price FROM items WHERE id = 1")
        assert result.error is None
        assert query.events_ingested == 0
        assert query.errors == 1
        assert "FaultInjected" in query.last_error
        # the next event flows normally
        session.execute("SELECT price FROM items WHERE id = 1")
        assert query.events_ingested == 1

    def test_window_fault_loses_the_boundary_not_the_stream(
            self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(2) "
            "AGG COUNT(*) AS N")
        injector = FaultInjector()
        sqlcm.set_fault_injector(injector)
        commit(server, 1.0, 0.01)
        injector.fail_next("stream.window", count=1)
        server.clock.advance_to(3.0)
        streams.flush()  # poisoned boundary: lost, not retried
        assert query.windows_emitted == 0
        assert query.errors == 1
        commit(server, 3.5, 0.01)
        server.clock.advance_to(5.0)
        streams.flush()
        assert query.windows_emitted == 1  # [2,4) emitted normally
        [alert] = query.alerts
        assert alert["window_start"] == 2.0

    def test_repeated_faults_quarantine_the_query(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        streams.health = RuleHealthRegistry(QuarantinePolicy(
            failure_threshold=2, window=60.0, cooldown=1000.0))
        query = streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
            "AGG COUNT(*) AS N")
        injector = FaultInjector()
        injector.fail_next("stream.eval", count=2)
        sqlcm.set_fault_injector(injector)
        commit(server, 1.0, 0.01)
        commit(server, 1.5, 0.01)
        assert streams.quarantined_queries() == ["s"]
        # quarantined: events are ignored, no further errors accrue
        commit(server, 2.0, 0.01)
        assert query.events_ingested == 0
        assert query.errors == 2
        streams.release_quarantine("s")
        commit(server, 2.5, 0.01)
        assert query.events_ingested == 1

    def test_removed_query_takes_its_health_record_along(
            self, server, sqlcm, tmp_path):
        """A query registered under a removed query's name starts clean —
        on the live monitor and on one rebuilt from the journal."""
        text = ("STREAM s1 FROM Query.Commit WINDOW TUMBLING(5) "
                "AGG COUNT(*) AS N")
        streams = sqlcm.stream_engine()
        streams.health = RuleHealthRegistry(QuarantinePolicy(
            failure_threshold=2, window=60.0, cooldown=1000.0))
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        streams.register(text)
        injector = FaultInjector()
        injector.fail_next("stream.eval", count=2)
        sqlcm.set_fault_injector(injector)
        commit(server, 1.0, 0.01)
        commit(server, 1.5, 0.01)
        assert streams.quarantined_queries() == ["s1"]
        streams.remove("s1")
        query = streams.register(text)
        commit(server, 2.0, 0.01)
        manager.detach()
        recovered = DurabilityManager.recover(str(tmp_path)).sqlcm
        for engine in (streams, recovered.stream_engine()):
            assert engine.quarantined_queries() == []
            assert engine.health.health_of("s1").error_count == 0
        assert query.events_ingested == 1

    def test_describe_exposes_health(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        query = streams.register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(5) "
            "AGG COUNT(*) AS N")
        commit(server, 1.0, 0.01)
        info = query.describe()
        assert info["name"] == "s"
        assert info["event"] == "Query.Commit"
        assert info["window"] == "tumbling(5/5)"
        assert info["ingested"] == 1
        assert info["errors"] == 0
