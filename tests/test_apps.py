"""Tests for the Section 3 example applications."""

import pytest

from repro import DatabaseServer, ServerConfig, SQLCM, Statement
from repro.apps import (BlockingAnalyzer, OutlierDetector, ResourceGovernor,
                        StreamOutlierDetector, TopKTracker, UsageAuditor)
from repro.workloads import register_order_procedures
from repro.workloads.tpch import TPCHConfig, setup_tpch


@pytest.fixture
def world():
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    setup_tpch(server, TPCHConfig().scaled(0.02))
    register_order_procedures(server)
    sqlcm = SQLCM(server)
    return server, sqlcm


class TestOutlierDetector:
    def test_detects_slow_instance_of_template(self, world):
        server, sqlcm = world
        detector = OutlierDetector(sqlcm, factor=5.0, min_instances=3)
        session = server.create_session()
        # build a baseline with a cheap parameterized template
        for i in range(1, 9):
            session.execute("EXEC get_order @okey = @k", {"k": i})
        assert detector.outliers() == []
        # inject a synthetic slow instance of the *same template*:
        # stretch its duration by blocking... simplest: a procedure whose
        # plan is identical but rows differ can't be 5x slower here, so we
        # simulate the outlier by a held lock.
        writer = server.create_session()
        writer.submit_script([
            "BEGIN",
            "UPDATE orders SET o_totalprice = 0 WHERE o_orderkey = 3",
            Statement("COMMIT", think_time=2.0),
        ])
        victim = server.create_session()
        victim.submit_script([
            Statement("EXEC get_order @okey = 3", {}, 0.05),
        ])
        server.run()
        outliers = detector.outliers()
        assert len(outliers) == 1
        assert "get_order" not in outliers[0]["Query_Text"]  # raw SQL text
        assert outliers[0]["Duration"] > 1.0

    def test_template_averages_populated(self, world):
        server, sqlcm = world
        detector = OutlierDetector(sqlcm)
        session = server.create_session()
        for i in range(1, 4):
            session.execute("EXEC get_order @okey = @k", {"k": i})
        averages = detector.lat.rows()
        assert len(averages) == 1  # one template
        assert averages[0]["Instances"] == 3


class TestBlockingAnalyzer:
    def test_accumulates_delay_by_blocker_template(self, world):
        server, sqlcm = world
        analyzer = BlockingAnalyzer(sqlcm)
        writer = server.create_session()
        reader1 = server.create_session()
        reader2 = server.create_session()
        writer.submit_script([
            "BEGIN",
            "UPDATE orders SET o_totalprice = 1 WHERE o_orderkey = 1",
            Statement("COMMIT", think_time=1.0),
        ])
        reader1.submit_script([
            Statement("SELECT o_totalprice FROM orders WHERE o_orderkey = 1",
                      think_time=0.2),
        ])
        reader2.submit_script([
            Statement("SELECT o_orderstatus FROM orders WHERE o_orderkey = 1",
                      think_time=0.4),
        ])
        server.run()
        worst = analyzer.worst_blockers()
        assert len(worst) == 1  # one blocker template (the UPDATE)
        assert worst[0]["Conflicts"] == 2
        assert worst[0]["Total_Block_Delay"] == pytest.approx(
            0.8 + 0.6, abs=0.1)
        assert worst[0]["Sample_Text"].startswith("UPDATE orders")


class TestTopKTracker:
    def test_tracks_k_most_expensive(self, world):
        server, sqlcm = world
        tracker = TopKTracker(sqlcm, k=3)
        session = server.create_session()
        for i in range(1, 6):
            session.execute("EXEC get_order @okey = @k", {"k": i})
        session.execute("EXEC slow_scan @minprice = 0.0")
        top = tracker.top_k()
        assert len(top) == 3
        assert top[0][1].startswith("SELECT COUNT(*)")  # the slow scan
        assert top[0][2] >= top[1][2] >= top[2][2]

    def test_persist_to_report_table(self, world):
        server, sqlcm = world
        tracker = TopKTracker(sqlcm, k=2)
        session = server.create_session()
        for i in range(1, 4):
            session.execute("EXEC get_order @okey = @k", {"k": i})
        written = sqlcm.persist_lat(tracker.lat_name, "topk_out")
        assert written == 2
        assert server.table("topk_out").row_count == 2


class TestUsageAuditor:
    def test_summaries_flushed_periodically(self, world):
        server, sqlcm = world
        auditor = UsageAuditor(sqlcm, period=10.0)
        session = server.create_session(user="alice", application="erp")
        for i in range(1, 5):
            session.execute("EXEC get_order @okey = @k", {"k": i})
        assert auditor.template_lat.rows()[0]["Frequency"] == 4
        server.run(until=11.0)  # past one flush period
        reports = auditor.reports()
        assert len(reports) == 1
        assert reports[0]["Frequency"] == 4
        assert reports[0]["App"] == "erp"
        # LAT reset after flush
        assert auditor.template_lat.rows() == []

    def test_user_activity_report(self, world):
        server, sqlcm = world
        auditor = UsageAuditor(sqlcm, period=10.0)
        alice = server.create_session(user="alice")
        bob = server.create_session(user="bob")
        for i in range(1, 4):
            alice.execute("EXEC get_order @okey = @k", {"k": i})
        bob.execute("EXEC get_order @okey = 5")
        server.run(until=11.0)
        users = {r["Login"]: r["Queries"] for r in auditor.user_reports()}
        assert users == {"alice": 3, "bob": 1}


class TestResourceGovernor:
    def test_runaway_query_cancelled(self, world):
        server, sqlcm = world
        governor = ResourceGovernor(sqlcm, runaway_budget=0.5,
                                    watchdog_interval=0.25)
        writer = server.create_session(user="writer")
        victim = server.create_session(user="victim")
        writer.submit_script([
            "BEGIN",
            "UPDATE orders SET o_totalprice = 1 WHERE o_orderkey = 1",
            Statement("COMMIT", think_time=30.0),
        ])
        victim.submit_script([
            Statement("SELECT o_totalprice FROM orders WHERE o_orderkey = 1",
                      think_time=0.1),
        ])
        server.run(until=40.0)
        # the victim spent > 0.5s blocked and was killed by the watchdog
        assert victim.results[-1].error is not None
        assert governor.stats.runaway_cancelled >= 1

    def test_mpl_limit_rejects_excess_queries(self, world):
        server, sqlcm = world
        governor = ResourceGovernor(sqlcm, runaway_budget=None,
                                    max_concurrent=1,
                                    exempt_users=("dbo",))
        # hold a lock so user queries stack up concurrently
        holder = server.create_session(user="dbo")
        holder.submit_script([
            "BEGIN",
            "UPDATE orders SET o_totalprice = 1 WHERE o_orderkey = 1",
            Statement("COMMIT", think_time=2.0),
        ])
        q1 = server.create_session(user="carol")
        q2 = server.create_session(user="carol")
        q1.submit_script([
            Statement("SELECT o_totalprice FROM orders WHERE o_orderkey = 1",
                      think_time=0.1),
        ])
        q2.submit_script([
            Statement("SELECT o_orderstatus FROM orders WHERE o_orderkey = 1",
                      think_time=0.2),
        ])
        server.run()
        assert governor.stats.mpl_rejected == 1
        assert governor.stats.rejected_users == {"carol": 1}
        errors = [r.error for r in q1.results + q2.results if r.error]
        assert len(errors) == 1

    def test_exempt_user_not_limited(self, world):
        server, sqlcm = world
        ResourceGovernor(sqlcm, runaway_budget=None, max_concurrent=0,
                         exempt_users=("dbo",))
        session = server.create_session(user="dbo")
        result = session.execute(
            "SELECT o_totalprice FROM orders WHERE o_orderkey = 1")
        assert result.ok


class TestStreamOutlierDetector:
    """The rule-based and stream-based outlier detectors, side by side,
    must flag the same injected slowdown — and nothing else."""

    SIG_A = b"\x0a" * 8  # the template that will misbehave
    SIG_B = b"\x0b" * 8  # a well-behaved control template

    @staticmethod
    def _commit(server, ids, t, duration, sig, user):
        from repro.engine.query import QueryContext
        server.clock.advance_to(t)
        qctx = QueryContext(
            query_id=next(ids), session_id=1, text=f"SELECT /*{user}*/ 1",
            user=user, application="app", start_time=t - duration,
            end_time=t, logical_signature=sig, rows_affected=0)
        server.events.publish("query.commit", {"query": qctx})

    def test_both_detectors_flag_the_same_injected_outliers(self):
        import itertools
        server = DatabaseServer(ServerConfig(track_completed_queries=False))
        sqlcm = SQLCM(server)
        rule_based = OutlierDetector(sqlcm, factor=5.0, min_instances=3)
        stream_based = StreamOutlierDetector(
            sqlcm, k=3.0, window=4.0, hop=1.0, history=8)
        ids = itertools.count(1)

        # a steady baseline for both templates: ~10ms every second each
        t = 0.5
        while t < 30.0:
            self._commit(server, ids, t, 0.010, self.SIG_A, "alice")
            self._commit(server, ids, t + 0.4, 0.010, self.SIG_B, "bob")
            t += 1.0
        assert rule_based.outliers() == []
        assert stream_based.outliers() == []

        # inject a sustained slowdown of template A only
        while t < 36.0:
            self._commit(server, ids, t, 0.250, self.SIG_A, "alice")
            self._commit(server, ids, t + 0.4, 0.010, self.SIG_B, "bob")
            t += 1.0

        # the rule flagged individual slow instances — all of template A
        rule_rows = rule_based.outliers()
        assert rule_rows
        assert {row["User"] for row in rule_rows} == {"alice"}
        assert all(row["Duration"] == pytest.approx(0.250)
                   for row in rule_rows)

        # the stream flagged deviating windows — the same single template
        assert {alert["key"][0] for alert in stream_based.outliers()} == \
            {self.SIG_A}
        flagged = stream_based.outliers()
        assert all(alert["kind"] == "deviation" for alert in flagged)
        assert all(alert["baseline"] == pytest.approx(0.010, abs=1e-3)
                   for alert in flagged)
