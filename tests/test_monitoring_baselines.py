"""Tests for the baseline monitors (Query_logging, PULL, PULL_history)."""

import pytest

from repro import DatabaseServer, ServerConfig, Statement
from repro.monitoring import (PullHistoryMonitor, PullMonitor,
                              QueryLoggingMonitor, missed_top_k,
                              top_k_ground_truth)


@pytest.fixture
def busy_server():
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    server.execute_ddl(
        "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v FLOAT)"
    )
    loader = server.create_session(application="loader")
    loader.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {float(i)})" for i in range(1, 401)))
    return server


def run_workload(server, n=20, think=0.05):
    session = server.create_session(application="app")
    script = [Statement(f"SELECT v FROM t WHERE id = {i % 50 + 1}",
                        think_time=think) for i in range(n)]
    # one long query in the middle
    script.insert(n // 2, Statement("SELECT COUNT(*), AVG(v) FROM t",
                                    think_time=think))
    session.submit_script(script)
    server.run(until=60.0)
    return session


class TestQueryLogging:
    def test_every_commit_logged(self, busy_server):
        monitor = QueryLoggingMonitor(busy_server)
        run_workload(busy_server, n=10)
        assert monitor.rows_written == 11
        assert busy_server.table("query_log").row_count == 11

    def test_top_k_via_sql_postprocessing(self, busy_server):
        monitor = QueryLoggingMonitor(busy_server)
        run_workload(busy_server, n=10)
        top = monitor.top_k(3)
        assert len(top) == 3
        assert top[0][1].startswith("SELECT COUNT(*)")
        # ordered by duration descending
        assert top[0][2] >= top[1][2] >= top[2][2]

    def test_detach_stops_logging(self, busy_server):
        monitor = QueryLoggingMonitor(busy_server)
        monitor.detach()
        run_workload(busy_server, n=5)
        assert monitor.rows_written == 0

    def test_logging_slows_workload(self, busy_server):
        # run without monitor
        plain = DatabaseServer(ServerConfig(track_completed_queries=True))
        plain.execute_ddl(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v FLOAT)")
        loader = plain.create_session(application="loader")
        loader.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {float(i)})" for i in range(1, 401)))
        base_start = plain.clock.now
        run_workload(plain, n=20, think=0.0)
        base_elapsed = plain.clock.now - base_start

        QueryLoggingMonitor(busy_server)
        monitored_start = busy_server.clock.now
        run_workload(busy_server, n=20, think=0.0)
        monitored_elapsed = busy_server.clock.now - monitored_start
        assert monitored_elapsed > base_elapsed


class TestPull:
    def test_poll_sees_active_query(self, busy_server):
        monitor = PullMonitor(busy_server, interval=0.01)
        monitor.start()
        run_workload(busy_server, n=20)
        monitor.stop()
        assert monitor.poll_count > 10
        # the long aggregate query is long enough to be observed
        texts = {o.text for o in monitor.observed.values()}
        assert any(t.startswith("SELECT COUNT(*)") for t in texts)

    def test_infrequent_polling_misses_queries(self, busy_server):
        monitor = PullMonitor(busy_server, interval=30.0)
        monitor.start()
        run_workload(busy_server, n=20)
        monitor.stop()
        truth = top_k_ground_truth(busy_server, 5, exclude_apps=("loader",))
        missed = missed_top_k(truth, monitor.top_k(5))
        assert missed >= 3

    def test_observed_elapsed_underestimates(self, busy_server):
        monitor = PullMonitor(busy_server, interval=0.001)
        monitor.start()
        run_workload(busy_server, n=5)
        monitor.stop()
        truth = {q.query_id: q.duration_at(busy_server.clock.now)
                 for q in busy_server.completed_queries}
        for observed in monitor.observed.values():
            assert observed.best_elapsed <= truth[observed.query_id] + 1e-9

    def test_bad_interval_rejected(self, busy_server):
        with pytest.raises(ValueError):
            PullMonitor(busy_server, interval=0)


class TestPullHistory:
    def test_exact_answers(self, busy_server):
        monitor = PullHistoryMonitor(busy_server, interval=1.0)
        monitor.start()
        run_workload(busy_server, n=20)
        monitor.stop()
        truth = top_k_ground_truth(busy_server, 5, exclude_apps=("loader",))
        assert missed_top_k(truth, monitor.top_k(5)) == 0

    def test_history_drained_on_poll(self, busy_server):
        monitor = PullHistoryMonitor(busy_server, interval=0.5)
        monitor.start()
        run_workload(busy_server, n=10)
        monitor.stop()
        assert monitor.poll_count >= 1
        assert len(monitor.collected) >= 10

    def test_history_consumes_server_memory(self, busy_server):
        monitor = PullHistoryMonitor(busy_server, interval=1000.0)
        run_workload(busy_server, n=20)
        assert monitor.peak_history_rows == 21
        assert busy_server.reserved_pages > 0
        monitor.poll()
        assert busy_server.reserved_pages == 0

    def test_detach_releases_memory(self, busy_server):
        monitor = PullHistoryMonitor(busy_server, interval=1000.0)
        run_workload(busy_server, n=5)
        assert busy_server.reserved_pages > 0
        monitor.detach()
        assert busy_server.reserved_pages == 0


class TestAccuracyHelpers:
    def test_missed_by_id(self):
        truth = [(1, "a", 9.0), (2, "b", 8.0)]
        assert missed_top_k(truth, [(1, "a", 9.0)]) == 1
        assert missed_top_k(truth, truth) == 0

    def test_missed_by_text_when_no_ids(self):
        truth = [(1, "a", 9.0), (2, "b", 8.0)]
        assert missed_top_k(truth, [(None, "a", 9.0)]) == 1

    def test_ground_truth_excludes_monitor_apps(self, busy_server):
        QueryLoggingMonitor(busy_server)
        run_workload(busy_server, n=3)
        monitor_session = busy_server.create_session(
            user="monitor", application="query_logging")
        monitor_session.execute("SELECT COUNT(*) FROM query_log")
        truth = top_k_ground_truth(busy_server, 100)
        assert all("query_log" not in t[1] for t in truth)
