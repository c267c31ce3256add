"""Driver conformance suite: one contract, every backend.

Every :class:`~repro.drivers.base.ProbeDriver` implementation runs the
same tests — event ordering, signature stability, blocker pairs, the
snapshot catalog, accuracy ground truth — parametrized over the backend.
A new driver earns its place by passing this file unchanged.
"""

import pytest

from repro import SQLCM, DatabaseServer, LATDefinition, Rule, ServerConfig
from repro.core import InsertAction
from repro.core.durability import DurabilityManager, compact
from repro.drivers import (SNAPSHOT_CATALOG, DriverCapabilities,
                           InMemoryDriver, ProbeDriver, SQLiteDriver,
                           from_url)
from repro.errors import DriverError
from repro.monitoring import (PullMonitor, missed_top_k,
                              top_k_ground_truth)

DRIVERS = ("inmemory", "sqlite")

RECORDED = ("query.start", "query.commit", "query.rollback",
            "query.cancel", "query.blocked", "query.block_released",
            "txn.begin", "txn.commit", "txn.rollback")


class Recorder:
    """Flat, ordered capture of every lifecycle event on the host bus."""

    def __init__(self, bus):
        self.events = []
        for name in RECORDED:
            bus.subscribe(name, self._make(name))

    def _make(self, name):
        return lambda event, payload: self.events.append((name, payload))

    def names(self):
        return [name for name, __ in self.events]

    def of(self, name):
        return [payload for n, payload in self.events if n == name]


class Rig:
    """One backend under test: driver + wired SQLCM + event recorder."""

    def __init__(self, kind, driver):
        self.kind = kind
        self.driver = driver
        self.sqlcm = SQLCM(driver)
        self.sqlcm.enable_signatures(True)
        self.recorder = Recorder(driver.host.events)


@pytest.fixture(params=DRIVERS)
def rig(request, tmp_path):
    if request.param == "inmemory":
        server = DatabaseServer(ServerConfig(track_completed_queries=True))
        server.execute_ddl(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v FLOAT)")
        driver = InMemoryDriver(server)
    else:
        driver = SQLiteDriver(str(tmp_path / "conformance.db"))
        driver.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
    built = Rig(request.param, driver)
    yield built
    driver.close()


def load_rows(rig, n=8):
    for i in range(1, n + 1):
        result = rig.driver.execute(f"INSERT INTO t VALUES ({i}, {float(i)})")
        assert result.ok, result.error


class TestEventContract:
    def test_start_precedes_exactly_one_terminal(self, rig):
        load_rows(rig, 3)
        rig.driver.execute("SELECT v FROM t WHERE id = 2")
        names = rig.recorder.names()
        starts = [p["query"].query_id for p in rig.recorder.of("query.start")]
        commits = [p["query"].query_id
                   for p in rig.recorder.of("query.commit")]
        assert starts == commits  # same queries, same order, all committed
        for qid in starts:
            first_start = next(i for i, (n, p) in
                               enumerate(rig.recorder.events)
                               if n == "query.start"
                               and p["query"].query_id == qid)
            terminals = [i for i, (n, p) in enumerate(rig.recorder.events)
                         if n in ("query.commit", "query.rollback",
                                  "query.cancel")
                         and p["query"].query_id == qid]
            assert len(terminals) == 1
            assert terminals[0] > first_start
        assert names.count("txn.commit") == 4  # one autocommit per stmt

    def test_autocommit_txn_commit_follows_query_commit(self, rig):
        load_rows(rig, 1)
        names = rig.recorder.names()
        assert names.index("query.commit") < names.index("txn.commit")
        payload = rig.recorder.of("txn.commit")[0]
        assert [q.query_id for q in payload["statements"]] == \
            [rig.recorder.of("query.commit")[0]["query"].query_id]

    def test_times_are_monotone_and_durations_positive(self, rig):
        load_rows(rig, 4)
        committed = [p["query"] for p in rig.recorder.of("query.commit")]
        starts = [q.start_time for q in committed]
        assert starts == sorted(starts)
        for qctx in committed:
            assert qctx.end_time >= qctx.start_time

    def test_error_reports_and_rolls_back(self, rig):
        load_rows(rig, 1)
        result = rig.driver.execute("INSERT INTO t VALUES (1, 9.0)")
        assert not result.ok
        assert result.error
        rollbacks = rig.recorder.of("query.rollback")
        assert len(rollbacks) == 1
        assert rollbacks[0]["query"].error

    def test_explicit_transaction_events(self, rig):
        conn = (rig.driver if rig.kind == "inmemory"
                else rig.driver._primary)
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (50, 5.0)")
        conn.execute("COMMIT")
        names = rig.recorder.names()
        assert "txn.begin" in names
        assert names.index("txn.begin") < names.index("query.start")
        assert names.index("query.commit") < names.index("txn.commit")
        payload = rig.recorder.of("txn.commit")[0]
        assert len(payload["statements"]) == 1


class TestSignatures:
    def test_same_template_same_logical_signature(self, rig):
        load_rows(rig, 4)
        rig.driver.execute("SELECT v FROM t WHERE id = 1")
        rig.driver.execute("SELECT v FROM t WHERE id = 3")
        selects = [q for q in rig.driver.completed_queries()
                   if q.query_type == "SELECT"]
        assert len(selects) == 2
        assert selects[0].logical_signature is not None
        assert selects[0].logical_signature == selects[1].logical_signature

    def test_different_templates_differ(self, rig):
        load_rows(rig, 4)
        rig.driver.execute("SELECT v FROM t WHERE id = 1")
        rig.driver.execute("SELECT v FROM t")
        lookup, scan = [q for q in rig.driver.completed_queries()
                        if q.query_type == "SELECT"]
        assert lookup.logical_signature != scan.logical_signature

    def test_plan_text_is_stable_per_template(self, rig):
        a = rig.driver.plan_text("SELECT v FROM t WHERE id = 1")
        b = rig.driver.plan_text("SELECT v FROM t WHERE id = 2")
        assert a and a == b

    def test_lat_groups_by_signature_across_backends(self, rig):
        rig.sqlcm.create_lat(LATDefinition(
            name="Sig_LAT",
            monitored_class="Query",
            grouping=["Query.Logical_Signature AS Sig"],
            aggregations=["AVG(Query.Duration) AS Avg_Duration"],
        ))
        rig.sqlcm.add_rule(Rule(
            name="track", event="Query.Commit",
            actions=[InsertAction("Sig_LAT")],
        ))
        load_rows(rig, 4)
        rig.driver.execute("SELECT v FROM t WHERE id = 1")
        rig.driver.execute("SELECT v FROM t WHERE id = 2")
        lat = rig.sqlcm.lat("Sig_LAT")
        sigs = {row["Sig"] for row in lat.rows()}
        # 4 identical INSERT templates fold into one group, both lookups
        # into another
        assert len(sigs) == 2


class TestBlocking:
    def blocking_scenario(self, rig):
        """Writer holds the lock; a second statement waits, then wins."""
        captured = {}
        if rig.kind == "inmemory":
            from repro import Statement
            server = rig.driver.host

            def on_blocked(event, payload):
                pairs, edges = rig.driver.blocking_pairs()
                captured["pairs"] = pairs
                captured["edges"] = edges
                captured["chains"] = rig.driver.snapshot("blocking_chains")
            server.events.subscribe("query.blocked", on_blocked)
            load_rows(rig, 2)
            writer = server.create_session(user="writer")
            waiter = server.create_session(user="waiter")
            writer.submit_script([
                "BEGIN", "UPDATE t SET v = 0 WHERE id = 1",
                Statement("COMMIT", think_time=0.5),
            ])
            waiter.submit_script([
                Statement("SELECT v FROM t WHERE id = 1", think_time=0.1),
            ])
            server.run()
        else:
            writer = rig.driver.connect(user="writer")
            waiter = rig.driver.connect(user="waiter")
            writer.execute("BEGIN")
            writer.execute("INSERT INTO t VALUES (900, 1.0)")

            def hook(driver, qctx, attempt):
                if attempt == 1:
                    pairs, edges = driver.blocking_pairs()
                    captured["pairs"] = pairs
                    captured["edges"] = edges
                    captured["chains"] = driver.snapshot("blocking_chains")
                elif attempt == 2:
                    writer.execute("COMMIT")
            rig.driver.busy_hook = hook
            result = waiter.execute("INSERT INTO t VALUES (901, 2.0)")
            assert result.ok, result.error
        return captured

    def test_blocked_then_released_events(self, rig):
        self.blocking_scenario(rig)
        names = rig.recorder.names()
        assert names.index("query.blocked") < \
            names.index("query.block_released")
        blocked = rig.recorder.of("query.blocked")[0]
        assert blocked["query"].user == "waiter"
        assert [b.user for b in blocked["blockers"]] == ["writer"]
        released = rig.recorder.of("query.block_released")[0]
        assert released["wait_time"] > 0
        assert released["blocker"].user == "writer"

    def test_blocking_pairs_shape_during_wait(self, rig):
        captured = self.blocking_scenario(rig)
        assert captured["edges"] == 1
        [(blocker, blocked, resource, wait)] = captured["pairs"]
        assert blocker.user == "writer"
        assert blocked.user == "waiter"
        assert wait >= 0
        [chain] = captured["chains"]
        assert set(chain) == {"blocker_query_id", "blocked_query_id",
                              "resource", "wait_seconds"}
        assert chain["blocker_query_id"] == blocker.query_id
        assert chain["blocked_query_id"] == blocked.query_id
        assert chain["resource"] == str(resource)


class TestSnapshotCatalog:
    def test_catalog_names(self, rig):
        assert rig.driver.snapshot_names() == SNAPSHOT_CATALOG
        assert rig.driver.capabilities().snapshots == SNAPSHOT_CATALOG

    def test_unknown_snapshot_refused(self, rig):
        with pytest.raises(DriverError, match="no snapshot"):
            rig.driver.snapshot("secret_dmv")

    def test_active_queries_snapshot_shape(self, rig):
        captured = {}

        def on_start(event, payload):
            captured["snap"] = rig.driver.snapshot("active_queries")
        rig.driver.host.events.subscribe("query.start", on_start)
        load_rows(rig, 1)
        [row] = captured["snap"]
        assert {"query_id", "session_id", "text", "state", "elapsed",
                "user", "application", "times_blocked",
                "time_blocked"} <= set(row)
        assert row["elapsed"] >= 0
        assert rig.driver.snapshot("active_queries") == []  # all done

    def test_memory_pressure_snapshot_shape(self, rig):
        load_rows(rig, 4)
        snap = rig.driver.snapshot("memory_pressure")
        assert isinstance(snap["pages_total"], (int, float))
        assert isinstance(snap["pages_free"], (int, float))
        assert snap["pages_total"] >= 0
        assert snap["pages_free"] >= 0


class TestAccuracyGroundTruth:
    def workload(self, rig):
        load_rows(rig, 8)
        for i in range(6):
            rig.driver.execute(f"SELECT v FROM t WHERE id = {i % 8 + 1}")
        if rig.kind == "inmemory":
            expensive = ("SELECT AVG(t1.v) FROM t t1 "
                         "JOIN t t2 ON t1.id = t2.id")
        else:
            expensive = ("SELECT avg(t1.v) FROM t t1, t t2, t t3 "
                         "WHERE t1.id < t2.id AND t2.id < t3.id")
        result = rig.driver.execute(expensive)
        assert result.ok, result.error
        return expensive

    def test_top_k_ground_truth_accepts_driver(self, rig):
        expensive = self.workload(rig)
        truth = top_k_ground_truth(rig.driver, 3)
        assert len(truth) == 3
        assert truth[0][1] == expensive
        assert truth[0][2] >= truth[1][2] >= truth[2][2]
        assert missed_top_k(truth, truth) == 0

    def test_driver_and_server_ground_truth_agree(self, rig):
        if rig.kind != "inmemory":
            pytest.skip("bare-server form only exists in-memory")
        self.workload(rig)
        assert top_k_ground_truth(rig.driver, 5) == \
            top_k_ground_truth(rig.driver.host, 5)


class TestIntrospection:
    def test_capabilities_and_describe(self, rig):
        caps = rig.driver.capabilities()
        assert isinstance(caps, DriverCapabilities)
        assert caps.events and caps.plan_signatures and caps.blocker_pairs
        assert caps.virtual_clock == (rig.kind == "inmemory")
        assert caps.in_engine_cost == (rig.kind == "inmemory")
        described = rig.driver.describe()
        assert described["driver"] == rig.driver.name
        assert set(described) == {"driver", "backend", "capabilities",
                                  "counters"}
        assert described["capabilities"] == caps.as_dict()

    def test_counters_advance(self, rig):
        before = dict(rig.driver.counters())
        load_rows(rig, 2)
        after = rig.driver.counters()
        assert after != before
        assert all(isinstance(v, (int, float)) for v in after.values())

    def test_now_is_monotone_under_work(self, rig):
        t0 = rig.driver.now()
        load_rows(rig, 2)
        assert rig.driver.now() > t0


class TestFromUrl:
    def test_memory_scheme(self):
        driver = from_url("memory:")
        assert isinstance(driver, InMemoryDriver)

    def test_sqlite_scheme(self, tmp_path):
        path = str(tmp_path / "real.db")
        with from_url(f"sqlite:{path}") as driver:
            assert isinstance(driver, SQLiteDriver)
            assert driver.path == path
            assert driver.execute("CREATE TABLE x (a INTEGER)").ok

    def test_sqlite_private_memory(self):
        with from_url("sqlite::memory:") as driver:
            assert driver.path == ":memory:"

    def test_sqlite_needs_a_path(self):
        with pytest.raises(DriverError, match="needs a path"):
            from_url("sqlite")

    def test_unknown_scheme_refused(self):
        with pytest.raises(DriverError, match="unknown driver scheme"):
            from_url("oracle:tns")


def _recovered(directory, **backend):
    """A monitor rebuilt from the checkpoint of one that had seen nothing."""
    manager = DurabilityManager(SQLCM(DatabaseServer()), str(directory))
    manager.attach().detach()
    return DurabilityManager.recover(str(directory), **backend).sqlcm


#: every way to say which backend a monitor watches (the keyword forms are
#: what ``benchmarks/wall`` spells; nothing else in the repository does)
SPELLINGS = {
    "SQLCM(server)": lambda server, tmp: SQLCM(server),
    "SQLCM(driver)": lambda server, tmp: SQLCM(InMemoryDriver(server)),
    "SQLCM(driver=driver)":
        lambda server, tmp: SQLCM(driver=InMemoryDriver(server)),
    "recover(dir, server=)":
        lambda server, tmp: _recovered(tmp / "s", server=server),
    "recover(dir, driver=)":
        lambda server, tmp: _recovered(tmp / "d",
                                       driver=InMemoryDriver(server)),
}


class TestInMemoryEquivalence:
    """The driver seam must not change the embedded monitor's behavior."""

    def run_monitored(self, spelling, tmp_path):
        server = DatabaseServer(ServerConfig(track_completed_queries=True))
        server.execute_ddl(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v FLOAT)")
        sqlcm = SPELLINGS[spelling](server, tmp_path)
        assert sqlcm.server is server and sqlcm.driver.host is server
        sqlcm.create_lat(LATDefinition(
            name="Duration_LAT",
            monitored_class="Query",
            grouping=["Query.Logical_Signature AS Sig"],
            aggregations=["AVG(Query.Duration) AS Avg_Duration"],
            ordering=["Avg_Duration DESC"],
            max_rows=50,
        ))
        sqlcm.add_rule(Rule(
            name="track", event="Query.Commit",
            actions=[InsertAction("Duration_LAT")],
        ))
        session = server.create_session(application="app")
        session.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {float(i)})" for i in range(1, 51)))
        for i in range(12):
            session.execute(f"SELECT v FROM t WHERE id = {i % 50 + 1}")
        session.execute("SELECT AVG(v) FROM t")
        return server.clock.now, sqlcm.state_digest(), compact([sqlcm])

    def test_digest_identical_with_and_without_driver_seam(self, tmp_path):
        """... and however the backend was spelled: same clock, same
        digest, the same checkpoint text record for record."""
        runs = {spelling: self.run_monitored(spelling, tmp_path)
                for spelling in SPELLINGS}
        for spelling, run in runs.items():
            assert run == runs["SQLCM(server)"], spelling


class TestPollingOverSqlite:
    def test_pull_monitor_rides_driver_ticks(self, tmp_path):
        with SQLiteDriver(str(tmp_path / "poll.db")) as driver:
            driver.execute("CREATE TABLE big (a INTEGER PRIMARY KEY, "
                           "b REAL)")
            driver.execute("INSERT INTO big VALUES " + ", ".join(
                f"({i}, {float(i)})" for i in range(1, 201)))
            monitor = PullMonitor(driver, interval=0.01)
            monitor.start()
            long_sql = ("SELECT sum(t1.b) FROM big t1, big t2 "
                        "WHERE t1.a < t2.a")
            result = driver.execute(long_sql)
            assert result.ok, result.error
            monitor.stop()
            assert monitor.poll_count > 0
            observed = {o.text for o in monitor.observed.values()}
            assert long_sql in observed

    def test_pull_misses_queries_shorter_than_the_interval(self, tmp_path):
        with SQLiteDriver(str(tmp_path / "miss.db")) as driver:
            driver.execute("CREATE TABLE small (a INTEGER PRIMARY KEY, "
                           "b REAL)")
            driver.execute("INSERT INTO small VALUES (1, 1.0)")
            monitor = PullMonitor(driver, interval=5.0)
            monitor.start()
            for __ in range(10):
                driver.execute("SELECT b FROM small WHERE a = 1")
            monitor.stop()
            # PK lookups finish inside one progress window: invisible
            assert monitor.observed == {}
