"""Crash-safe durability: checkpoints, the journal, and the kill matrix.

Every recovery test follows the same protocol: build a live monitor with
real subsystems attached (LATs, rules, a stream query, incidents, the
governor, timers), attach a :class:`DurabilityManager`, run workload,
*crash* at an injected fault site, and rebuild from disk.
:class:`DigestTap` records the state digest at every journal group
commit; :func:`verify_recovery` asserts the rebuilt monitor's digest
equals the digest at the last commit marker the disk saw — a crash may
lose the uncommitted tail, nothing more.
"""

from __future__ import annotations

import math

import pytest

from repro import (DatabaseServer, EventTrace, InsertAction, LATDefinition,
                   Rule, SendMailAction, ServerConfig, ShardedSQLCM, SQLCM)
from repro.core import state
from repro.core.actions import CallbackAction
from repro.core.durability import (CHECKPOINT_VERSION, DigestTap,
                                   DurabilityManager, _query_image, compact,
                                   frame, read_checkpoint, read_journal,
                                   verify_recovery)
from repro.core.resilience import DeadLetter, FaultInjected, FaultInjector
from repro.errors import DurabilityError

#: every crash site the durability layer exposes, in both failure modes
CRASH_SITES = [
    ("durability.append", "exception"),
    ("durability.append", "partial"),
    ("durability.checkpoint", "exception"),
    ("durability.checkpoint", "partial"),
]

#: journal shapes at the moment of the crash
JOURNAL_STATES = ["empty", "long", "torn"]


def build_monitor():
    """A monitor exercising every journaled subsystem."""
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    server.execute_ddl(
        "CREATE TABLE items (id INT NOT NULL PRIMARY KEY, "
        "name VARCHAR(30), price FLOAT)")
    loader = server.create_session()
    loader.execute(
        "INSERT INTO items (id, name, price) VALUES (1, 'a', 1.5), "
        "(2, 'b', 2.0)")
    server.close_session(loader)
    sqlcm = SQLCM(server)
    sqlcm.set_fault_injector(FaultInjector(seed=7))
    sqlcm.create_lat(LATDefinition(
        name="Q_LAT", monitored_class="Query",
        grouping=["Query.User AS U"],
        aggregations=["COUNT(Query.ID) AS N",
                      "AVG(Query.Duration) AS D"]))
    sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                        actions=[InsertAction("Q_LAT")]))
    sqlcm.create_lat(LATDefinition(
        name="OVF", monitored_class="Query", grouping=["Query.User AS U"],
        aggregations=["SUM(Query.Duration) AS S"]))
    overflow(sqlcm, "early")  # every first checkpoint carries an inf
    sqlcm.stream_engine().register(
        "STREAM s1 FROM Query.Commit GROUP BY Query.User AS U "
        "WINDOW TUMBLING(2) AGG COUNT(*) AS N "
        "ANOMALY DEVIATION(N, 2, 2)")
    sqlcm.incident_manager()
    sqlcm.enable_governor()
    sqlcm.set_timer("t1", 5.0, 3)
    return server, sqlcm


def overflow(sqlcm, user, *more):
    """Push a SUM past the float range: the row reads inf (and, fed a
    ``-inf`` in ``more``, nan) — values with no Python literal."""
    for duration in (1e308, 1e308, *more):
        sqlcm.lat("OVF").insert({"User": user, "Duration": duration})


def work(server, n):
    """Run n one-query sessions (each commit journals a record group)."""
    for i in range(n):
        session = server.create_session(user=f"u{i % 3}")
        session.execute("SELECT id FROM items WHERE id = 1")
        server.close_session(session)


def dead_letter_sweep(sqlcm):
    """Three mails dead-lettered; a sweep delivers the two that still hold
    their action, and the third stays with one more attempt."""
    for i in range(3):
        sqlcm.dead_letters.append(DeadLetter(
            time=sqlcm.server.clock.now, rule="mailer",
            action="SendMailAction", payload=f"m{i}",
            error="SinkError: down", attempts=3,
            action_obj=None if i == 1 else SendMailAction(f"m{i}", "dba@x")))
    report = sqlcm.dead_letters.redeliver(sqlcm)
    assert (report.delivered, report.remaining) == (2, 1)


def supervisory(sqlcm):
    """Timers and dead letters, which the state digest does not cover."""
    letters = sqlcm.dead_letters
    return (sorted((t.name, t.interval, t.remaining)
                   for t in sqlcm.timer_service.timers()),
            letters.snapshot(), letters.dropped, letters.poison_dropped)


class CommitTap:
    """``capture(monitor)`` at the post-attach checkpoint and at every
    committed journal append: what recovery must rebuild is the last."""

    def __init__(self, manager, capture):
        self.points = [capture(manager.sqlcm)]
        manager.journal.on_commit.append(
            lambda: self.points.append(capture(manager.sqlcm)))


def attach(target, directory):
    manager = DurabilityManager(target, str(directory))
    manager.attach()
    return manager, DigestTap(manager)


def tear_tail(manager):
    """Simulate a torn OS write: half a line lands at the journal tail."""
    with open(manager.journal.path, "a", encoding="utf-8") as handle:
        handle.write('c0ffee00 [999,"counts",tru')


class DiesAtAppend(FaultInjector):
    """The journal dies at its ``n``-th append from now: ``n - 1`` records
    of whatever comes next reach the disk, nothing after them does."""

    def __init__(self, n):
        super().__init__(seed=7)
        self.appends_left = n

    def check(self, site):
        if site == "durability.append":
            self.appends_left -= 1
            if self.appends_left == 0:
                raise FaultInjected(site, "exception")
        return super().check(site)


def crashed_restore(monitor, manager, tmp_path, n):
    """``restore_lat`` on ``monitor`` with the journal dying at its
    ``n``-th append: the recovered LAT is the one before the restore or
    the one after it, never part of one."""
    lat = monitor.lat("Q_LAT")
    assert monitor.persist_lat("Q_LAT", "snap") >= 4
    # every row moves past its persisted values, each by its own amount
    # (the digest XORs row CRCs: like changes to an even number of rows
    # cancel)
    for i, row in enumerate(lat.rows()):
        lat.insert({"ID": 0, "User": "", "Duration": 9.0 + 2 ** i}
                   | {g.attr: row[g.column] for g in lat.definition.grouping})
    before = monitor.state_digest()
    monitor.set_fault_injector(DiesAtAppend(n))
    monitor.restore_lat("Q_LAT", "snap")
    after = monitor.state_digest()
    assert after != before
    manager.journal.close()  # the crash
    recovered = DurabilityManager.recover(str(tmp_path)).sqlcm
    recovered.server.clock.advance_to(manager.clock.now)
    assert recovered.state_digest() == (before if n == 1 else after)


def crash(manager, sqlcm, server, site, mode):
    """Kill the monitor at ``site``; nothing after this reaches the disk."""
    sqlcm.faults.fail_next(site, mode=mode)
    if site == "durability.checkpoint":
        with pytest.raises(FaultInjected):
            manager.checkpoint()
    else:
        work(server, 4)  # the first journal append dies
        assert manager.journal.dead


# ---------------------------------------------------------------------------
# journal file format
# ---------------------------------------------------------------------------

class TestJournalFormat:
    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "nope.wal")) == ([], 0)

    def test_torn_tail_and_uncommitted_group_discarded(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_text(
            frame(1, "counts", True, 1.0, {"events": 1})
            + frame(2, "lat_insert", False, 2.0, {"lat": "L"})
            + frame(3, "counts", True, 3.0, {"events": 2})[:20],
            encoding="utf-8")
        records, discarded = read_journal(str(path))
        assert [r.seq for r in records] == [1]
        assert discarded == 2  # the uncommitted record + the torn line

    def test_bit_flip_stops_the_read(self, tmp_path):
        good = frame(1, "counts", True, 1.0, {"events": 1})
        bad = frame(2, "counts", True, 2.0, {"events": 2})
        bad = bad.replace("counts", "c0unts", 1)  # payload no longer matches CRC
        after = frame(3, "counts", True, 3.0, {"events": 3})
        path = tmp_path / "j.wal"
        path.write_text(good + bad + after, encoding="utf-8")
        records, discarded = read_journal(str(path))
        assert [r.seq for r in records] == [1]
        assert discarded == 1

    def test_group_commit_semantics(self, tmp_path, server):
        """Mid-dispatch records stay uncommitted until the counts marker."""
        sqlcm = SQLCM(server)
        sqlcm.create_lat(LATDefinition(
            name="L", grouping=["Query.User AS U"],
            aggregations=["COUNT(Query.ID) AS N"]))
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[InsertAction("L")]))
        manager, __ = attach(sqlcm, tmp_path)
        session = server.create_session(user="u1")
        session.execute("SELECT 1")
        server.close_session(session)
        manager.detach()
        records, discarded = read_journal(manager.journal.path)
        assert discarded == 0
        groups = [r.kind for r in records if r.commit]
        assert groups, "expected at least one commit marker"
        assert all(r.kind == "counts" for r in records if r.commit)
        assert any(r.kind == "lat_insert" and not r.commit for r in records)


# ---------------------------------------------------------------------------
# atomic checkpoints
# ---------------------------------------------------------------------------

class TestAtomicCheckpoint:
    def test_exception_fault_publishes_nothing(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, tap = attach(sqlcm, tmp_path)  # generation 1
        work(server, 8)
        sqlcm.faults.fail_next("durability.checkpoint")
        with pytest.raises(FaultInjected):
            manager.checkpoint()
        assert not list(tmp_path.glob("checkpoint-0002.ckpt"))
        assert not list(tmp_path.glob("*.tmp"))  # temp never leaks
        report = verify_recovery(str(tmp_path), tap)
        assert report.generation == 1
        assert report.records_replayed > 0

    def test_partial_fault_falls_back_a_generation(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, tap = attach(sqlcm, tmp_path)  # generation 1
        work(server, 8)
        manager.checkpoint()                    # generation 2 (good)
        work(server, 6)
        sqlcm.faults.fail_next("durability.checkpoint", mode="partial")
        with pytest.raises(FaultInjected):
            manager.checkpoint()                # generation 3 lands torn
        names = {p.name for p in tmp_path.glob("checkpoint-*.ckpt")}
        assert "checkpoint-0003.ckpt" in names  # the torn file is visible
        report = verify_recovery(str(tmp_path), tap)
        assert report.generation == 2           # CRC-rejected gen 3
        assert report.records_replayed > 0      # gen 2's journal replayed

    def test_generations_pruned_to_last_two(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, __ = attach(sqlcm, tmp_path)   # generation 1
        for __ in range(4):
            work(server, 3)
            manager.checkpoint()                # generations 2..5
        names = sorted(p.name for p in tmp_path.glob("checkpoint-*.ckpt"))
        assert names == ["checkpoint-0004.ckpt", "checkpoint-0005.ckpt"]

    def test_checkpoint_rotates_the_journal(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, __ = attach(sqlcm, tmp_path)
        work(server, 5)
        old_path = manager.journal.path
        manager.checkpoint()
        assert manager.journal.path != old_path
        assert manager.journal.records_written == 0 or \
            manager.journal.path.endswith("journal-0002.wal")


# ---------------------------------------------------------------------------
# clean recovery
# ---------------------------------------------------------------------------

class TestCleanRecovery:
    def test_clean_kill_restores_exact_digest(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, tap = attach(sqlcm, tmp_path)
        work(server, 20)
        server.clock.advance(10.0)
        work(server, 5)
        report = verify_recovery(str(tmp_path), tap)
        assert report.records_discarded == 0
        report.sqlcm.server.clock.advance_to(server.clock.now)
        assert report.sqlcm.state_digest() == sqlcm.state_digest()

    def test_recover_twice_is_bit_stable(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, tap = attach(sqlcm, tmp_path)
        work(server, 12)
        first = verify_recovery(str(tmp_path), tap)
        second = verify_recovery(str(tmp_path), tap)
        assert first.sqlcm.state_digest() == second.sqlcm.state_digest()
        assert first.records_replayed == second.records_replayed

    def test_detached_journal_recovers_without_discards(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, tap = attach(sqlcm, tmp_path)
        work(server, 10)
        manager.detach()  # clean shutdown: journal closed mid-generation
        report = verify_recovery(str(tmp_path), tap)
        assert report.records_discarded == 0
        assert report.records_replayed > 0


# ---------------------------------------------------------------------------
# the kill matrix: every crash site x every journal shape
# ---------------------------------------------------------------------------

#: one mutation after attach for each record kind only a recovery replays
MUTATIONS = {
    "rule_remove": lambda sqlcm: sqlcm.remove_rule("spare"),
    "rule_enable": lambda sqlcm: sqlcm.enable_rule("track", False),
    "lat_reset": lambda sqlcm: sqlcm.lat("OVF").reset(),
    "lat_del": lambda sqlcm: sqlcm.lat("Q_LAT").delete_row(("u1",)),
}


def rules_and_lats(sqlcm):
    """Rule order and enabled flags, and every LAT's rows."""
    return ([(rule.name, rule.enabled) for rule in sqlcm._rule_order],
            {lat.definition.name: lat.rows() for lat in sqlcm.lats()})


class TestCrashMatrix:
    @pytest.mark.parametrize("state", JOURNAL_STATES)
    @pytest.mark.parametrize("site,mode", CRASH_SITES)
    def test_serial_recovery_digest(self, tmp_path, site, mode, state):
        server, sqlcm = build_monitor()
        manager, tap = attach(sqlcm, tmp_path)
        side = CommitTap(manager, supervisory)
        if state != "empty":
            work(server, 20)
            dead_letter_sweep(sqlcm)
            server.clock.advance(10.0)
            overflow(sqlcm, "late", -math.inf)  # inf payload, nan state
            work(server, 5)  # t1 fires twice: 3 alarms left -> 1
        crash(manager, sqlcm, server, site, mode)
        if state == "torn":
            tear_tail(manager)
        report = verify_recovery(str(tmp_path), tap)
        assert supervisory(report.sqlcm) == side.points[-1]
        if state != "empty":
            assert report.records_replayed > 0
            late, = (row for row in report.sqlcm.lat("OVF").rows()
                     if row["U"] == "late")
            assert math.isnan(late["S"])
            timers, letters, __, __ = side.points[-1]
            assert ("t1", 5.0, 1) in timers and len(letters) == 1
        if state == "torn" or (site == "durability.append"
                               and mode == "partial"):
            assert report.records_discarded >= 1


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_serial_restore_reaches_the_disk_whole_or_not_at_all(
            self, tmp_path, n):
        server, sqlcm = build_monitor()
        manager, __ = attach(sqlcm, tmp_path)
        for user in range(4):
            sqlcm.lat("Q_LAT").insert(
                {"User": f"r{user}", "ID": user, "Duration": 1.0})
        crashed_restore(sqlcm, manager, tmp_path, n)

    @pytest.mark.parametrize("site,mode", CRASH_SITES)
    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_replayed_mutation_matches_pre_crash(self, tmp_path, kind,
                                                 site, mode):
        server, sqlcm = build_monitor()
        sqlcm.add_rule(Rule(name="spare", event="Query.Commit",
                            condition="Query.Duration < 0",
                            actions=[InsertAction("Q_LAT")]))
        manager, tap = attach(sqlcm, tmp_path)
        side = CommitTap(manager, rules_and_lats)
        work(server, 6)
        MUTATIONS[kind](sqlcm)
        work(server, 3)
        records, __ = read_journal(manager.journal.path)
        assert kind in {record.kind for record in records}
        crash(manager, sqlcm, server, site, mode)
        report = verify_recovery(str(tmp_path), tap)
        assert rules_and_lats(report.sqlcm) == side.points[-1]



# ---------------------------------------------------------------------------
# stream state: the digest covers none of it, so it is compared directly
# ---------------------------------------------------------------------------

STREAM_KEYS = ("Query.Logical_Signature", "Query.User", "Query.Query_Type",
               "Query.Application")


def latstream_monitor():
    """The monitor shape of the ``latstream-replay`` benchmark: four
    condition-free rules into four LATs, and eight sliding stream queries
    over four group keys, half of them alerting on every window."""
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    server.execute_ddl(
        "CREATE TABLE items (id INT NOT NULL PRIMARY KEY, v INT)")
    loader = server.create_session()
    loader.execute("INSERT INTO items (id, v) VALUES (1, 1), (2, 2), (3, 3)")
    server.close_session(loader)
    sqlcm = SQLCM(server)
    sqlcm.set_fault_injector(FaultInjector(seed=7))
    for name, grouping, aggregations in [
            ("TopK", "Query.Logical_Signature AS Sig",
             ["AVG(Query.Duration) AS D", "COUNT(Query.ID) AS N"]),
            ("ById", "Query.ID AS Qid", ["MAX(Query.Duration) AS D"]),
            ("ByUser", "Query.User AS U",
             ["COUNT(Query.ID) AS N", "SUM(Query.Duration) AS Total"]),
            ("AllQ", "Query.ID AS Qid", ["LAST(Query.Duration) AS D"])]:
        sqlcm.create_lat(LATDefinition(
            name=name, monitored_class="Query", grouping=[grouping],
            aggregations=aggregations))
        sqlcm.add_rule(Rule(name=f"into_{name}", event="Query.Commit",
                            actions=[InsertAction(name)]))
    for i in range(8):
        having = "Window.N >= 1" if i < 4 else "Window.Avg_D > 1000000"
        sqlcm.stream_engine().register(
            f"STREAM s{i} FROM Query.Commit WHERE Query.Duration >= 0 "
            f"GROUP BY {STREAM_KEYS[i % 4]} AS K "
            f"WINDOW SLIDING(0.05, 0.01) "
            f"AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS N "
            f"HAVING {having}")
    return server, sqlcm


def stream_work(server, n, start=0):
    """n one-statement sessions: three users, reads and writes."""
    for i in range(start, start + n):
        session = server.create_session(user=f"u{i % 3}")
        session.execute(f"UPDATE items SET v = {i} WHERE id = {1 + i % 3}"
                        if i % 2 else
                        f"SELECT v FROM items WHERE id = {1 + i % 3}")
        server.close_session(session)


def stream_images(sqlcm):
    """Every stream query's checkpoint image (window panes, alert ring,
    counters), less ``events_seen`` and ``where_rejected``: the two
    tallies that are not persisted between checkpoints."""
    images = {}
    for query in sqlcm.stream_engine().queries():
        image = _query_image([query])
        del image["events_seen"], image["where_rejected"]
        images[query.name] = state.loads(state.dumps(image))
    return images


class FailsQueryThenDies(FaultInjector):
    """The ``k``-th stream query of the next stream event raises at
    ``stream.eval``; the journal dies at the ``m``-th append after that."""

    def __init__(self, k, m):
        super().__init__(seed=7)
        self.evals_left, self.m = k, m
        self.appends_left = 0

    def check(self, site):
        if site == "stream.eval" and self.evals_left:
            self.evals_left -= 1
            if not self.evals_left:
                self.appends_left = self.m
                raise FaultInjected(site, "exception")
        if site == "durability.append" and self.appends_left:
            self.appends_left -= 1
            if not self.appends_left:
                raise FaultInjected(site, "exception")
        return super().check(site)


class TestStreamRecovery:
    """Recovered ≡ pre-crash for every stream query: panes, alerts and
    counters equal those at the last commit the disk saw."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_recovered_stream_state_equals_pre_crash(self, tmp_path, n):
        server, sqlcm = latstream_monitor()
        manager, tap = attach(sqlcm, tmp_path)
        side = CommitTap(manager, stream_images)
        stream_work(server, 12)
        manager.checkpoint()  # every query's panes as one stream_image
        stream_work(server, 12, start=12)
        sqlcm.set_fault_injector(DiesAtAppend(n))
        stream_work(server, 6, start=24)  # the journal dies in here
        assert manager.journal.dead
        report = verify_recovery(str(tmp_path), tap)
        expected = side.points[-1]
        assert stream_images(report.sqlcm) == expected
        assert all(image["alerts"] for name, image in expected.items()
                   if name in ("s0", "s1", "s2", "s3"))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_a_query_failing_mid_event_then_a_crash(self, tmp_path, k, m):
        """The failing query's health record waits for its event's
        observations: it cannot commit ahead of them."""
        server, sqlcm = latstream_monitor()
        manager, tap = attach(sqlcm, tmp_path)
        side = CommitTap(manager, stream_images)
        stream_work(server, 10)
        sqlcm.set_fault_injector(FailsQueryThenDies(k, m))
        stream_work(server, 4, start=10)
        assert sqlcm.stream_engine().query(f"s{k - 1}").errors == 1
        assert manager.journal.dead
        report = verify_recovery(str(tmp_path), tap)
        assert stream_images(report.sqlcm) == side.points[-1]


# ---------------------------------------------------------------------------
# a sharded replay checkpoints through the same fold, recovers serial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_replayed_facade_checkpoint_recovers_serial(tmp_path, n_shards):
    """``compact`` folds a replayed facade's shard monitors into one
    checkpoint; recovery rebuilds the serial monitor with their digest."""
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    server.execute_ddl("CREATE TABLE items (id INT PRIMARY KEY, v INT)")
    trace = EventTrace().attach(server)
    session = server.create_session(user="u1")
    proc = session.submit_script(
        [f"INSERT INTO items VALUES ({i}, {i * 2})" for i in range(15)]
        + [f"SELECT v FROM items WHERE id = {i}" for i in range(15)])
    server.scheduler.run_until_done(proc)
    trace.detach()
    facade = ShardedSQLCM(DatabaseServer(), n_shards=n_shards)
    facade.create_lat(LATDefinition(
        name="Q_LAT", monitored_class="Query",
        grouping=["Query.ID AS Qid"],
        aggregations=["AVG(Query.Duration) AS D", "COUNT(Query.ID) AS N"]))
    facade.add_rule(Rule(name="track", event="Query.Commit",
                         actions=[InsertAction("Q_LAT")]))
    facade.run_trace(trace)
    (tmp_path / "checkpoint-0001.ckpt").write_text(
        compact(facade.monitors), encoding="utf-8")
    recovered = DurabilityManager.recover(str(tmp_path)).sqlcm
    assert len(recovered.lat("Q_LAT")) == 30
    assert recovered.rules["track"].fire_count == 30
    assert recovered.state_digest() == facade.state_digest()


# ---------------------------------------------------------------------------
# a checkpoint is whole or it is nothing: only the end marker commits
# ---------------------------------------------------------------------------

class TestCheckpointTruncation:
    def test_every_truncation_falls_back_a_generation(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, tap = attach(sqlcm, tmp_path)  # generation 1
        work(server, 8)
        path = manager.checkpoint()             # generation 2, then idle
        with open(path, encoding="utf-8") as handle:
            whole = handle.read()
        assert read_checkpoint(path)[-1].kind == "checkpoint_end"
        boundaries = [i + 1 for i, ch in enumerate(whole) if ch == "\n"]
        assert len(boundaries) > 12
        # after every record but the last, and inside every record
        cuts = set(boundaries[:-1]) | {0} | {b - 3 for b in boundaries}
        for cut in sorted(cuts):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(whole[:cut])
            with pytest.raises(DurabilityError):
                read_checkpoint(path)
            report = verify_recovery(str(tmp_path), tap)
            assert report.generation == 1, f"cut at byte {cut} validated"
            assert report.records_replayed > 0

    def test_an_intermediate_commit_validates_nothing(self, tmp_path):
        """A forged commit flag mid-file makes the prefix *readable*, but a
        checkpoint's last committed record must be the end marker."""
        path = tmp_path / "checkpoint-0001.ckpt"
        path.write_text(
            frame(1, "checkpoint", False, 0.0,
                  {"version": CHECKPOINT_VERSION})
            + frame(2, "totals", True, 0.0, {}), encoding="utf-8")
        records, __ = read_journal(str(path))
        assert [r.kind for r in records] == ["checkpoint", "totals"]
        with pytest.raises(DurabilityError, match="no end marker"):
            read_checkpoint(str(path))

    def test_end_marker_must_match_count_and_chained_crc(self, tmp_path):
        server, sqlcm = build_monitor()
        manager, __ = attach(sqlcm, tmp_path)
        path = tmp_path / "checkpoint-0001.ckpt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # drop one whole record from the middle: every remaining line still
        # passes its own CRC, only the end marker can tell
        path.write_text("".join(lines[:3] + lines[4:]), encoding="utf-8")
        with pytest.raises(DurabilityError, match="end marker does not"):
            read_checkpoint(str(path))


# ---------------------------------------------------------------------------
# values and orders the old two-format tier lost
# ---------------------------------------------------------------------------

class TestNonFiniteFloats:
    def test_overflowed_sum_survives_checkpoint_and_recover(self, tmp_path):
        server, sqlcm = build_monitor()
        assert sqlcm.lat("OVF").rows() == [{"U": "early", "S": math.inf}]
        manager, tap = attach(sqlcm, tmp_path)
        report = verify_recovery(str(tmp_path), tap)  # digest equality
        assert report.records_replayed == 0           # checkpoint only
        assert report.sqlcm.lat("OVF").rows() == sqlcm.lat("OVF").rows()

    def test_record_payloads_carry_inf_and_nan_losslessly(self, tmp_path):
        path = tmp_path / "j.wal"
        data = {"values": [math.inf, -math.inf, (1.5, math.nan)],
                math.inf: "key"}
        path.write_text(frame(1, "lat_insert", True, 0.0, data),
                        encoding="utf-8")
        (record,), discarded = read_journal(str(path))
        assert discarded == 0
        assert record.data["values"][:2] == [math.inf, -math.inf]
        assert record.data["values"][2][0] == 1.5
        assert math.isnan(record.data["values"][2][1])
        assert record.data[math.inf] == "key"


class TestRuleOrder:
    @staticmethod
    def _monitor(server):
        sqlcm = SQLCM(server)
        sqlcm.create_lat(LATDefinition(
            name="L", grouping=["Query.User AS U"],
            aggregations=["COUNT(Query.ID) AS N"]))
        sqlcm.add_rule(Rule(name="zz_user", event="Query.Commit",
                            actions=[InsertAction("L")]))
        return sqlcm

    @staticmethod
    def _order(sqlcm):
        return [rule.name for rule in sqlcm._rule_order]

    @pytest.mark.parametrize("journaled", [False, True],
                             ids=["checkpoint-only", "checkpoint+journal"])
    def test_registration_order_survives_recovery(self, tmp_path, server,
                                                  journaled):
        sqlcm = self._monitor(server)
        sqlcm.incident_manager()  # registers its sweep rule *after* zz_user
        sqlcm.add_rule(Rule(name="aa_user", event="Query.Commit",
                            actions=[InsertAction("L")]))
        manager, tap = attach(sqlcm, tmp_path)
        if journaled:
            sqlcm.add_rule(Rule(name="mm_late", event="Query.Commit",
                                actions=[InsertAction("L")]))
            session = server.create_session(user="u1")
            session.execute("SELECT 1")
            server.close_session(session)
        expected = ["zz_user", "sqlcm_incident_sweep", "aa_user"] \
            + ["mm_late"] * journaled
        assert self._order(sqlcm) == expected
        report = verify_recovery(str(tmp_path), tap)
        assert (report.records_replayed > 0) == journaled
        assert self._order(report.sqlcm) == expected
        assert report.placeholder_rules == []

    def test_manager_created_after_the_checkpoint_keeps_its_place(
            self, tmp_path, server):
        sqlcm = self._monitor(server)
        manager, tap = attach(sqlcm, tmp_path)
        sqlcm.incident_manager()
        sqlcm.add_rule(Rule(name="aa_user", event="Query.Commit",
                            actions=[InsertAction("L")]))
        report = verify_recovery(str(tmp_path), tap)
        assert self._order(report.sqlcm) == self._order(sqlcm) \
            == ["zz_user", "sqlcm_incident_sweep", "aa_user"]
        assert report.placeholder_rules == []


# ---------------------------------------------------------------------------
# what cannot round-trip: pure-callback rules need the setup hook
# ---------------------------------------------------------------------------

class TestCallbackRules:
    @staticmethod
    def _cb_rule(sink):
        return Rule(name="cb", event="Query.Commit",
                    actions=[CallbackAction(
                        lambda monitor, context: sink.append(1))])

    def test_recovery_without_setup_detects_the_gap(self, tmp_path):
        server, sqlcm = build_monitor()
        fired: list[int] = []
        sqlcm.add_rule(self._cb_rule(fired))
        manager, tap = attach(sqlcm, tmp_path)
        work(server, 6)
        assert fired
        with pytest.raises(DurabilityError):
            verify_recovery(str(tmp_path), tap)

    def test_setup_hook_restores_digest_equality(self, tmp_path):
        server, sqlcm = build_monitor()
        fired: list[int] = []
        sqlcm.add_rule(self._cb_rule(fired))
        manager, tap = attach(sqlcm, tmp_path)
        work(server, 6)
        report = verify_recovery(
            str(tmp_path), tap,
            setup=lambda monitor: monitor.add_rule(self._cb_rule(fired)))
        assert "cb" not in report.placeholder_rules

    def test_skipped_rules_are_reported(self, tmp_path):
        server, sqlcm = build_monitor()
        sqlcm.add_rule(self._cb_rule([]))
        manager, tap = attach(sqlcm, tmp_path)
        report = DurabilityManager.recover(str(tmp_path))
        assert "cb" in report.placeholder_rules
