"""Tests for the sharded replay tier (repro.shard).

Covers the replay-stable partitioner, event-trace recording, the LAT /
window / attribution merge boundary, and the determinism proof: a
replayed sharded run, on any shard count, digest-equals the serial run
on the same trace whenever the monitored group keys align with the
partition key.  The proof tests are marked ``shard_determinism``
so CI can run them as a named tier-1 step.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro import (LATDefinition, Rule, ServerConfig, SQLCM, DatabaseServer,
                   ShardedSQLCM, EventTrace, Partitioner)
from repro.core import InsertAction
from repro.core.lat import LAT
from repro.engine.query import QueryContext
from repro.errors import LATError
from repro.sim import SimClock
from repro.sim.costs import CostModel
from repro.stream.windows import WindowState

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


def build_server():
    srv = DatabaseServer(ServerConfig(track_completed_queries=True))
    srv.execute_ddl("CREATE TABLE items (id INT PRIMARY KEY, v INT)")
    return srv


def qid_lat():
    return LATDefinition(
        name="Q_LAT", monitored_class="Query",
        grouping=["Query.ID AS Qid"],
        aggregations=["AVG(Query.Duration) AS D",
                      "COUNT(Query.ID) AS N"])


def track_rule():
    return Rule(name="track", event="Query.Commit",
                actions=[InsertAction("Q_LAT")])


def drive(server, statements=40):
    """Run a deterministic INSERT+SELECT mix to completion."""
    session = server.create_session(user="u1")
    script = []
    for i in range(statements):
        script.append(f"INSERT INTO items VALUES ({i}, {i * 2})")
        script.append(f"SELECT v FROM items WHERE id = {i}")
    proc = session.submit_script(script)
    server.scheduler.run_until_done(proc)


def serial_reference():
    """A serial monitored run; returns (digest, trace)."""
    server = build_server()
    monitor = SQLCM(server)
    monitor.create_lat(qid_lat())
    monitor.add_rule(track_rule())
    trace = EventTrace().attach(server)
    drive(server)
    trace.detach()
    return monitor.state_digest(), trace


def replay_facade(n_shards, **kwargs):
    facade = ShardedSQLCM(build_server(), n_shards=n_shards,
                          subscribe=False, **kwargs)
    facade.create_lat(qid_lat())
    facade.add_rule(track_rule())
    return facade


# ---------------------------------------------------------------------------
# partitioner
# ---------------------------------------------------------------------------

class TestPartitioner:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Partitioner(0)
        with pytest.raises(ValueError, match="query_key"):
            Partitioner(4, query_key="bogus")

    def test_single_shard_short_circuits(self):
        part = Partitioner(1)
        assert part.shard_of("query.commit", {}) == 0

    def test_query_lifecycle_colocates(self):
        part = Partitioner(8)
        qctx = QueryContext(query_id=77, session_id=1, text="SELECT 1",
                            user="u", application="a", query_type="SELECT")
        payload = {"query": qctx}
        shards = {part.shard_of(event, payload)
                  for event in ("query.start", "query.commit",
                                "query.cancel", "query.blocked")}
        assert len(shards) == 1

    def test_signature_mode_colocates_instances(self):
        part = Partitioner(8, query_key="signature")
        sig = b"\x01\x02"
        a = QueryContext(query_id=1, session_id=1, text="SELECT 1",
                         user="u", application="a", query_type="SELECT",
                         logical_signature=sig)
        b = QueryContext(query_id=2, session_id=9, text="SELECT 1",
                         user="v", application="b", query_type="SELECT",
                         logical_signature=sig)
        assert part.key_of("query.commit", {"query": a}) == \
            part.key_of("query.commit", {"query": b}) == "sig:" + sig.hex()
        # pre-compilation fallback: the statement text
        c = QueryContext(query_id=3, session_id=1, text="SELECT 2",
                         user="u", application="a", query_type="SELECT")
        assert part.key_of("query.start", {"query": c}) == "text:SELECT 2"

    def test_replay_stability(self):
        part_a, part_b = Partitioner(8), Partitioner(8)
        qctx = QueryContext(query_id=5, session_id=1, text="SELECT 1",
                            user="u", application="a", query_type="SELECT")
        payload = {"query": qctx}
        assert part_a.shard_of("query.commit", payload) == \
            part_b.shard_of("query.commit", payload)

    def test_query_mode_spreads_distinct_instances(self):
        part = Partitioner(4)
        shards = set()
        for qid in range(64):
            qctx = QueryContext(query_id=qid, session_id=1, text="SELECT 1",
                                user="u", application="a",
                                query_type="SELECT")
            shards.add(part.shard_of("query.commit", {"query": qctx}))
        assert shards == {0, 1, 2, 3}

    def test_non_query_keys(self):
        part = Partitioner(4)
        assert part.key_of("session.login_failed",
                           {"user": "eve"}) == "user:eve"
        assert part.key_of("sqlcm.stream_alert",
                           {"stream": "s", "group": ("a",)}) == \
            "stream:s:('a',)"
        assert part.key_of("lat.evict", {"lat": "L"}) == "lat:L"
        assert part.key_of("unknown.event", {}) == "unknown.event"


# ---------------------------------------------------------------------------
# event trace
# ---------------------------------------------------------------------------

class TestEventTrace:
    def test_records_engine_events_with_times(self):
        server = build_server()
        trace = EventTrace().attach(server)
        commit(server, 1.0, 0.1)
        commit(server, 2.0, 0.2)
        trace.detach()
        commit(server, 3.0, 0.3)  # after detach: not recorded
        assert len(trace) == 2
        assert [t for __, __, t in trace.events] == [1.0, 2.0]
        assert trace.events[-1][2] == 2.0

    def test_monitor_meta_events_excluded(self):
        server = build_server()
        trace = EventTrace().attach(server)
        server.events.publish("sqlcm.stream_alert", {"stream": "s"})
        trace.detach()
        assert len(trace) == 0

    def test_double_attach_rejected(self):
        server = build_server()
        trace = EventTrace().attach(server)
        with pytest.raises(RuntimeError, match="already attached"):
            trace.attach(server)
        trace.detach()


# ---------------------------------------------------------------------------
# merge boundary
# ---------------------------------------------------------------------------

def make_lat(clock, **overrides):
    spec = dict(
        name="M", monitored_class="Query",
        grouping=["Query.Application AS App"],
        aggregations=["COUNT(Query.ID) AS N",
                      "SUM(Query.Duration) AS S",
                      "AVG(Query.Duration) AS Avg_D",
                      "STDEV(Query.Duration) AS Sd",
                      "MIN(Query.Duration) AS Lo",
                      "MAX(Query.Duration) AS Hi"],
    )
    spec.update(overrides)
    return LAT(LATDefinition(**spec), clock)


class TestLATMerge:
    def test_partitioned_insert_merges_to_serial_state(self):
        clock = SimClock()
        serial = make_lat(clock)
        left, right = make_lat(clock), make_lat(clock)
        rows = [("a", i, 0.5 + 0.25 * i) for i in range(8)] + \
               [("b", 100 + i, 2.0 * i) for i in range(5)]
        for index, (app, qid, dur) in enumerate(rows):
            source = {"application": app, "id": qid, "duration": dur}
            serial.insert(source)
            (left if index % 2 else right).insert(source)
        left.merge_from(right)
        assert left.integrity_signature() == serial.integrity_signature()
        merged = {row["App"]: row for row in left.rows()}
        reference = {row["App"]: row for row in serial.rows()}
        for app, row in reference.items():
            for col in ("N", "S", "Avg_D", "Sd", "Lo", "Hi"):
                assert merged[app][col] == pytest.approx(row[col])

    def test_disjoint_groups_copy_over(self):
        clock = SimClock()
        left, right = make_lat(clock), make_lat(clock)
        left.insert({"application": "a", "id": 1, "duration": 1.0})
        right.insert({"application": "b", "id": 2, "duration": 2.0})
        left.merge_from(right)
        assert {row["App"] for row in left.rows()} == {"a", "b"}
        # the source LAT is untouched by the merge
        assert {row["App"] for row in right.rows()} == {"b"}

    def test_shape_mismatch_rejected(self):
        clock = SimClock()
        lat = make_lat(clock)
        other = LAT(LATDefinition(
            name="Other", monitored_class="Query",
            grouping=["Query.User AS U"],
            aggregations=["COUNT(Query.ID) AS C"]), clock)
        with pytest.raises(LATError, match="merge"):
            lat.merge_from(other)

    def test_size_limit_enforced_at_merge_boundary(self):
        clock = SimClock()
        def bounded():
            return make_lat(
                clock,
                aggregations=["COUNT(Query.ID) AS N"],
                ordering=["N DESC"], max_rows=3)
        left, right = bounded(), bounded()
        for i in range(3):
            left.insert({"application": f"l{i}", "id": i, "duration": 0.1})
            right.insert({"application": f"r{i}", "id": 10 + i,
                          "duration": 0.1})
        evicted = left.merge_from(right)
        assert len(left) == 3
        assert len(evicted) == 3

    def test_window_merge_equals_serial_panes(self):
        from repro.stream import parse_stream_query
        from repro.core.aggregates import aggregate_function
        spec = parse_stream_query(
            "STREAM s FROM Query.Commit GROUP BY Query.User AS U "
            "WINDOW TUMBLING(10) AGG COUNT(*) AS N, SUM(Query.Duration) AS S")
        funcs = [aggregate_function(a.func) for a in spec.aggs]
        serial = WindowState(spec.window, funcs)
        left = WindowState(spec.window, funcs)
        right = WindowState(spec.window, funcs)
        samples = [(("alice",), 1.0, 0.2), (("bob",), 2.0, 0.4),
                   (("alice",), 12.0, 0.6), (("alice",), 13.0, 0.8),
                   (("bob",), 14.0, 1.0)]
        for index, (key, t, dur) in enumerate(samples):
            serial.observe(key, [1, dur], t)
            (left if index % 2 else right).observe(key, [1, dur], t)
        left.merge_from(right)
        assert left.group_count == serial.group_count
        for key, panes in serial.groups.items():
            assert sorted(dict(panes).items()) == \
                sorted(dict(left.groups[key]).items())


# ---------------------------------------------------------------------------
# facade: control plane
# ---------------------------------------------------------------------------

class TestFacadeControlPlane:
    def test_registrations_fan_out(self):
        facade = replay_facade(4)
        for shard in facade.shards:
            assert shard.sqlcm.has_lat("Q_LAT")
            assert "track" in shard.sqlcm.rules
        # per-shard rules are clones: the template carries no statistics
        clones = {id(shard.sqlcm.rules["track"]) for shard in facade.shards}
        assert len(clones) == facade.n_shards
        facade.remove_rule("track")
        for shard in facade.shards:
            assert "track" not in shard.sqlcm.rules
            assert not shard.sqlcm._rules_by_event

    def test_detach_takes_the_monitor_off_the_bus(self):
        """The bus is a serial monitor's: ``wire`` has an inverse, and
        after ``detach()`` the driver forgets the monitor and a published
        event reaches no rule and no stream query."""
        server = build_server()
        monitor = SQLCM(server)
        monitor.create_lat(qid_lat())
        monitor.add_rule(track_rule())
        stream = monitor.stream_engine().register(
            "STREAM s FROM Query.Commit WINDOW TUMBLING(1) AGG COUNT(*) AS N")
        driver = monitor.driver
        assert driver.sqlcm is monitor
        commit(server, 1.0, 0.5)
        monitor.detach()
        monitor.detach()  # idempotent
        assert driver.sqlcm is None
        commit(server, 2.0, 0.5)
        assert monitor.rules["track"].fire_count == 1
        assert stream.events_seen == 1

    def test_facade_never_subscribes(self):
        """A facade replays a recorded trace; live monitoring is SQLCM's."""
        with pytest.raises(ValueError, match="SQLCM"):
            ShardedSQLCM(build_server(), n_shards=2, subscribe=True)


# ---------------------------------------------------------------------------
# determinism proof: sharded ≡ serial
# ---------------------------------------------------------------------------

@pytest.mark.shard_determinism
class TestDeterminismProof:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_replay_matches_serial_digest(self, n_shards):
        serial_digest, trace = serial_reference()
        facade = replay_facade(n_shards)
        result = facade.run_trace(trace)
        assert facade.state_digest() == serial_digest
        assert result["events"] == len(trace)
        assert sum(result["shard_events"]) == len(trace)

    def test_replay_cost_is_conserved_and_makespan_shrinks(self):
        __, trace = serial_reference()
        single = replay_facade(1).run_trace(trace)
        quad_facade = replay_facade(4)
        quad = quad_facade.run_trace(trace)
        assert sum(quad["shard_costs"]) == pytest.approx(
            single["makespan"], rel=1e-9)
        assert quad["makespan"] < single["makespan"]
        # per-shard attribution satisfies the conservation invariant
        merged = quad_facade.merged_attribution()
        assert merged.attributed_total() == pytest.approx(
            merged.total, rel=1e-9)
        assert merged.total == pytest.approx(sum(quad["shard_costs"]),
                                             rel=1e-9)

    def test_replay_attributes_cost_to_each_rule_like_serial(self):
        """Per-rule attribution survives the dispatch loop's fast path.

        ``ShardObs.enabled`` is False *while its attribution frames are
        live*, so a fast loop entered on ``not obs.enabled`` (instead of
        ``obs is NULL_OBS``) would run replay shards frameless: every
        rule's cost would land unattributed, conservation and all digests
        would still hold, and only this comparison fails.  The serial
        side runs with observability on and its self-charges priced at
        zero, so a rule's frame holds exactly what the shards tally."""
        conditions = {
            "one_atom": "Query.Duration >= 0",
            "three_atoms": "Query.Duration >= 0 AND Query.ID > 0 "
                           "AND Query.Query_Type = 'SELECT'",
            "five_atoms": "Query.Duration >= 0 AND Query.ID > 0 "
                          "AND Query.Times_Blocked >= 0 "
                          "AND Query.User = 'u1' AND Query.Duration < 0",
        }

        def install(monitor):
            monitor.create_lat(qid_lat())
            for name, condition in conditions.items():
                monitor.add_rule(Rule(name=name, event="Query.Commit",
                                      condition=condition,
                                      actions=[InsertAction("Q_LAT")]))

        free_obs = dataclasses.replace(CostModel(), obs_attrib=0.0,
                                       obs_span=0.0, obs_metric=0.0)
        server = DatabaseServer(ServerConfig(costs=free_obs))
        server.execute_ddl("CREATE TABLE items (id INT PRIMARY KEY, v INT)")
        server.enable_observability()
        install(SQLCM(server))
        trace = EventTrace().attach(server)
        drive(server)
        trace.detach()
        serial = server.obs.attribution.totals

        facade = ShardedSQLCM(build_server(), n_shards=4, subscribe=False)
        install(facade)
        facade.run_trace(trace)
        merged = facade.merged_attribution().totals
        costs = [merged[("rule", name)] for name in conditions]
        assert costs == sorted(costs) and len(set(costs)) == 3
        for name in conditions:
            assert merged[("rule", name)] == pytest.approx(
                serial[("rule", name)], rel=1e-9)
        assert merged[("lat", "q_lat")] == pytest.approx(
            serial[("lat", "q_lat")], rel=1e-9)

    def test_merged_lat_and_rule_stats_match_serial(self):
        server = build_server()
        serial = SQLCM(server)
        serial.create_lat(qid_lat())
        serial.add_rule(track_rule())
        trace = EventTrace().attach(server)
        drive(server)
        trace.detach()
        facade = replay_facade(4)
        facade.run_trace(trace)
        serial_rows = {row["Qid"]: row for row in serial.lat("Q_LAT").rows()}
        merged_rows = {row["Qid"]: row
                       for row in facade.merged_lat_rows("Q_LAT")}
        assert merged_rows.keys() == serial_rows.keys()
        for qid, row in serial_rows.items():
            assert merged_rows[qid]["N"] == row["N"]
            assert merged_rows[qid]["D"] == pytest.approx(row["D"])
        reference = serial.rules["track"]
        assert facade.rule_stats("track") == \
            (reference.fire_count, reference.evaluation_count)

    def test_streams_replay_aligned_groups_match_serial(self):
        """Stream + sink-LAT + alert-consuming rule, signature-aligned."""
        stream_text = ("STREAM hot FROM Query.Commit "
                       "GROUP BY Query.Logical_Signature AS Sig "
                       "WINDOW TUMBLING(10) AGG COUNT(*) AS N "
                       "HAVING Window.N >= 2")
        sink = LATDefinition(
            name="Alerts", monitored_class="StreamAlert",
            grouping=["StreamAlert.Group_Key AS G"],
            aggregations=["COUNT(StreamAlert.Kind) AS N"])

        def install(monitor):
            monitor.create_lat(sink)
            if isinstance(monitor, ShardedSQLCM):
                monitor.register_stream(stream_text, sink_lat="Alerts")
            else:
                monitor.stream_engine().register(stream_text,
                                                 sink_lat="Alerts")
            monitor.add_rule(Rule(
                name="note", event="StreamAlert.Alert",
                actions=[InsertAction("Alerts")]))

        def workload(server):
            sigs = [b"\x01", b"\x02", b"\x03"]
            t = 0.0
            for round_no in range(6):
                for sig in sigs:
                    t += 1.0
                    commit(server, t, 0.1 * (round_no + 1), sig=sig)
            server.clock.advance_to(40.0)  # cross the final boundary
            commit(server, 41.0, 0.1, sig=sigs[0])

        serial_server = build_server()
        serial = SQLCM(serial_server)
        install(serial)
        trace = EventTrace().attach(serial_server)
        workload(serial_server)
        trace.detach()

        facade = ShardedSQLCM(build_server(), n_shards=3,
                              subscribe=False, query_key="signature")
        install(facade)
        facade.run_trace(trace)
        assert facade.state_digest() == serial.state_digest()
        merged = facade.merged_window("hot")
        reference = serial._streams.query("hot").window
        assert merged.group_count == reference.group_count
