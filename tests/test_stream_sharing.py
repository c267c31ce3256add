"""Shared pane groups: stream queries of one pane shape fold each event and
merge each window once, and every member still behaves as if it were alone.

The oracle needs no switch.  Each query registered alone in a monitor of
its own, fed the same events, is what the query must equal in a monitor
where it shares panes: alert ring, counters, panes, health, sink LAT rows
and, when observability is on, the cost attributed to it.  Queries over
``StreamAlert.Alert`` hear the other queries' alerts, so they have no
alone twin; for them the reference is the same monitor with every WHERE
spelled apart, which leaves no two queries sharing.
"""

from __future__ import annotations

import io
import itertools
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (DatabaseServer, FaultInjector, LATDefinition, Rule,
                   SQLCM, ServerConfig)
from repro.cli import Shell
from repro.core import state
from repro.core.actions import CallbackAction
from repro.core.durability import _query_image
from repro.engine.query import QueryContext
from repro.errors import FaultInjected
from repro.stream.engine import StreamQuery

_IDS = itertools.count(1)

USERS = ("ann", "bob", "cy")
APPS = ("web", "batch")


def commit(server, t, duration, user="ann", app="web"):
    """Advance the clock to ``t`` and publish one synthetic query.commit."""
    server.clock.advance_to(t)
    server.events.publish("query.commit", {"query": QueryContext(
        query_id=next(_IDS), session_id=1, text="SELECT 1", user=user,
        application=app, query_type="SELECT", start_time=t - duration,
        end_time=t)})


def stream_text(name, where, group, window, count="N", tail=""):
    where = f" WHERE {where}" if where else ""
    return (f"STREAM {name} FROM Query.Commit{where} GROUP BY {group} "
            f"WINDOW {window} AGG COUNT(*) AS {count}, "
            f"AVG(Query.Duration) AS D{tail}")


class QueryFaults(FaultInjector):
    """Fails the next ``stream.eval`` / ``stream.window`` check of one
    named query: the decision belongs to the query, not to the order in
    which a monitor's queries consult the injector."""

    def __init__(self):
        super().__init__(seed=0)
        self.pending: set[tuple[str, str]] = set()

    def check(self, site):
        frame = sys._getframe(1)
        while frame is not None:
            query = frame.f_locals.get("query")
            if isinstance(query, StreamQuery):
                key = (query.name, site)
                if key in self.pending:
                    self.pending.discard(key)
                    raise FaultInjected(site, "exception")
                break
            frame = frame.f_back
        return 0.0


def monitor(obs=False):
    server = DatabaseServer(ServerConfig())
    if obs:
        server.enable_observability()
    sqlcm = SQLCM(server)
    sqlcm.set_fault_injector(QueryFaults())
    return server, sqlcm


def sink(sqlcm, name):
    sqlcm.create_lat(LATDefinition(
        name=name, monitored_class="StreamAlert",
        grouping=["StreamAlert.Group_Key AS G"],
        aggregations=["COUNT(StreamAlert.Kind) AS N",
                      "LAST(StreamAlert.Value) AS V"],
        ordering=["N DESC"], max_rows=2))


def snapshot(sqlcm, query):
    """Everything one query owns, encoded for comparison."""
    streams = sqlcm.stream_engine()
    health = streams.health.health_of(query.name)
    out = {"image": _query_image([query]),
           "health": (health.state, health.error_count,
                      health.quarantine_count, health.last_error),
           "sink": (sqlcm.lat(query.sink_lat).rows()
                    if query.sink_lat else None)}
    obs = sqlcm.server.obs
    if obs.enabled:
        out["cost"] = obs.attribution.totals.get(
            ("stream", query.name.lower()))
    return state.dumps(out)


# ---------------------------------------------------------------------------
# what shares and what does not
# ---------------------------------------------------------------------------

class TestShape:
    def test_per_query_clauses_share_and_pane_clauses_do_not(self, sqlcm):
        streams = sqlcm.stream_engine()
        base = ("Query.Duration >= 0", "Query.User AS U", "SLIDING(4, 2)")
        a = streams.register(stream_text("a", *base))
        # aliases, HAVING, ANOMALY, criticality, ring size: per query
        b = streams.register(
            stream_text("b", "Query.Duration >= 0", "Query.User AS K",
                        "SLIDING(4, 2)", count="Cnt",
                        tail=" HAVING Window.Cnt >= 2"),
            criticality="critical", max_alerts=3)
        c = streams.register(stream_text(
            "c", *base, tail=" ANOMALY DEVIATION(N, 2, 2)"))
        assert a.panes is b.panes is c.panes
        assert a.panes.members == [a, b, c]
        others = [
            stream_text("w", "Query.Duration > 0", "Query.User AS U",
                        "SLIDING(4, 2)"),
            stream_text("g", "Query.Duration >= 0", "Query.Application AS U",
                        "SLIDING(4, 2)"),
            stream_text("t", "Query.Duration >= 0", "Query.User AS U",
                        "SLIDING(4, 1)"),
            "STREAM f FROM Query.Commit WHERE Query.Duration >= 0 "
            "GROUP BY Query.User AS U WINDOW SLIDING(4, 2) "
            "AGG AVG(Query.Duration) AS D, COUNT(*) AS N",
        ]
        for text in others:
            assert streams.register(text).panes is not a.panes

    def test_streams_listing_names_the_shared_panes(self):
        out = io.StringIO()
        shell = Shell(out=out)
        streams = shell.sqlcm.stream_engine()
        base = ("Query.Duration >= 0", "Query.User AS U", "TUMBLING(2)")
        streams.register(stream_text("a", *base))
        streams.register(stream_text("b", *base))
        streams.register(stream_text("c", None, *base[1:]))
        assert [q.describe()["panes"] for q in streams.queries()] == \
            ["a", "a", None]
        shell.execute_line(".streams")
        lines = out.getvalue().splitlines()
        assert lines[0].endswith("panes: a") and lines[1].endswith("panes: a")
        assert "panes" not in lines[2]

    def test_a_query_joins_only_a_group_that_has_ingested_nothing(
            self, server, sqlcm):
        streams = sqlcm.stream_engine()
        base = ("Query.Duration >= 0", "Query.User AS U", "TUMBLING(2)")
        a = streams.register(stream_text("a", *base))
        commit(server, 0.5, 0.1)  # WHERE passes: the group has ingested
        late = streams.register(stream_text("late", *base))
        assert late.panes is not a.panes
        assert late.window.groups == {} and late.next_boundary is None
        twin = streams.register(stream_text("twin", *base))
        assert twin.panes is late.panes  # that group has not, yet
        commit(server, 3.0, 0.1)
        assert a.windows_emitted == 1 and late.windows_emitted == 0
        assert late.events_ingested == twin.events_ingested == 1

    def test_each_event_and_window_is_worked_once_per_group(
            self, server, sqlcm):
        streams = sqlcm.stream_engine()
        base = ("Query.Duration >= 0", "Query.User AS U", "SLIDING(4, 2)")
        queries = [streams.register(stream_text(f"q{i}", *base))
                   for i in range(4)]
        for i in range(10):
            commit(server, 0.5 + i, 0.1, user=USERS[i % 3])
        server.clock.advance_to(20.0)
        streams.flush()
        window = queries[0].window
        assert window.update_ops == 2 * 10  # two aggregates, ten events
        assert all(q.events_ingested == 10 for q in queries)
        assert all(q.windows_emitted == queries[0].windows_emitted > 0
                   for q in queries)

    def test_a_disabled_member_leaves_with_its_panes(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        base = ("Query.Duration >= 0", "Query.User AS U", "SLIDING(4, 2)")
        a = streams.register(stream_text("a", *base))
        b = streams.register(stream_text("b", *base))
        commit(server, 0.5, 0.1)
        streams.enable("b", False)
        panes = state.dumps(b.window.image())
        commit(server, 1.0, 0.1)
        assert a.panes is not b.panes
        assert state.dumps(b.window.image()) == panes
        streams.enable("b", True)
        commit(server, 1.5, 0.1)
        assert a.panes is not b.panes  # never re-joins
        assert (a.events_ingested, b.events_ingested) == (3, 2)

    def test_removal_leaves_the_others_sharing(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        base = ("Query.Duration >= 0", "Query.User AS U", "SLIDING(4, 2)")
        a, b, c = (streams.register(stream_text(n, *base)) for n in "abc")
        commit(server, 0.5, 0.1)
        streams.remove("b")
        assert a.panes is c.panes and a.panes.members == [a, c]
        commit(server, 5.0, 0.1)
        assert a.windows_emitted == c.windows_emitted == 2


# ---------------------------------------------------------------------------
# shared == alone, for any mix of shapes, events, toggles and faults
# ---------------------------------------------------------------------------

WHERES = ("Query.Duration >= 0.2", None)
GROUPS = ("Query.User AS U", "Query.Application AS U")
WINDOWS = ("SLIDING(4, 2)", "TUMBLING(3)")
TAILS = ("", " HAVING Window.{n} >= 2", " ANOMALY DEVIATION({n}, 2, 2)",
         " ANOMALY TOPK({n}, 1)")

queries_st = st.lists(st.tuples(
    st.sampled_from(WHERES), st.sampled_from(GROUPS),
    st.sampled_from(WINDOWS), st.sampled_from(("N", "Cnt")),
    st.sampled_from(TAILS), st.booleans(), st.sampled_from((3, 256))),
    min_size=2, max_size=6)

ops_st = st.lists(st.one_of(
    st.tuples(st.just("commit"), st.sampled_from((0.0, 0.3, 0.9, 2.5)),
              st.integers(0, 5), st.sampled_from((0.05, 0.3, 1.5))),
    st.tuples(st.just("toggle"), st.integers(0, 5)),
    st.tuples(st.just("fault"), st.integers(0, 5),
              st.sampled_from(("stream.eval", "stream.window"))),
    st.tuples(st.just("quarantine"), st.integers(0, 5)),
    st.tuples(st.just("release"), st.integers(0, 5)),
    st.tuples(st.just("register"), st.integers(0, 5)),
    st.tuples(st.just("remove"), st.integers(0, 5)),
    st.tuples(st.just("flush"), st.sampled_from((1.0, 4.0)))),
    max_size=40)


def drive(sqlcm, specs, ops, names):
    """Run ``ops`` against a monitor holding the queries ``names``; returns
    the snapshot of each query: at its removal, or at the end."""
    server = sqlcm.server
    streams = sqlcm.stream_engine()
    faults = sqlcm.faults
    texts = {}
    for i, (where, group, window, count, tail, sunk, ring) in \
            enumerate(specs):
        texts[f"q{i}"] = (stream_text(f"q{i}", where, group, window, count,
                                      tail.format(n=count)),
                          f"Sink_q{i}" if sunk else None, ring)
    late = {f"q{i}" for i in range(len(specs)) if i % 3 == 2}
    seen: dict[str, str] = {}

    def register(name):
        if name in names and name not in seen and \
                name.lower() not in streams._queries:
            text, sink_lat, ring = texts[name]
            if sink_lat is not None and not sqlcm.has_lat(sink_lat):
                sink(sqlcm, sink_lat)
            streams.register(text, sink_lat=sink_lat, max_alerts=ring)

    for name in texts:
        if name not in late:
            register(name)
    now = 0.0
    for op in ops:
        kind = op[0]
        name = f"q{op[1] % len(specs)}" if kind not in ("commit", "flush") \
            else None
        present = name is not None and name.lower() in streams._queries
        if kind == "commit":
            now += op[1]
            commit(server, now, op[3], user=USERS[op[2] % 3],
                   app=APPS[op[2] % 2])
        elif kind == "flush":
            now += op[1]
            server.clock.advance_to(now)
            streams.flush()
        elif kind == "register":
            register(name)
        elif not present:
            continue
        elif kind == "toggle":
            query = streams.query(name)
            streams.enable(name, not query.enabled)
        elif kind == "fault":
            faults.pending.add((name, op[2]))
        elif kind == "quarantine":
            streams.health.quarantine(name, now, "test")
        elif kind == "release":
            if streams.health.health_of(name).state != "healthy":
                streams.release_quarantine(name)
        elif kind == "remove":
            seen[name] = snapshot(sqlcm, streams.query(name))
            streams.remove(name)
    server.clock.advance_to(now + 10.0)
    streams.flush()
    for query in streams.queries():
        seen[query.name] = snapshot(sqlcm, query)
    return seen


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=queries_st, ops=ops_st, obs=st.booleans())
def test_every_member_equals_itself_alone(specs, ops, obs):
    names = [f"q{i}" for i in range(len(specs))]
    __, shared = monitor(obs)
    together = drive(shared, specs, ops, names)
    for name in names:
        __, alone = monitor(obs)
        assert drive(alone, specs, ops, [name]) == \
            {k: v for k, v in together.items() if k == name}, name


# ---------------------------------------------------------------------------
# alerts feeding queries mid-flush: shared == spelled apart
# ---------------------------------------------------------------------------

def alert_monitor(apart, having, order):
    """Producers over Query.Commit and consumers over StreamAlert.Alert,
    registered in ``order``.  Alerts land in the consumers' panes while
    the consumers' own flush is under way.  ``apart`` spells every WHERE
    differently, so nothing shares."""
    server, sqlcm = monitor()
    streams = sqlcm.stream_engine()
    gap = iter(range(1, 100))

    def where(text):
        return text.replace(" >=", " " * next(gap) + ">=") if apart else text
    texts = [
        f"STREAM p{i} FROM Query.Commit WHERE "
        f"{where('Query.Duration >= 0')} GROUP BY Query.User AS U "
        f"WINDOW SLIDING(2, 1) AGG COUNT(*) AS N" for i in range(3)]
    texts += [
        f"STREAM c{i} FROM StreamAlert.Alert WHERE "
        f"{where('StreamAlert.Value >= 0')} "
        f"GROUP BY StreamAlert.Stream_Name AS S "
        f"WINDOW TUMBLING(1) AGG COUNT(*) AS N" for i in range(3)]
    for i in order:
        streams.register(texts[i]
                         + (" HAVING Window.N >= 2" if having[i] else ""))
    return server, sqlcm, streams


@settings(max_examples=40, deadline=None)
@given(having=st.lists(st.booleans(), min_size=6, max_size=6),
       order=st.permutations(range(6)),
       events=st.lists(st.tuples(st.sampled_from((0.2, 0.7, 1.3)),
                                 st.integers(0, 2)), max_size=30),
       faulty=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 5),
                                 st.booleans()), max_size=4),
       toggle=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 5)),
                       max_size=3))
def test_alerts_landing_mid_flush_match_unshared_panes(
        having, order, events, faulty, toggle):
    results = []
    for apart in (False, True):
        server, sqlcm, streams = alert_monitor(apart, having, order)
        names = [q.name for q in streams.queries()]
        now = 0.0
        for step, (gap, user) in enumerate(events):
            for at, who, window in faulty:
                if at == step:
                    sqlcm.faults.pending.add(
                        (names[who], "stream.window" if window
                         else "stream.eval"))
            for at, who in toggle:
                if at == step:
                    query = streams.query(names[who])
                    streams.enable(query.name, not query.enabled)
            now += gap
            commit(server, now, 0.1, user=USERS[user])
        server.clock.advance_to(now + 5.0)
        streams.flush()
        results.append({q.name: snapshot(sqlcm, q)
                        for q in streams.queries()})
    assert results[0] == results[1]


def test_an_alert_before_the_groups_first_window_is_in_its_origin():
    """c0 opens its group's flush and leaves (disabled); p's alert then
    lands in c1 and c2 before c1 takes the group's first window, so a
    member rebuilt from the flush's start has that alert."""
    results = []
    for apart in (False, True):
        server, sqlcm, streams = alert_monitor(
            apart, [False] * 6, [3, 0, 4, 5])
        commit(server, 0.5, 0.1)
        commit(server, 1.5, 0.1)  # p0's first alert: c0, c1, c2 take it
        streams.enable("c0", False)
        commit(server, 2.5, 0.1)
        results.append({q.name: snapshot(sqlcm, q)
                        for q in streams.queries()})
    assert results[0] == results[1]


def test_a_member_removed_mid_flush_takes_its_panes_along():
    """A rule on a's first alert removes b while b's group flushes, and
    b's next window faults: b finishes the flush on panes of its own, a
    and c as if b never was."""
    results = []
    for apart in (False, True):
        server, sqlcm = monitor()
        streams = sqlcm.stream_engine()
        for i, name in enumerate("abc"):
            where = "Query.Duration " + (" " * i if apart else "") + ">= 0"
            streams.register(stream_text(name, where, "Query.User AS U",
                                         "SLIDING(2, 1)"))
        def drop_b(sqlcm, context):
            if "b" in streams._queries:
                streams.remove("b")
                sqlcm.faults.pending.add(("b", "stream.window"))
        sqlcm.add_rule(Rule(
            name="drop_b", event="StreamAlert.Alert",
            condition="StreamAlert.Stream_Name = 'a'",
            actions=[CallbackAction(drop_b)]))
        sqlcm.faults.pending.add(("c", "stream.window"))
        for t in (0.5, 0.7, 1.5, 2.5, 3.5):
            commit(server, t, 0.1, user=USERS[int(t) % 3])
        results.append({q.name: snapshot(sqlcm, q)
                        for q in streams.queries()})
    assert list(results[0]) == ["a", "c"]
    assert results[0] == results[1]


def test_a_disabled_member_keeps_its_cursor_through_skips(server, sqlcm):
    streams = sqlcm.stream_engine()
    base = ("Query.Duration >= 0.2", "Query.User AS U", "TUMBLING(1)")
    a = streams.register(stream_text("a", *base))
    b = streams.register(stream_text("b", *base))
    commit(server, 0.5, 0.3)
    commit(server, 3.5, 0.05)  # [0, 1) closes, the panes die; WHERE rejects
    assert a.panes is b.panes and a.next_boundary == 4
    streams.enable("b", False)
    commit(server, 9.5, 0.05)  # a flush that only skips
    assert (a.next_boundary, b.next_boundary) == (10, 4)


def test_an_alert_mid_flush_splits_the_members_behind():
    """Consumer c0 emits and publishes; its alert reaches c0's own pane
    group before c1 has taken c0's window.  c1 leaves with the panes it
    has, and the alert lands in them before that window."""
    server, sqlcm = monitor()
    streams = sqlcm.stream_engine()
    streams.register("STREAM p FROM Query.Commit WINDOW TUMBLING(1) "
                     "AGG COUNT(*) AS N")
    c0, c1 = (streams.register(
        f"STREAM c{i} FROM StreamAlert.Alert GROUP BY "
        f"StreamAlert.Stream_Name AS S WINDOW TUMBLING(1) "
        f"AGG COUNT(*) AS N") for i in range(2))
    assert c0.panes is c1.panes
    for t in (0.5, 1.5, 2.5, 3.5):
        commit(server, t, 0.1)
    assert c0.panes is not c1.panes
    assert c0.events_ingested == c1.events_ingested
    assert [a["group"] for a in c0.alerts] == [a["group"] for a in c1.alerts]


# ---------------------------------------------------------------------------
# the dispatch shortcut for events no rule hears
# ---------------------------------------------------------------------------

class TestNoRuleEvents:
    def test_a_governor_still_hears_every_event(self, items_server):
        sqlcm = SQLCM(items_server)
        governor = sqlcm.enable_governor()
        heard = []
        original = governor.on_event
        governor.on_event = lambda event: (heard.append(event),
                                           original(event))
        session = items_server.create_session()
        session.execute("SELECT price FROM items WHERE id = 1")
        assert {"query.start", "query.commit"} <= set(heard)

    def test_a_rule_added_later_on_stream_alerts_fires(self, server, sqlcm):
        streams = sqlcm.stream_engine()
        streams.register("STREAM s FROM Query.Commit WINDOW TUMBLING(1) "
                         "AGG COUNT(*) AS N")
        commit(server, 0.5, 0.1)
        commit(server, 1.5, 0.1)  # an alert no rule hears
        fired = []
        sqlcm.add_rule(Rule(name="on_alert", event="StreamAlert.Alert",
                            actions=[CallbackAction(
                                lambda s, c: fired.append(1))]))
        commit(server, 2.5, 0.1)
        assert streams.query("s").alert_count == 2 and fired == [1]

    def test_instance_counts_do_not_move(self, items_server):
        sqlcm = SQLCM(items_server)
        sqlcm.enable_signatures()
        session = items_server.create_session()
        for __ in range(3):
            session.execute("SELECT price FROM items WHERE id = 1")
        assert sorted(sqlcm._instance_counts.values()) == [3]
        assert sqlcm.events_handled == 0
