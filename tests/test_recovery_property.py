"""Recovered ≡ last commit, over generated entry sequences.

The journal holds one record per entry into the monitor and recovery runs
each entry again from what the record says it read.  The monitor below
reads every kind of input such a record carries: faults at the condition,
action, LAT, sink and stream sites; a mail sink and an external program
that fail until a delivery is dead-lettered; cancels; a timer rule whose
condition iterates the running queries; actions after which the
context's objects forget their probes; an engaged overload governor;
incidents opened by rules and by stream alerts.  Between the statements
Hypothesis draws API calls, each a ``call`` entry: rules added, removed
and enabled, direct LAT inserts, resets and deletes, incidents
acknowledged and resolved, quarantines released, dead-letter sweeps,
timers set, the governor switched on and off, signatures forced — and
calls that raise (a duplicate rule, an unknown LAT, enabling a
quarantined rule), which must change nothing and write no record.  It
draws the fault rates and the append the journal dies at too; the
recovered monitor must equal the monitor at the last commit the disk saw
— its digest, every stream query's image, and its timers and dead
letters.
"""

from __future__ import annotations

import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (DatabaseServer, GovernorPolicy, IncidentPolicy,
                   InsertAction, LATDefinition, OpenIncidentAction, Rule,
                   RunExternalAction, SendMailAction, ServerConfig, SQLCM)
from repro.core.actions import CancelAction, SetTimerAction
from repro.core.durability import (DigestTap, DurabilityManager,
                                   verify_recovery)
from repro.core.resilience import FaultInjected, FaultInjector
from repro.errors import SQLCMError

from test_durability import CommitTap, stream_images, supervisory

SITES = ("condition", "action", "lat.insert", "sink", "stream.eval",
         "stream.window")


class DiesAtAppend(FaultInjector):
    """Armed sites fire at their drawn rates; the journal dies at its
    ``appends_left``-th append from when it is set."""

    def __init__(self, seed, rates):
        super().__init__(seed=seed)
        for site, rate in rates.items():
            if rate:
                self.arm(site, rate=rate)
        self.appends_left = 0

    def check(self, site):
        if site == "durability.append" and self.appends_left:
            self.appends_left -= 1
            if not self.appends_left:
                raise FaultInjected(site, "exception")
        return super().check(site)


def monitor(seed, rates, governed):
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    server.execute_ddl(
        "CREATE TABLE items (id INT NOT NULL PRIMARY KEY, v INT)")
    loader = server.create_session()
    loader.execute("INSERT INTO items (id, v) VALUES (1, 1), (2, 2), (3, 3)")
    server.close_session(loader)
    injector = DiesAtAppend(seed, rates)
    sqlcm = SQLCM(server, faults=injector)
    sqlcm.create_lat(LATDefinition(
        name="ByUser", monitored_class="Query",
        grouping=["Query.User AS U"],
        aggregations=["COUNT(Query.ID) AS N", "SUM(Query.Duration) AS D"]))
    sqlcm.create_lat(LATDefinition(
        name="Recent", monitored_class="Query", grouping=["Query.ID AS Q"],
        aggregations=["LAST(Query.Duration) AS D"], ordering=["D DESC"],
        max_rows=4))
    sqlcm.create_lat(LATDefinition(
        name="Alerts", monitored_class="StreamAlert",
        grouping=["StreamAlert.Stream_Name AS S"],
        aggregations=["COUNT(StreamAlert.Value) AS N"]))
    sqlcm.incident_manager(IncidentPolicy(sweep_interval=0.05,
                                          clear_after=0.2))
    # a mail first: every object of the context forgets its probes, and
    # the insert after it probes them again
    sqlcm.add_rule(Rule(name="mail_then_track", event="Query.Commit",
                        actions=[SendMailAction("{Query.User} ran", "dba"),
                                 InsertAction("ByUser")]))
    sqlcm.add_rule(Rule(name="recent", event="Query.Commit",
                        condition="Query.Duration >= 0",
                        actions=[InsertAction("Recent")]))
    sqlcm.add_rule(Rule(name="slow", event="Query.Commit",
                        condition="ByUser.N > 2",
                        actions=[OpenIncidentAction("busy",
                                                    "{Query.User}")]))
    sqlcm.add_rule(Rule(name="on_alert", event="StreamAlert.Alert",
                        actions=[InsertAction("Alerts")]))
    # the condition reads Query, which a timer alert lacks: each alarm
    # iterates the queries running at that moment
    sqlcm.add_rule(Rule(name="sweep_running", event="Timer.Alert",
                        condition="Query.Duration >= 0",
                        actions=[InsertAction("Recent"),
                                 SetTimerAction("tick", 0.004, -1)]))
    sqlcm.add_rule(Rule(name="on_evict", event="Evicted.Evict",
                        actions=[SendMailAction("evicted", "dba")]))
    # an external program that fails three calls in four: retries, and
    # now and then a dead letter
    calls = []

    def external(command):
        calls.append(command)
        if len(calls) % 4:
            raise ConnectionError("program down")
    sqlcm.external_handler = external
    sqlcm.add_rule(Rule(name="page", event="Query.Commit",
                        condition="Query.Query_Type = 'UPDATE'",
                        actions=[RunExternalAction("page {Query.ID}")]))
    # a cancel of a statement that already finished: an effect on the
    # engine whose outcome the replay reads back
    sqlcm.add_rule(Rule(name="cancel_inserts", event="Query.Commit",
                        condition="Query.Query_Type = 'INSERT'",
                        actions=[CancelAction("Query")]))
    sqlcm.stream_engine().register(
        "STREAM busy FROM Query.Commit GROUP BY Query.User AS U "
        "WINDOW TUMBLING(0.004) AGG COUNT(*) AS N HAVING Window.N >= 1")
    sqlcm.stream_engine().register(
        "STREAM dev FROM Query.Commit GROUP BY Query.Query_Type AS T "
        "WINDOW SLIDING(0.008, 0.004) AGG AVG(Query.Duration) AS D "
        "ANOMALY DEVIATION(D, 1, 2)")
    sqlcm.set_timer("tick", 0.003, -1)
    if governed:
        sqlcm.enable_governor(POLICY)
    return server, sqlcm, injector


POLICY = GovernorPolicy(
    target_overhead=0.01, exit_overhead=0.005, window=0.01,
    cooldown=0.01, decision_interval=0.002, sample_rate=2)

#: rules an API call may touch, each name two calls may disagree about
RULES = ("recent", "slow", "page", "extra0", "extra1")


def first(items):
    return items[0] if items else None


def api_call(sqlcm, kind, arg):
    """One API call of ``kind``; a call that has nothing to act on is a
    call that raises."""
    manager = sqlcm.incident_manager()
    rule = RULES[arg % len(RULES)]
    if kind == "rule_add":
        sqlcm.add_rule(Rule(
            name=f"extra{arg % 2}", event="Query.Commit",
            condition=f"Query.Duration >= {arg * 1e-4}",
            actions=[InsertAction("Recent")]))
    elif kind == "rule_remove":
        sqlcm.remove_rule(f"extra{arg % 2}")
    elif kind == "rule_enable":
        sqlcm.enable_rule(rule, arg % 3 != 0)
    elif kind == "release":
        sqlcm.release_quarantine(first(sqlcm.quarantined_rules()) or rule)
    elif kind == "lat_insert":
        sqlcm.lat("ByUser").insert(
            {"User": f"d{arg % 3}", "ID": arg, "Duration": arg * 1e-4})
    elif kind == "lat_reset":
        sqlcm.lat("Recent" if arg % 2 else "ByUser").reset()
    elif kind == "lat_delete":
        sqlcm.lat("ByUser").delete_row((f"u{arg % 3}",))
    elif kind == "unknown_lat":
        sqlcm.drop_lat(f"Nope{arg}")
    elif kind == "ack":
        incident = first(manager.incidents("open"))
        manager.ack(incident.incident_id if incident else 10 ** 6)
    elif kind == "resolve":
        incident = first(manager.open_incidents())
        manager.resolve(incident.incident_id if incident else 10 ** 6)
    elif kind == "replay":
        sqlcm.dead_letters.replay(sqlcm)
    elif kind == "redeliver":
        sqlcm.dead_letters.redeliver(sqlcm, drop_after=4 + arg)
    elif kind == "set_timer":
        sqlcm.set_timer(f"extra_t{arg % 2}", 0.002 * (1 + arg % 3), arg % 4)
    elif kind == "governor":
        if sqlcm.governor is None:
            sqlcm.enable_governor(POLICY)
        else:
            sqlcm.disable_governor()
    elif kind == "signatures":
        sqlcm.enable_signatures(arg % 2 == 0)


CALLS = ("rule_add", "rule_remove", "rule_enable", "release", "lat_insert",
         "lat_reset", "lat_delete", "unknown_lat", "ack", "resolve",
         "replay", "redeliver", "set_timer", "governor", "signatures")

statements = st.lists(st.tuples(
    st.sampled_from(["select", "update", "insert", "think", "flush",
                     *CALLS]),
    st.integers(0, 9)), min_size=4, max_size=24)


def run(server, sqlcm, journal, steps, start):
    for i, (kind, arg) in enumerate(steps, start):
        if kind == "think":
            server.clock.advance(0.001 * (1 + arg))
            server.run(until=server.clock.now + 0.001)
        elif kind == "flush":
            sqlcm.stream_engine().flush()
        elif kind in CALLS:
            digest, written = sqlcm.state_digest(), journal.records_written
            try:
                api_call(sqlcm, kind, arg)
            except SQLCMError:
                # a call that raises changed nothing and wrote nothing
                assert sqlcm.state_digest() == digest
                assert journal.records_written == written
        else:
            session = server.create_session(user=f"u{arg % 3}")
            session.execute({
                "select": f"SELECT v FROM items WHERE id = {1 + arg % 3}",
                "update": f"UPDATE items SET v = {arg} WHERE id = "
                          f"{1 + arg % 3}",
                "insert": f"INSERT INTO items (id, v) VALUES "
                          f"({100 + 10 * i + arg}, {arg})",
            }[kind])
            server.close_session(session)


def capture(sqlcm):
    return stream_images(sqlcm), supervisory(sqlcm)


@settings(deadline=None, max_examples=25)
# a rule added while the governor sheds re-ranks the shed set by
# attributed cost: the replay must read that set back, not rank again
@example(seed=0, rates={site: 0.4 if site == "stream.window" else
                        0.1 if site == "action" else 0.0 for site in SITES},
         governed=False,
         before=[("update", 0), ("select", 0), ("governor", 0),
                 ("select", 0), ("select", 0), ("select", 0)],
         after=[("select", 0), ("rule_add", 0), ("select", 0),
                ("select", 0)],
         crash=17)
@given(seed=st.integers(0, 5),
       rates=st.fixed_dictionaries(
           {site: st.sampled_from([0.0, 0.0, 0.1, 0.4]
                                  + [0.9] * (site == "sink"))
            for site in SITES}),
       governed=st.booleans(), before=statements, after=statements,
       crash=st.integers(1, 30))
def test_recovered_equals_the_last_commit(seed, rates, governed, before,
                                          after, crash):
    server, sqlcm, injector = monitor(seed, rates, governed)
    with tempfile.TemporaryDirectory() as directory:
        manager = DurabilityManager(sqlcm, directory).attach()
        tap = DigestTap(manager)
        side = CommitTap(manager, capture)
        run(server, sqlcm, manager.journal, before, 0)
        manager.checkpoint()
        injector.appends_left = crash
        run(server, sqlcm, manager.journal, after, len(before))
        manager.journal.close()  # the crash, if the journal still lives
        report = verify_recovery(directory, tap)
        assert capture(report.sqlcm) == side.points[-1]
