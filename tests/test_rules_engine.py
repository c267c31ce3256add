"""Tests for the SQLCM rule engine: dispatch, scope, ordering, actions."""

import pytest

from repro import (CancelAction, InsertAction, LATDefinition, PersistAction,
                   ResetAction, Rule, SendMailAction, SetTimerAction,
                   SQLCM, Statement)
from repro.core.actions import CallbackAction, RunExternalAction
from repro.errors import LATError, RuleError, SchemaError


@pytest.fixture
def monitored(items_server):
    return items_server, SQLCM(items_server)


def _run(server, sql, params=None):
    session = server.create_session()
    result = session.execute(sql, params)
    server.close_session(session)
    return result


class TestRuleManagement:
    def test_add_and_remove(self, monitored):
        server, sqlcm = monitored
        rule = Rule(name="r1", event="Query.Commit",
                    actions=[SendMailAction("hi", "a@b")])
        sqlcm.add_rule(rule)
        assert "r1" in sqlcm.rules
        sqlcm.remove_rule("r1")
        assert "r1" not in sqlcm.rules
        with pytest.raises(RuleError):
            sqlcm.remove_rule("r1")

    def test_duplicate_name_rejected(self, monitored):
        __, sqlcm = monitored
        sqlcm.add_rule(Rule(name="r", event="Query.Commit",
                            actions=[SendMailAction("x", "a@b")]))
        with pytest.raises(RuleError):
            sqlcm.add_rule(Rule(name="R", event="Query.Commit",
                                actions=[SendMailAction("x", "a@b")]))

    def test_unknown_event_rejected(self, monitored):
        __, sqlcm = monitored
        with pytest.raises(SchemaError):
            sqlcm.add_rule(Rule(name="r", event="Query.Nonsense",
                                actions=[SendMailAction("x", "a@b")]))

    def test_rule_requires_actions(self):
        with pytest.raises(RuleError):
            Rule(name="r", event="Query.Commit", actions=[])

    def test_condition_bound_at_registration(self, monitored):
        __, sqlcm = monitored
        with pytest.raises(SchemaError):
            sqlcm.add_rule(Rule(
                name="bad", event="Query.Commit",
                condition="Query.NoSuchAttr > 1",
                actions=[SendMailAction("x", "a@b")],
            ))

    def test_insert_action_requires_existing_lat(self, monitored):
        __, sqlcm = monitored
        with pytest.raises(LATError):
            sqlcm.add_rule(Rule(name="r", event="Query.Commit",
                                actions=[InsertAction("NoSuchLat")]))

    def test_remove_rule_drops_health_record(self, monitored):
        """Regression: removing a rule used to leak its RuleHealth entry,
        so a re-added rule with the same name inherited the old error
        count (and could start life quarantined)."""
        server, sqlcm = monitored

        def boom(s, c):
            raise RuntimeError("nope")

        sqlcm.add_rule(Rule(name="flaky", event="Query.Commit",
                            actions=[CallbackAction(boom)]))
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert sqlcm.health.health_of("flaky").error_count > 0
        sqlcm.remove_rule("flaky")
        assert "flaky" not in [h.name for h in sqlcm.health.known()]
        # the reincarnated rule starts with a clean history
        sqlcm.add_rule(Rule(name="flaky", event="Query.Commit",
                            actions=[SendMailAction("ok", "a@b")]))
        assert sqlcm.health.health_of("flaky").error_count == 0
        assert not sqlcm.health.health_of("flaky").quarantined

    def test_signatures_needed_ignores_string_literals(self, monitored):
        """Regression: the flag used to substring-scan condition text, so
        a string literal or alias containing "signature" forced signature
        computation onto every query."""
        __, sqlcm = monitored
        sqlcm.add_rule(Rule(
            name="r", event="Query.Commit",
            condition="Query.Application = 'signature_service'",
            actions=[SendMailAction("x", "a@b")]))
        assert not sqlcm.signatures_needed
        # a real bound reference still flips it
        sqlcm.add_rule(Rule(
            name="r2", event="Query.Commit",
            condition="Query.Number_of_instances > 1",
            actions=[SendMailAction("x", "a@b")]))
        assert sqlcm.signatures_needed

    def test_signatures_needed_cache_invalidation(self, monitored):
        """The flag is memoized off the hot path; registration changes
        must drop the cache in both directions."""
        __, sqlcm = monitored
        assert not sqlcm.signatures_needed
        sqlcm.create_lat(LATDefinition(
            name="Sig_LAT", monitored_class="Query",
            grouping=["Query.Logical_Signature AS Sig"],
            aggregations=["COUNT(Query.ID) AS N"]))
        assert sqlcm.signatures_needed
        sqlcm.drop_lat("Sig_LAT")
        assert not sqlcm.signatures_needed
        sqlcm.enable_signatures(True)
        assert sqlcm.signatures_needed
        sqlcm.enable_signatures(False)
        assert not sqlcm.signatures_needed

    def test_enable_disable(self, monitored):
        server, sqlcm = monitored
        fired = []
        sqlcm.add_rule(Rule(
            name="toggle", event="Query.Commit",
            actions=[CallbackAction(lambda s, c: fired.append(1))],
        ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        sqlcm.enable_rule("toggle", False)
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert len(fired) == 1
        sqlcm.enable_rule("toggle", True)
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert len(fired) == 2


class TestEventScope:
    def test_rule_fires_on_matching_event_only(self, monitored):
        server, sqlcm = monitored
        fired = []
        sqlcm.add_rule(Rule(
            name="on_commit", event="Query.Commit",
            actions=[CallbackAction(
                lambda s, c: fired.append(c["query"].get("Query_Type")))],
        ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        _run(server, "UPDATE items SET qty = 2 WHERE id = 1")
        assert fired == ["SELECT", "UPDATE"]

    def test_condition_filters_firing(self, monitored):
        server, sqlcm = monitored
        fired = []
        sqlcm.add_rule(Rule(
            name="updates_only", event="Query.Commit",
            condition="Query.Query_Type = 'UPDATE'",
            actions=[CallbackAction(lambda s, c: fired.append(1))],
        ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        _run(server, "UPDATE items SET qty = 3 WHERE id = 1")
        assert len(fired) == 1

    def test_rules_evaluated_in_registration_order(self, monitored):
        server, sqlcm = monitored
        order = []
        for name in ("first", "second", "third"):
            sqlcm.add_rule(Rule(
                name=name, event="Query.Commit",
                actions=[CallbackAction(
                    lambda s, c, n=name: order.append(n))],
            ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert order == ["first", "second", "third"]

    def test_actions_execute_in_sequence(self, monitored):
        server, sqlcm = monitored
        order = []
        sqlcm.add_rule(Rule(
            name="multi", event="Query.Commit",
            actions=[
                CallbackAction(lambda s, c: order.append("a")),
                CallbackAction(lambda s, c: order.append("b")),
            ],
        ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert order == ["a", "b"]

    def test_timer_event_iterates_active_queries(self, monitored):
        server, sqlcm = monitored
        seen = []
        sqlcm.add_rule(Rule(
            name="watch", event="Timer.Alert",
            condition="Query.Duration >= 0",
            actions=[CallbackAction(
                lambda s, c: seen.append(c["query"].get("ID")),
                required=("Query",))],
        ))
        sqlcm.set_timer("t", interval=0.5, repeats=3)
        # a long-ish blocked query would be observable; here, with no
        # active queries at alert time, the rule evaluates zero times
        server.run(until=2.0)
        assert seen == []
        assert sqlcm.rules["watch"].evaluation_count == 0

    def test_transaction_event_context(self, monitored):
        server, sqlcm = monitored
        stats = []
        sqlcm.add_rule(Rule(
            name="txn_watch", event="Transaction.Commit",
            actions=[CallbackAction(
                lambda s, c: stats.append(
                    c["transaction"].get("Statement_Count")))],
        ))
        session = server.create_session()
        session.execute("BEGIN")
        session.execute("SELECT id FROM items WHERE id = 1")
        session.execute("UPDATE items SET qty = 9 WHERE id = 1")
        session.execute("COMMIT")
        assert stats == [2]

    def test_every_schema_event_has_a_context_builder(self):
        """An event missing from the engine's builder table would hand its
        rules an empty context; the table is keyed by name or family."""
        from repro.core.engine import _CONTEXT_BUILDERS
        from repro.core.schema import SCHEMA
        for cls in SCHEMA.classes():
            for event in cls.events.values():
                name = event.engine_event
                assert name in _CONTEXT_BUILDERS \
                    or name.partition(".")[0] in _CONTEXT_BUILDERS, name

    def test_extension_class_query_event_gets_the_query(self, monitored):
        """A class registered later may name a ``query.*`` engine event the
        built-in schema does not: it carries the query payload like the
        rest of its family, so its rules see the Query object."""
        from repro.core.schema import (AttributeDef, EventDef,
                                       MonitoredClassDef, SCHEMA)
        from repro.engine.types import SQLType
        server, sqlcm = monitored
        SCHEMA.register_class(MonitoredClassDef(
            "Audit", [AttributeDef("Name", SQLType.STRING)],
            [EventDef("Flag", "query.flagged")]))
        try:
            seen = []
            sqlcm.add_rule(Rule(
                name="flagged", event="Audit.Flag",
                condition="Query.Query_Type = 'SELECT'",
                actions=[CallbackAction(
                    lambda s, c: seen.append(c["query"].get("ID")))]))
            query = _run(server, "SELECT id FROM items WHERE id = 1").query
            sqlcm.dispatch_event("query.flagged", {"query": query})
            assert seen == [query.query_id]
            assert sqlcm.rule_errors == 0
        finally:
            SCHEMA._classes.pop("audit")


class TestProbeMemo:
    """A monitored object probes each attribute at most once."""

    @pytest.fixture
    def duration_calls(self, monkeypatch):
        from repro.core import objects
        calls = []
        probe = objects._QUERY_PROBES["duration"]

        def counting(qctx, factory):
            calls.append(qctx.query_id)
            return probe(qctx, factory)

        monkeypatch.setitem(objects._QUERY_PROBES, "duration", counting)
        return calls

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["program", "framed"])
    def test_sixty_four_rules_probe_the_duration_once(
            self, monitored, duration_calls, observed):
        server, sqlcm = monitored
        if observed:
            server.enable_observability()  # the framed program
        sqlcm.create_lat(LATDefinition(
            name="Last", monitored_class="Query",
            grouping=["Query.ID AS Qid"],
            aggregations=["LAST(Query.Duration) AS D"]))
        for i in range(64):
            sqlcm.add_rule(Rule(name=f"r{i}", event="Query.Commit",
                                condition="Query.Duration >= 0",
                                actions=[InsertAction("Last")]))
        query = _run(server, "SELECT id FROM items WHERE id = 1").query
        assert sqlcm.rule_firings == 64
        assert duration_calls == [query.query_id]  # not 64 (or 128)

    def test_iteration_scope_builds_fresh_objects_per_call(
            self, monitored, monkeypatch):
        server, sqlcm = monitored
        sqlcm.set_timer("t", 10.0)
        blocker = _run(server, "SELECT id FROM items WHERE id = 1").query
        blocked = _run(server, "SELECT id FROM items WHERE id = 2").query
        monkeypatch.setattr(sqlcm.driver, "blocking_pairs",
                            lambda: ([(blocker, blocked, "r", 0.5)], 1))
        first, second = (sqlcm._combos({"timer", "blocker", "blocked"}, {})
                         for __ in range(2))
        (one,), (two,) = first, second
        for key in ("timer", "blocker", "blocked"):
            assert one[key] is not two[key]
        one["timer"].get("Interval")
        sqlcm.set_timer("t", 5.0)
        assert two["timer"].get("Interval") == 5.0

    def test_snapshot_is_unchanged(self, monitored):
        from repro.core.objects import _QUERY_PROBES
        server, sqlcm = monitored
        query = _run(server, "SELECT id FROM items WHERE id = 1").query
        obj = sqlcm.factory.query(query)
        expected = {name: _QUERY_PROBES[name](query, sqlcm.factory)
                    for name in obj.class_def.attributes}
        assert obj.snapshot() == expected
        assert list(obj.snapshot()) == list(obj.class_def.attributes)
        assert obj.snapshot(["Duration", "ID"]) == {
            "Duration": expected["duration"], "ID": expected["id"]}

    def test_an_action_that_changes_a_source_makes_the_objects_forget(
            self, monitored):
        """Set re-arms the very timer that alerted: the rule after it reads
        the new interval, as it would without the memo."""
        __, sqlcm = monitored
        seen = []
        sqlcm.add_rule(Rule(name="rearm", event="Timer.Alert",
                            condition="Timer.Interval = 10",
                            actions=[SetTimerAction("t", 5.0)]))
        sqlcm.add_rule(Rule(name="after", event="Timer.Alert",
                            condition="Timer.Interval = 5",
                            actions=[CallbackAction(
                                lambda s, c: seen.append(
                                    c["timer"].get("Interval")))]))
        timer = sqlcm.set_timer("t", 10.0)
        sqlcm.dispatch_event("timer.alert", {"timer": timer})
        assert seen == [5.0]


class TestLATIntegration:
    def test_insert_then_condition_on_lat(self, monitored):
        server, sqlcm = monitored
        sqlcm.create_lat(LATDefinition(
            name="AppLat",
            grouping=["Query.Application AS App"],
            aggregations=["COUNT(Query.ID) AS N"],
        ))
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[InsertAction("AppLat")]))
        hits = []
        sqlcm.add_rule(Rule(
            name="frequent", event="Query.Commit",
            condition="AppLat.N >= 3",
            actions=[CallbackAction(lambda s, c: hits.append(1))],
        ))
        for __ in range(4):
            _run(server, "SELECT id FROM items WHERE id = 1")
        # rule sees LAT state after the tracking insert: fires on 3rd & 4th
        assert len(hits) == 2

    def test_rule_order_matters_for_lat_reads(self, monitored):
        server, sqlcm = monitored
        sqlcm.create_lat(LATDefinition(
            name="Lat2",
            grouping=["Query.Application AS App"],
            aggregations=["COUNT(Query.ID) AS N"],
        ))
        hits = []
        # reader registered BEFORE the tracker: sees state before insert
        sqlcm.add_rule(Rule(
            name="reader", event="Query.Commit",
            condition="Lat2.N >= 1",
            actions=[CallbackAction(lambda s, c: hits.append(1))],
        ))
        sqlcm.add_rule(Rule(name="tracker", event="Query.Commit",
                            actions=[InsertAction("Lat2")]))
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert hits == []  # no row yet at evaluation time (∃ → false)
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert len(hits) == 1

    def test_reset_action(self, monitored):
        server, sqlcm = monitored
        sqlcm.create_lat(LATDefinition(
            name="Lat3",
            grouping=["Query.Application AS App"],
            aggregations=["COUNT(Query.ID) AS N"],
        ))
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[InsertAction("Lat3")]))
        _run(server, "SELECT id FROM items WHERE id = 1")
        assert len(sqlcm.lat("Lat3")) == 1
        sqlcm.lat("Lat3").reset()
        assert len(sqlcm.lat("Lat3")) == 0

    def test_drop_lat_referenced_by_rule_rejected(self, monitored):
        server, sqlcm = monitored
        sqlcm.create_lat(LATDefinition(
            name="Lat4",
            grouping=["Query.Application AS App"],
            aggregations=["COUNT(Query.ID) AS N"],
        ))
        sqlcm.add_rule(Rule(
            name="uses_lat", event="Query.Commit",
            condition="Lat4.N > 0",
            actions=[SendMailAction("x", "a@b")],
        ))
        with pytest.raises(LATError):
            sqlcm.drop_lat("Lat4")

    def test_eviction_raises_deferred_event(self, monitored):
        server, sqlcm = monitored
        sqlcm.create_lat(LATDefinition(
            name="Tiny",
            grouping=["Query.ID AS Qid"],
            aggregations=["MAX(Query.Duration) AS D"],
            ordering=["D DESC"],
            max_rows=1,
        ))
        sqlcm.add_rule(Rule(name="fill", event="Query.Commit",
                            actions=[InsertAction("Tiny")]))
        evicted = []
        sqlcm.add_rule(Rule(
            name="on_evict", event="Evicted.Evict",
            actions=[CallbackAction(
                lambda s, c: evicted.append(c["evicted"].get("Qid")))],
        ))
        for __ in range(3):
            _run(server, "SELECT id FROM items WHERE id = 1")
        assert len(evicted) == 2


class TestSideEffectActions:
    def test_sendmail_substitution(self, monitored):
        server, sqlcm = monitored
        sqlcm.add_rule(Rule(
            name="mail", event="Query.Commit",
            actions=[SendMailAction(
                "type={Query.Query_Type} user={Query.User}", "dba@corp")],
        ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        mail = sqlcm.outbox[-1]
        assert mail.address == "dba@corp"
        assert "type=SELECT" in mail.body

    def test_run_external_journal_and_handler(self, monitored):
        server, sqlcm = monitored
        launched = []
        sqlcm.external_handler = launched.append
        sqlcm.add_rule(Rule(
            name="ext", event="Query.Commit",
            actions=[RunExternalAction("analyze.exe {Query.ID}")],
        ))
        result = _run(server, "SELECT id FROM items WHERE id = 1")
        assert sqlcm.command_journal[-1].command == \
            f"analyze.exe {result.query.query_id}"
        assert launched == [f"analyze.exe {result.query.query_id}"]

    def test_set_timer_action(self, monitored):
        server, sqlcm = monitored
        sqlcm.add_rule(Rule(
            name="arm", event="Query.Commit",
            actions=[SetTimerAction("later", interval=1.0, repeats=2)],
        ))
        fired = []
        sqlcm.add_rule(Rule(
            name="on_alert", event="Timer.Alert",
            actions=[CallbackAction(
                lambda s, c: fired.append(c["timer"].get("Name")))],
        ))
        _run(server, "SELECT id FROM items WHERE id = 1")
        server.run(until=5.0)
        assert fired == ["later", "later"]

    def test_cancel_action_on_commit_is_too_late(self, monitored):
        """Cancelling at commit has no effect: the query already finished."""
        server, sqlcm = monitored
        sqlcm.add_rule(Rule(
            name="futile", event="Query.Commit",
            actions=[CancelAction(target="Query")],
        ))
        result = _run(server, "SELECT id FROM items WHERE id = 1")
        assert result.ok

    def test_cancel_action_on_start_kills_query(self, monitored):
        server, sqlcm = monitored
        sqlcm.add_rule(Rule(
            name="kill_updates", event="Query.Start",
            actions=[CancelAction(target="Query")],
        ))
        result = _run(server, "SELECT id FROM items WHERE id = 1")
        assert result.error is not None
        assert "cancel" in result.error.lower()

    def test_monitoring_cost_charged(self, monitored):
        server, sqlcm = monitored
        sqlcm.add_rule(Rule(
            name="r", event="Query.Commit",
            condition="Query.Duration >= 0",
            actions=[CallbackAction(lambda s, c: None)],
        ))
        before = server.clock.now
        baseline = _run(server, "SELECT id FROM items WHERE id = 1")
        assert sqlcm.rules["r"].fire_count == 1
        assert server.clock.now > before
