"""Overload governor: closed-loop enforcement of the < 4% envelope.

The governor's contract: measure the rolling overhead ratio, walk the
NORMAL -> SAMPLED -> SHEDDING -> ESSENTIAL ladder with hysteresis and a
cooldown dwell (no flapping), sample deterministically (replay-stable),
never degrade CRITICAL components, and recover cleanly when load passes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (GovernorPolicy, InsertAction, LATDefinition, Rule,
                   SQLCM)
from repro.core.actions import CallbackAction
from repro.core.durability import DurabilityManager
from repro.core.governor import (BEST_EFFORT, CRITICAL, EXEMPT_EVENTS,
                                 GOV_ESSENTIAL, GOV_NORMAL, GOV_SAMPLED,
                                 GOV_SHEDDING, LADDER, GovernorError,
                                 validate_criticality)


def _policy(**overrides) -> GovernorPolicy:
    base = dict(target_overhead=0.04, exit_overhead=0.02, window=0.5,
                cooldown=1.0, decision_interval=0.1, sample_rate=4)
    base.update(overrides)
    return GovernorPolicy(**base)


def _drive(server, gov, seconds, ratio, step=0.05):
    """Advance virtual time charging ``ratio`` of it as monitoring cost."""
    end = server.clock.now + seconds
    while server.clock.now < end:
        server.clock.advance(step)
        if ratio > 0.0:
            server.add_monitor_cost(step * ratio)
        gov.observe()


class TestPolicyValidation:
    def test_defaults_encode_the_paper_envelope(self):
        policy = GovernorPolicy()
        assert policy.target_overhead == pytest.approx(0.04)
        assert policy.exit_overhead < policy.target_overhead

    @pytest.mark.parametrize("kwargs", [
        dict(target_overhead=0.0), dict(target_overhead=1.5),
        dict(exit_overhead=0.0), dict(exit_overhead=0.05),
        dict(window=0.0), dict(cooldown=0.0), dict(decision_interval=0.0),
        dict(sample_rate=1), dict(sample_rate=2.5), dict(shed_headroom=0.0),
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(GovernorError):
            _policy(**kwargs)

    def test_criticality_normalized(self):
        assert validate_criticality("Best-Effort") == BEST_EFFORT
        assert validate_criticality(" CRITICAL ") == CRITICAL
        with pytest.raises(GovernorError):
            validate_criticality("optional")

    def test_rule_validates_criticality(self):
        with pytest.raises(GovernorError):
            Rule(name="r", event="Query.Commit", criticality="bogus",
                 actions=[CallbackAction(lambda s, c: None)])

    def test_lat_validates_criticality(self):
        with pytest.raises(GovernorError):
            LATDefinition(name="L", grouping=["Query.ID AS Q"],
                          aggregations=["COUNT(Query.ID) AS N"],
                          criticality="bogus")


class TestLifecycle:
    def test_governor_off_by_default(self, server, sqlcm):
        assert sqlcm.governor is None
        assert server.governor is None

    def test_enable_is_idempotent_and_attaches_to_server(self, server,
                                                         sqlcm):
        gov = sqlcm.enable_governor(_policy())
        assert sqlcm.enable_governor() is gov
        assert server.governor is gov
        assert server.observability_enabled  # needed for shed ranking

    def test_disable_releases_suspensions(self, server, sqlcm):
        gov = sqlcm.enable_governor(_policy())
        gov.state = GOV_ESSENTIAL
        gov.suspended = {("rule", "x")}
        sqlcm.disable_governor()
        assert sqlcm.governor is None
        assert server.governor is None
        assert gov.state == GOV_NORMAL
        assert not gov.suspended


class TestLadder:
    def test_escalates_when_measured_exceeds_target(self, server, sqlcm):
        gov = sqlcm.enable_governor(_policy())
        _drive(server, gov, seconds=2.0, ratio=0.10)
        assert gov.state != GOV_NORMAL
        assert gov.transitions[0].from_state == GOV_NORMAL
        assert gov.transitions[0].to_state == GOV_SAMPLED
        assert gov.transitions[0].reason == "escalate"
        assert gov.transitions[0].overhead_ratio > 0.04

    def test_climbs_one_rung_per_cooldown(self, server, sqlcm):
        gov = sqlcm.enable_governor(_policy(cooldown=1.0))
        _drive(server, gov, seconds=6.0, ratio=0.20)
        states = [t.to_state for t in gov.transitions]
        # strictly rung by rung, never skipping
        assert states[:3] == [GOV_SAMPLED, GOV_SHEDDING, GOV_ESSENTIAL]
        for earlier, later in zip(gov.transitions, gov.transitions[1:]):
            assert later.time - earlier.time >= gov.policy.cooldown

    def test_essential_is_the_ladder_floor(self, server, sqlcm):
        gov = sqlcm.enable_governor(_policy())
        _drive(server, gov, seconds=12.0, ratio=0.30)
        assert gov.state == GOV_ESSENTIAL
        assert len(gov.transitions) == 3  # no further escalation attempts

    def test_recovers_when_estimated_ratio_drops(self, server, sqlcm):
        gov = sqlcm.enable_governor(_policy())
        _drive(server, gov, seconds=1.0, ratio=0.10)
        assert gov.state == GOV_SAMPLED
        _drive(server, gov, seconds=4.0, ratio=0.005)
        assert gov.state == GOV_NORMAL
        assert gov.transitions[-1].reason == "recover"
        assert not gov.suspended

    def test_skip_estimate_prevents_flapping(self, server, sqlcm):
        gov = sqlcm.enable_governor(_policy())
        _drive(server, gov, seconds=1.0, ratio=0.10)
        assert gov.state == GOV_SAMPLED
        # measured drops (we are degraded!) but the skipped-work estimate
        # says the ungoverned ratio would still be ~6%: stay put
        end = server.clock.now + 4.0
        while server.clock.now < end:
            server.clock.advance(0.05)
            server.add_monitor_cost(0.05 * 0.01)
            gov._skipped_total += 0.05 * 0.05
            gov.observe()
        assert gov.state == GOV_SAMPLED
        assert gov.estimated_ratio > gov.policy.exit_overhead

    def test_state_overheads_tracked_per_rung(self, server, sqlcm):
        gov = sqlcm.enable_governor(_policy())
        _drive(server, gov, seconds=2.0, ratio=0.10)
        _drive(server, gov, seconds=2.0, ratio=0.01)
        per_state = gov.state_overheads()
        assert GOV_NORMAL in per_state and GOV_SAMPLED in per_state
        assert all(ratio > 0.0 for ratio in per_state.values())
        # time is conserved across the per-rung accounting
        assert sum(gov.state_time.values()) == pytest.approx(
            server.clock.now, abs=0.1)


class TestCooldownProperty:
    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.tuples(st.floats(0.01, 0.2),
                              st.floats(0.0, 0.5)),
                    min_size=10, max_size=150))
    def test_at_most_one_transition_per_cooldown_window(self, load):
        from repro import DatabaseServer, ServerConfig
        server = DatabaseServer(ServerConfig())
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(_policy(cooldown=0.8))
        for dt, ratio in load:
            server.clock.advance(dt)
            server.add_monitor_cost(dt * ratio)
            gov.observe()
        for earlier, later in zip(gov.transitions, gov.transitions[1:]):
            assert later.time - earlier.time >= gov.policy.cooldown - 1e-9
        # and the ladder only ever moves one rung at a time
        for t in gov.transitions:
            moved = abs(LADDER.index(t.to_state) -
                        LADDER.index(t.from_state))
            assert moved == 1


class TestAdmission:
    def _engine(self, server):
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(_policy(window=1e6, cooldown=1e6))
        return sqlcm, gov

    def _rule(self, sqlcm, name, criticality="normal", event="Query.Commit"):
        fired = []
        sqlcm.add_rule(Rule(name=name, event=event,
                            criticality=criticality,
                            actions=[CallbackAction(
                                lambda s, c: fired.append(1))]))
        return sqlcm.rules[name], fired

    def test_normal_state_admits_everything(self, server):
        sqlcm, gov = self._engine(server)
        rule, __ = self._rule(sqlcm, "r")
        assert gov.admit(rule, "query.commit") == (True, 1)

    def test_sampled_state_admits_a_weighted_subset(self, server):
        sqlcm, gov = self._engine(server)
        rules = [self._rule(sqlcm, f"r{i}")[0] for i in range(40)]
        gov.state = GOV_SAMPLED
        gov.on_event("query.commit")
        admitted = [r for r in rules
                    if gov.admit(r, "query.commit") == (True, 4)]
        # roughly 1-in-sample_rate admitted, the rest sampled out
        assert 0 < len(admitted) < len(rules)
        assert gov.evals_sampled_out == len(rules) - len(admitted)

    def test_sampling_is_replay_stable(self, server):
        def run():
            from repro import DatabaseServer, ServerConfig
            srv = DatabaseServer(ServerConfig())
            sqlcm = SQLCM(srv)
            gov = sqlcm.enable_governor(_policy(window=1e6, cooldown=1e6))
            rules = [Rule(name=f"r{i}", event="Query.Commit",
                          actions=[CallbackAction(lambda s, c: None)])
                     for i in range(20)]
            for rule in rules:
                sqlcm.add_rule(rule)
            gov.state = GOV_SAMPLED
            outcomes = []
            for __ in range(30):
                gov.on_event("query.commit")
                for rule in rules:
                    outcomes.append(gov.admit(rule, "query.commit")[0])
            return outcomes, gov.sample_digest, gov.evals_sampled_out

        assert run() == run()

    def test_different_events_sample_different_subsets(self, server):
        sqlcm, gov = self._engine(server)
        rules = [self._rule(sqlcm, f"r{i}")[0] for i in range(40)]
        gov.state = GOV_SAMPLED

        def subset(seq_offset):
            gov._event_seq = seq_offset
            gov.on_event("query.commit")
            return [r.name for r in rules
                    if gov.admit(r, "query.commit")[0]]

        assert subset(0) != subset(100)  # the salt rotates the sample

    def test_critical_rule_never_sampled_or_shed(self, server):
        sqlcm, gov = self._engine(server)
        rule, __ = self._rule(sqlcm, "vital", criticality="critical")
        for state in (GOV_SAMPLED, GOV_SHEDDING, GOV_ESSENTIAL):
            gov.state = state
            for __ in range(20):
                gov.on_event("query.commit")
                assert gov.admit(rule, "query.commit") == (True, 1)

    def test_essential_state_sheds_all_non_critical(self, server):
        sqlcm, gov = self._engine(server)
        rule, __ = self._rule(sqlcm, "casual")
        gov.state = GOV_ESSENTIAL
        gov.on_event("query.commit")
        assert gov.admit(rule, "query.commit") == (False, 1)
        assert gov.evals_suspended == 1

    def test_meta_monitoring_events_exempt(self, server):
        sqlcm, gov = self._engine(server)
        rule, __ = self._rule(sqlcm, "watch",
                              event="Governor.Transition")
        gov.state = GOV_ESSENTIAL
        for event in EXEMPT_EVENTS:
            assert gov.admit(rule, event) == (True, 1)

    def test_rule_feeding_critical_lat_is_escalated(self, server):
        sqlcm, gov = self._engine(server)
        sqlcm.create_lat(LATDefinition(
            name="Vital_LAT", grouping=["Query.ID AS Q"],
            aggregations=["COUNT(Query.ID) AS N"], criticality="critical"))
        sqlcm.add_rule(Rule(name="feeder", event="Query.Commit",
                            actions=[InsertAction("Vital_LAT")]))
        rule = sqlcm.rules["feeder"]
        assert gov.effective_criticality(rule) == CRITICAL
        gov.state = GOV_ESSENTIAL
        gov.on_event("query.commit")
        assert gov.admit(rule, "query.commit") == (True, 1)

    def test_criticality_cache_invalidated_on_lat_changes(self, server):
        sqlcm, gov = self._engine(server)
        rule, __ = self._rule(sqlcm, "feeder")
        assert gov.effective_criticality(rule) != CRITICAL
        sqlcm.create_lat(LATDefinition(
            name="Vital_LAT", grouping=["Query.ID AS Q"],
            aggregations=["COUNT(Query.ID) AS N"], criticality="critical"))
        sqlcm.add_rule(Rule(name="feeder2", event="Query.Commit",
                            actions=[InsertAction("Vital_LAT")]))
        assert gov.effective_criticality(
            sqlcm.rules["feeder2"]) == CRITICAL
        # the plain rule's cached class survived the invalidation correctly
        assert gov.effective_criticality(rule) != CRITICAL


class TestShedSelection:
    def test_best_effort_sheds_before_normal_biggest_spender_first(
            self, server):
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(_policy())
        for name, crit in [("pig", "normal"), ("mouse", "normal"),
                           ("junk", "best_effort")]:
            sqlcm.add_rule(Rule(name=name, event="Query.Commit",
                                criticality=crit,
                                actions=[CallbackAction(
                                    lambda s, c: None)]))
        totals = server.obs.attribution.totals
        totals[("rule", "pig")] = 5.0
        totals[("rule", "mouse")] = 0.1
        totals[("rule", "junk")] = 0.01
        shed = gov._select_shed(measured=0.10)
        assert ("rule", "junk") in shed   # BEST_EFFORT goes first
        assert ("rule", "pig") in shed    # then the biggest spender
        assert ("rule", "mouse") not in shed

    def test_shed_never_touches_critical(self, server):
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(_policy())
        sqlcm.add_rule(Rule(name="vital", event="Query.Commit",
                            criticality="critical",
                            actions=[CallbackAction(lambda s, c: None)]))
        sqlcm.add_rule(Rule(name="casual", event="Query.Commit",
                            actions=[CallbackAction(lambda s, c: None)]))
        shed = gov._select_shed(measured=0.50)
        assert ("rule", "vital") not in shed
        assert ("rule", "casual") in shed

    def test_essential_keeps_the_lats_critical_rules_use(self, server):
        """ESSENTIAL suspends every LAT but a CRITICAL one and those a
        CRITICAL rule feeds or reads in its condition."""
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(_policy())
        for name in ("Fed", "Read", "Scratch", "Vital"):
            sqlcm.create_lat(LATDefinition(
                name=name, grouping=["Query.User AS U"],
                aggregations=["COUNT(Query.ID) AS N"],
                criticality="critical" if name == "Vital" else "normal"))
        sqlcm.add_rule(Rule(name="feeder", event="Query.Commit",
                            criticality="critical",
                            actions=[InsertAction("Fed")]))
        sqlcm.add_rule(Rule(name="reader", event="Query.Commit",
                            criticality="critical", condition="Read.N > 5",
                            actions=[CallbackAction(lambda s, c: None)]))
        sqlcm.add_rule(Rule(name="scribble", event="Query.Commit",
                            actions=[InsertAction("Scratch")]))
        gov.suspended = gov._shed_set(GOV_ESSENTIAL)
        assert gov.suspended == {("lat", "scratch"), ("rule", "scribble")}

    def test_removed_rule_leaves_the_suspension_set(self, server):
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(_policy())
        sqlcm.add_rule(Rule(name="casual", event="Query.Commit",
                            actions=[CallbackAction(lambda s, c: None)]))
        gov.suspended = {("rule", "casual")}
        sqlcm.remove_rule("casual")
        assert ("rule", "casual") not in gov.suspended

    def test_removed_stream_leaves_the_suspension_set(self, server):
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(_policy())
        streams = sqlcm.stream_engine()
        streams.register("STREAM casual FROM Query.Commit "
                         "WINDOW TUMBLING(1) AGG COUNT(*) AS N")
        gov.suspended = {("stream", "casual")}
        streams.remove("casual")
        assert ("stream", "casual") not in gov.suspended

    def test_dropped_lat_leaves_the_suspension_set(self, server, tmp_path):
        """A LAT created under a dropped LAT's name is not born suspended —
        on the live monitor and on one rebuilt from the journal."""
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(_policy())
        definition = LATDefinition(
            name="Shed", grouping=["Query.User AS U"],
            aggregations=["COUNT(Query.ID) AS N"])
        sqlcm.create_lat(definition)
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        gov.suspended = {("lat", "shed")}
        manager.checkpoint()  # the checkpoint holds the governor's image
        sqlcm.drop_lat("Shed")
        sqlcm.create_lat(definition)
        manager.detach()
        recovered = DurabilityManager.recover(str(tmp_path)).sqlcm
        for monitor in (sqlcm, recovered):
            assert monitor.has_lat("Shed")
            assert not monitor.governor.suspended


class TestMetaEvent:
    def test_transition_dispatches_monitorable_event(self, server, sqlcm):
        seen = []
        sqlcm.add_rule(Rule(
            name="gwatch", event="Governor.Transition",
            actions=[CallbackAction(lambda s, c: seen.append(
                (c["governor"].get("From_State"),
                 c["governor"].get("To_State"),
                 c["governor"].get("Reason"))))],
        ))
        gov = sqlcm.enable_governor(_policy())
        _drive(server, gov, seconds=2.0, ratio=0.10)
        assert seen and seen[0] == (GOV_NORMAL, GOV_SAMPLED, "escalate")

    def test_transitions_aggregate_into_lats(self, server, sqlcm):
        sqlcm.create_lat(LATDefinition(
            name="Gov_LAT", monitored_class="Governor",
            grouping=["Governor.To_State AS S"],
            aggregations=["COUNT(Governor.Reason) AS N"]))
        sqlcm.add_rule(Rule(name="gwatch", event="Governor.Transition",
                            actions=[InsertAction("Gov_LAT")]))
        gov = sqlcm.enable_governor(_policy())
        _drive(server, gov, seconds=2.0, ratio=0.10)
        rows = sqlcm.lat("Gov_LAT").rows()
        assert {"S": GOV_SAMPLED, "N": 1} in rows


class TestWeightedAggregates:
    def _lat(self, sqlcm):
        sqlcm.create_lat(LATDefinition(
            name="W", grouping=["Query.Application AS App"],
            aggregations=["COUNT(Query.ID) AS N",
                          "SUM(Query.Duration) AS Total",
                          "AVG(Query.Duration) AS Mean",
                          "MIN(Query.Duration) AS Low"]))
        return sqlcm.lat("W")

    def test_weight_compensates_count_sum_avg(self, server, sqlcm):
        lat = self._lat(sqlcm)
        session = server.create_session(application="app")
        server.execute_ddl(
            "CREATE TABLE t (a INT NOT NULL PRIMARY KEY)")
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[InsertAction("W")]))
        # weight 4: each admitted evaluation stands in for 4 events
        sqlcm.sample_weight = 4
        try:
            session.execute("INSERT INTO t (a) VALUES (1)")
        finally:
            sqlcm.sample_weight = 1
        row = lat.rows()[0]
        assert row["N"] == 4              # COUNT compensated
        assert row["Mean"] == pytest.approx(row["Total"] / 4)
        # MIN is order-statistic: documented bias, no scaling
        assert row["Low"] == pytest.approx(row["Total"] / 4)

    def test_update_weighted_semantics(self):
        from repro.core.aggregates import aggregate_function
        for name, expect in [("COUNT", 8), ("SUM", 20.0)]:
            func = aggregate_function(name)
            state = func.new_state()
            for value in (2.0, 3.0):
                state = func.update_weighted(state, value, 4)
            assert func.result(state) == expect
        func = aggregate_function("AVG")
        state = func.new_state()
        for value in (2.0, 3.0):
            state = func.update_weighted(state, value, 4)
        assert func.result(state) == pytest.approx(2.5)
        func = aggregate_function("MIN")  # biased: falls back to update
        state = func.new_state()
        state = func.update_weighted(state, 2.0, 4)
        assert func.result(state) == 2.0


class TestEndToEnd:
    def test_storm_is_governed_and_recovers(self, server):
        """Compressed G1 shape: a rule storm breaches the envelope, the
        governor degrades, and after the storm it returns to NORMAL."""
        sqlcm = SQLCM(server)
        gov = sqlcm.enable_governor(GovernorPolicy(
            target_overhead=0.04, exit_overhead=0.02, window=0.05,
            cooldown=0.12, decision_interval=0.01, sample_rate=8))
        server.execute_ddl(
            "CREATE TABLE t (a INT NOT NULL PRIMARY KEY, b FLOAT)")
        session = server.create_session(application="app")
        session.execute("INSERT INTO t (a, b) VALUES (1, 1.0)")
        def expensive(s, c):  # stand-in for heavy LAT maintenance
            s.server.add_monitor_cost(2.5e-5)

        for i in range(120):
            sqlcm.add_rule(Rule(
                name=f"storm{i}", event="Query.Commit",
                condition="Query.Duration >= 0.0",
                actions=[CallbackAction(expensive)]))
        sqlcm.add_rule(Rule(name="vital", event="Query.Commit",
                            criticality="critical",
                            actions=[CallbackAction(lambda s, c: None)]))
        for __ in range(150):
            session.execute("SELECT b FROM t WHERE a = 1")
        assert gov.transitions, "storm never breached the envelope"
        assert gov.transitions[0].to_state == GOV_SAMPLED
        assert gov.evals_sampled_out > 0
        # the critical sentinel saw every single commit
        vital = sqlcm.rules["vital"]
        storm = sqlcm.rules["storm0"]
        assert vital.evaluation_count > storm.evaluation_count
        # calm phase: drop the storm, keep querying -> clean recovery
        for i in range(120):
            sqlcm.remove_rule(f"storm{i}")
        for __ in range(400):
            session.execute("SELECT b FROM t WHERE a = 1")
            if gov.state == GOV_NORMAL:
                break
        assert gov.state == GOV_NORMAL
        assert gov.transitions[-1].reason == "recover"
        assert not gov.suspended

    def test_report_and_describe_surface_governor_state(self, server,
                                                        sqlcm):
        from repro.monitoring.report import full_report, governor_status
        assert "disabled" in governor_status(sqlcm)
        gov = sqlcm.enable_governor(_policy())
        _drive(server, gov, seconds=1.0, ratio=0.10)
        text = full_report(server, sqlcm)
        assert "OVERLOAD GOVERNOR" in text
        assert "state: SAMPLED" in text
        info = gov.describe()
        assert info["state"] == GOV_SAMPLED
        assert info["transitions"] == 1
