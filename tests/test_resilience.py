"""Fault-isolation layer: quarantine, retry/dead-letter, fault injection.

The resilience contract: a misbehaving rule, a flaky side-effect sink, or a
crash mid-persist must never surface as an error on the monitored query —
failures are isolated, accounted per rule, quarantined past a threshold,
and undeliverable side effects land in a dead-letter journal.  The fault
injector driving these tests is seeded and deterministic.
"""

from __future__ import annotations

import pytest

from repro import (FaultInjector, InsertAction, LATDefinition,
                   QuarantinePolicy, RetryPolicy, Rule, SendMailAction,
                   SQLCM)
from repro.core.actions import (CallbackAction, CancelAction, PersistAction,
                                RunExternalAction, SetTimerAction)
from repro.core.objects import MonitoredObject
from repro.core.resilience import FAULT_SITES, FaultSpec
from repro.errors import (ActionError, FaultInjected,
                          PersistCorruptionError, RuleError,
                          RuleQuarantinedError)


def _items(server):
    server.execute_ddl(
        "CREATE TABLE items (id INT NOT NULL PRIMARY KEY, price FLOAT)")
    loader = server.create_session()
    loader.execute("INSERT INTO items (id, price) VALUES (1, 1.5), (2, 2.0)")
    return server.create_session(user="app", application="tests")


def _failing_rule(sqlcm, name="bad"):
    sqlcm.add_rule(Rule(
        name=name, event="Query.Commit",
        actions=[CallbackAction(lambda s, c: 1 / 0)],
    ))


class TestIsolation:
    def test_failing_action_does_not_break_query(self, server, sqlcm):
        session = _items(server)
        _failing_rule(sqlcm)
        result = session.execute("SELECT price FROM items WHERE id = 1")
        assert result.error is None
        assert result.rows == [(1.5,)]
        assert sqlcm.rule_health("bad").error_count == 1
        assert sqlcm.rule_health("bad").last_site == "action"

    def test_failing_condition_is_isolated(self, server, sqlcm):
        session = _items(server)
        fired = []
        sqlcm.add_rule(Rule(
            name="watch", event="Query.Commit",
            condition="Query.Duration >= 0.0",
            actions=[CallbackAction(lambda s, c: fired.append(1))],
        ))
        inj = FaultInjector()
        inj.fail_next("condition", count=1)
        sqlcm.set_fault_injector(inj)
        result = session.execute("SELECT price FROM items WHERE id = 1")
        assert result.error is None
        assert fired == []  # the faulted evaluation never ran its action
        health = sqlcm.rule_health("watch")
        assert health.condition_errors == 1
        assert health.last_site == "condition"
        # next evaluation (no fault) proceeds normally
        session.execute("SELECT price FROM items WHERE id = 1")
        assert fired == [1]

    def test_other_rules_still_run_after_a_failure(self, server, sqlcm):
        session = _items(server)
        _failing_rule(sqlcm, "bad")
        seen = []
        sqlcm.add_rule(Rule(
            name="good", event="Query.Commit",
            actions=[CallbackAction(lambda s, c: seen.append(1))],
        ))
        session.execute("SELECT price FROM items WHERE id = 1")
        assert seen == [1]

    def test_failure_charges_monitoring_time(self, server, sqlcm):
        session = _items(server)
        session.execute("SELECT price FROM items WHERE id = 1")  # warm cache
        start = server.clock.now
        session.execute("SELECT price FROM items WHERE id = 1")
        clean = server.clock.now - start
        _failing_rule(sqlcm)
        start = server.clock.now
        session.execute("SELECT price FROM items WHERE id = 1")
        faulty = server.clock.now - start
        # the isolated failure is charged to the virtual clock, not free
        assert faulty > clean


class TestQuarantine:
    def test_rule_quarantined_at_threshold(self, server, sqlcm):
        session = _items(server)
        _failing_rule(sqlcm)
        threshold = sqlcm.health.policy.failure_threshold
        for __ in range(threshold):
            assert not sqlcm.rule_health("bad").quarantined
            session.execute("SELECT price FROM items WHERE id = 1")
        health = sqlcm.rule_health("bad")
        assert health.quarantined
        assert health.error_count == threshold
        assert sqlcm.quarantined_rules() == ["bad"]
        # quarantined rules leave the evaluation path entirely
        evals = sqlcm.rules["bad"].evaluation_count
        session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.rules["bad"].evaluation_count == evals
        assert health.error_count == threshold

    def test_enable_quarantined_rule_raises(self, server, sqlcm):
        session = _items(server)
        _failing_rule(sqlcm)
        for __ in range(3):
            session.execute("SELECT price FROM items WHERE id = 1")
        with pytest.raises(RuleQuarantinedError):
            sqlcm.enable_rule("bad", True)

    def test_reactivation_probe_restores_healthy_rule(self, server):
        sqlcm = SQLCM(server, quarantine=QuarantinePolicy(
            failure_threshold=2, window=60.0, cooldown=0.5))
        session = _items(server)
        broken = [True]

        def flaky(s, c):
            if broken[0]:
                raise RuntimeError("boom")

        sqlcm.add_rule(Rule(name="flaky", event="Query.Commit",
                            actions=[CallbackAction(flaky)]))
        for __ in range(2):
            session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.rule_health("flaky").quarantined
        broken[0] = False
        server.clock.advance_to(server.clock.now + 1.0)  # past the cooldown
        session.execute("SELECT price FROM items WHERE id = 1")
        health = sqlcm.rule_health("flaky")
        assert not health.quarantined
        assert health.state == "healthy"
        assert health.quarantine_count == 1

    def test_all_clear_flag_follows_the_state_machine(self, server):
        """Dispatch skips ``allow``/``record_success`` while the flag is
        up: it must drop with the first record off HEALTHY and come back
        only when the last one returns."""
        sqlcm = SQLCM(server, quarantine=QuarantinePolicy(
            failure_threshold=2, window=60.0, cooldown=0.5))
        session = _items(server)
        registry = sqlcm.health
        broken = [True]
        ran = []

        def flaky(s, c):
            if broken[0]:
                raise RuntimeError("boom")

        sqlcm.add_rule(Rule(name="good", event="Query.Commit",
                            actions=[CallbackAction(
                                lambda s, c: ran.append(1))]))
        rule = sqlcm.add_rule(Rule(name="flaky", event="Query.Commit",
                                   actions=[CallbackAction(flaky)]))
        assert registry.all_clear
        session.execute("SELECT price FROM items WHERE id = 1")
        # a failure short of the threshold moves no record off HEALTHY
        assert sqlcm.rule_health("flaky").error_count == 1
        assert registry.all_clear
        session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.rule_health("flaky").quarantined
        assert not registry.all_clear

        session.execute("SELECT price FROM items WHERE id = 1")
        assert rule.evaluation_count == 2 and len(ran) == 3  # held out
        broken[0] = False
        server.clock.advance_to(server.clock.now + 1.0)  # past the cooldown
        session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.rule_health("flaky").state == "healthy"  # probe passed
        assert registry.all_clear
        session.execute("SELECT price FROM items WHERE id = 1")
        assert rule.evaluation_count == 4 and len(ran) == 5

        registry.quarantine("good", server.clock.now, "DBA override")
        registry.quarantine("flaky", server.clock.now, "DBA override")
        sqlcm.release_quarantine("good")
        assert not registry.all_clear  # one record is still off HEALTHY
        sqlcm.remove_rule("flaky")  # its record goes with it
        assert registry.all_clear

    def test_failed_probe_requarantines_with_backoff(self, server):
        sqlcm = SQLCM(server, quarantine=QuarantinePolicy(
            failure_threshold=2, window=60.0, cooldown=0.5, backoff=2.0))
        session = _items(server)
        _failing_rule(sqlcm, "bad")
        for __ in range(2):
            session.execute("SELECT price FROM items WHERE id = 1")
        first_cooldown = sqlcm.rule_health("bad").current_cooldown
        server.clock.advance_to(server.clock.now + 1.0)
        session.execute("SELECT price FROM items WHERE id = 1")  # probe fails
        health = sqlcm.rule_health("bad")
        assert health.quarantined
        assert health.quarantine_count == 2
        assert health.current_cooldown == pytest.approx(2 * first_cooldown)
        assert "probe" in health.quarantine_reason

    def test_release_quarantine_is_a_dba_override(self, server, sqlcm):
        session = _items(server)
        _failing_rule(sqlcm)
        for __ in range(3):
            session.execute("SELECT price FROM items WHERE id = 1")
        sqlcm.release_quarantine("bad")
        assert not sqlcm.rule_health("bad").quarantined
        assert sqlcm.quarantined_rules() == []

    def test_release_of_healthy_rule_raises(self, server, sqlcm):
        sqlcm.add_rule(Rule(name="ok", event="Query.Commit",
                            actions=[CallbackAction(lambda s, c: None)]))
        with pytest.raises(RuleError):
            sqlcm.release_quarantine("ok")

    def test_rule_health_of_unknown_rule_raises(self, sqlcm):
        with pytest.raises(RuleError):
            sqlcm.rule_health("ghost")


class TestRulePlans:
    """The engine works out what a rule needs (classes, LATs) once and
    keeps it until the set of rules or LATs changes."""

    def test_plan_that_cannot_be_built_fails_in_the_boundary_every_time(
            self, server, sqlcm):
        """An Insert into a dropped LAT fails where it always did: at site
        ``evaluate``, once per commit, up the quarantine ladder — not at
        ``drop_lat``, not as a silent skip.  A variant that cached the
        failed plan (or a marker for it) would record one failure and
        then go quiet, or stay broken after the LAT is back."""
        session = _items(server)
        seen = LATDefinition(name="Seen", monitored_class="Query",
                             grouping=["Query.ID AS Qid"],
                             aggregations=["COUNT(Query.ID) AS N"])
        sqlcm.create_lat(seen)
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[InsertAction("Seen")]))
        session.execute("SELECT price FROM items WHERE id = 1")
        rule = sqlcm.rules["track"]
        assert (rule.fire_count, sqlcm.rule_errors) == (1, 0)

        sqlcm.drop_lat("Seen")  # no rule *condition* reads it: allowed
        threshold = sqlcm.health.policy.failure_threshold
        for failures in range(1, threshold + 1):
            result = session.execute("SELECT price FROM items WHERE id = 1")
            assert result.error is None
            health = sqlcm.rule_health("track")
            assert health.error_count == failures
            assert health.last_site == "evaluate"
            assert "LATError" in health.last_error
        assert health.quarantined
        assert rule.evaluation_count == 1  # never got as far as evaluating
        session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.rule_health("track").error_count == threshold

        sqlcm.create_lat(seen)
        sqlcm.release_quarantine("track")
        session.execute("SELECT price FROM items WHERE id = 1")
        assert rule.fire_count == 2
        assert len(sqlcm.lat("Seen")) == 1
        assert sqlcm.rule_health("track").error_count == threshold

    def test_lat_created_later_changes_what_a_rule_needs(
            self, server, sqlcm):
        """``Persist(source="Timer")`` needs a Timer object until a LAT of
        that name exists; ``create_lat`` must drop the kept plan, or the
        rule would go on evaluating once per timer."""
        session = _items(server)
        sqlcm.set_timer("a", 100.0)
        sqlcm.set_timer("b", 100.0)
        sqlcm.add_rule(Rule(
            name="audit", event="Query.Commit",
            actions=[PersistAction("audit_log", ["Name"], source="Timer")]))
        rule = sqlcm.rules["audit"]
        session.execute("SELECT price FROM items WHERE id = 1")
        assert rule.evaluation_count == 2  # one per registered timer
        sqlcm.create_lat(LATDefinition(
            name="Timer", monitored_class="Query",
            grouping=["Query.ID AS Qid"],
            aggregations=["COUNT(Query.ID) AS N"]))
        session.execute("SELECT price FROM items WHERE id = 1")
        assert rule.evaluation_count == 3  # the LAT is the source now
        assert sqlcm.rule_errors == 0


class TestRetryAndDeadLetter:
    def test_transient_sink_failure_retried_to_success(self, server, sqlcm):
        session = _items(server)
        calls = []

        def flaky_handler(cmd):
            calls.append(cmd)
            if len(calls) < 3:
                raise ConnectionError("sink down")

        sqlcm.external_handler = flaky_handler
        sqlcm.add_rule(Rule(name="notify", event="Query.Commit",
                            actions=[RunExternalAction("ping {Query.ID}")]))
        result = session.execute("SELECT price FROM items WHERE id = 1")
        assert result.error is None
        assert len(calls) == 3                       # 2 failures + success
        assert len(sqlcm.command_journal) == 1       # delivered exactly once
        assert sqlcm.dead_letters.depth == 0
        assert sqlcm.rule_health("notify").error_count == 0

    def test_dead_letter_captures_every_undelivered_side_effect(
            self, server, sqlcm):
        session = _items(server)

        def dead_handler(cmd):
            raise ConnectionError("sink permanently down")

        sqlcm.external_handler = dead_handler
        sqlcm.add_rule(Rule(name="notify", event="Query.Commit",
                            actions=[RunExternalAction("ping {Query.ID}")]))
        for __ in range(2):  # default threshold is 3: stay under quarantine
            result = session.execute("SELECT price FROM items WHERE id = 1")
            assert result.error is None
        rule = sqlcm.rules["notify"]
        # conservation: every firing is either delivered or dead-lettered
        assert rule.fire_count == 2
        assert sqlcm.dead_letters.depth + len(sqlcm.command_journal) == 2
        entry = sqlcm.dead_letters.entries("notify")[0]
        assert entry.action == "RunExternalAction"
        assert entry.attempts == sqlcm.retry_policy.max_attempts
        assert "ConnectionError" in entry.error
        assert "ping" in entry.payload

    def test_dead_letters_replay_after_sink_recovers(self, server, sqlcm):
        session = _items(server)
        sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("down"))
        sqlcm.add_rule(Rule(name="notify", event="Query.Commit",
                            actions=[RunExternalAction("ping {Query.ID}")]))
        session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.dead_letters.depth == 1
        delivered = []
        sqlcm.external_handler = delivered.append
        assert sqlcm.dead_letters.replay(sqlcm) == 1
        assert sqlcm.dead_letters.depth == 0
        assert len(delivered) == 1 and delivered[0].startswith("ping ")

    def test_replay_probes_the_source_as_it_is_then(self, server, sqlcm):
        """A dead letter keeps the objects of its dispatch, not the values
        probed during it: replayed after the statement committed, the
        command carries the commit-time duration, not the 0.0 the rules
        read at query start (a later rule of the same dispatch probes the
        live object again)."""
        session = _items(server)
        sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("down"))
        sqlcm.add_rule(Rule(name="started", event="Query.Start",
                            condition="Query.Duration >= 0",
                            actions=[RunExternalAction("d={Query.Duration}")]))
        sqlcm.add_rule(Rule(name="never", event="Query.Start",
                            condition="Query.Duration < 0",
                            actions=[SendMailAction("x", "dba")]))
        query = session.execute("SELECT price FROM items WHERE id = 1").query
        entry, = sqlcm.dead_letters.entries()
        assert entry.payload == "RunExternal: d=0.0"
        delivered = []
        sqlcm.external_handler = delivered.append
        assert sqlcm.dead_letters.replay(sqlcm) == 1
        duration = query.duration_at(server.clock.now)
        assert duration > 0.0
        assert delivered == [f"d={duration}"]

    def test_every_replay_probes_again(self, server, sqlcm):
        """A replay that fails keeps its letter; the next one reads the
        source as it is by then, not what the failed replay read."""
        sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("down"))
        sqlcm.add_rule(Rule(name="tick", event="Timer.Alert",
                            actions=[RunExternalAction("i={Timer.Interval}")]))
        timer = sqlcm.set_timer("t", 10.0)
        sqlcm.dispatch_event("timer.alert", {"timer": timer})
        assert sqlcm.dead_letters.replay(sqlcm) == 0
        sqlcm.set_timer("t", 5.0)
        delivered = []
        sqlcm.external_handler = delivered.append
        assert sqlcm.dead_letters.replay(sqlcm) == 1
        assert delivered == ["i=5.0"]

    def test_failed_replay_keeps_entry_with_bumped_attempts(
            self, server, sqlcm):
        session = _items(server)
        sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("down"))
        sqlcm.add_rule(Rule(name="notify", event="Query.Commit",
                            actions=[RunExternalAction("ping {Query.ID}")]))
        session.execute("SELECT price FROM items WHERE id = 1")
        before = sqlcm.dead_letters.entries()[0].attempts
        assert sqlcm.dead_letters.replay(sqlcm) == 0
        entry = sqlcm.dead_letters.entries()[0]
        assert entry.attempts == before + 1

    def test_backoff_charges_virtual_time_not_wall_time(self, server):
        retry = RetryPolicy(max_attempts=3, base_delay=0.5, backoff=2.0)
        sqlcm = SQLCM(server, retry=retry)
        session = _items(server)
        sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("down"))
        sqlcm.add_rule(Rule(name="notify", event="Query.Commit",
                            actions=[RunExternalAction("ping")]))
        before = server.clock.now
        session.execute("SELECT price FROM items WHERE id = 1")
        # two backoff delays: 0.5s before attempt 2, 1.0s before attempt 3,
        # charged to the virtual clock (not slept in wall time)
        assert server.clock.now - before >= 1.5

    def test_internal_actions_fail_fast_without_retry(self, server, sqlcm):
        session = _items(server)
        attempts = []

        def explode(s, c):
            attempts.append(1)
            raise RuntimeError("boom")

        sqlcm.add_rule(Rule(name="internal", event="Query.Commit",
                            actions=[CallbackAction(explode)]))
        session.execute("SELECT price FROM items WHERE id = 1")
        assert len(attempts) == 1  # no retry for non-side-effect actions
        assert sqlcm.dead_letters.depth == 0


class TestFaultInjector:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("nonsense")
        with pytest.raises(ValueError):
            FaultInjector().fail_next("nonsense")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(rate=0.1, mode="meltdown")

    def test_same_seed_same_fault_sequence(self):
        def sequence(seed):
            inj = FaultInjector(seed=seed)
            inj.arm("condition", rate=0.3)
            outcomes = []
            for __ in range(50):
                try:
                    inj.check("condition")
                    outcomes.append(0)
                except FaultInjected:
                    outcomes.append(1)
            return outcomes

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_sites_draw_independent_streams(self):
        def condition_outcomes(arm_other):
            inj = FaultInjector(seed=3)
            inj.arm("condition", rate=0.3)
            if arm_other:
                inj.arm("sink", rate=0.5)
            outcomes = []
            for i in range(40):
                if arm_other and i % 2:
                    try:
                        inj.check("sink")
                    except FaultInjected:
                        pass
                try:
                    inj.check("condition")
                    outcomes.append(0)
                except FaultInjected:
                    outcomes.append(1)
            return outcomes

        # interleaving checks of another armed site never perturbs this one
        assert condition_outcomes(False) == condition_outcomes(True)

    def test_fail_next_is_a_deterministic_burst(self):
        inj = FaultInjector()
        inj.fail_next("action", count=2)
        for __ in range(2):
            with pytest.raises(FaultInjected):
                inj.check("action")
        assert inj.check("action") == 0.0
        assert inj.injected["action"] == 2

    def test_latency_mode_charges_monitor_cost(self, server, sqlcm):
        session = _items(server)
        inj = FaultInjector(seed=1)
        inj.arm("condition", rate=1.0, mode="latency", latency=0.25)
        sqlcm.set_fault_injector(inj)
        sqlcm.add_rule(Rule(name="slow", event="Query.Commit",
                            condition="Query.Duration >= 0.0",
                            actions=[CallbackAction(lambda s, c: None)]))
        before = server.clock.now
        result = session.execute("SELECT price FROM items WHERE id = 1")
        assert result.error is None
        assert server.clock.now - before >= 0.25
        assert sqlcm.rule_health("slow").error_count == 0

    def test_timer_fault_loses_alert_but_timer_survives(self, server, sqlcm):
        fired = []
        sqlcm.add_rule(Rule(name="tick", event="Timer.Alert",
                            actions=[CallbackAction(
                                lambda s, c: fired.append(1))]))
        inj = FaultInjector()
        inj.fail_next("timer", count=1)
        sqlcm.set_fault_injector(inj)
        sqlcm.set_timer("t", interval=1.0, repeats=3)
        server.run(until=10.0)
        assert len(fired) == 2  # first alert lost, remaining two delivered


class TestPersistChecksums:
    def _lat_with_rows(self, server, sqlcm, n=3):
        session = _items(server)
        sqlcm.create_lat(LATDefinition(
            name="L", grouping=["Query.Application AS App"],
            aggregations=["COUNT(Query.ID) AS N"]))
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[InsertAction("L")]))
        for __ in range(n):
            session.execute("SELECT price FROM items WHERE id = 1")
        return session

    def test_checksummed_roundtrip(self, server, sqlcm):
        self._lat_with_rows(server, sqlcm)
        assert sqlcm.persist_lat("L", "snap") == 1
        sqlcm.lat("L").reset()
        assert sqlcm.restore_lat("L", "snap") == 1
        assert sqlcm.lat("L").rows() == [{"App": "tests", "N": 3}]

    def test_corrupted_row_detected_on_restore(self, server, sqlcm):
        self._lat_with_rows(server, sqlcm)
        sqlcm.persist_lat("L", "snap")
        table = server.table("snap")
        rowid = next(iter(table.scan()))[0]
        table.update(rowid, {1: 999})  # flip the count behind the checksum
        sqlcm.lat("L").reset()
        with pytest.raises(PersistCorruptionError):
            sqlcm.restore_lat("L", "snap")
        assert len(sqlcm.lat("L")) == 0  # degraded to rebuild-from-scratch

    def test_partial_write_fault_leaves_detectable_torn_rows(
            self, server, sqlcm):
        self._lat_with_rows(server, sqlcm)
        inj = FaultInjector()
        sqlcm.set_fault_injector(inj)
        inj.fail_next("lat.persist", mode="partial")
        with pytest.raises(FaultInjected):
            sqlcm.persist_lat("L", "snap")
        assert len(list(server.table("snap").scan())) >= 1  # torn rows stay
        with pytest.raises(PersistCorruptionError):
            sqlcm.restore_lat("L", "snap")

    def test_exception_fault_compensates_to_clean_slate(self, server, sqlcm):
        self._lat_with_rows(server, sqlcm)
        sqlcm.persist_lat("L", "pre")  # create table with one good row
        inj = FaultInjector()
        sqlcm.set_fault_injector(inj)
        inj.fail_next("lat.persist", mode="exception")
        with pytest.raises(FaultInjected):
            sqlcm.persist_lat("L", "pre")
        # the failed persist left nothing behind: only the first row
        assert len(list(server.table("pre").scan())) == 1
        # ...so the retried delivery is safe from duplicates
        sqlcm.persist_lat("L", "pre")
        assert len(list(server.table("pre").scan())) == 2

    def test_unvalidated_restore_skips_checksum(self, server, sqlcm):
        """A table with no checksum column (written by hand or by older
        code) restores as it reads."""
        self._lat_with_rows(server, sqlcm)
        server.execute_ddl("CREATE TABLE snap (App VARCHAR(30), N INT)")
        server.table("snap").insert(["tests", 999])
        sqlcm.lat("L").reset()
        assert sqlcm.restore_lat("L", "snap") == 1
        assert sqlcm.lat("L").rows()[0]["N"] == 999

    def test_persist_via_rule_dead_letters_on_persistent_fault(
            self, server, sqlcm):
        session = _items(server)
        sqlcm.create_lat(LATDefinition(
            name="L", grouping=["Query.Application AS App"],
            aggregations=["COUNT(Query.ID) AS N"]))
        inj = FaultInjector()
        inj.arm("lat.persist", rate=1.0)
        sqlcm.set_fault_injector(inj)
        sqlcm.add_rule(Rule(
            name="saver", event="Query.Commit",
            actions=[InsertAction("L"),
                     PersistAction("snap", source="L")]))
        result = session.execute("SELECT price FROM items WHERE id = 1")
        assert result.error is None
        assert sqlcm.dead_letters.depth == 1
        assert sqlcm.dead_letters.entries()[0].action == "PersistAction"


class TestMetaMonitoring:
    def test_rule_errors_are_monitorable_events(self, server, sqlcm):
        session = _items(server)
        failures = []
        sqlcm.add_rule(Rule(
            name="watchdog", event="RuleFailure.Error",
            actions=[CallbackAction(
                lambda s, c: failures.append(
                    (c["rulefailure"].get("Rule_Name"),
                     c["rulefailure"].get("Site"))))],
        ))
        _failing_rule(sqlcm, "bad")
        session.execute("SELECT price FROM items WHERE id = 1")
        assert failures == [("bad", "action")]

    def test_rule_failures_aggregate_into_lats(self, server, sqlcm):
        session = _items(server)
        sqlcm.create_lat(LATDefinition(
            name="Err_LAT", monitored_class="RuleFailure",
            grouping=["RuleFailure.Rule_Name AS R"],
            aggregations=["COUNT(RuleFailure.Error_Count) AS N"]))
        sqlcm.add_rule(Rule(name="watchdog", event="RuleFailure.Error",
                            actions=[InsertAction("Err_LAT")]))
        _failing_rule(sqlcm, "bad")
        for __ in range(2):
            session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.lat("Err_LAT").rows() == [{"R": "bad", "N": 2}]

    def test_failing_watchdog_does_not_recurse(self, server, sqlcm):
        session = _items(server)
        sqlcm.add_rule(Rule(
            name="watchdog", event="RuleFailure.Error",
            actions=[CallbackAction(lambda s, c: 1 / 0)],
        ))
        _failing_rule(sqlcm, "bad")
        result = session.execute("SELECT price FROM items WHERE id = 1")
        assert result.error is None
        # the watchdog's own failure is accounted but raises no meta event
        assert sqlcm.rule_health("watchdog").error_count == 1
        assert sqlcm.rule_errors == 2  # bad + watchdog, no recursion


class TestBlanketFaults:
    def test_ten_percent_faults_everywhere_no_query_errors(self, server):
        inj = FaultInjector(seed=99)
        for site in FAULT_SITES:
            inj.arm(site, rate=0.10)
        sqlcm = SQLCM(server, faults=inj)
        session = _items(server)
        sqlcm.create_lat(LATDefinition(
            name="Recent", grouping=["Query.ID AS Qid"],
            aggregations=["LAST(Query.Duration) AS D"],
            ordering=["Qid DESC"], max_rows=3))
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            condition="Query.Duration >= 0.0",
                            actions=[InsertAction("Recent")]))
        sqlcm.add_rule(Rule(name="evictions", event="Evicted.Evict",
                            actions=[CallbackAction(lambda s, c: None)]))
        sqlcm.add_rule(Rule(name="mail", event="Query.Commit",
                            actions=[SendMailAction("q {Query.ID}", "dba")]))
        sqlcm.add_rule(Rule(name="save", event="Query.Commit",
                            actions=[PersistAction("audit", source="Recent")]))
        sqlcm.set_timer("t", interval=0.001, repeats=20)
        results = [session.execute("SELECT price FROM items WHERE id = 1")
                   for __ in range(40)]
        server.run(until=server.clock.now + 1.0)  # drain the timer
        assert all(r.error is None for r in results)
        assert inj.injected_total() > 0
        # everything that went wrong is accounted somewhere
        assert sqlcm.rule_errors > 0


class TestDeterminism:
    def _faulty_run(self):
        from repro import DatabaseServer, ServerConfig
        server = DatabaseServer(ServerConfig(track_completed_queries=True))
        inj = FaultInjector(seed=5)
        for site in FAULT_SITES:
            inj.arm(site, rate=0.15)
        sqlcm = SQLCM(server, faults=inj)
        session = _items(server)
        sqlcm.create_lat(LATDefinition(
            name="Recent", grouping=["Query.ID AS Qid"],
            aggregations=["LAST(Query.Duration) AS D"],
            ordering=["Qid DESC"], max_rows=3))
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[InsertAction("Recent")]))
        sqlcm.add_rule(Rule(name="mail", event="Query.Commit",
                            actions=[SendMailAction("q {Query.ID}", "dba")]))
        for __ in range(30):
            session.execute("SELECT price FROM items WHERE id = 1")
        return (server.clock.now, inj.snapshot(), sqlcm.health.snapshot(),
                sqlcm.dead_letters.snapshot(), len(sqlcm.outbox),
                sqlcm.lat("Recent").integrity_signature(),
                sqlcm.rule_errors)

    def test_same_seed_bit_identical_runs(self):
        assert self._faulty_run() == self._faulty_run()


class TestDeadLetterRing:
    def test_journal_is_ring_bounded(self):
        from repro.core.resilience import DeadLetter, DeadLetterJournal
        journal = DeadLetterJournal(capacity=3)
        for i in range(5):
            journal.append(DeadLetter(
                time=float(i), rule=f"r{i}", action="A",
                payload=str(i), error="down", attempts=3))
        assert journal.depth == 3
        assert journal.dropped == 2
        # oldest entries were displaced, newest survive
        assert [e.rule for e in journal.entries()] == ["r2", "r3", "r4"]

    def test_invalid_capacity_rejected(self):
        from repro.core.resilience import DeadLetterJournal
        with pytest.raises(ValueError):
            DeadLetterJournal(capacity=0)

    def test_snapshot_includes_drop_counters(self):
        from repro.core.resilience import DeadLetter, DeadLetterJournal
        journal = DeadLetterJournal(capacity=1)
        for i in range(2):
            journal.append(DeadLetter(
                time=float(i), rule="r", action="A",
                payload=str(i), error="down", attempts=3))
        assert journal.dropped == 1


class TestRedelivery:
    def _dead_letter_one(self, server, sqlcm):
        session = _items(server)
        sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("down"))
        sqlcm.add_rule(Rule(name="notify", event="Query.Commit",
                            actions=[RunExternalAction("ping {Query.ID}")]))
        session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.dead_letters.depth == 1
        return session

    def test_redeliver_after_sink_recovers(self, server, sqlcm):
        self._dead_letter_one(server, sqlcm)
        delivered = []
        sqlcm.external_handler = delivered.append
        report = sqlcm.dead_letters.redeliver(sqlcm)
        assert report.delivered == 1
        assert report.dropped == 0
        assert report.remaining == 0
        assert sqlcm.dead_letters.depth == 0
        assert len(delivered) == 1 and delivered[0].startswith("ping ")

    def test_redeliver_retries_transient_failures_within_the_sweep(
            self, server, sqlcm):
        self._dead_letter_one(server, sqlcm)
        calls = []

        def flaky(cmd):
            calls.append(cmd)
            if len(calls) < 2:
                raise ConnectionError("still warming up")

        sqlcm.external_handler = flaky
        report = sqlcm.dead_letters.redeliver(sqlcm)
        # one redelivery sweep is a full retry cycle, not a single attempt
        assert len(calls) == 2
        assert report.delivered == 1
        assert sqlcm.dead_letters.depth == 0

    def test_redeliver_backoff_charges_virtual_time(self, server):
        retry = RetryPolicy(max_attempts=3, base_delay=0.5, backoff=2.0)
        sqlcm = SQLCM(server, retry=retry)
        self._dead_letter_one(server, sqlcm)
        sqlcm.dead_letters.redeliver(sqlcm)  # sink still down
        # 0.5s before attempt 2 and 1.0s before attempt 3 land in the pool
        assert server.take_monitor_cost() >= 1.5

    def test_poison_entry_dropped_after_cumulative_attempts(
            self, server, sqlcm):
        self._dead_letter_one(server, sqlcm)
        # sink stays down: each sweep adds max_attempts to the entry
        report = None
        for __ in range(4):
            report = sqlcm.dead_letters.redeliver(sqlcm, drop_after=9)
            if report.dropped:
                break
        assert report is not None and report.dropped == 1
        assert sqlcm.dead_letters.depth == 0
        assert sqlcm.dead_letters.poison_dropped == 1

    def test_cli_deadletters_retry_verb(self):
        import io
        from repro.cli import Shell
        out = io.StringIO()
        shell = Shell(out=out)
        shell.sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("down"))
        shell.sqlcm.add_rule(Rule(
            name="notify", event="Query.Commit",
            actions=[RunExternalAction("ping")]))
        shell.run_script(
            "CREATE TABLE t (a INT PRIMARY KEY);"
            "INSERT INTO t VALUES (1);"
            "SELECT a FROM t;"
        )
        depth = shell.sqlcm.dead_letters.depth
        assert depth > 0
        delivered = []
        shell.sqlcm.external_handler = delivered.append
        shell.execute_line(".deadletters retry")
        assert f"redelivered {depth}" in out.getvalue()
        assert delivered == ["ping"] * depth
        assert shell.sqlcm.dead_letters.depth == 0


class TestDispatchQueueHygiene:
    def test_stale_queue_cleared_when_processing_raises(
            self, server, sqlcm, monkeypatch):
        session = _items(server)
        seen = []
        sqlcm.add_rule(Rule(name="track", event="Query.Commit",
                            actions=[CallbackAction(
                                lambda s, c: seen.append(1))]))

        original = sqlcm._process_event
        calls = {"n": 0}

        def explode_once(event, payload):
            calls["n"] += 1
            if calls["n"] == 1:
                sqlcm._event_queue.append(("query.commit", payload))
                raise RuntimeError("engine bug")
            return original(event, payload)

        monkeypatch.setattr(sqlcm, "_process_event", explode_once)
        with pytest.raises(RuntimeError):
            sqlcm.dispatch_event("query.commit", {"query": None})
        # regression: the deferred event must not leak into the next dispatch
        assert not sqlcm._event_queue
        monkeypatch.undo()
        session.execute("SELECT price FROM items WHERE id = 1")
        assert seen == [1]


class TestHealthReporting:
    def test_full_report_has_rule_health_section(self, server, sqlcm):
        from repro.monitoring.report import full_report
        session = _items(server)
        _failing_rule(sqlcm)
        for __ in range(3):
            session.execute("SELECT price FROM items WHERE id = 1")
        text = full_report(server, sqlcm)
        assert "RULE HEALTH" in text
        assert "quarantined" in text
        assert "rule errors isolated: 3" in text
        assert "dead-letter journal depth: 0" in text

    def test_cli_rules_shows_quarantine_state(self):
        import io
        from repro.cli import Shell
        out = io.StringIO()
        shell = Shell(out=out)
        _failing_rule(shell.sqlcm)
        shell.run_script(
            "CREATE TABLE t (a INT PRIMARY KEY);"
            "INSERT INTO t VALUES (1);"
            "SELECT a FROM t;"
            "SELECT a FROM t;"
            "SELECT a FROM t;"
        )
        shell.execute_line(".rules")
        text = out.getvalue()
        assert "[quarantined] bad ON Query.Commit" in text
        assert "errors" in text

    def test_cli_deadletters_command(self):
        import io
        from repro.cli import Shell
        out = io.StringIO()
        shell = Shell(out=out)
        shell.execute_line(".deadletters")
        assert "(empty)" in out.getvalue()
        shell.sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("down"))
        shell.sqlcm.add_rule(Rule(
            name="notify", event="Query.Commit",
            actions=[RunExternalAction("ping")]))
        shell.run_script(
            "CREATE TABLE t (a INT PRIMARY KEY);"
            "INSERT INTO t VALUES (1);"
            "SELECT a FROM t;"
        )
        shell.execute_line(".deadletters")
        text = out.getvalue()
        assert "rule=notify" in text
        assert "ConnectionError" in text


class TestExistingErrorPaths:
    def test_persist_without_source_rejected(self, sqlcm):
        with pytest.raises(ActionError, match="explicit source"):
            PersistAction("t")._resolve_source(sqlcm, None)

    def test_persist_unknown_source_rejected(self, sqlcm):
        with pytest.raises(ActionError, match="neither a LAT nor a class"):
            PersistAction("t", source="Ghost").validate(sqlcm, None)

    def test_cancel_without_underlying_query_rejected(self, sqlcm):
        cls = sqlcm.schema.monitored_class("Query")
        orphan = MonitoredObject(cls, {}, extra={"id": 1}, source=None)
        with pytest.raises(ActionError, match="no underlying query"):
            CancelAction().execute(sqlcm, None, {"query": orphan}, {})

    def test_cancel_invalid_target_rejected(self, sqlcm):
        with pytest.raises(ActionError, match="Cancel can only target"):
            CancelAction(target="Server").validate(sqlcm, None)

    def test_set_timer_nonpositive_interval_rejected(self, sqlcm):
        with pytest.raises(ActionError, match="interval must be positive"):
            SetTimerAction("t", interval=0.0, repeats=3).validate(sqlcm, None)
        # repeats=0 means "disable": a zero interval is fine there
        SetTimerAction("t", interval=0.0, repeats=0).validate(sqlcm, None)

    def test_enable_unknown_rule_rejected(self, sqlcm):
        with pytest.raises(RuleError, match="ghost"):
            sqlcm.enable_rule("ghost", True)

    def test_remove_unknown_rule_rejected(self, sqlcm):
        with pytest.raises(RuleError, match="ghost"):
            sqlcm.remove_rule("ghost")
