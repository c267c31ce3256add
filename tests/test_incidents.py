"""Incident lifecycle, remediation guardrails, history, investigation."""

from __future__ import annotations

import pytest

from repro import SQLCM, Rule, Statement
from repro.core.actions import CallbackAction
from repro.core.incidents import (ALERT_TABLE, INCIDENT_TABLE,
                                  REMEDIATION_TABLE, SWEEP_TIMER,
                                  CancelBlockerAction, IncidentPolicy,
                                  OpenIncidentAction, QuarantineRuleAction,
                                  ResetLATAction)
from repro.errors import ActionError, IncidentError
from repro.monitoring.investigate import (incident_status, investigate,
                                          render_investigation)


def _manual_policy(**overrides) -> IncidentPolicy:
    """A policy whose sweeps are driven by hand (no timer)."""
    base = dict(escalation_timeout=5.0, clear_after=2.0, sweep_interval=0.0)
    base.update(overrides)
    return IncidentPolicy(**base)


class TestPolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(escalation_timeout=0.0), dict(clear_after=-1.0),
        dict(max_remediations=0), dict(flap_threshold=1),
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(IncidentError):
            _manual_policy(**kwargs)

    def test_manager_is_lazy_and_singleton(self, sqlcm):
        assert not sqlcm.has_incidents
        manager = sqlcm.incident_manager(_manual_policy())
        assert sqlcm.incident_manager() is manager
        assert not sqlcm.has_incidents  # nothing reported yet


class TestLifecycle:
    def test_open_dedup_ack_resolve(self, server, sqlcm):
        manager = sqlcm.incident_manager(_manual_policy())
        first = manager.report("blocking", "row-1", summary="hot row")
        again = manager.report("Blocking", "row-1")  # class is case-blind
        assert again is first
        assert first.occurrences == 2
        assert manager.deduplicated == 1
        manager.ack(first.incident_id)
        with pytest.raises(IncidentError):
            manager.ack(first.incident_id)  # only open -> acked
        manager.resolve(first.incident_id, resolution="fixed")
        assert first.resolved_at is not None
        with pytest.raises(IncidentError):
            manager.resolve(first.incident_id)
        # a later detection of the same key opens a NEW incident
        second = manager.report("blocking", "row-1")
        assert second.incident_id != first.incident_id
        assert [p for _, p, _ in first.timeline] == \
            ["opened", "acked", "resolved"]

    def test_unknown_incident(self, sqlcm):
        manager = sqlcm.incident_manager(_manual_policy())
        with pytest.raises(IncidentError):
            manager.incident(99)

    def test_sweep_escalates_then_auto_resolves(self, server, sqlcm):
        manager = sqlcm.incident_manager(
            _manual_policy(escalation_timeout=1.0, clear_after=3.0))
        incident = manager.report("overload", "governor")
        server.clock.advance(1.5)
        manager.sweep()
        assert incident.escalated and incident.severity == "critical"
        assert manager.escalations == 1
        manager.sweep()  # escalation fires once
        assert manager.escalations == 1
        server.clock.advance(2.0)  # quiet for 3.5s total
        manager.sweep()
        assert incident.state == "resolved"
        assert "quiet" in incident.resolution

    def test_acked_incident_is_not_escalated(self, server, sqlcm):
        manager = sqlcm.incident_manager(
            _manual_policy(escalation_timeout=1.0, clear_after=10.0))
        incident = manager.report("overload", "governor")
        manager.ack(incident.incident_id)
        server.clock.advance(2.0)
        manager.sweep()
        assert not incident.escalated

    def test_sweep_timer_runs_on_virtual_clock(self, server):
        sqlcm = SQLCM(server)
        manager = sqlcm.incident_manager(IncidentPolicy(
            escalation_timeout=10.0, clear_after=1.0, sweep_interval=0.5))
        assert SWEEP_TIMER in sqlcm.rules
        manager.report("blocking", "row-9")
        server.run(until=2.0)
        assert manager.incidents()[0].state == "resolved"

    def test_meta_events_dispatch_when_watched(self, server, sqlcm):
        seen = []
        sqlcm.add_rule(Rule(
            name="iwatch", event="Incident.Update",
            actions=[CallbackAction(
                lambda s, c: seen.append(
                    (c["incident"].get("Phase"),
                     c["incident"].get("Class"))))],
        ))
        sqlcm.add_rule(Rule(
            name="rwatch", event="Remediation.Attempt",
            actions=[CallbackAction(
                lambda s, c: seen.append(
                    (c["remediation"].get("Outcome"),
                     c["remediation"].get("Target"))))],
        ))
        manager = sqlcm.incident_manager(_manual_policy())
        incident = manager.report("blocking", "row-1")
        manager.record_remediation(incident, "CancelBlockerAction",
                                   "query#1", "ok")
        manager.resolve(incident.incident_id)
        assert ("opened", "blocking") in seen
        assert ("ok", "query#1") in seen
        assert ("resolved", "blocking") in seen

    def test_timeline_digest_tracks_lifecycle(self, server, sqlcm):
        manager = sqlcm.incident_manager(_manual_policy())
        base = manager.timeline_digest()
        incident = manager.report("blocking", "row-1")
        after_open = manager.timeline_digest()
        assert after_open != base
        manager.resolve(incident.incident_id)
        assert manager.timeline_digest() != after_open


class TestRemediationGuardrails:
    def test_budget_suppresses_beyond_max(self, server, sqlcm):
        manager = sqlcm.incident_manager(
            _manual_policy(max_remediations=2, remediation_window=10.0))
        incident = manager.report("blocking", "row-1")
        for __ in range(2):
            allowed, _ = manager.remediation_allowed(incident)
            assert allowed
            manager.record_remediation(incident, "X", "t", "failed")
        allowed, reason = manager.remediation_allowed(incident)
        assert not allowed and "budget" in reason
        # suppressed records do not consume budget
        manager.record_remediation(incident, "X", "", "suppressed", reason)
        allowed, _ = manager.remediation_allowed(incident)
        assert not allowed
        # ... and the budget is a ROLLING window
        server.clock.advance(11.0)
        allowed, _ = manager.remediation_allowed(incident)
        assert allowed

    def test_flap_detector(self, server, sqlcm):
        manager = sqlcm.incident_manager(
            _manual_policy(flap_threshold=2, flap_window=60.0))
        for __ in range(2):
            incident = manager.report("blocking", "row-1")
            manager.resolve(incident.incident_id)
        flappy = manager.report("blocking", "row-1")
        allowed, reason = manager.remediation_allowed(flappy)
        assert not allowed and "flapping" in reason
        # a different key is unaffected
        other = manager.report("blocking", "row-2")
        assert manager.remediation_allowed(other)[0]

    def test_remediation_counts_and_metrics(self, server, sqlcm):
        server.enable_observability()
        manager = sqlcm.incident_manager(_manual_policy())
        incident = manager.report("runaway", "q-1")
        manager.record_remediation(incident, "CancelBlockerAction",
                                   "query#1", "ok")
        snap = server.obs.metrics.snapshot()
        assert snap["counters"]["sqlcm.remediation.attempts"] == 1
        assert snap["counters"]["sqlcm.remediation.ok"] == 1
        assert manager.remediation_counts["ok"] == 1


class TestActions:
    def test_open_incident_action_renders_placeholders(self, bank_sqlcm):
        server, sqlcm = bank_sqlcm
        sqlcm.incident_manager(_manual_policy())
        sqlcm.add_rule(Rule(
            name="detect", event="Timer.Alert",
            condition="Timer.Name = 'watch' AND Blocker.Wait_Time >= 0.2",
            actions=[OpenIncidentAction(
                "blocking", "{Blocker.Resource}",
                summary="query#{Blocker.ID} holds {Blocker.Resource}")],
        ))
        sqlcm.set_timer("watch", 0.25, -1)
        writer = server.create_session(user="w")
        writer.submit_script([
            "BEGIN",
            "UPDATE acct SET bal = 0 WHERE id = 1",
            Statement("COMMIT", think_time=1.0),
        ])
        reader = server.create_session(user="r")
        reader.submit_script([
            Statement("SELECT bal FROM acct WHERE id = 1",
                      think_time=0.1),
        ])
        server.run(until=2.0)
        manager = sqlcm.incident_manager()
        assert manager.opened == 1
        incident = manager.incidents()[0]
        assert incident.incident_class == "blocking"
        assert "row" in incident.signature
        assert "holds" in incident.summary

    def test_cancel_blocker_honest_failure_and_event(self, bank_sqlcm):
        """Cancelling a think-time blocker fails; satellite: the outcome
        surfaces as the sqlcm.cancel meta-event + cancel.failed metric."""
        server, sqlcm = bank_sqlcm
        server.enable_observability()
        cancels = []
        server.events.subscribe("sqlcm.cancel",
                                lambda e, p: cancels.append(p))
        sqlcm.incident_manager(_manual_policy())
        sqlcm.add_rule(Rule(
            name="fix", event="Timer.Alert",
            condition="Timer.Name = 'watch' AND Blocker.Wait_Time >= 0.2",
            actions=[CancelBlockerAction("blocking",
                                         "{Blocker.Resource}")],
        ))
        sqlcm.set_timer("watch", 0.25, -1)
        writer = server.create_session(user="w")
        writer.submit_script([
            "BEGIN",
            "UPDATE acct SET bal = 0 WHERE id = 1",
            Statement("COMMIT", think_time=1.0),
        ])
        reader = server.create_session(user="r")
        reader.submit_script([
            Statement("SELECT bal FROM acct WHERE id = 1",
                      think_time=0.1),
        ])
        server.run(until=2.0)
        manager = sqlcm.incident_manager()
        # implicit incident opened by the remediation action itself
        assert manager.opened == 1
        outcomes = {r.outcome for r in manager.remediations()}
        assert "failed" in outcomes
        assert cancels and all(p["ok"] is False for p in cancels)
        snap = server.obs.metrics.snapshot()
        assert snap["counters"]["sqlcm.cancel.failed"] >= 1
        # the blocked reader still finished once the writer committed
        assert reader.results[-1].ok

    def test_quarantine_and_reset_lat_actions(self, server, sqlcm):
        from repro import LATDefinition
        manager = sqlcm.incident_manager(_manual_policy())
        sqlcm.create_lat(LATDefinition(
            name="Hog_LAT", grouping=["Query.ID AS Q"],
            aggregations=["COUNT(Query.ID) AS N"]))
        sqlcm.add_rule(Rule(
            name="hog", event="Query.Commit",
            actions=[CallbackAction(lambda s, c: None)]))
        incident = manager.report("overload", "governor")
        quarantine = QuarantineRuleAction("overload", "governor",
                                          rule_name="hog")
        quarantine.execute(sqlcm, None, {}, None)
        assert sqlcm.health.health_of("hog").quarantined
        # idempotence is honest: second attempt reports failed
        quarantine.execute(sqlcm, None, {}, None)
        reset = ResetLATAction("overload", "governor", lat_name="Hog_LAT")
        reset.execute(sqlcm, None, {}, None)
        outcomes = [r.outcome for r in incident.remediations]
        assert outcomes == ["ok", "failed", "ok"]

    def test_action_validation(self, sqlcm):
        with pytest.raises(ActionError):
            sqlcm.add_rule(Rule(
                name="bad", event="Query.Commit",
                actions=[OpenIncidentAction("", "")]))
        with pytest.raises(ActionError):
            sqlcm.add_rule(Rule(
                name="bad2", event="Query.Commit",
                actions=[QuarantineRuleAction("c", "s", rule_name="")]))
        with pytest.raises(ActionError):
            sqlcm.add_rule(Rule(
                name="bad3", event="Query.Commit",
                actions=[ResetLATAction("c", "s", lat_name="")]))


class TestStreamAlertSink:
    def test_having_alert_opens_incident(self, items_server):
        server = items_server
        sqlcm = SQLCM(server)
        manager = sqlcm.incident_manager(_manual_policy())
        sqlcm.stream_engine().register(
            "STREAM busy FROM Query.Commit WINDOW TUMBLING(1.0) "
            "AGG COUNT(*) AS N HAVING Window.N >= 2")
        session = server.create_session()
        for __ in range(3):
            session.execute("SELECT id FROM items WHERE id = 1")
        server.clock.advance(1.5)
        sqlcm.stream_engine().flush()
        assert manager.opened == 1
        incident = manager.incidents()[0]
        assert incident.incident_class == "stream.having"
        assert incident.signature == "busy"

    def test_window_emissions_do_not_open_incidents(self, items_server):
        server = items_server
        sqlcm = SQLCM(server)
        manager = sqlcm.incident_manager(_manual_policy())
        sqlcm.stream_engine().register(
            "STREAM routine FROM Query.Commit WINDOW TUMBLING(1.0) "
            "AGG COUNT(*) AS N")
        session = server.create_session()
        session.execute("SELECT id FROM items WHERE id = 1")
        server.clock.advance(1.5)
        sqlcm.stream_engine().flush()
        assert manager.opened == 0
        # ... but routine window rows still land in the alert history
        assert server.catalog.has_table(ALERT_TABLE)


class TestHistoryAndInvestigation:
    def test_history_tables_record_lifecycle(self, server, sqlcm):
        manager = sqlcm.incident_manager(_manual_policy())
        incident = manager.report("blocking", "row-1", summary="s")
        manager.record_remediation(incident, "CancelBlockerAction",
                                   "query#7", "failed", "finished")
        manager.resolve(incident.incident_id)
        phases = [row[3] for __, row in
                  server.table(INCIDENT_TABLE).scan()]
        assert phases == ["opened", "resolved"]
        remediation_rows = list(server.table(REMEDIATION_TABLE).scan())
        assert len(remediation_rows) == 1
        assert remediation_rows[0][1][5] == "failed"

    def test_history_disabled(self, server, sqlcm):
        manager = sqlcm.incident_manager(_manual_policy(history=False))
        manager.report("blocking", "row-1")
        assert not server.catalog.has_table(INCIDENT_TABLE)

    def test_investigate_assembles_window(self, server, sqlcm):
        manager = sqlcm.incident_manager(_manual_policy())
        incident = manager.report("blocking", "row-1", summary="hot")
        manager.record_remediation(incident, "CancelBlockerAction",
                                   "query#1", "ok")
        server.clock.advance(0.5)
        manager.report("runaway", "q-9")  # a neighbour
        server.clock.advance(0.5)
        manager.resolve(incident.incident_id)
        report = investigate(sqlcm, incident.incident_id, window=2.0)
        assert report["incident"]["class"] == "blocking"
        assert [p for __, p, __ in report["timeline"]] == \
            ["opened", "remediation:ok", "resolved"]
        assert len(report["remediations"]) == 1
        assert any(n["incident_class"] == "runaway"
                   for n in report["neighbours"])
        text = render_investigation(report)
        assert "INCIDENT #1" in text and "remediation attempts:" in text
        with pytest.raises(IncidentError):
            investigate(sqlcm, 123)

    def test_investigation_charges_monitor_cost(self, server, sqlcm):
        manager = sqlcm.incident_manager(_manual_policy())
        incident = manager.report("blocking", "row-1")
        before = server.monitor_cost_total
        investigate(sqlcm, incident.incident_id)
        assert server.monitor_cost_total > before

    def test_incident_report_section(self, server, sqlcm):
        from repro.monitoring.report import full_report
        assert "INCIDENTS" not in full_report(server, sqlcm)
        manager = sqlcm.incident_manager(_manual_policy())
        incident = manager.report("blocking", "row-1")
        manager.record_remediation(incident, "X", "t", "ok")
        text = incident_status(sqlcm)
        assert "#1 [open] blocking/row-1" in text
        assert "ok=1" in text
        assert "INCIDENTS" in full_report(server, sqlcm)


class TestDeadLetterMetric:
    def test_dropped_entries_surface_as_gauge(self, items_server):
        """Satellite: DeadLetterJournal.dropped is visible in .metrics."""
        from repro import RunExternalAction
        from repro.core.resilience import DeadLetterJournal
        server = items_server
        server.enable_observability()
        sqlcm = SQLCM(server)
        sqlcm.dead_letters = DeadLetterJournal(capacity=1)
        sqlcm.external_handler = lambda cmd: (_ for _ in ()).throw(
            ConnectionError("sink down"))
        sqlcm.add_rule(Rule(name="notify", event="Query.Commit",
                            actions=[RunExternalAction("ping {Query.ID}")]))
        session = server.create_session()
        for __ in range(2):
            session.execute("SELECT price FROM items WHERE id = 1")
        assert sqlcm.dead_letters.dropped == 1
        snap = server.obs.metrics.snapshot()
        assert snap["gauges"]["sqlcm.deadletter.dropped"] == 1


class TestCLI:
    def _shell(self):
        import io
        from repro.cli import Shell
        out = io.StringIO()
        return Shell(out=out), out

    def test_incidents_and_investigate_commands(self):
        shell, out = self._shell()
        shell.execute_line(".incidents")
        assert "no incidents" in out.getvalue()
        manager = shell.sqlcm.incident_manager(_manual_policy())
        incident = manager.report("blocking", "row-1", summary="hot")
        manager.record_remediation(incident, "CancelBlockerAction",
                                   "query#1", "failed", "finished")
        shell.execute_line(".incidents")
        shell.execute_line(".incidents 1")
        shell.execute_line(".investigate 1")
        text = out.getvalue()
        assert "blocking/row-1" in text
        assert "remediation:failed" in text
        assert "INCIDENT #1" in text
        shell.execute_line(".investigate 99")
        assert "error: unknown incident" in out.getvalue()

    def test_monitor_remediate_installs(self):
        shell, out = self._shell()
        shell.execute_line(".monitor remediate")
        assert "auto-remediation installed" in out.getvalue()
        assert any(r.startswith("remediation_sweep")
                   for r in shell.sqlcm.rules)


@pytest.fixture
def bank_sqlcm(server):
    """Bank table + SQLCM, for blocking-based incident tests."""
    server.execute_ddl(
        "CREATE TABLE acct (id INT NOT NULL PRIMARY KEY, bal FLOAT)")
    server.create_session().execute(
        "INSERT INTO acct VALUES (1, 100.0), (2, 200.0)")
    return server, SQLCM(server)
