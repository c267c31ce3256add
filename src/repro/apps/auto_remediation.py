"""Closed-loop auto-remediation: detection rules wired to guarded fixes.

The paper's examples *detect* operational trouble (blocking, runaway
queries) and at most cancel one query.  :class:`AutoRemediator` composes
the incident subsystem (:mod:`repro.core.incidents`) into a ready-made
monitoring application that closes the loop:

* a sweep timer samples the lock graph; a blocker holding others up longer
  than ``block_wait_threshold`` opens a ``blocking`` incident keyed by the
  hot resource, and (optionally) a :class:`CancelBlockerAction` kills it;
* the same timer checks running statements against ``runaway_threshold``
  and cancels offenders (``runaway`` incidents keyed per query);
* with ``watch_governor``, every overload-governor *escalate* transition
  opens an ``overload`` incident, optionally quarantining a named rule and
  resetting a named LAT (take the misbehaving component out, drop its
  state);
* with ``deadlock_window``, a tumbling-window stream query counts
  rollbacks; crossings open ``deadlock`` incidents through the incident
  manager's stream-alert sink.

Every fix runs under the manager's remediation budget and flap detector,
so a fix that does not stick degrades to ``suppressed`` records (a page to
the DBA), never a cancel storm.  All rules are ``critical``: remediation
must survive governor degradation.
"""

from __future__ import annotations

from repro.core import Rule, SQLCM
from repro.core.incidents import (CancelBlockerAction, IncidentPolicy,
                                  OpenIncidentAction, QuarantineRuleAction,
                                  ResetLATAction)


class AutoRemediator:
    """Detection rules + guarded remediation actions, as one application."""

    def __init__(self, sqlcm: SQLCM, *,
                 sweep_interval: float = 0.25,
                 block_wait_threshold: float = 0.5,
                 cancel_blockers: bool = True,
                 runaway_threshold: float | None = None,
                 watch_governor: bool = False,
                 quarantine_rule: str | None = None,
                 reset_lat: str | None = None,
                 deadlock_window: float = 0.0,
                 deadlock_threshold: int = 2,
                 policy: IncidentPolicy | None = None,
                 timer_name: str = "remediation_sweep"):
        self.sqlcm = sqlcm
        self.manager = sqlcm.incident_manager(policy)
        self.timer_name = timer_name

        blocking_actions = [OpenIncidentAction(
            "blocking", "{Blocker.Resource}",
            summary="query#{Blocker.ID} held {Blocker.Resource} for "
                    "{Blocker.Wait_Time}s blocking query#{Blocked.ID}")]
        if cancel_blockers:
            blocking_actions.append(CancelBlockerAction(
                "blocking", "{Blocker.Resource}"))
        sqlcm.add_rule(Rule(
            name=f"{timer_name}_blocking",
            event="Timer.Alert",
            condition=(f"Timer.Name = '{timer_name}' AND "
                       f"Blocker.Wait_Time >= {block_wait_threshold:g}"),
            actions=blocking_actions,
            criticality="critical",
        ))

        if runaway_threshold is not None:
            sqlcm.add_rule(Rule(
                name=f"{timer_name}_runaway",
                event="Timer.Alert",
                condition=(f"Timer.Name = '{timer_name}' AND "
                           f"Query.Duration >= {runaway_threshold:g}"),
                actions=[
                    OpenIncidentAction(
                        "runaway", "query-{Query.ID}", severity="critical",
                        summary="query#{Query.ID} running for "
                                "{Query.Duration}s (> "
                                f"{runaway_threshold:g}s)"),
                    CancelBlockerAction("runaway", "query-{Query.ID}",
                                        target="Query"),
                ],
                criticality="critical",
            ))

        if watch_governor:
            governor_actions = [OpenIncidentAction(
                "overload", "governor", severity="critical",
                summary="governor escalated {Governor.From_State} -> "
                        "{Governor.To_State} at overhead "
                        "{Governor.Overhead_Ratio}")]
            if quarantine_rule is not None:
                governor_actions.append(QuarantineRuleAction(
                    "overload", "governor", rule_name=quarantine_rule))
            if reset_lat is not None:
                governor_actions.append(ResetLATAction(
                    "overload", "governor", lat_name=reset_lat))
            sqlcm.add_rule(Rule(
                name=f"{timer_name}_overload",
                event="Governor.Transition",
                condition="Governor.Reason = 'escalate'",
                actions=governor_actions,
                criticality="critical",
            ))

        if deadlock_window > 0:
            sqlcm.stream_engine().register(
                f"STREAM {timer_name}_deadlocks FROM Query.Rollback "
                f"WINDOW TUMBLING({deadlock_window:g}) "
                f"AGG COUNT(*) AS Rollbacks "
                f"HAVING Window.Rollbacks >= {deadlock_threshold}")

        self.timer = sqlcm.set_timer(timer_name, sweep_interval, -1)
