"""Example 4: auditing / summarizing system usage.

Summaries are collected *synchronously* with query execution (template
frequencies, average/max durations per application and user) and persisted
*asynchronously* by a Timer rule — the paper's combination of
Query.Commit-driven LAT inserts with a periodic ``Timer.Alert`` →
``Persist`` + ``Reset`` rule (e.g. every 24 virtual hours).
"""

from __future__ import annotations

from repro.core import (InsertAction, LATDefinition, PersistAction,
                        ResetAction, Rule, SQLCM)


class LoginAuditor:
    """Example 4(b): "detecting potentially unauthorized access attempts,
    e.g., number of login failures for each user".

    A LAT counts failed logins per user; a rule alerts the DBA once a
    user's failures cross a threshold within the aging window.
    """

    def __init__(self, sqlcm: SQLCM, *, alert_threshold: int = 3,
                 window: float = 3600.0,
                 lat_name: str = "LoginFailure_LAT",
                 dba_address: str = "dba@example.com"):
        from repro.core import AggSpec, AgingSpec, Rule, SendMailAction
        from repro.core import InsertAction as _Insert

        self.sqlcm = sqlcm
        self.lat_name = lat_name
        self.lat = sqlcm.create_lat(LATDefinition(
            name=lat_name,
            monitored_class="Session",
            grouping=["Session.User AS Login"],
            aggregations=[
                AggSpec("COUNT", "ID", "Failures",
                        aging=AgingSpec(window=window, delta=window / 60)),
                "MAX(Session.Login_Time) AS Last_Attempt",
            ],
            ordering=["Failures DESC"],
            max_rows=1000,
        ))
        self.track_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_track",
            event="Session.Login_Failed",
            actions=[_Insert(lat_name)],
        ))
        self.alert_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_alert",
            event="Session.Login_Failed",
            condition=f"{lat_name}.Failures >= {alert_threshold}",
            actions=[SendMailAction(
                "repeated login failures for user {Session.User}",
                dba_address,
            )],
        ))

    def failures(self) -> list[dict]:
        """Per-user failure counts within the window, worst first."""
        return self.lat.rows()

    def alerts(self) -> list:
        """Mails sent by the alert rule."""
        return [m for m in self.sqlcm.outbox
                if "login failures" in m.body]


class UsageAuditor:
    """Per-template and per-user usage summaries, flushed periodically."""

    def __init__(self, sqlcm: SQLCM, *, period: float = 86_400.0,
                 report_table: str = "usage_report",
                 user_table: str = "user_activity_report",
                 lat_name: str = "Usage_LAT",
                 user_lat_name: str = "UserUsage_LAT",
                 max_templates: int = 500,
                 timer_name: str = "audit_flush"):
        self.sqlcm = sqlcm
        self.report_table = report_table
        self.user_table = user_table
        self.lat_name = lat_name
        self.user_lat_name = user_lat_name

        # template summaries: frequency, avg/max duration per template
        self.template_lat = sqlcm.create_lat(LATDefinition(
            name=lat_name,
            monitored_class="Query",
            grouping=[
                "Query.Logical_Signature AS Sig",
                "Query.Application AS App",
            ],
            aggregations=[
                "COUNT(Query.ID) AS Frequency",
                "AVG(Query.Duration) AS Avg_Duration",
                "MAX(Query.Duration) AS Max_Duration",
                "FIRST(Query.Query_Text) AS Sample_Text",
            ],
            ordering=["Frequency DESC"],
            max_rows=max_templates,
        ))
        # per-user activity (service-level-agreement style accounting)
        self.user_lat = sqlcm.create_lat(LATDefinition(
            name=user_lat_name,
            monitored_class="Query",
            grouping=["Query.User AS Login"],
            aggregations=[
                "COUNT(Query.ID) AS Queries",
                "SUM(Query.Duration) AS Total_Time",
                "MAX(Query.Duration) AS Max_Duration",
            ],
            ordering=["Total_Time DESC"],
            max_rows=max_templates,
        ))
        self.collect_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_collect",
            event="Query.Commit",
            actions=[InsertAction(lat_name), InsertAction(user_lat_name)],
        ))
        self.flush_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_flush",
            event="Timer.Alert",
            condition=f"Timer.Name = '{timer_name}'",
            actions=[
                PersistAction(report_table, source=lat_name),
                PersistAction(user_table, source=user_lat_name),
                ResetAction(lat_name),
                ResetAction(user_lat_name),
            ],
        ))
        self.timer = sqlcm.set_timer(timer_name, period, repeats=-1)

    def reports(self) -> list[dict]:
        """Flushed template summaries (one batch per timer period)."""
        server = self.sqlcm.server
        if not server.catalog.has_table(self.report_table):
            return []
        table = server.table(self.report_table)
        columns = table.schema.column_names
        return [dict(zip(columns, row)) for __, row in table.scan()]

    def user_reports(self) -> list[dict]:
        server = self.sqlcm.server
        if not server.catalog.has_table(self.user_table):
            return []
        table = server.table(self.user_table)
        columns = table.schema.column_names
        return [dict(zip(columns, row)) for __, row in table.scan()]
