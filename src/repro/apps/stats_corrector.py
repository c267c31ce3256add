"""Statistics-drift correction (paper Sections 2.1 and 7).

The paper highlights that a server-centric monitor "enables the possibility
of taking actions based on monitoring that can allow the server to
dynamically adjust its behavior without DBA intervention (e.g. ...
automatically correcting database statistics)".

This application watches, per query template, how far the optimizer's
cardinality estimate drifts from the rows actually produced.  When a
template's average misestimation factor crosses a threshold over enough
instances, it fires a ``RunExternal`` action (the paper's mechanism for
kicking off maintenance work) requesting a statistics refresh for that
template, and optionally invokes a live callback that refreshes the
engine's statistics.
"""

from __future__ import annotations

from repro.core import (InsertAction, LATDefinition, Rule, RunExternalAction,
                        SQLCM)
from repro.core.actions import CallbackAction


class StatsCorrector:
    """Detects cardinality-estimate drift and requests stats refreshes."""

    def __init__(self, sqlcm: SQLCM, *, drift_factor: float = 10.0,
                 min_instances: int = 10,
                 lat_name: str = "CardDrift_LAT",
                 refresh_callback=None):
        self.sqlcm = sqlcm
        self.lat_name = lat_name
        self.drift_factor = drift_factor
        self.refresh_requests: list[str] = []
        self._refresh_callback = refresh_callback

        self.lat = sqlcm.create_lat(LATDefinition(
            name=lat_name,
            monitored_class="Query",
            grouping=["Query.Logical_Signature AS Sig"],
            aggregations=[
                "AVG(Query.Estimated_Rows) AS Avg_Estimated",
                "AVG(Query.Actual_Rows) AS Avg_Actual",
                "COUNT(Query.ID) AS Instances",
                "FIRST(Query.Query_Text) AS Sample_Text",
            ],
            ordering=["Instances DESC"],
            max_rows=500,
        ))
        self.track_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_track",
            event="Query.Commit",
            condition="Query.Query_Type = 'SELECT'",
            actions=[InsertAction(lat_name)],
        ))
        # drift in either direction: estimate ≫ actual or actual ≫ estimate
        self.alert_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_refresh",
            event="Query.Commit",
            condition=(
                f"{lat_name}.Instances >= {min_instances} AND ("
                f"({lat_name}.Avg_Estimated > {drift_factor} * "
                f"{lat_name}.Avg_Actual AND {lat_name}.Avg_Estimated > 5) "
                f"OR ({lat_name}.Avg_Actual > {drift_factor} * "
                f"{lat_name}.Avg_Estimated AND {lat_name}.Avg_Actual > 5))"
            ),
            actions=[
                RunExternalAction(
                    "update-statistics --template {Query.Query_Text}"),
                CallbackAction(self._on_drift, required=("Query",)),
            ],
        ))

    def _on_drift(self, sqlcm: SQLCM, context) -> None:
        query = context["query"]
        text = query.get("Query_Text")
        self.refresh_requests.append(text)
        if self._refresh_callback is not None:
            self._refresh_callback(text)
        # one refresh request per template: drop its row so the drift
        # condition re-arms only after fresh evidence accumulates
        self.lat.delete_row(self.lat.key_of(context["query"]))

    def remove(self) -> None:
        self.sqlcm.remove_rule(self.track_rule.name)
        self.sqlcm.remove_rule(self.alert_rule.name)
        self.sqlcm.drop_lat(self.lat_name)
