"""Example 1: detecting outlier instances of a query template.

Maintains a per-logical-signature LAT of average durations; any instance
running more than ``factor`` times slower than its template's average is
persisted to an outlier table — exactly the rule spelled out in
Sections 4.3 and 5.2 of the paper:

    Event:     Query.Commit
    Condition: Query.Duration > 5 * Duration_LAT.Avg_Duration
    Action:    Query.Persist(TableName, ...)

The tracking rule is registered *after* the outlier rule so a fresh
instance is compared against the average of *earlier* instances, then
folded in.
"""

from __future__ import annotations

from repro.core import (InsertAction, LATDefinition, PersistAction, Rule,
                        SQLCM)


class OutlierDetector:
    """Detects query instances much slower than their template average."""

    def __init__(self, sqlcm: SQLCM, *, factor: float = 5.0,
                 min_instances: int = 5,
                 lat_name: str = "Duration_LAT",
                 outlier_table: str = "outlier_log",
                 max_templates: int = 100):
        self.sqlcm = sqlcm
        self.factor = factor
        self.lat_name = lat_name
        self.outlier_table = outlier_table
        self.lat = sqlcm.create_lat(LATDefinition(
            name=lat_name,
            monitored_class="Query",
            grouping=["Query.Logical_Signature AS Sig"],
            aggregations=[
                "AVG(Query.Duration) AS Avg_Duration",
                "COUNT(Query.ID) AS Instances",
                "FIRST(Query.Query_Text) AS Sample_Text",
            ],
            ordering=["Avg_Duration DESC"],
            max_rows=max_templates,
        ))
        self.outlier_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_outliers",
            event="Query.Commit",
            condition=(
                f"Query.Duration > {factor} * {lat_name}.Avg_Duration "
                f"AND {lat_name}.Instances >= {min_instances}"
            ),
            actions=[PersistAction(
                self.outlier_table,
                ["ID", "Query_Text", "Duration", "Start_Time", "User",
                 "Application"],
                source="Query",
            )],
        ))
        self.track_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_track",
            event="Query.Commit",
            actions=[InsertAction(lat_name)],
        ))

    def outliers(self) -> list[dict]:
        """Rows persisted to the outlier table so far."""
        server = self.sqlcm.server
        if not server.catalog.has_table(self.outlier_table):
            return []
        table = server.table(self.outlier_table)
        columns = table.schema.column_names
        return [dict(zip(columns, row)) for __, row in table.scan()]


class StreamOutlierDetector:
    """Stream-query variant of :class:`OutlierDetector`.

    Instead of an ECA rule comparing each instance against a LAT average,
    one continuous query keeps a sliding per-signature window of average
    durations and flags windows deviating more than ``k`` standard
    deviations from the signature's moving baseline:

        STREAM <name>
        FROM Query.Commit
        GROUP BY Query.Logical_Signature AS Sig
        WINDOW SLIDING(length, hop)
        AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS Instances
        ANOMALY DEVIATION(Avg_D, k, history)

    The two detectors look for the same phenomenon with complementary
    granularity: the rule flags individual slow *instances*, the stream
    flags windows whose *average* shifted — a sustained slowdown fires the
    stream even when no single instance crosses the rule's factor.
    """

    def __init__(self, sqlcm: SQLCM, *, k: float = 3.0,
                 window: float = 10.0, hop: float = 1.0,
                 history: int = 8, name: str = "duration_outliers"):
        self.sqlcm = sqlcm
        self.name = name
        self.query = sqlcm.stream_engine().register(
            f"STREAM {name} FROM Query.Commit "
            f"GROUP BY Query.Logical_Signature AS Sig "
            f"WINDOW SLIDING({window:g}, {hop:g}) "
            f"AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS Instances "
            f"ANOMALY DEVIATION(Avg_D, {k:g}, {history})")

    def outliers(self) -> list[dict]:
        """Deviation alerts so far (drains trailing windows first)."""
        self.sqlcm.stream_engine().flush()
        return list(self.query.alerts)
