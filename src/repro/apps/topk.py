"""Example 3: the k most expensive queries.

A LAT limited to k rows ordered by duration holds the top-k at all times;
a single rule inserts every committed query.  The LAT is keyed by query id
(every query its own row) so eviction keeps exactly the k largest — the
setup used by the paper's Figure 3 "SQLCM" approach.
"""

from __future__ import annotations

from repro.core import InsertAction, LATDefinition, PersistAction, Rule, SQLCM


class TopKTracker:
    """Maintains the k most expensive queries seen."""

    def __init__(self, sqlcm: SQLCM, *, k: int = 10,
                 lat_name: str = "TopK_LAT"):
        self.sqlcm = sqlcm
        self.k = k
        self.lat_name = lat_name
        self.lat = sqlcm.create_lat(LATDefinition(
            name=lat_name,
            monitored_class="Query",
            grouping=["Query.ID AS Query_Id"],
            aggregations=[
                "MAX(Query.Duration) AS Duration",
                "FIRST(Query.Query_Text) AS Query_Text",
                "FIRST(Query.Start_Time) AS Start_Time",
            ],
            ordering=["Duration DESC"],
            max_rows=k,
        ))
        self.rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_insert",
            event="Query.Commit",
            actions=[InsertAction(lat_name)],
        ))

    def top_k(self, k: int | None = None) -> list[tuple[int, str, float]]:
        """(query_id, text, duration), most expensive first.

        ``k`` defaults to the tracker's configured k (the LAT never holds
        more rows than that anyway); a smaller ``k`` trims the answer.
        """
        rows = self.lat.rows()
        if k is not None:
            rows = rows[:k]
        return [
            (row["Query_Id"], row["Query_Text"], row["Duration"])
            for row in rows
        ]
