"""Example 2: detecting poor blocking behaviour.

For each statement template, track the *total* delay it imposed on other
statements by blocking them on lock resources.  The rule triggers on lock
release (``Query.Block_Released``); the ``Blocker``/``Blocked`` pair
objects carry the wait time, which a SUM-aggregating LAT accumulates per
blocker signature — the paper's Example 2 verbatim.
"""

from __future__ import annotations

from repro.core import InsertAction, LATDefinition, Rule, SQLCM


class BlockingAnalyzer:
    """Tracks total blocking delay caused, grouped by blocker template."""

    def __init__(self, sqlcm: SQLCM, *, lat_name: str = "Block_LAT",
                 max_templates: int = 100):
        self.sqlcm = sqlcm
        self.lat_name = lat_name
        self.lat = sqlcm.create_lat(LATDefinition(
            name=lat_name,
            monitored_class="Blocker",
            grouping=["Blocker.Logical_Signature AS Sig"],
            aggregations=[
                "SUM(Blocker.Wait_Time) AS Total_Block_Delay",
                "COUNT(Blocker.ID) AS Conflicts",
                "FIRST(Blocker.Query_Text) AS Sample_Text",
                "MAX(Blocker.Wait_Time) AS Worst_Single_Delay",
            ],
            ordering=["Total_Block_Delay DESC"],
            max_rows=max_templates,
        ))
        self.rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_accumulate",
            event="Query.Block_Released",
            actions=[InsertAction(lat_name)],
        ))

    def worst_blockers(self, k: int = 10) -> list[dict]:
        """Templates ordered by total delay imposed (the DBA's report)."""
        return self.lat.rows()[:k]
