"""Example 5: resource governing.

Two policies from the paper, both enabled by SQLCM living *inside* the
server (actions can adjust server behaviour without DBA intervention):

* **Runaway queries** — a watchdog timer cancels any active query whose
  duration (or whose time spent blocked) exceeds a budget.
* **Per-user MPL limits** — on every ``Query.Start``, if the user already
  has ``max_concurrent`` queries running, the new query is cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import CancelAction, LATDefinition, Rule, SQLCM
from repro.core.actions import CallbackAction


@dataclass
class GovernorStats:
    runaway_cancelled: int = 0
    mpl_rejected: int = 0
    rejected_users: dict[str, int] = field(default_factory=dict)


class ResourceGovernor:
    """Runaway-query cancellation plus per-user concurrency limits."""

    def __init__(self, sqlcm: SQLCM, *,
                 runaway_budget: float | None = 30.0,
                 watchdog_interval: float = 1.0,
                 max_concurrent: int | None = None,
                 exempt_users: tuple[str, ...] = ("dbo",),
                 timer_name: str = "governor_watchdog"):
        self.sqlcm = sqlcm
        self.stats = GovernorStats()
        self.max_concurrent = max_concurrent
        self.exempt_users = set(exempt_users)
        self.runaway_rule = None
        self.mpl_rule = None

        if runaway_budget is not None:
            self.runaway_rule = sqlcm.add_rule(Rule(
                name="governor_runaway",
                event="Timer.Alert",
                condition=(
                    f"Timer.Name = '{timer_name}' AND "
                    f"Query.Duration > {runaway_budget}"
                ),
                actions=[
                    CallbackAction(self._count_runaway, required=("Query",)),
                    CancelAction(target="Query"),
                ],
            ))
            sqlcm.set_timer(timer_name, watchdog_interval, repeats=-1)

        if max_concurrent is not None:
            self.mpl_rule = sqlcm.add_rule(Rule(
                name="governor_mpl",
                event="Query.Start",
                actions=[CallbackAction(self._enforce_mpl,
                                        required=("Query",))],
            ))

    # -- policy callbacks -----------------------------------------------------

    def _count_runaway(self, sqlcm: SQLCM, context) -> None:
        self.stats.runaway_cancelled += 1

    def _enforce_mpl(self, sqlcm: SQLCM, context) -> None:
        query = context["query"]
        user = query.get("User")
        if user in self.exempt_users:
            return
        qctx = query.source
        active_same_user = [
            q for q in sqlcm.server.active_queries()
            if q.user == user and q.query_id != qctx.query_id
            and not q.cancel_requested
        ]
        if len(active_same_user) >= self.max_concurrent:
            sqlcm.server.cancel_query(qctx)
            self.stats.mpl_rejected += 1
            self.stats.rejected_users[user] = \
                self.stats.rejected_users.get(user, 0) + 1


class AdaptiveMPLGovernor:
    """Example 5(c): "adjusting the multi-programming level (MPL)
    dynamically based on the monitored resource consumption".

    A control loop on a timer: an aging LAT tracks recent blocking delay;
    when blocking grows past a high-water mark the per-user MPL limit is
    tightened, and when the system runs smoothly it is relaxed — all from
    inside the server, without DBA intervention.
    """

    def __init__(self, sqlcm: SQLCM, *, initial_mpl: int = 8,
                 min_mpl: int = 1, max_mpl: int = 32,
                 high_blocking: float = 1.0, low_blocking: float = 0.1,
                 control_interval: float = 5.0,
                 window: float = 30.0,
                 lat_name: str = "MPL_Blocking_LAT",
                 exempt_users: tuple[str, ...] = ("dbo",)):
        from repro.core import AggSpec, AgingSpec, InsertAction
        from repro.core.aggregates import AgingSpec as _AgingSpec

        self.sqlcm = sqlcm
        self.mpl = initial_mpl
        self.min_mpl = min_mpl
        self.max_mpl = max_mpl
        self.high_blocking = high_blocking
        self.low_blocking = low_blocking
        self.lat_name = lat_name
        self.exempt_users = set(exempt_users)
        self.adjustments: list[tuple[float, int]] = []
        self.mpl_rejected = 0

        # one aging SUM of all blocking delay seen recently (single group)
        self.lat = sqlcm.create_lat(LATDefinition(
            name=lat_name,
            monitored_class="Blocked",
            grouping=["Blocked.Query_Type AS Bucket"],
            aggregations=[AggSpec(
                "SUM", "Wait_Time", "Recent_Delay",
                aging=_AgingSpec(window=window, delta=window / 10),
            )],
        ))
        self.track_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_track",
            event="Query.Block_Released",
            actions=[InsertAction(lat_name)],
        ))
        self.control_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_control",
            event="Timer.Alert",
            condition=f"Timer.Name = '{lat_name}_timer'",
            actions=[CallbackAction(self._control_step)],
        ))
        self.mpl_rule = sqlcm.add_rule(Rule(
            name=f"{lat_name}_enforce",
            event="Query.Start",
            actions=[CallbackAction(self._enforce, required=("Query",))],
        ))
        sqlcm.set_timer(f"{lat_name}_timer", control_interval, repeats=-1)

    def _recent_delay(self) -> float:
        total = 0.0
        for row in self.lat.rows():
            value = row.get("Recent_Delay")
            if value:
                total += value
        return total

    def _control_step(self, sqlcm: SQLCM, context) -> None:
        delay = self._recent_delay()
        new_mpl = self.mpl
        if delay > self.high_blocking:
            new_mpl = max(self.min_mpl, self.mpl - 1)
        elif delay < self.low_blocking:
            new_mpl = min(self.max_mpl, self.mpl + 1)
        if new_mpl != self.mpl:
            self.mpl = new_mpl
            self.adjustments.append((sqlcm.server.clock.now, new_mpl))

    def _enforce(self, sqlcm: SQLCM, context) -> None:
        query = context["query"]
        if query.get("User") in self.exempt_users:
            return
        qctx = query.source
        active = [
            q for q in sqlcm.server.active_queries()
            if q.query_id != qctx.query_id and not q.cancel_requested
            and q.user not in self.exempt_users
        ]
        if len(active) >= self.mpl:
            sqlcm.server.cancel_query(qctx)
            self.mpl_rejected += 1
