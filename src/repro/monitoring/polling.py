"""Polling baselines: PULL (lossy snapshots) and PULL_history (drained log).

Both run against any :class:`~repro.drivers.base.ProbeDriver` (or a bare
:class:`~repro.engine.server.DatabaseServer`, wrapped transparently).  On
a virtual-clock backend they are scheduler processes that wake every
``interval`` virtual seconds, and their server-side work (building the
snapshot, shipping rows) is charged to the server's monitor-cost pool, so
it lands in the workload's timeline exactly as a busy server would
experience it.  On an external backend (sqlite) there is no scheduler to
ride; the poller registers a driver tick listener and fires whenever
backend time crosses the next poll deadline — the cost charge then stays
an estimate in the sidecar host's ledger (``in_engine_cost=False``).

PULL observes only *currently active* queries and only their *elapsed so
far* time — queries that start and finish between polls are missed
entirely, and long queries are under-estimated unless a poll lands near
their end.  This is the accuracy loss the paper quantifies.

PULL_history is exact (the server records every completion), but the
history buffer occupies server memory until the next poll drains it; at
low polling rates this evicts buffer-pool pages and slows query processing
— the paper's "storing the historical state requires significant memory,
in turn degrading the server's ability to cache pages".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.drivers.base import resolve
from repro.sim.scheduler import Delay


@dataclass
class ObservedQuery:
    """Client-side record of a query seen in one or more PULL snapshots."""

    query_id: int
    text: str
    best_elapsed: float  # largest elapsed time observed (≤ true duration)
    samples: int = 1


class PullMonitor:
    """Snapshot polling of currently active queries (paper approach (b))."""

    def __init__(self, server, interval: float, name: str = "pull"):
        if interval <= 0:
            raise ValueError("polling interval must be positive")
        self.driver = resolve(server)
        self.server = self.driver.host
        self.interval = interval
        self.name = name
        self.observed: dict[int, ObservedQuery] = {}
        self.poll_count = 0
        self.last_poll_cost = 0.0
        self._process = None
        self._next_due = 0.0
        self._started = False
        self._stopped = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("monitor already started")
        self._started = True
        if self.driver.capabilities().virtual_clock:
            self._process = self.server.scheduler.spawn(
                f"monitor-{self.name}", self._poll_loop()
            )
        else:
            self._next_due = self.driver.now() + self.interval
            self.driver.add_tick_listener(self._on_tick)

    def stop(self) -> None:
        self._stopped = True

    def _poll_loop(self) -> Iterator:
        while not self._stopped:
            yield Delay(self.interval)
            if self._stopped:
                return
            self.poll()
            # the poller cannot start its next interval until the snapshot
            # round trip finished — polls are self-limiting
            yield Delay(self.last_poll_cost)

    def _on_tick(self, now: float) -> None:
        if self._stopped:
            return
        while now >= self._next_due:
            self.poll()
            # same self-limiting contract as the scheduler loop: the
            # next interval starts after the snapshot round trip
            self._next_due += self.interval + self.last_poll_cost

    def poll(self) -> int:
        """Take one snapshot; returns the number of active queries seen."""
        costs = self.server.costs
        active = self.driver.active_queries()
        # the snapshot is built by the server and shipped to the client;
        # its server-side work delays the running workload
        self.last_poll_cost = (
            costs.poll_snapshot_base
            + costs.poll_per_active_query * len(active)
            + costs.network_per_row * len(active)
        )
        self.server.add_monitor_cost(self.last_poll_cost)
        now = self.driver.now()
        for qctx in active:
            elapsed = qctx.duration_at(now)
            seen = self.observed.get(qctx.query_id)
            if seen is None:
                self.observed[qctx.query_id] = ObservedQuery(
                    qctx.query_id, qctx.text, elapsed
                )
            else:
                seen.best_elapsed = max(seen.best_elapsed, elapsed)
                seen.samples += 1
        self.poll_count += 1
        return len(active)

    def top_k(self, k: int) -> list[tuple[int, str, float]]:
        """Client-side filtering: the k largest *observed* elapsed times."""
        ranked = sorted(self.observed.values(),
                        key=lambda o: o.best_elapsed, reverse=True)
        return [(o.query_id, o.text, o.best_elapsed) for o in ranked[:k]]


class PullHistoryMonitor:
    """Server-kept completion history drained by a poller (approach (c))."""

    _MEMORY_TAG_PREFIX = "pull_history:"

    def __init__(self, server, interval: float, name: str = "pull_history"):
        if interval <= 0:
            raise ValueError("polling interval must be positive")
        self.driver = resolve(server)
        self.server = self.driver.host
        self.interval = interval
        self.name = name
        self._history: list[tuple[int, str, float]] = []
        self.collected: list[tuple[int, str, float]] = []
        self.poll_count = 0
        self.last_poll_cost = 0.0
        self.peak_history_rows = 0
        self._process = None
        self._next_due = 0.0
        self._started = False
        self._stopped = False
        self._attached = False
        self.attach()

    # -- server-side recording ------------------------------------------------

    def attach(self) -> None:
        if not self._attached:
            self.server.events.subscribe("query.commit", self._on_commit)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.server.events.unsubscribe("query.commit", self._on_commit)
            self._attached = False
        self._release_memory()

    def _on_commit(self, event: str, payload: dict) -> None:
        qctx = payload["query"]
        self._history.append((
            qctx.query_id, qctx.text,
            qctx.duration_at(self.server.clock.now),
        ))
        self.peak_history_rows = max(self.peak_history_rows,
                                     len(self._history))
        self._reserve_memory()

    def _reserve_memory(self) -> None:
        pages = -(-len(self._history) // self.server.costs.history_rows_per_page)
        self.server.reserve_memory_pages(
            self._MEMORY_TAG_PREFIX + self.name, pages
        )

    def _release_memory(self) -> None:
        self.server.reserve_memory_pages(self._MEMORY_TAG_PREFIX + self.name,
                                         0)

    @property
    def history_rows(self) -> int:
        return len(self._history)

    # -- polling ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("monitor already started")
        self._started = True
        if self.driver.capabilities().virtual_clock:
            self._process = self.server.scheduler.spawn(
                f"monitor-{self.name}", self._poll_loop()
            )
        else:
            self._next_due = self.driver.now() + self.interval
            self.driver.add_tick_listener(self._on_tick)

    def stop(self) -> None:
        self._stopped = True

    def _poll_loop(self) -> Iterator:
        while not self._stopped:
            yield Delay(self.interval)
            if self._stopped:
                return
            self.poll()
            yield Delay(self.last_poll_cost)

    def _on_tick(self, now: float) -> None:
        if self._stopped:
            return
        while now >= self._next_due:
            self.poll()
            self._next_due += self.interval + self.last_poll_cost

    def poll(self) -> int:
        """Drain the server-side history; returns rows picked up."""
        costs = self.server.costs
        drained = len(self._history)
        self.last_poll_cost = (
            costs.poll_snapshot_base
            + costs.poll_per_history_row * drained
            + costs.network_per_row * drained
        )
        self.server.add_monitor_cost(self.last_poll_cost)
        self.collected.extend(self._history)
        self._history.clear()
        self._release_memory()
        self.poll_count += 1
        return drained

    def top_k(self, k: int) -> list[tuple[int, str, float]]:
        """Exact answer over everything collected (plus any undrained tail)."""
        rows = self.collected + self._history
        ranked = sorted(rows, key=lambda r: r[2], reverse=True)
        return ranked[:k]
