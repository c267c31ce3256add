"""The sharded replay tier: N shard-local monitors behind one facade.

:class:`ShardedSQLCM` partitions a recorded event trace across
``n_shards`` worker shards (see :mod:`repro.shard.partition`).  Each
shard owns a full shard-local :class:`~repro.core.engine.SQLCM` — its own
LAT partitions, stream panes, rule clones, timers, and fault-isolation
state — built against a :class:`ShardServer` proxy so the per-event
dispatch path is a pure function of (shard-local state, event): no shard
ever writes another shard's state, so the order shards run in is
irrelevant to the result.
Shard state merges at the report boundary exactly the way window
panes merge — via the aggregate functions' mergeable ``combine`` states
(``LAT.merge_from`` / ``WindowState.merge_from``).

The facade is a harness over a recorded
:class:`~repro.shard.partition.EventTrace`, never a monitor on the live
bus (that is :class:`~repro.core.engine.SQLCM`).  Each shard processes
its partition of the trace with a shard-local clock view pinned to each
event's recorded time, accumulating costs entirely shard-locally;
partitions run one after another (sharding is a state-partitioning
model, see DESIGN.md section 12).  The virtual
makespan (max per-shard cost) is the tier's cost model: events/makespan
is the virtual throughput the P1 bench reports.

Determinism proof: :meth:`state_digest` is the serial monitor's digest
function (:func:`repro.core.engine.state_digest`) applied to the shard
monitors — one walk that folds each declared state field across them —
so a sharded run on any shard count must digest-equal the serial run on
the same trace whenever the monitored group keys align with the
partition key.  See DESIGN.md section 12.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.engine import (SQLCM, fold_lat, fold_rule, fold_window,
                               state_digest)
from repro.core.lat import LAT, LATDefinition
from repro.core.rules import Rule
from repro.core.schema import SCHEMA, SQLCMSchema
from repro.drivers.base import resolve
from repro.engine.events import EventBus
from repro.errors import RuleError, StreamError
from repro.obs.observability import NULL_OBS
from repro.shard.partition import EventTrace, Partitioner
from repro.stream.windows import WindowState


class ShardClock:
    """A shard's view of the virtual clock.

    Registrations read through to the real clock; a replay pins ``now``
    to the recorded time of the event being processed, so per-shard
    progress is independent of every other shard's position in its own
    partition.
    """

    __slots__ = ("_base", "_override")

    def __init__(self, base):
        self._base = base
        self._override: float | None = None

    @property
    def now(self) -> float:
        override = self._override
        return self._base.now if override is None else override

    def pin(self, t: float) -> None:
        self._override = t


class ShardServer:
    """Per-shard server proxy: shard-local clock, costs, obs, and bus.

    Reads of engine state (tables, catalog, locks, sessions) forward to
    the real server; everything a shard *writes* during dispatch is
    shard-local.  The shard-local event bus keeps monitor-raised events
    (stream alerts) inside the raising shard, preserving the in-shard
    cascade ordering that makes per-shard work independent of every
    other shard's.
    """

    def __init__(self, server, shard_id: int):
        self._real = server
        self.shard_id = shard_id
        self.clock = ShardClock(server.clock)
        self.costs = server.costs
        self.events = EventBus()
        # a replay observes nothing, so its shards run the pooled dispatch
        # program, which holds this proxy's own pool and reads ``_obs``
        self.obs = NULL_OBS
        self._obs = None
        self._pending_monitor_cost = 0.0
        self.monitor_cost_total = 0.0

    def add_monitor_cost(self, seconds: float) -> None:
        self._pending_monitor_cost += seconds
        self.monitor_cost_total += seconds

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class ShardState:
    """One worker shard: proxy + shard-local SQLCM + its trace partition."""

    def __init__(self, shard_id: int, server, schema: SQLCMSchema):
        self.shard_id = shard_id
        self.proxy = ShardServer(server, shard_id)
        self.sqlcm = SQLCM(self.proxy, schema=schema, subscribe=False)
        # monitor-raised meta-events stay in-shard: the stream engine
        # publishes alerts on the shard-local bus, and the shard's own
        # rule engine consumes them there
        self.proxy.events.subscribe("sqlcm.stream_alert", self.deliver)

    def deliver(self, event: str, payload: dict) -> None:
        """Process one event entirely within this shard."""
        if event == "query.compile":
            self.sqlcm._on_compile(event, payload)
        else:
            self.sqlcm._on_engine_event(event, payload)

    def replay(self, partition: list, end_time: float) -> float:
        """Replay this shard's trace partition; returns the cost total."""
        clock = self.proxy.clock
        for event, payload, t in partition:
            clock.pin(t)
            self.deliver(event, payload)
        clock.pin(end_time)
        # the replay ends at the report boundary: emit every window
        # boundary due by then, exactly as the serial engine's lazy
        # flush would have on its next event
        streams = self.sqlcm._streams
        if streams is not None:
            streams.flush(end_time)
        return self.proxy.monitor_cost_total


class ShardedSQLCM:
    """Facade over N shard-local monitors with merge-at-report semantics.

    Control-plane operations (``create_lat`` / ``add_rule`` /
    ``register_stream`` / ``remove_rule``) fan out to every shard;
    :meth:`run_trace` routes each recorded event to exactly one shard.
    Reporting reads merge shard state on demand — nothing is merged on
    the hot path.

    ``subscribe`` is accepted only as ``False``: the facade replays a
    recorded trace and never subscribes to a server's bus.
    """

    def __init__(self, server, n_shards: int = 4,
                 schema: SQLCMSchema | None = None,
                 query_key: str = "query",
                 subscribe: bool = False):
        if subscribe:
            raise ValueError(
                "ShardedSQLCM replays a recorded EventTrace and cannot "
                "subscribe to a server's bus; monitor a live server with "
                "SQLCM")
        self.server = server = resolve(server).host
        self.schema = schema or SCHEMA
        self.n_shards = n_shards
        self.partitioner = Partitioner(n_shards, query_key)
        self.shards = [ShardState(i, server, self.schema)
                       for i in range(n_shards)]
        self.rules: dict[str, Rule] = {}  # templates, unbound

    # ------------------------------------------------------------------
    # control plane: fan registrations out to every shard
    # ------------------------------------------------------------------

    def create_lat(self, definition: LATDefinition) -> list[LAT]:
        """Create one LAT partition per shard; returns the partitions."""
        return [shard.sqlcm.create_lat(definition) for shard in self.shards]

    def add_rule(self, rule: Rule) -> Rule:
        """Register a rule on every shard (each shard binds its own clone).

        The passed rule stays unbound as the template; per-shard clones
        carry the statistics, merged by :meth:`rule_stats`."""
        key = rule.name.lower()
        if key in self.rules:
            raise RuleError(f"rule {rule.name!r} already exists")
        for shard in self.shards:
            shard.sqlcm.add_rule(rule.clone())
        self.rules[key] = rule
        return rule

    def remove_rule(self, name: str) -> None:
        for shard in self.shards:
            shard.sqlcm.remove_rule(name)
        self.rules.pop(name.lower(), None)

    def register_stream(self, text: str, **kwargs):
        """Register a continuous stream query on every shard."""
        return [shard.sqlcm.stream_engine().register(text, **kwargs)
                for shard in self.shards]

    # ------------------------------------------------------------------
    # replay: partition a recorded trace, run shards independently
    # ------------------------------------------------------------------

    def run_trace(self, trace: "EventTrace | Iterable") -> dict:
        """Replay a recorded trace through the shards.

        Returns ``{"events", "makespan", "shard_costs", "end_time"}``
        where ``makespan`` is the max per-shard accumulated virtual
        monitoring cost — the sharded tier's virtual completion time.
        """
        events = list(trace.events if isinstance(trace, EventTrace)
                      else trace)
        end_time = events[-1][2] if events else 0.0
        # signature prefill on the control shard: signature-mode
        # partitioning reads the signatures before any shard replays
        control = self.shards[0].sqlcm
        if control.signatures_needed:
            for event, payload, __ in events:
                if event == "query.compile":
                    control._fill_signatures(payload)
        partitions: list[list] = [[] for __ in self.shards]
        for record in events:
            partitions[self.partitioner.shard_of(record[0],
                                                 record[1])].append(record)
        costs = [shard.replay(partition, end_time)
                 for shard, partition in zip(self.shards, partitions)]
        return {
            "events": len(events),
            "makespan": max(costs) if costs else 0.0,
            "shard_costs": costs,
            "shard_events": [len(p) for p in partitions],
            "end_time": end_time,
        }

    # ------------------------------------------------------------------
    # merge boundary: report-time reads over merged shard state
    # ------------------------------------------------------------------

    @property
    def monitors(self) -> list[SQLCM]:
        """The shard monitors, control shard first: the sequence every
        fold (digest, checkpoint, merged reads) walks."""
        return [shard.sqlcm for shard in self.shards]

    def merged_lat(self, name: str) -> LAT:
        """The merge of every shard's partition as a fresh LAT — with one
        shard, that shard's live LAT (:func:`repro.core.engine.fold_lat`)."""
        return fold_lat(self.monitors, name)

    def merged_lat_rows(self, name: str) -> list[dict]:
        return self.merged_lat(name).rows()

    def merged_window(self, stream_name: str) -> WindowState:
        """The merge of every shard's pane state for one stream query."""
        queries = []
        for monitor in self.monitors:
            if monitor._streams is None:
                raise StreamError(f"unknown stream query {stream_name!r}")
            queries.append(monitor._streams.query(stream_name))
        return fold_window(queries)

    def rule_stats(self, name: str) -> tuple[int, int]:
        """Merged ``(fire_count, evaluation_count)`` across shards."""
        folded = fold_rule(self.monitors, name)
        return folded["fire_count"], folded["evaluation_count"]

    # ------------------------------------------------------------------
    # determinism proof surface
    # ------------------------------------------------------------------

    def state_digest(self) -> int:
        """Digest of the shard monitors folded into one — the same
        function :meth:`SQLCM.state_digest` calls with one monitor.
        Equality with the serial digest on the same trace is the
        sharding determinism proof."""
        return state_digest(self.monitors)
