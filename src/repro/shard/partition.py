"""Replay-stable event partitioning for the sharded replay tier.

Every engine event is mapped to one of ``n_shards`` worker shards by a
CRC32 hash of a *partition key* derived from the event payload.  The key
derivation is replay-stable: it reads only payload fields that are
identical between a live run and a later replay of the recorded trace
(ids, names, signatures — never wall time or object identity), so the
same trace partitions the same way on every run.  This is the same
technique the overload governor uses for replay-stable sampling
(``zlib.crc32`` over stable strings).

Two query-key modes:

* ``"query"`` (default) — query events key on the query instance id.
  Every lifecycle event of one statement lands on one shard, and load
  spreads evenly even when the whole workload shares a handful of plan
  signatures.  Aligned with monitors that group by ``Query.ID``.
* ``"signature"`` — query events key on the logical plan signature
  (instances of one template co-locate), falling back to the statement
  text before compilation fills the signature in.  Aligned with monitors
  that group by ``Query.Logical_Signature``; balance is only as good as
  the workload's signature diversity.

Equivalence contract (proved by the determinism tests): a sharded run
merged at the report boundary equals the serial run whenever every
monitored group's events land in a single shard — i.e. the monitor's
group keys are functions of the partition key.  See DESIGN.md section 12.
"""

from __future__ import annotations

import zlib
from typing import Any

QUERY_KEY_MODES = ("query", "signature")


class Partitioner:
    """Maps engine events to shard indices by stable payload-derived keys."""

    def __init__(self, n_shards: int, query_key: str = "query"):
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        if query_key not in QUERY_KEY_MODES:
            raise ValueError(
                f"unknown query_key {query_key!r}; "
                f"expected one of {QUERY_KEY_MODES}")
        self.n_shards = n_shards
        self.query_key = query_key

    def key_of(self, event: str, payload: dict) -> str:
        """The partition key: a replay-stable string."""
        if event.startswith("query."):
            qctx = payload.get("query")
            if qctx is None:
                return event
            if self.query_key == "signature":
                sig = qctx.logical_signature
                if sig is not None:
                    return "sig:" + sig.hex()
                return "text:" + qctx.text
            return f"qid:{qctx.query_id}"
        if event.startswith("txn."):
            txn = payload.get("txn")
            return event if txn is None else f"txn:{txn.txn_id}"
        if event.startswith("session."):
            session = payload.get("session")
            if session is None:  # login_failed carries a flat payload
                return f"user:{payload.get('user')}"
            return f"session:{session.session_id}"
        if event == "timer.alert":
            return f"timer:{payload['timer'].name}"
        if event == "sqlcm.stream_alert":
            return (f"stream:{payload.get('stream')}:"
                    f"{payload.get('group')}")
        if event == "sqlcm.rule_error":
            return f"rule:{payload.get('rule')}"
        if event == "lat.evict":
            return f"lat:{payload.get('lat')}"
        return event

    def shard_of(self, event: str, payload: dict) -> int:
        if self.n_shards == 1:
            return 0
        key = self.key_of(event, payload)
        return zlib.crc32(key.encode("utf-8")) % self.n_shards


class EventTrace:
    """A recorded sequence of ``(event, payload, virtual_time)`` triples.

    Attach to a server's bus to record every *engine* event during a live
    run; replay the list through a :class:`~repro.shard.ShardedSQLCM`
    later.  Monitor meta-events (``sqlcm.*``) are excluded — the monitor
    re-derives them during replay, so replaying them too would deliver
    them twice.
    """

    #: events worth recording: the monitor's inputs, not its outputs
    RECORDED_PREFIXES = ("query.", "txn.", "session.", "timer.")

    def __init__(self):
        self.events: list[tuple[str, dict, float]] = []
        self._server = None

    def attach(self, server) -> "EventTrace":
        if self._server is not None:
            raise RuntimeError("trace is already attached")
        self._server = server
        server.events.subscribe("*", self._record)
        return self

    def detach(self) -> "EventTrace":
        if self._server is not None:
            self._server.events.unsubscribe("*", self._record)
            self._server = None
        return self

    def _record(self, event: str, payload: dict) -> None:
        if event.startswith(self.RECORDED_PREFIXES):
            self.events.append((event, payload, self._server.clock.now))

    def __len__(self) -> int:
        return len(self.events)

    @property
    def end_time(self) -> float:
        return self.events[-1][2] if self.events else 0.0
