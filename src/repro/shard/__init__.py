"""Sharded replay: partitioned monitors behind one facade.

The tier splits a recorded trace's per-event work across N shard-local
monitors — each owning its own LAT partitions, stream panes, and rule
clones — with events routed by a replay-stable partition key and shard
state merged at the report boundary the way window panes merge.  See
DESIGN.md section 12 for the partitioning contract and the determinism
proof.
"""

from repro.shard.partition import QUERY_KEY_MODES, EventTrace, Partitioner
from repro.shard.sharded import ShardedSQLCM, ShardServer, ShardState

__all__ = [
    "ShardedSQLCM",
    "Partitioner",
    "EventTrace",
    "ShardServer",
    "ShardState",
    "QUERY_KEY_MODES",
]
