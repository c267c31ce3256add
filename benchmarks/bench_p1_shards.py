"""P1: what sharding buys — a lossless state partition and a virtual makespan.

The paper's SQLCM instruments a single server process; its dispatch path
is serial.  This experiment measures the sharded replay model
(``repro.shard``) on the TPC-H stress workload:

* a serial live monitor records the engine event trace and the reference
  state digest;
* the same trace replays through ``ShardedSQLCM`` at 1 / 2 / 4 / 8
  shards.  Every replay must digest-equal the serial run — the
  determinism proof, using the governor's replay-stable hashing
  technique (CRC32 over canonical state) — while the **virtual
  makespan** (max per-shard accumulated monitoring cost) shrinks with
  the shard count;
* virtual throughput = events / makespan must reach >= 3x at 8 shards
  vs 1 shard.  Shards replay one after another in one process, so the
  wall-clock ratio is reported beside the virtual one, not asserted:
  the model divides virtual monitoring cost, not the time a replay
  takes.

The monitored configuration is partition-aligned: every LAT and rule
groups by ``Query.ID``, the default partition key, so each monitored
group lives entirely inside one shard (DESIGN.md section 12's alignment
contract).  Writes ``BENCH_shard.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import build_server, quick, run_workload
from repro import (EventTrace, InsertAction, LATDefinition, Rule,
                   ShardedSQLCM, SQLCM)

SHORT_QUERIES = quick(2400, 320)
JOIN_QUERIES = quick(8, 2)
N_RULES = quick(12, 6)
N_CONDITIONS = 12
SHARD_COUNTS = (1, 2, 4, 8)
SCALE_TARGET = 3.0  # throughput(8 shards) >= 3x throughput(1 shard)

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def _install_monitoring(monitor) -> None:
    """Partition-aligned monitoring: everything groups by Query.ID."""
    condition = " AND ".join(
        f"Query.Duration >= {j * -1.0}" for j in range(N_CONDITIONS))
    monitor.create_lat(LATDefinition(
        name="P1_Profile",
        monitored_class="Query",
        grouping=["Query.ID AS Qid"],
        aggregations=[
            "AVG(Query.Duration) AS Avg_D",
            "MAX(Query.Duration) AS Max_D",
            "COUNT(Query.ID) AS N",
            "LAST(Query.Query_Type) AS Qtype",
        ],
    ))
    monitor.add_rule(Rule(
        name="p1_profile", event="Query.Commit",
        actions=[InsertAction("P1_Profile")],
    ))
    # unbounded LATs: a size limit makes eviction work depend on the
    # shard-local occupancy (a partition of a 64-row LAT evicts less
    # than the serial LAT does), which would break the exact
    # cost-conservation check below.  Bounded-LAT merge semantics are
    # covered by tests/test_sharding.py.
    for i in range(N_RULES):
        monitor.create_lat(LATDefinition(
            name=f"P1_LAT_{i}",
            monitored_class="Query",
            grouping=["Query.ID AS Qid"],
            aggregations=["LAST(Query.Duration) AS Duration",
                          "LAST(Query.Estimated_Cost) AS Cost"],
        ))
        monitor.add_rule(Rule(
            name=f"p1_rule_{i}",
            event="Query.Commit",
            condition=condition,
            actions=[InsertAction(f"P1_LAT_{i}")],
        ))


def _serial_reference():
    """Live serial run; returns (digest, trace, serial monitor cost)."""
    server, counts = build_server(track_completed=False)
    monitor = SQLCM(server)
    _install_monitoring(monitor)
    trace = EventTrace().attach(server)
    run_workload(server, counts, short=SHORT_QUERIES, joins=JOIN_QUERIES)
    trace.detach()
    return monitor.state_digest(), trace, server.monitor_cost_total


def _replay(trace, n_shards: int):
    """Replay on a fresh sharded monitor; returns (digest, result, wall)."""
    server, __ = build_server(track_completed=False)
    facade = ShardedSQLCM(server, n_shards=n_shards)
    _install_monitoring(facade)
    wall_start = time.perf_counter()
    result = facade.run_trace(trace)
    wall = time.perf_counter() - wall_start
    return facade.state_digest(), result, wall


def test_p1_shard_scaling(report, benchmark):
    state: dict = {}

    def run_all():
        digest, trace, serial_cost = _serial_reference()
        rows = []
        for n in SHARD_COUNTS:
            shard_digest, result, wall = _replay(trace, n)
            rows.append({
                "shards": n,
                "digest": shard_digest,
                "makespan_virtual_s": result["makespan"],
                "throughput_events_per_vs":
                    result["events"] / result["makespan"],
                "shard_events": result["shard_events"],
                "shard_costs": result["shard_costs"],
                "wall_s": wall,
            })
        state.update(digest=digest, trace=trace, serial_cost=serial_cost,
                     rows=rows)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    digest = state["digest"]
    rows = state["rows"]
    by_shards = {row["shards"]: row for row in rows}

    # --- determinism proof: sharded == serial at every shard count -----
    for row in rows:
        assert row["digest"] == digest, \
            f"digest diverged at {row['shards']} shards"

    # --- cost conservation: sharding moves work, never adds or drops it
    for row in rows:
        assert sum(row["shard_costs"]) == \
            pytest.approx(state["serial_cost"], rel=1e-9)

    # --- the scaling claim ---------------------------------------------
    single = by_shards[1]["throughput_events_per_vs"]
    eight = by_shards[8]["throughput_events_per_vs"]
    speedup = eight / single
    assert speedup >= SCALE_TARGET, \
        f"8-shard speedup {speedup:.2f}x below the {SCALE_TARGET}x target"
    wall_speedup = by_shards[1]["wall_s"] / by_shards[8]["wall_s"]

    lines = [
        "P1: sharded replay on the TPC-H stress workload",
        f"trace: {len(state['trace'])} events "
        f"({SHORT_QUERIES} short + {JOIN_QUERIES} join statements), "
        f"{N_RULES + 1} rules, {N_RULES + 1} Query.ID-keyed LATs",
        f"serial reference digest: {digest:#010x}",
        "shards  makespan(virt)   events/virt-s   speedup   wall(s)",
    ]
    for row in rows:
        lines.append(
            f"{row['shards']:>6}  {row['makespan_virtual_s']:>13.6f}  "
            f"{row['throughput_events_per_vs']:>14.0f}  "
            f"{row['throughput_events_per_vs'] / single:>6.2f}x  "
            f"{row['wall_s']:>7.3f}")
    lines.append(f"8 vs 1 shard: virtual speedup {speedup:.2f}x, "
                 f"wall speedup {wall_speedup:.2f}x")
    report(*lines)

    artifact = {
        "experiment": "P1",
        "config": {
            "short_queries": SHORT_QUERIES,
            "join_queries": JOIN_QUERIES,
            "rules": N_RULES + 1,
            "conditions_per_rule": N_CONDITIONS,
            "partition_key": "query",
            "scale_target": SCALE_TARGET,
        },
        "trace_events": len(state["trace"]),
        "serial_digest": digest,
        "serial_monitor_cost_virtual_s": state["serial_cost"],
        "runs": [
            {key: value for key, value in row.items()}
            for row in rows
        ],
        "virtual_speedup_8_vs_1": speedup,
        "wall_speedup_8_vs_1": wall_speedup,
        "deterministic": True,
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n",
                         encoding="utf-8")
    report(f"wrote {_ARTIFACT.name}")
