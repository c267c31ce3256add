"""The five workloads of the wall benchmark.

Each workload class has the same shape: ``setup()`` builds the inputs from
the seed and runs the discarded warm-up pass, ``one_pass()`` runs one
timed pass on a fresh monitor and returns a :class:`Pass`.  A pass times
only the calls into the program, one sample per operation; monitors are
built, and digests and counters are read, outside the timed regions.

Every pass of a workload does the same operations in the same order (the
oracle checks that they leave the same state), and on a small shared
machine what disturbs a sample only ever makes it longer.  A run
therefore takes, for each operation, the **fastest of its samples over
the passes** (:func:`fastest`) and reports sums and percentiles of
those; the numbers describe the work, not the neighbours.
``reference_metrics()`` turns the untraced passes of a traced run into
the layer metrics that compare passes with each other (durability tax,
shard speed-up, wall overhead of monitoring).
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter_ns

import numpy as np

from repro import (DatabaseServer, InsertAction, LATDefinition,
                   MonitorService, Rule, ServiceClient, ServiceRunner,
                   ShardedSQLCM)
from repro.apps.auditing import UsageAuditor
from repro.apps.outliers import OutlierDetector
from repro.apps.topk import TopKTracker
from repro.core.durability import DurabilityManager
from repro.errors import ReproError

from benchmarks.wall.common import (OUT_DIR, Check, Sizes, commit_indexes,
                                    new_monitor, paper_statements,
                                    record_trace, replay, tpch_server)


@dataclass
class Pass:
    """One timed pass: a sample per operation, in input order, plus the
    other timed units of the pass (checkpoints, recovery, the sharded
    replay) by name."""

    op_ns: list
    phase_ns: dict = field(default_factory=dict)
    failed: int = 0
    fingerprint: object = None  # equal on every pass of a replay
    counters: dict = field(default_factory=dict)   # layer counts
    extra: dict = field(default_factory=dict)      # facts that are not times

    @property
    def total_ns(self) -> int:
        return sum(self.op_ns) + sum(
            sum(times) for times in self.phase_ns.values())


def fastest(passes: list) -> Pass:
    """Per operation and per phase unit, the fastest sample of any pass."""
    first = passes[0]
    return Pass(
        op_ns=[min(column) for column in zip(*(p.op_ns for p in passes))],
        phase_ns={name: [min(column) for column in zip(
            *(p.phase_ns[name] for p in passes))]
            for name in first.phase_ns})


def monitor_counters(monitor) -> dict[str, float]:
    """Layer counts read from a monitor's public counters."""
    rules = list(monitor.rules.values())
    evals = sum(rule.evaluation_count for rule in rules)
    fires = sum(rule.fire_count for rule in rules)
    lats = monitor.lats()
    counters = {
        "core.engine.rule_evals": evals,
        "core.engine.rule_fires": fires,
        "core.engine.fire_ratio": fires / evals if evals else 0.0,
        "core.lat.evictions": sum(lat.eviction_count for lat in lats),
        "core.lat.rows_final": sum(len(lat) for lat in lats),
    }
    if monitor.has_streams:
        queries = monitor.stream_engine().queries()
        counters["stream.windows_emitted"] = sum(
            query.windows_emitted for query in queries)
        counters["stream.combine_ops"] = sum(
            query.window.combine_ops for query in queries)
    return counters


# ---------------------------------------------------------------------------
# rules-replay
# ---------------------------------------------------------------------------

N_RULES = 64
N_ATOMS = 12
ALWAYS_TRUE_EVERY = 8


def install_rules(monitor) -> None:
    """64 ``Query.Commit`` rules of 12 conjunct atoms.  Every 8th rule is
    always true and inserts into its own unbounded ``Query.ID``-keyed
    LAT; the others fail at atom ``i mod 12`` and never insert."""
    for i in range(N_RULES):
        atoms = [f"Query.Duration >= {-1.0 * j}" for j in range(N_ATOMS)]
        if i % ALWAYS_TRUE_EVERY == 0:
            monitor.create_lat(LATDefinition(
                name=f"Rules_LAT_{i}",
                monitored_class="Query",
                grouping=["Query.ID AS Qid"],
                aggregations=["LAST(Query.Duration) AS Duration",
                              "LAST(Query.Estimated_Cost) AS Cost"],
            ))
        else:
            atoms[i % N_ATOMS] = f"Query.Duration > {1e6 + i}"
        monitor.add_rule(Rule(
            name=f"rule_{i:02d}",
            event="Query.Commit",
            condition=" AND ".join(atoms),
            actions=[InsertAction(
                f"Rules_LAT_{i - i % ALWAYS_TRUE_EVERY}")],
        ))


class Workload:
    """What the harness drives: ``setup()`` once, ``one_pass()`` per pass."""

    name = ""
    #: phases that happen between operations and count as operation time
    inline_phases: tuple = ()
    #: clients issuing operations at the same time
    concurrency = 1

    def __init__(self, seed: int, sizes: Sizes, check: Check):
        self.seed = seed
        self.sizes = sizes
        self.check = check
        #: indexes of the operations whose latency the run reports
        self.latency_ops: list[int] = []

    def setup(self) -> None:
        raise NotImplementedError

    def one_pass(self) -> Pass:
        raise NotImplementedError

    def reference_metrics(self, passes: list[Pass]) -> dict[str, float]:
        """Layer metrics that compare untraced passes with each other."""
        return {}

    def traced_extras(self) -> None:
        """Extra calls made under the recorder after the traced pass."""

    # -- what the fastest samples (``fastest(passes)``) say about the work

    def ops_wall_s(self, best: Pass) -> float:
        """Seconds the operations take."""
        inline = sum(sum(best.phase_ns.get(name, ()))
                     for name in self.inline_phases)
        return (sum(best.op_ns) + inline) / self.concurrency / 1e9

    def pass_wall_s(self, best: Pass) -> float:
        """Seconds of all timed units of a pass."""
        other = sum(sum(times) for name, times in best.phase_ns.items()
                    if name not in self.inline_phases)
        return self.ops_wall_s(best) + other / 1e9

    def latencies_ns(self, best: Pass) -> list[int]:
        return [best.op_ns[i] for i in self.latency_ops]


class ReplayWorkload(Workload):
    """Base of the three replays: Trace-T into a fresh monitor per pass."""

    def setup(self) -> None:
        self.events, __ = record_trace(self.seed, self.sizes)
        self.latency_ops = commit_indexes(self.events)
        self.commits = len(self.latency_ops)
        self.one_pass()  # warm-up: fills the plan entries' signatures

    def wall_over_virtual(self, passes: list[Pass]) -> float:
        virtual = passes[-1].counters["sim.virtual_monitor_cost_s"]
        wall_s = self.ops_wall_s(fastest(passes))
        return wall_s / virtual if virtual else 0.0


class RulesReplay(ReplayWorkload):
    """Dispatch + condition evaluation; then the same trace at 4 shards."""

    name = "rules-replay"

    def one_pass(self) -> Pass:
        server = DatabaseServer()
        monitor = new_monitor(server)
        install_rules(monitor)
        op_ns = [0] * len(self.events)
        failed = replay(server, self.events, op_ns)
        digest = monitor.state_digest()
        counters = monitor_counters(monitor)
        self.check.expect(
            counters["core.engine.rule_fires"]
            == (N_RULES // ALWAYS_TRUE_EVERY) * self.commits,
            "rules-replay: fire count != 8 x commits")
        self.check.expect(monitor.rule_errors == 0,
                          "rules-replay: rule errors")

        shard_ns, result, shard_digest = self.sharded(4)
        self.check.expect(shard_digest == digest,
                          "rules-replay: 4-shard digest != serial digest")
        shard_events = result["shard_events"]
        counters["shard.skew"] = max(shard_events) * len(shard_events) \
            / max(1, sum(shard_events))
        counters["sim.virtual_monitor_cost_s"] = server.monitor_cost_total
        return Pass(op_ns=op_ns, phase_ns={"shard4": [shard_ns]},
                    failed=failed, fingerprint=(digest, shard_digest),
                    counters=counters)

    def sharded(self, n_shards: int):
        facade = ShardedSQLCM(DatabaseServer(), n_shards=n_shards,
                              subscribe=False)
        install_rules(facade)
        begin = perf_counter_ns()
        result = facade.run_trace(self.events)
        wall_ns = perf_counter_ns() - begin
        return wall_ns, result, facade.state_digest()

    def reference_metrics(self, passes: list[Pass]) -> dict[str, float]:
        four_ns = fastest(passes).phase_ns["shard4"][0]
        one_ns = min(self.sharded(1)[0] for __ in passes)
        return {
            "shard.events_per_s": len(self.events) / (four_ns / 1e9),
            "shard.speedup_4_vs_1": one_ns / four_ns,
            "sim.wall_over_virtual": self.wall_over_virtual(passes),
        }


# ---------------------------------------------------------------------------
# latstream-replay / durable-replay
# ---------------------------------------------------------------------------

STREAM_KEYS = ("Query.Logical_Signature", "Query.User", "Query.Query_Type",
               "Query.Application")
N_STREAMS = 8


def install_latstream(monitor) -> None:
    """4 condition-free rules feeding 4 LATs, plus 8 sliding stream
    queries over 4 group keys."""
    definitions = [
        LATDefinition(
            name="TopK", monitored_class="Query",
            grouping=["Query.Logical_Signature AS Sig"],
            aggregations=["AVG(Query.Duration) AS Avg_D",
                          "SUM(Query.Duration) AS Sum_D",
                          "STDEV(Query.Duration) AS Sd_D",
                          "COUNT(Query.ID) AS N",
                          "MAX(Query.Duration) AS Max_D"],
            ordering=["Avg_D DESC"], max_rows=50),
        LATDefinition(
            name="ById", monitored_class="Query",
            grouping=["Query.ID AS Qid"],
            aggregations=["MAX(Query.Duration) AS D",
                          "LAST(Query.Query_Type) AS Qtype"],
            ordering=["D DESC"], max_rows=100),
        LATDefinition(
            name="ByUser", monitored_class="Query",
            grouping=["Query.User AS U", "Query.Query_Type AS T"],
            aggregations=["COUNT(Query.ID) AS N",
                          "SUM(Query.Duration) AS Total"]),
        LATDefinition(
            name="AllQ", monitored_class="Query",
            grouping=["Query.ID AS Qid"],
            aggregations=["LAST(Query.Duration) AS Duration",
                          "LAST(Query.Estimated_Cost) AS Cost",
                          "LAST(Query.Query_Type) AS Qtype"]),
    ]
    for definition in definitions:
        monitor.create_lat(definition)
        monitor.add_rule(Rule(name=f"into_{definition.name}",
                              event="Query.Commit",
                              actions=[InsertAction(definition.name)]))
    streams = monitor.stream_engine()
    for i in range(N_STREAMS):
        # half the queries alert on every window, half never do
        having = "Window.N >= 1" if i < N_STREAMS // 2 \
            else "Window.Avg_D > 1000000"
        streams.register(
            f"STREAM s{i} FROM Query.Commit WHERE Query.Duration >= 0 "
            f"GROUP BY {STREAM_KEYS[i % len(STREAM_KEYS)]} AS K "
            f"WINDOW SLIDING(0.05, 0.01) "
            f"AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS N "
            f"HAVING {having}")


def stream_fingerprint(monitor) -> tuple:
    return tuple((query.events_ingested, query.windows_emitted,
                  query.alert_count)
                 for query in monitor.stream_engine().queries())


class LatStreamReplay(ReplayWorkload):
    """LAT insert/evict, aggregates, signatures and stream panes."""

    name = "latstream-replay"
    inline_phases = ("flush",)

    def one_pass(self) -> Pass:
        server = DatabaseServer()
        monitor = new_monitor(server)
        install_latstream(monitor)
        op_ns = [0] * len(self.events)
        failed = replay(server, self.events, op_ns)
        start = perf_counter_ns()
        monitor.stream_engine().flush()
        flush_ns = perf_counter_ns() - start
        self.oracle(monitor)
        counters = monitor_counters(monitor)
        counters["sim.virtual_monitor_cost_s"] = server.monitor_cost_total
        return Pass(op_ns=op_ns, phase_ns={"flush": [flush_ns]},
                    failed=failed,
                    fingerprint=(monitor.state_digest(),
                                 stream_fingerprint(monitor)),
                    counters=counters)

    def oracle(self, monitor) -> None:
        name = self.name
        by_user = sum(row["N"] for row in monitor.lat("ByUser").rows())
        self.check.expect(by_user == self.commits,
                          f"{name}: sum(ByUser.N) != commits")
        for query in monitor.stream_engine().queries():
            self.check.expect(query.events_ingested == self.commits,
                              f"{name}: {query.name} ingested != commits")
            self.check.expect(query.windows_emitted > 0,
                              f"{name}: {query.name} emitted no window")
        self.check.expect(monitor.rule_errors == 0, f"{name}: rule errors")

    def reference_metrics(self, passes: list[Pass]) -> dict[str, float]:
        return {"sim.wall_over_virtual": self.wall_over_virtual(passes)}


class DurableReplay(LatStreamReplay):
    """latstream-replay's monitor with the journal on, a crash, a recovery.

    Flush policy is the program's own: ``flush()`` after every journal
    record, no fsync.  The crash drops the manager without a final
    checkpoint; since every record was flushed, the files hold what a
    killed process would have left in the operating system's cache.
    """

    name = "durable-replay"
    inline_phases = ("flush", "checkpoint")

    def one_pass(self) -> Pass:
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="durable-",
                                         dir=OUT_DIR) as directory:
            return self._one_pass(directory)

    def _one_pass(self, directory: str) -> Pass:
        sizes = self.sizes
        server = DatabaseServer()
        monitor = new_monitor(server)
        install_latstream(monitor)
        manager = DurabilityManager(
            monitor, directory,
            checkpoint_interval=sizes.checkpoint_interval).attach()
        journal = manager.journal
        stop_at = 2 * len(self.events) // 3
        checkpoint_ns: list[int] = []
        wal_bytes = 0

        def after_chunk(done: int) -> None:
            nonlocal wal_bytes
            if done > stop_at:
                return
            segment = journal.path
            start = perf_counter_ns()
            wrote = manager.maybe_checkpoint()
            elapsed = perf_counter_ns() - start
            if wrote:
                checkpoint_ns.append(elapsed)
                wal_bytes += os.path.getsize(segment)

        op_ns = [0] * len(self.events)
        failed = replay(server, self.events, op_ns,
                        chunk=sizes.checkpoint_every,
                        after_chunk=after_chunk)
        start = perf_counter_ns()
        monitor.stream_engine().flush()
        flush_ns = perf_counter_ns() - start
        self.oracle(monitor)
        digest = monitor.state_digest()
        end_time = server.clock.now
        counters = monitor_counters(monitor)
        wal_bytes += os.path.getsize(journal.path)
        checkpoint_bytes = os.path.getsize(os.path.join(
            directory, f"checkpoint-{manager.generation:04d}.ckpt"))
        journal.close()  # the crash: no detach, no final checkpoint

        start = perf_counter_ns()
        report = DurabilityManager.recover(directory,
                                           server=DatabaseServer())
        recover_ns = perf_counter_ns() - start
        report.sqlcm.server.clock.advance_to(end_time)
        self.check.expect(report.sqlcm.state_digest() == digest,
                          "durable-replay: recovered digest != pre-crash")
        self.check.expect(report.records_discarded == 0,
                          "durable-replay: recovery discarded records")
        self.check.expect(bool(checkpoint_ns),
                          "durable-replay: no checkpoint was written")

        n_events = len(self.events)
        counters.update({
            "sim.virtual_monitor_cost_s": server.monitor_cost_total,
            "core.durability.records_per_event":
                journal.records_written / n_events,
            "core.durability.journal_bytes_per_event": wal_bytes / n_events,
            "core.durability.checkpoint_bytes": checkpoint_bytes,
            "core.durability.checkpoints": manager.checkpoints_taken,
        })
        return Pass(
            op_ns=op_ns,
            phase_ns={"flush": [flush_ns], "checkpoint": checkpoint_ns,
                      "recover": [recover_ns]},
            failed=failed,
            fingerprint=(digest, stream_fingerprint(monitor),
                         report.records_replayed),
            counters=counters,
            extra={"records_replayed": report.records_replayed})

    def reference_metrics(self, passes: list[Pass]) -> dict[str, float]:
        best = fastest(passes)
        plain = [LatStreamReplay.one_pass(self) for __ in passes]
        recover_s = best.phase_ns["recover"][0] / 1e9
        return {
            "sim.wall_over_virtual": self.wall_over_virtual(passes),
            # 1 - ops_per_s(durable) / ops_per_s(latstream)
            "core.durability.tax_pct": 100.0 * (
                1.0 - self.ops_wall_s(fastest(plain))
                / self.ops_wall_s(best)),
            "core.durability.checkpoint_ms":
                median(best.phase_ns["checkpoint"]) / 1e6,
            "core.durability.recover_s": recover_s,
            "core.durability.replay_records_per_s":
                passes[-1].extra["records_replayed"] / recover_s,
        }


# ---------------------------------------------------------------------------
# live-tpch
# ---------------------------------------------------------------------------

class LiveTpch(Workload):
    """The paper's scenario: statements through the engine, one by one,
    with the Section-3 monitoring applications attached (closed loop, one
    client)."""

    name = "live-tpch"

    def setup(self) -> None:
        self.server, counts = tpch_server()
        self.statements = paper_statements(
            self.server, counts, self.sizes.live_short,
            self.sizes.live_joins, self.seed)
        self.latency_ops = [i for i, sql in enumerate(self.statements)
                            if " JOIN " not in sql]  # the short selects
        # the unmonitored pass warms the plan cache and gives the row
        # counts every later pass must reproduce
        self.expected_rows = None
        self.run(monitored=False)
        self.one_pass()  # monitored warm-up (creates the outlier table)

    def one_pass(self) -> Pass:
        return self.run(monitored=True)

    def run(self, monitored: bool) -> Pass:
        server = self.server
        monitor = None
        if monitored:
            monitor = new_monitor(server)
            TopKTracker(monitor, k=10)
            OutlierDetector(monitor)
            UsageAuditor(monitor)
        session = server.create_session(application="workload")
        execute = session.execute
        clock = perf_counter_ns
        statements = self.statements
        op_ns = [0] * len(statements)
        raised = 0
        virtual_begin = server.clock.now
        cost_begin = server.monitor_cost_total
        for i, sql in enumerate(statements):
            start = clock()
            try:
                execute(sql)
            except ReproError:
                raised += 1
            op_ns[i] = clock() - start
        virtual_s = server.clock.now - virtual_begin
        monitor_cost = server.monitor_cost_total - cost_begin

        results = session.results
        failed = raised + sum(1 for r in results if r.error)
        rows = [len(r.rows) for r in results]
        server.close_session(session)
        if self.expected_rows is None:
            self.expected_rows = rows
        self.check.expect(rows == self.expected_rows,
                          "live-tpch: row counts differ from the "
                          "unmonitored pass")
        counters: dict[str, float] = {}
        if monitor is not None:
            self.check.expect(monitor.rule_errors == 0,
                              "live-tpch: rule errors")
            counters = monitor_counters(monitor)
            monitor.detach()
        cache = server.plan_cache
        counters["engine.plan_cache_hit_ratio"] = \
            cache.hits / max(1, cache.hits + cache.misses)
        counters["sim.virtual_monitor_cost_s"] = monitor_cost
        return Pass(op_ns=op_ns, failed=failed, counters=counters,
                    extra={"virtual_s": virtual_s})

    def reference_metrics(self, passes: list[Pass]) -> dict[str, float]:
        """Unmonitored passes against the monitored ones."""
        bare = [self.run(monitored=False) for __ in passes]
        bare_s = self.ops_wall_s(fastest(bare))
        monitored_s = self.ops_wall_s(fastest(passes))
        bare_virtual = median([p.extra["virtual_s"] for p in bare])
        virtual = median([p.extra["virtual_s"] for p in passes])
        cost = passes[-1].counters["sim.virtual_monitor_cost_s"]
        return {
            "engine.unmonitored_stmts_per_s": len(self.statements) / bare_s,
            "live.wall_overhead_pct":
                100.0 * (monitored_s - bare_s) / bare_s,
            "live.virtual_overhead_pct":
                100.0 * (virtual - bare_virtual) / bare_virtual,
            "sim.wall_over_virtual":
                (monitored_s - bare_s) / cost if cost else 0.0,
        }

    def traced_extras(self) -> None:
        # the warm plan cache keeps the parser out of the statement path;
        # parse each distinct statement once so its cost is on record
        for sql in sorted(set(self.statements)):
            self.server.parse(sql)


# ---------------------------------------------------------------------------
# service-closed
# ---------------------------------------------------------------------------

N_CLIENTS = 2
READ_KEYS = 1000          # kv ids 1..READ_KEYS are only ever selected
UPDATE_KEYS = 500         # per client, disjoint ranges above READ_KEYS
REQUEST_TIMEOUT_S = 30.0  # a hang becomes a counted failure, not a stall

SELECT_SQL = "SELECT v FROM kv WHERE id = @id"
UPDATE_SQL = "UPDATE kv SET v = v + 1 WHERE id = @id"
INSERT_SQL = "INSERT INTO log (id, owner, v) VALUES (@id, @owner, @v)"


class ServiceClosed(Workload):
    """``MonitorService`` over TCP: two closed-loop clients, 50 % PK
    select, 25 % PK update on disjoint key ranges, 25 % insert."""

    name = "service-closed"
    concurrency = N_CLIENTS

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.sizes.service_requests
        self.scripts = []
        self.inserts = 0
        for client in range(N_CLIENTS):
            script = []
            update_base = READ_KEYS + client * UPDATE_KEYS
            for i in range(n):
                kind = i % 4
                if kind in (0, 2):
                    script.append((SELECT_SQL, {
                        "id": int(rng.integers(1, READ_KEYS + 1))}))
                elif kind == 1:
                    script.append((UPDATE_SQL, {
                        "id": update_base
                        + int(rng.integers(1, UPDATE_KEYS + 1))}))
                else:
                    self.inserts += 1
                    script.append((INSERT_SQL, {
                        "id": client * 1_000_000 + i, "owner": client,
                        "v": int(rng.integers(0, 1000))}))
            self.scripts.append(script)
        self.latency_ops = list(range(N_CLIENTS * n))
        self.one_pass()  # warm-up

    def build_service(self) -> MonitorService:
        db = DatabaseServer()
        db.execute_ddl("CREATE TABLE kv (id INT NOT NULL PRIMARY KEY, "
                       "v INT)")
        db.execute_ddl("CREATE TABLE log (id INT NOT NULL PRIMARY KEY, "
                       "owner INT, v INT)")
        db.bulk_load("kv", [[key, 0] for key in range(
            1, READ_KEYS + N_CLIENTS * UPDATE_KEYS + 1)])
        monitor = new_monitor(db)
        TopKTracker(monitor)
        return MonitorService(db, monitor)

    def one_pass(self) -> Pass:
        service = self.build_service()
        runner = ServiceRunner(service)
        port = runner.start()  # ServiceConfig.port = 0: ephemeral
        clients: list[ServiceClient] = []
        try:
            for i in range(N_CLIENTS):
                clients.append(ServiceClient(
                    "127.0.0.1", port, user=f"client{i}",
                    timeout=REQUEST_TIMEOUT_S))
            return self._drive(service, clients)
        finally:
            for client in clients:
                client.close()
            runner.stop()

    def _drive(self, service: MonitorService,
               clients: list[ServiceClient]) -> Pass:
        n = self.sizes.service_requests
        latencies = [[0] * n for __ in clients]
        failures: list = [None] * len(clients)
        barrier = threading.Barrier(len(clients))

        def client_loop(index: int) -> None:
            request = clients[index].request
            latency = latencies[index]
            clock = perf_counter_ns
            failed = 0
            barrier.wait()
            for i, (sql, params) in enumerate(self.scripts[index]):
                start = clock()
                try:
                    ok = request("sql", sql=sql, params=params).ok
                except (OSError, ReproError):
                    failed += n - i  # the connection is gone: all missed
                    break
                latency[i] = clock() - start
                if not ok:
                    failed += 1
            failures[index] = failed

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"wall-client-{i}")
                   for i in range(len(clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT_S + 0.05 * n)
        op_ns = [ns for latency in latencies for ns in latency]
        hung = any(thread.is_alive() for thread in threads)
        self.check.expect(not hung, "service-closed: a client hung")
        if hung or None in failures:
            return Pass(op_ns=op_ns, failed=len(op_ns))

        counted = clients[0].sql("SELECT COUNT(*) FROM log")["rows"][0][0]
        self.check.expect(counted == self.inserts,
                          f"service-closed: COUNT(*) = {counted}, "
                          f"inserts sent = {self.inserts}")
        self.check.expect(service.sqlcm.rule_errors == 0,
                          "service-closed: rule errors")
        counters = monitor_counters(service.sqlcm)
        counters["sim.virtual_monitor_cost_s"] = \
            service.db.monitor_cost_total
        return Pass(op_ns=op_ns, failed=sum(failures), counters=counters)


WORKLOADS = {cls.name: cls for cls in (
    RulesReplay, LatStreamReplay, DurableReplay, LiveTpch, ServiceClosed)}
