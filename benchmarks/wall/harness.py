"""Runs one workload in this process: the timed run and the traced run.

``end_to_end`` measures with tracing off: set-up (repeated, median),
then timed passes for the requested number of seconds, each on a fresh
monitor after ``gc.collect()``.  Every operation is sampled in every
pass and counted at its fastest sample (see ``workloads.fastest``);
throughput, percentiles and ``pass_s`` are sums and percentiles of those.
``traced`` runs a few untraced reference passes and one pass under the
span recorder, and derives every per-layer metric from the recorder's
self times and the program's public counters.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
from statistics import median
from time import perf_counter_ns

from benchmarks.wall import trace as tracing
from benchmarks.wall.common import (FULL, OUT_DIR, ROOT, Check, Outcome,
                                    Sizes, peak_rss_mb, percentile,
                                    repeat_setup, timed_passes)
from benchmarks.wall.workloads import WORKLOADS, Pass, fastest

#: untraced reference passes of a traced run
REFERENCE_PASSES = 3

#: roots whose spans belong to the shard tier or to recovery, not to the
#: monitor that handled the trace: kept out of the core/stream layer sums
SIDE_ROOTS = ("ShardedSQLCM.run_trace", "ShardedSQLCM.state_digest",
              "DurabilityManager.recover")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def environment() -> dict:
    """Where the numbers were taken (recorded in the JSON output)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit}


# -- the timed run --------------------------------------------------------

def end_to_end(name: str, seed: int, seconds: float,
               sizes: Sizes = FULL) -> Outcome:
    check = Check()

    def one_setup():
        workload = WORKLOADS[name](seed, sizes, check)
        workload.setup()
        return workload

    workload, setup_s = repeat_setup(one_setup)
    begin = perf_counter_ns()
    passes: list[Pass] = timed_passes(seconds, workload.one_pass)
    run_s = (perf_counter_ns() - begin) / 1e9
    expect_same_fingerprint(name, passes, check)
    best = fastest(passes)
    operations = len(best.op_ns)
    latencies = workload.latencies_ns(best)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": operations / workload.ops_wall_s(best),
        "op_p50_us": percentile(latencies, 50) / 1e3,
        "op_p95_us": percentile(latencies, 95) / 1e3,
        "pass_s": workload.pass_wall_s(best),
    }
    return Outcome(
        metrics=metrics,
        attempted=operations * len(passes),
        failed=sum(p.failed for p in passes) + len(check.failures),
        check=check,
        info={"passes": len(passes), "run_s": run_s,
              "operations_per_pass": operations,
              "latency_samples": len(latencies),
              # printed, not gated: too few samples lie beyond it
              "op_p99_us": percentile(latencies, 99) / 1e3})


def expect_same_fingerprint(name: str, passes: list[Pass],
                            check: Check) -> None:
    """Every pass of a replay must leave the same monitor state."""
    prints = {repr(p.fingerprint) for p in passes
              if p.fingerprint is not None}
    check.expect(len(prints) <= 1, f"{name}: passes left different state")


# -- the traced run -------------------------------------------------------

def traced(name: str, seed: int, sizes: Sizes = FULL,
           table=tracing.WRAP_TABLE) -> Outcome:
    check = Check()
    workload = WORKLOADS[name](seed, sizes, check)
    workload.setup()
    references = []
    for __ in range(REFERENCE_PASSES):
        gc.collect()
        references.append(workload.one_pass())
    gc.collect()
    recorder = tracing.SpanRecorder(table)
    with recorder:
        traced_pass = workload.one_pass()
        workload.traced_extras()
    spans = recorder.spans()
    expect_same_fingerprint(name, references + [traced_pass], check)
    residual = tracing.worst_root_residual(spans)
    check.expect(residual <= 0.01,
                 f"{name}: self times miss a root's duration by "
                 f"{residual:.2%}")

    spec = load_spec()
    metrics = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
    metrics.update(layer_metrics(spans, recorder))
    metrics.update(traced_pass.counters)
    metrics.update(workload.reference_metrics(references))
    reference_ns = median([p.total_ns for p in references])
    metrics.update({
        "trace.overhead_pct":
            100.0 * (traced_pass.total_ns - reference_ns) / reference_ns,
        "trace.unresolved": len(recorder.unresolved),
        "gen.passes": len(references),
        "gen.samples": len(workload.latency_ops),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{name}.json")
    tracing.write_chrome_trace(spans, trace_path)
    passes = references + [traced_pass]
    return Outcome(
        metrics=metrics,
        attempted=sum(len(p.op_ns) for p in passes),
        failed=sum(p.failed for p in passes) + len(check.failures),
        check=check,
        info={"passes": len(passes), "spans": len(spans),
              "unresolved": recorder.unresolved,
              "chrome_trace": os.path.relpath(trace_path, ROOT)})


def layer_metrics(spans: list, recorder) -> dict:
    """Per-layer times and call counts from the recorded spans."""
    root_names = {s.sid: s.name for s in spans if s.parent < 0}
    serial = tracing.layer_totals(
        [s for s in spans if root_names[s.root] not in SIDE_ROOTS])
    everything = tracing.layer_totals(spans)
    zero = tracing.LayerTotal(0, 0, 0)

    def calls(name):
        return serial.get(name, zero).calls

    def self_s(name):
        return serial.get(name, zero).self_ns / 1e9

    def total_s(name):
        return everything.get(name, zero).total_ns / 1e9

    def self_us_per_call(name):
        return self_s(name) * 1e6 / calls(name) if calls(name) else 0.0

    requests = calls("ServiceClient.request")
    parses = calls("DatabaseServer.parse")
    # per request, the time not spent in any measured layer: waiting for
    # the pump tick (plus socket and event-loop time)
    waited_s = (total_s("ServiceClient.request") - total_s("encode_frame")
                - total_s("decode_frame") - total_s("DatabaseServer.run"))
    return {
        "engine.parse_us":
            total_s("DatabaseServer.parse") * 1e6 / parses if parses
            else 0.0,
        "engine.compile_us":
            self_us_per_call("DatabaseServer.compile_query"),
        "engine.exec_self_s": self_s("Session.execute"),
        "core.engine.dispatch_calls": calls("SQLCM.dispatch_event"),
        "core.engine.dispatch_self_s": self_s("SQLCM.dispatch_event"),
        "core.objects.build_calls": calls("ObjectFactory.query"),
        "core.objects.build_self_s": self_s("ObjectFactory.query"),
        "core.condition.evaluate_calls":
            calls("CompiledCondition.evaluate"),
        "core.condition.evaluate_self_s":
            self_s("CompiledCondition.evaluate"),
        "core.condition.us_per_eval":
            self_us_per_call("CompiledCondition.evaluate"),
        "core.lat.insert_calls": calls("LAT.insert"),
        "core.lat.insert_self_s": self_s("LAT.insert"),
        "core.lat.us_per_insert": self_us_per_call("LAT.insert"),
        "core.actions.execute_self_s": self_s("InsertAction.execute"),
        "stream.observe_calls": calls("WindowState.observe"),
        "stream.observe_self_s": self_s("WindowState.observe"),
        "stream.emit_calls": calls("WindowState.emit"),
        "stream.emit_self_s": self_s("WindowState.emit"),
        "core.durability.append_calls": calls("Journal.append"),
        "core.durability.append_self_s": self_s("Journal.append"),
        "core.durability.read_journal_s": total_s("read_journal"),
        "shard.partition_s": total_s("Partitioner.shard_of"),
        "shard.replay_s": total_s("ShardedSQLCM.run_trace"),
        "shard.digest_s": total_s("ShardedSQLCM.state_digest"),
        "shard.merge_s": total_s("LAT.merge_from"),
        "service.encode_calls": calls("encode_frame"),
        "service.encode_self_s": self_s("encode_frame"),
        "service.decode_self_s": self_s("decode_frame"),
        "service.bytes_per_req":
            recorder.result_bytes.get("encode_frame", 0) / requests
            if requests else 0.0,
        "service.pump_wait_ms":
            waited_s * 1e3 / requests if requests else 0.0,
    }


# -- results --------------------------------------------------------------

def result_object(outcome: Outcome, spec: dict) -> dict:
    """The object a run prints as its last line."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": not outcome.check.failures and outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }
