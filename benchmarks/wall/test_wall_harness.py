"""Self-test of the wall harness (tiny sizes; not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/wall -q
"""

from __future__ import annotations

import inspect
import re

import pytest

from benchmarks.wall import harness, trace
from benchmarks.wall.common import TINY, Check, Outcome, record_trace
from benchmarks.wall.trace import Span
from benchmarks.wall.workloads import WORKLOADS, RulesReplay

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = harness.load_spec()


def test_declared_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(metrics)) == len(metrics)
    for name in names + metrics:
        assert NAME.fullmatch(name), name
    assert SPEC["paths"] == ["benchmarks/wall"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_printed_metrics_equal_declared(workload):
    timed = harness.end_to_end(workload, 7, 0.0, TINY)
    result = harness.result_object(timed, SPEC)
    assert result["correct"], timed.check.failures
    assert list(result["metrics"]) == \
        [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    layers = harness.traced(workload, 7, TINY)
    result = harness.result_object(layers, SPEC)
    assert result["correct"], layers.check.failures
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_failed_check_makes_the_run_incorrect():
    check = Check()
    check.expect(False, "digest mismatch")
    outcome = Outcome(metrics={}, attempted=10, failed=1, check=check)
    assert harness.result_object(outcome, SPEC)["correct"] is False


def test_self_time_arithmetic_on_a_nested_trace():
    #  root A [0, 100] -> B [10, 40] -> C [15, 25];  A -> B [50, 90]
    spans = [
        Span(2, "C", 15, 25, 1, 0, 0),
        Span(1, "B", 10, 40, 0, 0, 0),
        Span(3, "B", 50, 90, 0, 0, 0),
        Span(0, "A", 0, 100, -1, 0, 0),
        Span(4, "A", 200, 230, -1, 4, 1),  # a second root, other thread
    ]
    own = trace.self_times(spans)
    assert own == {0: 30, 1: 20, 2: 10, 3: 40, 4: 30}
    totals = trace.layer_totals(spans)
    assert totals["A"] == trace.LayerTotal(2, 130, 60)
    assert totals["B"] == trace.LayerTotal(2, 70, 60)
    assert totals["C"] == trace.LayerTotal(1, 10, 10)
    assert trace.worst_root_residual(spans) == 0.0


def test_same_seed_same_inputs_and_state():
    events_a, statements_a = record_trace(7, TINY)
    events_b, statements_b = record_trace(7, TINY)
    assert statements_a == statements_b
    assert [(e, t) for e, __, t in events_a] == \
        [(e, t) for e, __, t in events_b]
    __, statements_c = record_trace(8, TINY)
    assert statements_c != statements_a

    passes = []
    for __ in range(2):
        workload = RulesReplay(7, TINY, Check())
        workload.setup()
        passes.append(workload.one_pass())
        assert not workload.check.failures
    assert passes[0].fingerprint == passes[1].fingerprint
    assert passes[0].counters == passes[1].counters


def test_unresolvable_name_is_reported_not_fatal():
    missing = ("repro.core.lat.LAT.no_such_method",
               "repro.no_such_module.Thing.method")
    outcome = harness.traced("latstream-replay", 7, TINY,
                             table=trace.WRAP_TABLE + missing)
    assert not outcome.check.failures
    assert outcome.metrics["trace.unresolved"] == 2
    assert outcome.info["unresolved"] == list(missing)
    assert outcome.metrics["core.lat.insert_calls"] > 0


def test_wrappers_are_removed_after_a_traced_pass():
    def static_attributes():
        found = {}
        for path in trace.WRAP_TABLE:
            owner, attr, original = trace.resolve(path)
            found[path] = original
        return found

    before = static_attributes()
    recorder = trace.SpanRecorder()
    with recorder:
        during = static_attributes()
        assert all(during[path] is not before[path] for path in before)
    assert not recorder.unresolved
    after = static_attributes()
    assert all(after[path] is before[path] for path in before)
    # module-level functions were patched where they had been imported
    from repro.service import client, protocol, server
    for module in (client, protocol, server):
        assert inspect.getattr_static(module, "encode_frame") \
            is before["repro.service.protocol.encode_frame"]
