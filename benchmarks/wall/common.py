"""Shared set-up, the replay loop and the statistics of the wall harness.

Everything here builds monitors through the one construction path the
roadmap keeps — ``SQLCM(driver=InMemoryDriver(server))`` — and delivers
replayed events through the engine's own seam::

    server.clock.advance_to(t); server.events.publish(event, payload)
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro import SQLCM, DatabaseServer, EventTrace, InMemoryDriver
from repro.workloads import TPCHConfig, WorkloadMix, mixed_paper_workload
from repro.workloads.generator import lineitem_key_sample
from repro.workloads.tpch import setup_tpch

#: TPC-H-like data scale of every workload (12k lineitem rows)
TPCH = TPCHConfig().scaled(0.2)

#: repo root (the benchmark reads and writes only below it)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: scratch directory for journals, checkpoints and Chrome traces
OUT_DIR = os.path.join(ROOT, ".bench_wall")

#: how many times a run repeats its set-up; ``setup_s`` is the median
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    """Work per pass.  ``TINY`` keeps the harness self-test under 30 s."""

    trace_short: int = 600        # Trace-T: short selects ...
    trace_joins: int = 2          # ... and joins of an unmonitored run
    live_short: int = 3000        # live-tpch statements per pass
    live_joins: int = 10
    service_requests: int = 600   # per client, two clients
    # durable-replay: maybe_checkpoint() is called every checkpoint_every
    # events over the first two thirds of the trace; the interval (virtual
    # seconds) is short enough that every call writes a generation, so
    # the number of checkpoints does not depend on the seed's join sizes
    checkpoint_interval: float = 0.01
    checkpoint_every: int = 256


FULL = Sizes()
TINY = Sizes(trace_short=60, trace_joins=1, live_short=80, live_joins=1,
             service_requests=40, checkpoint_every=32)


@dataclass
class Check:
    """Correctness oracle of one workload run: every failed check counts
    as one failed operation and makes the run incorrect."""

    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


@dataclass
class Outcome:
    """What one workload run hands back to the runner."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    check: Check
    info: dict = field(default_factory=dict)


# -- set-up ---------------------------------------------------------------

def tpch_server() -> tuple[DatabaseServer, dict]:
    server = DatabaseServer()
    return server, setup_tpch(server, TPCH)


def paper_statements(server, counts: dict, short: int, joins: int,
                     seed: int) -> list[str]:
    """The paper's mixed workload (Section 6.2.2) as statement texts.

    The joins return 1400-1600 rows, not the paper's 1000-2000: same
    mean, but the work in a pass then varies by well under 1 % from seed
    to seed instead of by several."""
    keys = lineitem_key_sample(server, 200, seed=seed)
    mix = WorkloadMix(short_queries=short, join_queries=joins,
                      join_rows_low=1400, join_rows_high=1600, seed=seed)
    return [statement.sql for statement in mixed_paper_workload(
        mix, orders_rows=counts["orders"],
        lineitem_rows=counts["lineitem"], lineitem_keys=keys)]


def record_trace(seed: int, sizes: Sizes) -> tuple[list, list[str]]:
    """Trace-T: the engine events of an *unmonitored* run of the mixed
    workload, as ``(event, payload, virtual_time)`` triples."""
    server, counts = tpch_server()
    statements = paper_statements(server, counts, sizes.trace_short,
                                  sizes.trace_joins, seed)
    trace = EventTrace().attach(server)
    session = server.create_session(application="workload")
    for sql in statements:
        result = session.execute(sql)
        if result.error:
            raise RuntimeError(f"trace recording failed: {result.error}")
    trace.detach()
    return trace.events, statements


def new_monitor(server=None) -> SQLCM:
    """A monitor on a fresh bare server (or the given one)."""
    return SQLCM(driver=InMemoryDriver(server or DatabaseServer()))


# -- the replay loop ------------------------------------------------------

def replay(server, events: list, op_ns: list[int],
           chunk: int | None = None, after_chunk=None) -> int:
    """Publish ``events`` on ``server``'s bus as fast as it accepts them.

    ``op_ns`` (preallocated, one slot per event) receives the time spent
    inside each ``publish`` — for a ``query.commit`` that is the
    synchronous delay the monitor adds to the committing query.  With
    ``chunk`` set, ``after_chunk(events_done)`` runs between chunks
    (checkpoints are part of a durable run).  Returns the number of
    events whose publish raised.
    """
    advance = server.clock.advance_to
    publish = server.events.publish
    clock = perf_counter_ns
    failed = 0
    slot = 0
    step = chunk or len(events) or 1
    for low in range(0, len(events), step):
        for event, payload, t in events[low:low + step]:
            advance(t)
            start = clock()
            try:
                publish(event, payload)
            except Exception:
                failed += 1
            op_ns[slot] = clock() - start
            slot += 1
        if after_chunk is not None:
            after_chunk(slot)
    return failed


def commit_indexes(events: list) -> list[int]:
    return [i for i, (event, __, __) in enumerate(events)
            if event == "query.commit"]


# -- statistics -----------------------------------------------------------

def percentile(samples: list, q: int) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in 1..100)."""
    ordered = sorted(samples)
    return float(ordered[math.ceil(len(ordered) * q / 100) - 1])


def relative_iqr(values: list) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(seconds: float, one_pass) -> list:
    """Run ``one_pass()`` until ``seconds`` of wall time have been spent
    in timed passes (always at least once); returns the pass results."""
    results = []
    begin = perf_counter_ns()
    while True:
        gc.collect()  # every pass starts from a collected heap
        results.append(one_pass())
        if (perf_counter_ns() - begin) / 1e9 >= seconds:
            return results


def repeat_setup(one_setup) -> tuple[object, float]:
    """Set up ``SETUP_REPEATS`` times; returns the last set-up's product
    and the median set-up time in seconds."""
    times = []
    product = None
    for __ in range(SETUP_REPEATS):
        product = None  # release the previous set-up before the next
        gc.collect()
        begin = perf_counter_ns()
        product = one_setup()
        times.append((perf_counter_ns() - begin) / 1e9)
    return product, statistics.median(times)
