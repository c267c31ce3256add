"""A1 (ablation): the LAT's hash + ordered-eviction structure vs a naive
list-based LAT.

The paper (Section 6.1) stores LATs as "a heap structure on the ordering
columns and a hash array on the grouping columns for fast row lookup".
This ablation compares insert and lookup wall time against
:class:`NaiveListLAT` (linear membership probe + full re-sort per insert,
defined below beside the other straw man) to show why the structure matters once LATs see every
query on a busy server, and the heap against a scan of every row — what
eviction was before the heap — on a LAT that evicts on every insert.
"""

from __future__ import annotations

import random
from time import perf_counter

import pytest

from benchmarks.conftest import quick
from repro.core.lat import LAT, LATDefinition
from repro.sim import SimClock

GROUPS = 200
INSERTS = 2000


class NaiveListLAT(LAT):
    """A LAT without the paper's hash-plus-heap design: linear group
    lookup + full re-sort per insert."""

    def insert(self, source, weight: int = 1,
               now: float | None = None) -> list[dict]:
        key = self.key_of(source)
        for candidate in list(self._rows):  # linear membership probe
            if candidate == key:
                break
        evicted = super().insert(source, weight, now)
        # full re-sort after every insert (the naive ordered structure)
        now = self._clock.now
        sorted(self._rows.values(),
               key=lambda row: self._importance_key(row, now))
        return evicted

    def lookup(self, key: tuple) -> dict | None:
        key = tuple(key)
        for candidate, row in self._rows.items():  # linear scan
            if candidate == key:
                return self._row_values(row, self._clock.now)
        return None


def _definition() -> LATDefinition:
    return LATDefinition(
        name="A1",
        monitored_class="Query",
        grouping=["Query.ID AS G"],
        aggregations=["COUNT(Query.Duration) AS N",
                      "AVG(Query.Duration) AS D"],
        ordering=["D DESC"],
        max_rows=GROUPS // 2,
    )


def _records():
    return [{"id": i % GROUPS, "duration": float(i % 37)}
            for i in range(INSERTS)]


@pytest.mark.parametrize("structure", [LAT, NaiveListLAT],
                         ids=["hash+ordered (paper)", "naive list"])
def test_a1_insert_throughput(benchmark, structure):
    records = _records()

    def run():
        lat = structure(_definition(), SimClock())
        for record in records:
            lat.insert(record)
        return lat

    lat = benchmark(run)
    assert len(lat) == GROUPS // 2


@pytest.mark.parametrize("structure", [LAT, NaiveListLAT],
                         ids=["hash+ordered (paper)", "naive list"])
def test_a1_lookup_throughput(benchmark, structure):
    lat = structure(_definition(), SimClock())
    for record in _records():
        lat.insert(record)
    keys = [(i,) for i in range(GROUPS)]

    def run():
        hits = 0
        for key in keys:
            if lat.lookup(key) is not None:
                hits += 1
        return hits

    hits = benchmark(run)
    assert hits == GROUPS // 2


def test_a1_structures_agree(report, benchmark):
    """Correctness guard: both structures produce identical contents."""
    def run():
        fast = LAT(_definition(), SimClock())
        naive = NaiveListLAT(_definition(), SimClock())
        for record in _records():
            fast.insert(record)
            naive.insert(record)
        return fast, naive

    fast, naive = benchmark.pedantic(run, rounds=1, iterations=1)
    assert fast.rows() == naive.rows()
    for key in range(GROUPS):
        assert fast.lookup((key,)) == naive.lookup((key,))
    report("A1: both LAT structures agree on "
           f"{len(fast)} rows after {INSERTS} inserts")


# -- heap vs scan: what an eviction costs as the LAT grows ---------------------

EVICTING_INSERTS = quick(400, 100)
SIZES = quick((50, 1_000, 10_000), (50, 1_000))


class ScanLAT(LAT):
    """Eviction as it was before the heap: every row keyed (keys cached,
    natively comparable — the scan at its best) and compared."""

    def _least_important(self, now):
        return min(self._rows.values(), default=None,
                   key=lambda row: self._importance_key(row, now))


def _evict_every_insert(structure, max_rows: int):
    """A full top-k LAT fed only new groups: each insert evicts one row.
    Returns microseconds per insert and the evicted keys in order."""
    lat = structure(LATDefinition(
        name="A1_evict", monitored_class="Query",
        grouping=["Query.ID AS G"],
        aggregations=["MAX(Query.Duration) AS D"],
        ordering=["D DESC"], max_rows=max_rows), SimClock())
    rng = random.Random(max_rows)
    records = [{"id": i, "duration": rng.random()}
               for i in range(max_rows + 1 + EVICTING_INSERTS)]
    for record in records[:max_rows + 1]:  # fill, and the first eviction
        lat.insert(record)
    evicted = []
    begin = perf_counter()
    for record in records[max_rows + 1:]:
        evicted += lat.insert(record)
    elapsed = perf_counter() - begin
    assert len(evicted) == EVICTING_INSERTS and len(lat) == max_rows
    return elapsed / EVICTING_INSERTS * 1e6, [row["G"] for row in evicted]


def test_a1_heap_vs_scan_eviction(report):
    lines = ["A1: eviction on every insert, heap vs scan "
             f"({EVICTING_INSERTS} inserts into a full LAT, wall)",
             f"{'max_rows':>9} {'heap us/insert':>15} {'scan us/insert':>15}"
             f" {'scan/heap':>10}"]
    for max_rows in SIZES:
        heap_us, heap_order = _evict_every_insert(LAT, max_rows)
        scan_us, scan_order = _evict_every_insert(ScanLAT, max_rows)
        assert heap_order == scan_order  # same victims, same order
        lines.append(f"{max_rows:>9} {heap_us:>15.1f} {scan_us:>15.1f}"
                     f" {scan_us / heap_us:>9.1f}x")
        if max_rows >= 1_000:
            assert scan_us > 3 * heap_us
    report(*lines)
