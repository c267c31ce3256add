"""D1: the paper's accuracy-vs-interval curve against a *real* database.

Every other experiment runs on the virtual-clock engine; D1 reruns the
Figure 3 comparison with the sqlite3 probe driver, monitoring an actual
database file.  The workload mixes four duration tiers — microsecond PK
lookups, ~0.1s scans, ~0.4s partial joins, multi-second joins — and two
monitors watch it side by side:

* **probe** (SQLCM): event-driven Top-K tracker riding the driver's
  ``query.commit`` stream — sees every completion, regardless of length;
* **PULL**: snapshot polling of ``active_queries`` at each grid interval,
  riding the driver's tick listener (sqlite has no scheduler to spawn a
  poller on).

The sqlite driver's clock is deterministic (VM-progress ticks), so the
curve is bit-stable across runs: the probe misses none of the true top-k
at any interval, while PULL's misses grow as the interval passes each
duration tier — queries shorter than the polling interval vanish.

Writes ``BENCH_driver.json`` (per-interval miss counts, truth durations,
probe-cost estimate) next to the repo's other bench artifacts.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from benchmarks.conftest import quick
from repro import SQLCM
from repro.apps.topk import TopKTracker
from repro.drivers import SQLiteDriver
from repro.monitoring import PullMonitor, missed_top_k, top_k_ground_truth

ROWS = quick(2000, 800)
K = 8
#: WHERE bounds for the join tiers (pair count ~ bound², so the big tier
#: runs seconds of virtual time and the medium tier a few tenths)
BIG_BOUND = quick(300, 150)
MEDIUM_BOUND = quick(80, 50)
SHORTS_PER_LONG = 4
INTERVALS = quick((0.005, 0.02, 0.1, 0.5), (0.002, 0.25))

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_driver.json"


def _build_database(path: str) -> SQLiteDriver:
    driver = SQLiteDriver(path)
    # load through a dedicated application so ground truth can exclude
    # setup statements (the monitors never see them either — they attach
    # after the build)
    loader = driver.connect(user="dbo", application="loader")
    result = loader.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b REAL)")
    assert result.ok, result.error
    for lo in range(1, ROWS + 1, 500):
        hi = min(lo + 500, ROWS + 1)
        values = ", ".join(f"({i}, {float(i)})" for i in range(lo, hi))
        assert loader.execute("INSERT INTO t VALUES " + values).ok
    loader.close()
    return driver


def _long_queries() -> list[str]:
    """The true top-k population: two big joins, three medium joins,
    three full scans (distinct literals keep the query ids distinct
    while the template — and so the signature — stays shared per tier)."""
    big = [f"SELECT sum(t1.b) FROM t t1, t t2 "
           f"WHERE t1.a < {BIG_BOUND + j} AND t2.a < {BIG_BOUND + j}"
           for j in range(2)]
    medium = [f"SELECT sum(t1.b) FROM t t1, t t2 "
              f"WHERE t1.a < {MEDIUM_BOUND + j} AND t2.a < {MEDIUM_BOUND + j}"
              for j in range(3)]
    small = [f"SELECT sum(b) FROM t WHERE a > {j}" for j in range(3)]
    return big + medium + small


def _run_workload(driver: SQLiteDriver) -> None:
    i = 0
    for sql in _long_queries():
        for __ in range(SHORTS_PER_LONG):
            i += 1
            result = driver.execute(
                f"SELECT b FROM t WHERE a = {i % ROWS + 1}")
            assert result.ok, result.error
        result = driver.execute(sql)
        assert result.ok, result.error


def _one_interval(tmp_path, interval: float) -> dict:
    driver = _build_database(str(tmp_path / f"d1_{interval}.db"))
    try:
        sqlcm = SQLCM(driver)
        tracker = TopKTracker(sqlcm, k=K)
        pull = PullMonitor(driver, interval)
        pull.start()
        _run_workload(driver)
        pull.stop()
        truth = top_k_ground_truth(
            driver, K, exclude_apps=("query_logging", "monitor", "loader"))
        return {
            "interval": interval,
            "probe_missed": missed_top_k(truth, tracker.top_k(K)),
            "pull_missed": missed_top_k(truth, pull.top_k(K)),
            "pull_polls": pull.poll_count,
            "truth_durations": [round(dur, 6) for __, __unused, dur in truth],
            "probe_cost_estimate": driver.probe_cost,
            "vm_ticks": driver.vm_ticks,
        }
    finally:
        driver.close()


def test_d1_probe_beats_polling_at_every_interval(report, benchmark,
                                                  tmp_path):
    """Figure 3 on sqlite: probe misses nothing, PULL decays with the
    interval."""
    rows: list[dict] = []

    def run_grid():
        rows.clear()
        for interval in INTERVALS:
            rows.append(_one_interval(tmp_path, interval))

    benchmark.pedantic(run_grid, rounds=1, iterations=1)

    for row in rows:
        assert row["probe_missed"] == 0, \
            f"probe missed top-k queries at interval {row['interval']}"
        assert row["pull_missed"] >= row["probe_missed"]
    assert rows[0]["pull_missed"] == 0, \
        "finest polling should still catch the whole top-k"
    assert rows[-1]["pull_missed"] >= 2, \
        "coarse polling must miss the short-duration tiers"

    lines = [f"D1: top-{K} misses on sqlite3 {sqlite3.sqlite_version} "
             f"({ROWS} rows)",
             f"{'interval':>10}  {'probe':>6}  {'pull':>5}  {'polls':>6}"]
    for row in rows:
        lines.append(f"{row['interval']:>10}  {row['probe_missed']:>6}  "
                     f"{row['pull_missed']:>5}  {row['pull_polls']:>6}")
    report(*lines)

    artifact = {
        "experiment": "D1",
        "backend": f"sqlite3 {sqlite3.sqlite_version}",
        "config": {
            "rows": ROWS,
            "k": K,
            "big_bound": BIG_BOUND,
            "medium_bound": MEDIUM_BOUND,
            "shorts_per_long": SHORTS_PER_LONG,
        },
        "intervals": rows,
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n",
                         encoding="utf-8")
    report(f"wrote {_ARTIFACT.name}")


def test_d1_probe_curve_is_deterministic(report, benchmark, tmp_path):
    """The driver's VM-tick clock makes the whole experiment replayable:
    two runs at the same interval agree on every duration and miss."""
    interval = INTERVALS[len(INTERVALS) // 2]
    fingerprints: list[tuple] = []

    def run_twice():
        fingerprints.clear()
        for attempt in range(2):
            row = _one_interval(tmp_path / f"run{attempt}", interval)
            fingerprints.append((
                tuple(row["truth_durations"]), row["pull_missed"],
                row["probe_missed"], row["pull_polls"], row["vm_ticks"],
            ))

    (tmp_path / "run0").mkdir()
    (tmp_path / "run1").mkdir()
    benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert fingerprints[0] == fingerprints[1], \
        "sqlite probe timings must be a pure function of VM work"
    report(f"D1 replay: interval {interval} bit-identical across runs "
           f"({fingerprints[0][4]} VM ticks)")
    if _ARTIFACT.exists():
        data = json.loads(_ARTIFACT.read_text(encoding="utf-8"))
        data["replay_stable"] = True
        _ARTIFACT.write_text(json.dumps(data, indent=2) + "\n",
                             encoding="utf-8")
