"""Property tests for incremental window state (pane merge).

The load-bearing claim: a sliding window maintained as per-pane mergeable
aggregate states produces *exactly* the same results as recomputing each
window from the raw events — for COUNT/SUM/AVG and (within float
tolerance) the single-pass STDEV — while doing per-event work proportional
to the number of aggregates and per-emission work bounded by
panes-per-window, never by the events inside the window.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.aggregates import aggregate_function
from repro.errors import StreamError
from repro.stream import WindowSpec, WindowState

FUNCS = ["COUNT", "SUM", "AVG", "STDEV"]


def _reference(values: list[float], func: str):
    """Recompute one aggregate from scratch over raw values."""
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        return sum(values)
    if func == "AVG":
        return sum(values) / len(values)
    if func == "STDEV":
        if len(values) < 2:
            return None
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return math.sqrt(var)
    raise AssertionError(func)


def _random_run(seed: int, spec: WindowSpec, n_events: int,
                n_groups: int) -> None:
    """Drive random events through WindowState and cross-check every
    emitted boundary against recompute-from-scratch."""
    rng = random.Random(seed)
    state = WindowState(spec, [aggregate_function(f) for f in FUNCS])
    raw: dict[tuple, list[tuple[float, float]]] = {}  # key -> [(t, v)]
    t = 0.0
    events = []
    for __ in range(n_events):
        t += rng.expovariate(1.0) * spec.hop / 3.0
        key = (f"g{rng.randrange(n_groups)}",)
        value = rng.uniform(-100.0, 100.0)
        events.append((t, key, value))
        raw.setdefault(key, []).append((t, value))

    emitted = 0
    next_boundary = None
    for when, key, value in events:
        # close every boundary that the clock has passed, checking each
        current = spec.pane_index(when)
        if next_boundary is None:
            next_boundary = current + 1
        while next_boundary <= current:
            _check_boundary(state, spec, raw, next_boundary)
            emitted += 1
            next_boundary += 1
        state.observe(key, [value, value, value, value], when)
    # drain a few trailing boundaries past the last event
    for __ in range(spec.panes_per_window + 2):
        _check_boundary(state, spec, raw, next_boundary)
        emitted += 1
        next_boundary += 1
    assert emitted > 0

    # incrementality by operation count: one update per aggregate per
    # event, and merge work bounded by panes-per-window per group-emission
    assert state.update_ops == n_events * len(FUNCS)
    max_combines = emitted * n_groups * (spec.panes_per_window - 1) \
        * len(FUNCS)
    assert state.combine_ops <= max_combines


def _check_boundary(state: WindowState, spec: WindowSpec,
                    raw: dict, boundary: int) -> None:
    rows, __ = state.emit(boundary)
    got = {key: dict(zip(FUNCS, results)) for key, results in rows}
    low = spec.boundary_time(boundary - spec.panes_per_window)
    high = spec.boundary_time(boundary)
    for key, entries in raw.items():
        values = [v for (when, v) in entries if low <= when < high]
        expected = {f: _reference(values, f) for f in FUNCS}
        if not values:
            assert key not in got or got[key]["COUNT"] == 0
            continue
        row = got[key]
        assert row["COUNT"] == expected["COUNT"]
        assert row["SUM"] == pytest.approx(expected["SUM"], abs=1e-7)
        assert row["AVG"] == pytest.approx(expected["AVG"], abs=1e-9)
        if expected["STDEV"] is None:
            assert row["STDEV"] is None
        else:
            # single-pass Welford state vs two-pass reference
            assert row["STDEV"] == pytest.approx(expected["STDEV"],
                                                 rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("seed", range(8))
def test_sliding_pane_merge_matches_recompute(seed):
    spec = WindowSpec("sliding", 10.0, 1.0)
    _random_run(seed, spec, n_events=300, n_groups=3)


@pytest.mark.parametrize("seed", range(4))
def test_tumbling_matches_recompute(seed):
    spec = WindowSpec("tumbling", 5.0, 5.0)
    _random_run(100 + seed, spec, n_events=200, n_groups=2)


@pytest.mark.parametrize("seed", range(4))
def test_hopping_matches_recompute(seed):
    spec = WindowSpec("hopping", 6.0, 2.0)
    _random_run(200 + seed, spec, n_events=200, n_groups=4)


def test_stdev_numerical_stability_large_offset():
    """Single-pass STDEV must survive values with a large common offset
    (the classic catastrophic-cancellation trap)."""
    spec = WindowSpec("tumbling", 10.0, 10.0)
    state = WindowState(spec, [aggregate_function("STDEV")])
    base = 1e9
    values = [base + v for v in (0.0, 1.0, 2.0, 3.0, 4.0)]
    for i, v in enumerate(values):
        state.observe(("g",), [v], 1.0 + i)
    rows, __ = state.emit(1)
    [(__, [got])] = rows
    mean = sum(values) / len(values)
    expected = math.sqrt(
        sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    assert got == pytest.approx(expected, rel=1e-3)


def test_window_spec_validation():
    with pytest.raises(StreamError):
        WindowSpec("sliding", 10.0, 3.0)  # length not a hop multiple
    with pytest.raises(StreamError):
        WindowSpec("sliding", 1.0, 2.0)  # hop exceeds length
    with pytest.raises(StreamError):
        WindowSpec("sideways", 10.0, 1.0)
    with pytest.raises(StreamError):
        WindowSpec("tumbling", 0.0, 0.0)
    assert WindowSpec("sliding", 10.0, 2.5).panes_per_window == 4


def test_out_of_order_event_rejected():
    spec = WindowSpec("sliding", 4.0, 1.0)
    state = WindowState(spec, [aggregate_function("COUNT")])
    state.observe(("g",), [1], 5.0)
    with pytest.raises(StreamError):
        state.observe(("g",), [1], 3.0)


def test_expired_groups_are_dropped():
    spec = WindowSpec("sliding", 4.0, 1.0)
    state = WindowState(spec, [aggregate_function("COUNT")])
    state.observe(("old",), [1], 0.5)
    state.observe(("new",), [1], 20.5)
    # at boundary 21, panes below 17 are expired: "old" dies entirely
    rows, __ = state.emit(21)
    assert {key for key, __ in rows} == {("new",)}
    assert state.group_count == 1


class TestImage:
    """``WindowState.image()`` -> the literal codec -> ``load_image()``:
    the pane layout is ``windows.py``'s alone, so the round trip is too."""

    FUNCS = ["COUNT", "SUM", "AVG", "STDEV", "MIN", "MAX", "FIRST", "LAST"]

    def _window(self):
        return WindowState(WindowSpec("sliding", 6.0, 2.0),
                           [aggregate_function(f) for f in self.FUNCS])

    def test_image_round_trips_through_the_literal_codec(self):
        from repro.core import state as schema
        rng = random.Random(11)
        window = self._window()
        for step in range(60):
            key = (f"g{rng.randrange(4)}", rng.randrange(2))
            value = rng.choice([None, rng.uniform(-9.0, 9.0)])
            window.observe(key, [value] * len(self.FUNCS), step * 0.4)
        window.observe(("never", 0), [None] * len(self.FUNCS), 24.0)
        window.emit(5)
        image = schema.loads(schema.dumps(window.image()))
        copy = self._window()
        copy.load_image(image)
        assert copy.groups == window.groups
        assert list(copy.groups) == list(window.groups)
        assert schema.fold([copy]) == schema.fold([window])
        assert copy.image() == window.image()
        assert copy.emit(13) == window.emit(13)
