"""Tests for LAT aggregation functions and block-based aging."""

import math

import pytest

from repro.core.aggregates import (_FUNCTIONS, AgingSpec, AgingState,
                                   aggregate_function)
from repro.errors import LATError


def run_agg(name, values):
    func = aggregate_function(name)
    state = func.new_state()
    for value in values:
        state = func.update(state, value)
    return func.result(state)


class TestStandardFunctions:
    def test_count_skips_nulls(self):
        assert run_agg("COUNT", [1, None, 2]) == 2

    def test_sum(self):
        assert run_agg("SUM", [1, 2, 3]) == 6
        assert run_agg("SUM", []) is None
        assert run_agg("SUM", [None]) is None

    def test_avg(self):
        assert run_agg("AVG", [2, 4]) == 3
        assert run_agg("AVG", []) is None

    def test_min_max(self):
        assert run_agg("MIN", [3, 1, 2]) == 1
        assert run_agg("MAX", [3, 1, 2]) == 3
        assert run_agg("MIN", [None]) is None

    def test_stdev_matches_sample_formula(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        mean = sum(values) / len(values)
        expected = math.sqrt(
            sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        assert run_agg("STDEV", values) == pytest.approx(expected)

    def test_stdev_needs_two_values(self):
        assert run_agg("STDEV", [5.0]) is None

    def test_first_and_last(self):
        assert run_agg("FIRST", ["a", "b", "c"]) == "a"
        assert run_agg("LAST", ["a", "b", "c"]) == "c"
        assert run_agg("FIRST", []) is None

    def test_case_insensitive_lookup(self):
        assert aggregate_function("avg").name == "AVG"

    def test_unknown_function(self):
        with pytest.raises(LATError):
            aggregate_function("MEDIAN")

    def test_all_functions_listed(self):
        assert set(_FUNCTIONS) == {
            "COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV", "FIRST", "LAST",
        }

    def test_combine_merges_partial_states(self):
        for name in sorted(_FUNCTIONS):
            func = aggregate_function(name)
            s1 = func.new_state()
            s2 = func.new_state()
            for v in (1.0, 2.0):
                s1 = func.update(s1, v)
            for v in (3.0, 4.0):
                s2 = func.update(s2, v)
            combined = func.combine(s1, s2)
            straight = func.new_state()
            for v in (1.0, 2.0, 3.0, 4.0):
                straight = func.update(straight, v)
            assert func.result(combined) == pytest.approx(
                func.result(straight))


class TestAgingSpec:
    def test_validation(self):
        with pytest.raises(LATError):
            AgingSpec(window=0, delta=1)
        with pytest.raises(LATError):
            AgingSpec(window=10, delta=20)

    def test_max_blocks_bound(self):
        spec = AgingSpec(window=10.0, delta=2.0)
        assert spec.max_blocks == 6  # ceil(t/Δ) + 1 ≤ 2t/Δ for Δ ≤ t


class TestAgingState:
    def test_values_age_out(self):
        state = AgingState(aggregate_function("SUM"),
                           AgingSpec(window=10.0, delta=1.0))
        state.update(5.0, now=0.0)
        state.update(7.0, now=8.0)
        assert state.result(now=9.0) == 12.0
        # at t=15 the first block (t=0) is outside the 10s window
        assert state.result(now=15.0) == 7.0
        # at t=25 everything is gone
        assert state.result(now=25.0) is None

    def test_avg_ages(self):
        state = AgingState(aggregate_function("AVG"),
                           AgingSpec(window=10.0, delta=1.0))
        state.update(10.0, now=0.0)
        state.update(20.0, now=9.0)
        assert state.result(now=9.5) == 15.0
        assert state.result(now=12.0) == 20.0

    def test_count_ages(self):
        state = AgingState(aggregate_function("COUNT"),
                           AgingSpec(window=5.0, delta=1.0))
        for t in range(10):
            state.update(1.0, now=float(t))
        # window [5, 10): values at t=5..9 (block at 4 expired when 4+1 <= 5)
        assert state.result(now=10.0) == 5

    def test_same_block_values_grouped(self):
        state = AgingState(aggregate_function("COUNT"),
                           AgingSpec(window=10.0, delta=5.0))
        state.update(1.0, now=1.0)
        state.update(1.0, now=2.0)
        state.update(1.0, now=3.0)
        assert state.block_count == 1

    def test_block_count_bounded(self):
        spec = AgingSpec(window=10.0, delta=1.0)
        state = AgingState(aggregate_function("SUM"), spec)
        for i in range(100):
            state.update(1.0, now=float(i) * 0.5)
        assert state.block_count <= spec.max_blocks

    def test_min_ages_out_old_minimum(self):
        state = AgingState(aggregate_function("MIN"),
                           AgingSpec(window=10.0, delta=1.0))
        state.update(1.0, now=0.0)   # the old minimum
        state.update(50.0, now=9.0)
        assert state.result(now=9.0) == 1.0
        assert state.result(now=15.0) == 50.0

    def test_first_ages_to_next_surviving_block(self):
        state = AgingState(aggregate_function("FIRST"),
                           AgingSpec(window=10.0, delta=1.0))
        state.update("old", now=0.0)
        state.update("new", now=9.0)
        assert state.result(now=9.0) == "old"
        assert state.result(now=15.0) == "new"
