"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (AgingSpec, AgingState, aggregate_function)
from repro.core.lat import LAT, LATDefinition
from repro.core.signatures import linearize_expr
from repro.engine.catalog import ColumnDef, TableSchema
from repro.engine.storage import Table
from repro.engine.types import SQLType, compare, sql_and, sql_not, sql_or
from repro.sim import SimClock

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          width=32)
small_ints = st.integers(min_value=-1_000_000, max_value=1_000_000)


class TestAggregateProperties:
    @given(st.lists(finite_floats, max_size=60))
    def test_count_equals_non_null_cardinality(self, values):
        func = aggregate_function("COUNT")
        state = func.new_state()
        for value in values:
            state = func.update(state, value)
        assert func.result(state) == len(values)

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_min_max_bound_all_values(self, values):
        low = aggregate_function("MIN")
        high = aggregate_function("MAX")
        s_low, s_high = low.new_state(), high.new_state()
        for value in values:
            s_low = low.update(s_low, value)
            s_high = high.update(s_high, value)
        assert low.result(s_low) == min(values)
        assert high.result(s_high) == max(values)

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_avg_between_min_and_max(self, values):
        func = aggregate_function("AVG")
        state = func.new_state()
        for value in values:
            state = func.update(state, value)
        result = func.result(state)
        assert min(values) - 1e-6 <= result <= max(values) + 1e-6

    @given(st.lists(finite_floats, max_size=40),
           st.lists(finite_floats, max_size=40))
    def test_combine_equals_sequential(self, left, right):
        """combine(update(a...), update(b...)) == update(a..., b...)."""
        for name in ("COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV"):
            func = aggregate_function(name)
            s1, s2, s3 = (func.new_state(), func.new_state(),
                          func.new_state())
            for value in left:
                s1 = func.update(s1, value)
                s3 = func.update(s3, value)
            for value in right:
                s2 = func.update(s2, value)
                s3 = func.update(s3, value)
            combined = func.result(func.combine(s1, s2))
            sequential = func.result(s3)
            if combined is None or sequential is None:
                assert combined == sequential
            else:
                assert combined == pytest.approx(sequential,
                                                 rel=1e-5, abs=1e-6)

    @pytest.mark.xfail(strict=True, reason=(
        "float SUM/AVG combine is not associative: the open ROADMAP item "
        "'make merge exact' (order-independent accumulator)"))
    @pytest.mark.parametrize("name", ["SUM", "AVG"])
    def test_combine_survives_float_cancellation(self, name):
        """The counter-example hypothesis found for the property above,
        pinned: 1.0 is absorbed by 3.4e38 on the right-hand partition
        (SUM combines to 0.0, sequential is 1.0; AVG 0.0 vs 0.333...)."""
        func = aggregate_function(name)
        left, right = [-3.4e38], [3.4e38, 1.0]
        s1, s2, s3 = func.new_state(), func.new_state(), func.new_state()
        for value in left:
            s1, s3 = func.update(s1, value), func.update(s3, value)
        for value in right:
            s2, s3 = func.update(s2, value), func.update(s3, value)
        assert func.result(func.combine(s1, s2)) == pytest.approx(
            func.result(s3), rel=1e-5, abs=1e-6)

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        finite_floats), max_size=50).map(
            lambda items: sorted(items, key=lambda x: x[0])))
    def test_aging_storage_bound(self, timed_values):
        """Aging state never exceeds the paper's 2t/Δ storage bound."""
        spec = AgingSpec(window=10.0, delta=2.0)
        state = AgingState(aggregate_function("SUM"), spec)
        for timestamp, value in timed_values:
            state.update(value, timestamp)
            assert state.block_count <= spec.max_blocks

    @given(st.lists(st.floats(min_value=0, max_value=50, allow_nan=False),
                    min_size=1, max_size=50).map(sorted))
    def test_aging_count_matches_exact_window(self, timestamps):
        """Block aging never loses in-window values and only over-retains
        by at most one block width."""
        spec = AgingSpec(window=10.0, delta=1.0)
        state = AgingState(aggregate_function("COUNT"), spec)
        for timestamp in timestamps:
            state.update(1.0, timestamp)
        now = timestamps[-1]
        result = state.result(now)
        exact = sum(1 for t in timestamps if t > now - spec.window)
        loose = sum(1 for t in timestamps
                    if t > now - spec.window - spec.delta)
        assert exact <= result <= loose


class TestThreeValuedLogicProperties:
    tvl = st.sampled_from([True, False, None])

    @given(tvl, tvl)
    def test_de_morgan(self, a, b):
        assert sql_not(sql_and(a, b)) == sql_or(sql_not(a), sql_not(b))
        assert sql_not(sql_or(a, b)) == sql_and(sql_not(a), sql_not(b))

    @given(tvl, tvl)
    def test_commutativity(self, a, b):
        assert sql_and(a, b) == sql_and(b, a)
        assert sql_or(a, b) == sql_or(b, a)

    @given(small_ints, small_ints)
    def test_compare_antisymmetric(self, a, b):
        assert compare(a, b) == -compare(b, a)

    @given(small_ints, small_ints, small_ints)
    def test_compare_transitive(self, a, b, c):
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


class TestStorageProperties:
    @given(st.lists(st.tuples(small_ints, finite_floats),
                    unique_by=lambda r: r[0], max_size=60))
    def test_insert_then_lookup(self, rows):
        table = Table(TableSchema("p", [
            ColumnDef("k", SQLType.INTEGER, nullable=False),
            ColumnDef("v", SQLType.FLOAT),
        ], primary_key=["k"]))
        for key, value in rows:
            table.insert([key, value])
        index = table.indexes["pk_p"]
        for key, value in rows:
            found = index.lookup((key,))
            assert len(found) == 1
            assert table.get(next(iter(found)))[1] == pytest.approx(
                value, rel=1e-6) if value == value else True

    @given(st.lists(small_ints, unique=True, min_size=1, max_size=60))
    def test_range_scan_sorted_and_complete(self, keys):
        table = Table(TableSchema("p", [
            ColumnDef("k", SQLType.INTEGER, nullable=False),
        ], primary_key=["k"]))
        for key in keys:
            table.insert([key])
        index = table.indexes["pk_p"]
        values = [table.get(r)[0] for r in index.range(None, None)]
        assert values == sorted(keys)

    @given(st.lists(small_ints, unique=True, min_size=1, max_size=40),
           small_ints, small_ints)
    def test_bounded_range_matches_filter(self, keys, low, high):
        if low > high:
            low, high = high, low
        table = Table(TableSchema("p", [
            ColumnDef("k", SQLType.INTEGER, nullable=False),
        ], primary_key=["k"]))
        for key in keys:
            table.insert([key])
        index = table.indexes["pk_p"]
        got = [table.get(r)[0] for r in index.range((low,), (high,))]
        assert got == sorted(k for k in keys if low <= k <= high)

    @given(st.lists(st.tuples(small_ints, finite_floats),
                    unique_by=lambda r: r[0], min_size=1, max_size=30),
           st.data())
    def test_delete_restore_roundtrip(self, rows, data):
        table = Table(TableSchema("p", [
            ColumnDef("k", SQLType.INTEGER, nullable=False),
            ColumnDef("v", SQLType.FLOAT),
        ], primary_key=["k"]))
        rowids = [table.insert([k, v]) for k, v in rows]
        victim = data.draw(st.sampled_from(rowids))
        image = table.delete(victim)
        table.restore(victim, image)
        assert table.get(victim) == image
        assert table.row_count == len(rows)


class TestLATProperties:
    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                              st.floats(min_value=0, max_value=1e6,
                                        allow_nan=False)),
                    max_size=80))
    def test_lat_matches_group_by(self, records):
        """LAT contents equal a straight GROUP BY over the inserts."""
        lat = LAT(LATDefinition(
            name="P",
            grouping=["Query.ID AS G"],
            aggregations=["COUNT(Query.Duration) AS N",
                          "SUM(Query.Duration) AS S"],
        ), SimClock())
        expected: dict[int, list[float]] = {}
        for group, value in records:
            lat.insert({"id": group, "duration": value})
            expected.setdefault(group, []).append(value)
        assert len(lat) == len(expected)
        for group, values in expected.items():
            row = lat.lookup((group,))
            assert row["N"] == len(values)
            assert row["S"] == pytest.approx(sum(values), rel=1e-9)

    @settings(deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=10))
    def test_topk_lat_keeps_k_largest(self, durations, k):
        """The size-limited LAT retains exactly the top-k by ordering."""
        lat = LAT(LATDefinition(
            name="P",
            grouping=["Query.ID AS G"],
            aggregations=["MAX(Query.Duration) AS D"],
            ordering=["D DESC"],
            max_rows=k,
        ), SimClock())
        for i, duration in enumerate(durations):
            lat.insert({"id": i, "duration": duration})
        kept = sorted((row["D"] for row in lat.rows()), reverse=True)
        expected = sorted(durations, reverse=True)[:k]
        assert kept == pytest.approx(expected)

    @settings(deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                    max_size=60), st.integers(min_value=1, max_value=5))
    def test_size_limit_invariant(self, groups, max_rows):
        lat = LAT(LATDefinition(
            name="P",
            grouping=["Query.ID AS G"],
            aggregations=["COUNT(Query.Duration) AS N"],
            ordering=["N DESC"],
            max_rows=max_rows,
        ), SimClock())
        for group in groups:
            lat.insert({"id": group, "duration": 1.0})
            assert len(lat) <= max_rows


class TestSignatureProperties:
    _exprs = st.recursive(
        st.one_of(
            st.integers(-100, 100).map(
                lambda v: f"{v}" if v >= 0 else f"({v})"),
            st.sampled_from(["a", "b", "t.c"]),
        ),
        lambda inner: st.tuples(
            inner, st.sampled_from(["+", "*", "=", "<"]), inner
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        max_leaves=8,
    )

    @given(_exprs, st.integers(-100, 100), st.integers(-100, 100))
    @settings(deadline=None)
    def test_constant_values_never_affect_signature(self, template, c1, c2):
        from repro.engine.sqlparse.parser import parse_statement

        def sig_of(constant):
            sql = f"SELECT a FROM t WHERE {template} AND a = {constant}"
            return linearize_expr(parse_statement(sql).where)

        assert sig_of(c1) == sig_of(c2)
