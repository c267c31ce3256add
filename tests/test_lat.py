"""Tests for lightweight aggregation tables (paper Section 4.3)."""

import pytest

from repro.core.aggregates import AgingSpec
from repro.core.lat import (AggSpec, GroupSpec, LAT, LATDefinition,
                            OrderSpec)
from repro.errors import LATError
from repro.sim import SimClock


@pytest.fixture
def clock():
    return SimClock()


def make_lat(clock, **overrides):
    spec = dict(
        name="Test_LAT",
        monitored_class="Query",
        grouping=["Query.Application AS App"],
        aggregations=[
            "COUNT(Query.ID) AS N",
            "AVG(Query.Duration) AS Avg_D",
            "MAX(Query.Duration) AS Max_D",
        ],
        ordering=["N DESC"],
        max_rows=None,
    )
    spec.update(overrides)
    return LAT(LATDefinition(**spec), clock)


class TestDefinitionParsing:
    def test_string_specs_parsed(self, clock):
        lat = make_lat(clock)
        assert lat.definition.grouping[0] == GroupSpec("Application", "App")
        agg = lat.definition.aggregations[0]
        assert agg.func == "COUNT" and agg.attr == "ID" and agg.alias == "N"

    def test_column_names(self, clock):
        assert make_lat(clock).definition.column_names() == \
            ["App", "N", "Avg_D", "Max_D"]

    def test_default_agg_column_name(self):
        definition = LATDefinition(
            name="x", grouping=["Query.ID"],
            aggregations=["SUM(Query.Duration)"],
        )
        assert definition.aggregations[0].column == "sum_duration"

    def test_ordering_direction_parsing(self):
        definition = LATDefinition(
            name="x", grouping=["Query.ID"],
            aggregations=["SUM(Query.Duration) AS S"],
            ordering=["S ASC"],
        )
        assert definition.ordering[0] == OrderSpec("S", False)

    def test_bad_agg_spec(self):
        with pytest.raises(LATError):
            LATDefinition(name="x", grouping=["Query.ID"],
                          aggregations=["NOPAREN"])

    def test_unknown_ordering_column(self):
        with pytest.raises(LATError):
            LATDefinition(name="x", grouping=["Query.ID"],
                          aggregations=[], ordering=["Ghost DESC"])

    def test_size_limit_requires_ordering(self):
        with pytest.raises(LATError):
            LATDefinition(name="x", grouping=["Query.ID"],
                          aggregations=[], max_rows=5)

    def test_grouping_required(self):
        with pytest.raises(LATError):
            LATDefinition(name="x", grouping=[], aggregations=[])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(LATError):
            LATDefinition(
                name="x", grouping=["Query.ID AS C"],
                aggregations=["SUM(Query.Duration) AS C"],
            )


class TestGroupingAndAggregation:
    def test_group_by_semantics(self, clock):
        lat = make_lat(clock)
        lat.insert({"application": "a", "id": 1, "duration": 2.0})
        lat.insert({"application": "a", "id": 2, "duration": 4.0})
        lat.insert({"application": "b", "id": 3, "duration": 10.0})
        assert len(lat) == 2
        row = lat.lookup(("a",))
        assert row["N"] == 2
        assert row["Avg_D"] == 3.0
        assert row["Max_D"] == 4.0

    def test_lookup_missing_returns_none(self, clock):
        assert make_lat(clock).lookup(("ghost",)) is None

    def test_rows_ordered_by_importance(self, clock):
        lat = make_lat(clock)
        for i, app in enumerate(["a"] * 3 + ["b"] * 5 + ["c"]):
            lat.insert({"application": app, "id": i, "duration": 1.0})
        apps = [row["App"] for row in lat.rows()]
        assert apps == ["b", "a", "c"]

    def test_reset_clears_state(self, clock):
        lat = make_lat(clock)
        lat.insert({"application": "a", "id": 1, "duration": 1.0})
        lat.reset()
        assert len(lat) == 0
        assert lat.rows() == []

    def test_null_group_key_allowed(self, clock):
        lat = make_lat(clock)
        lat.insert({"application": None, "id": 1, "duration": 1.0})
        assert lat.lookup((None,))["N"] == 1

    def test_insert_statistics(self, clock):
        lat = make_lat(clock)
        for i in range(4):
            lat.insert({"application": "a", "id": i, "duration": 1.0})
        assert lat.insert_count == 4
        assert lat.peak_rows == 1
        assert lat.latch_acquisitions >= 12


class TestEviction:
    def _topk_lat(self, clock, k):
        return LAT(LATDefinition(
            name="TopK",
            grouping=["Query.ID AS Qid"],
            aggregations=["MAX(Query.Duration) AS D"],
            ordering=["D DESC"],
            max_rows=k,
        ), clock)

    def test_keeps_k_largest(self, clock):
        lat = self._topk_lat(clock, 3)
        evicted_all = []
        for i, duration in enumerate([5.0, 1.0, 9.0, 3.0, 7.0]):
            evicted_all.extend(
                lat.insert({"id": i, "duration": duration}))
        durations = [row["D"] for row in lat.rows()]
        assert durations == [9.0, 7.0, 5.0]
        assert {row["D"] for row in evicted_all} == {1.0, 3.0}
        assert lat.eviction_count == 2

    def test_new_row_can_be_evicted_immediately(self, clock):
        lat = self._topk_lat(clock, 2)
        lat.insert({"id": 1, "duration": 10.0})
        lat.insert({"id": 2, "duration": 8.0})
        evicted = lat.insert({"id": 3, "duration": 1.0})
        assert [row["Qid"] for row in evicted] == [3]

    def test_ascending_ordering_evicts_largest(self, clock):
        lat = LAT(LATDefinition(
            name="BottomK",
            grouping=["Query.ID AS Qid"],
            aggregations=["MIN(Query.Duration) AS D"],
            ordering=["D ASC"],
            max_rows=2,
        ), clock)
        for i, duration in enumerate([5.0, 1.0, 9.0]):
            lat.insert({"id": i, "duration": duration})
        assert [row["D"] for row in lat.rows()] == [1.0, 5.0]

    def test_max_bytes_limit(self, clock):
        lat = LAT(LATDefinition(
            name="Small",
            grouping=["Query.ID AS Qid"],
            aggregations=["MAX(Query.Duration) AS D"],
            ordering=["D DESC"],
            max_bytes=300,
        ), clock)
        for i in range(10):
            lat.insert({"id": i, "duration": float(i)})
        assert lat.memory_bytes() <= 300
        assert len(lat) < 10

    def test_memory_bytes_counts_rows_and_aging_blocks(self, clock):
        lat = LAT(LATDefinition(
            name="Mixed",
            grouping=["Query.ID AS Qid"],
            aggregations=[
                "MAX(Query.Duration) AS D",
                AggSpec("SUM", "Duration", "Recent", AgingSpec(10.0, 2.0)),
                AggSpec("COUNT", "ID", "N", AgingSpec(6.0, 3.0)),
            ],
        ), clock)
        for step in range(12):
            clock.advance_to(float(step))
            lat.insert({"id": step % 4, "duration": 1.0})
        blocks = sum(state.block_count for row in lat._rows.values()
                     for state in row.states[1:])
        assert blocks > 2 * len(lat)  # the walk has something to count
        assert lat.memory_bytes() == len(lat) * (48 + 4 * 24) + blocks * 32

    def test_tie_break_evicts_oldest(self, clock):
        lat = self._topk_lat(clock, 2)
        lat.insert({"id": 1, "duration": 5.0})
        lat.insert({"id": 2, "duration": 5.0})
        lat.insert({"id": 3, "duration": 5.0})
        assert sorted(row["Qid"] for row in lat.rows()) == [2, 3]


class TestAgingInLAT:
    def test_aging_aggregation_column(self, clock):
        lat = LAT(LATDefinition(
            name="Aged",
            grouping=["Query.Application AS App"],
            aggregations=[AggSpec("SUM", "Duration", "S",
                                  aging=AgingSpec(window=10.0, delta=1.0))],
        ), clock)
        lat.insert({"application": "a", "duration": 5.0})
        clock.advance(8.0)
        lat.insert({"application": "a", "duration": 7.0})
        assert lat.lookup(("a",))["S"] == 12.0
        clock.advance(7.0)  # now 15: first block expired
        assert lat.lookup(("a",))["S"] == 7.0


class TestSeedRestore:
    def test_seed_row_restores_values(self, clock):
        lat = make_lat(clock)
        lat.seed_row({"app": "a", "n": 4, "avg_d": 2.5, "max_d": 9.0})
        row = lat.lookup(("a",))
        assert row["N"] == 4
        assert row["Avg_D"] == 2.5
        assert row["Max_D"] == 9.0

    def test_seeded_avg_continues_correctly_with_count(self, clock):
        lat = make_lat(clock)
        lat.seed_row({"app": "a", "n": 4, "avg_d": 2.0, "max_d": 2.0})
        # 4 values averaging 2.0 restored; one more value of 7.0 → avg 3.0
        lat.insert({"application": "a", "id": 9, "duration": 7.0})
        assert lat.lookup(("a",))["Avg_D"] == pytest.approx(3.0)


class TestCompiledInsert:
    """``insert`` is one function generated from the definition."""

    WEIRD = ["it's", 'tri"""ple', "back\\slash", "new\nline", "é"]

    def test_user_text_is_bound_not_interpolated(self, clock):
        group, summed, last, first, counted = self.WEIRD
        lat = LAT(LATDefinition(
            name="Weird",
            grouping=[GroupSpec(group, 'g"1')],
            aggregations=[AggSpec("SUM", summed, "s'1"),
                          AggSpec("LAST", last, "l\\1"),
                          AggSpec("FIRST", first, "f\n1"),
                          AggSpec("COUNT", counted, "é1")],
            ordering=[OrderSpec("s'1")], max_rows=3,
        ), clock)
        source = lat._insert.__source__
        for text in self.WEIRD + ['g"1', "s'1", "l\\1", "f\n1", "é1"]:
            assert text not in source
            assert text.lower() not in source
        for mark in ('"', '\\', "é"):
            assert mark not in source
        compile(source, "<test>", "exec")
        assert "journal" not in source

        lat.insert({group: 1, summed: 2.0, last: "x", first: "y",
                    counted: 0})
        lat.insert({group: 1, summed.lower(): 3.0, counted: None})
        assert lat.rows() == [{'g"1': 1, "s'1": 5.0, "l\\1": None,
                               "f\n1": "y", "é1": 1}]

    def test_equal_definitions_share_one_code_object(self, clock):
        first, second = make_lat(clock), make_lat(clock)
        assert first._insert is not second._insert
        assert first._insert.__code__ is second._insert.__code__
        # and so does every LAT built from one: a scratch copy, a clone
        assert first.scratch_copy()._insert.__code__ \
            is first._insert.__code__
        other = make_lat(clock, aggregations=["COUNT(Query.ID) AS N"])
        assert other._insert.__code__ is not first._insert.__code__

    def test_unreachable_branches_are_not_emitted(self, clock):
        plain = LAT(LATDefinition(
            name="Plain", grouping=["Query.ID AS Qid"],
            aggregations=["MAX(Query.Duration) AS D",
                          "LAST(Query.User) AS U"]), clock)
        source = plain._insert.__source__
        for absent in ("weight !=", "AgingState", "_dirty", "importance",
                       "_enforce_limits"):
            assert absent not in source
        assert source.count("probe('duration')") == 1
        topk = make_lat(clock, max_rows=5)
        assert topk._insert.__source__.count("probe('duration')") == 2
        for present in ("weight != 1", "_dirty", "row.importance = None",
                        "n > max_rows"):
            assert present in topk._insert.__source__

    def test_class_level_wrapper_sees_every_insert(self, clock, monkeypatch):
        """What the wall benchmark's tracer relies on: the generated
        function sits behind ``LAT.insert``, not over it."""
        seen = []
        original = LAT.insert

        def wrapper(self, *args, **kwargs):
            seen.append(type(self).__name__)
            return original(self, *args, **kwargs)

        class SubLAT(LAT):
            def insert(self, source, weight=1, now=None):
                return super().insert(source, weight, now)

        monkeypatch.setattr(LAT, "insert", wrapper)
        record = {"application": "a", "id": 1, "duration": 1.0}
        make_lat(clock).insert(record)
        SubLAT(make_lat(clock).definition, clock).insert(record)

        from repro import DatabaseServer, InsertAction, Rule, SQLCM
        server = DatabaseServer()
        server.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
        sqlcm = SQLCM(server)
        sqlcm.create_lat(LATDefinition(
            name="Seen", grouping=["Query.ID AS Qid"],
            aggregations=["MAX(Query.Duration) AS D"]))
        sqlcm.add_rule(Rule(name="feed", event="Query.Commit",
                            actions=[InsertAction("Seen")]))
        session = server.create_session(user="u")
        for i in range(3):
            session.execute(f"INSERT INTO t VALUES ({i})")
        assert seen == ["LAT", "SubLAT"] + ["LAT"] * 3
        assert sqlcm.lat("Seen").insert_count == 3
