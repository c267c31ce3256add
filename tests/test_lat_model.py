"""The compiled LAT against a reference model.

``LAT.insert`` is a function generated from the definition and eviction
pops a lazily maintained heap.  The reference below is the LAT this
replaced — ``insert`` interpreting the definition on every call, eviction
by a scan over every row through ``_Orderable.__lt__``, ``memory_bytes`` by
a walk — kept as a subclass so the two share only what did not change.
A state machine drives both with the same operations and requires, after
every step, the same evicted rows, the same error if one was raised, and
the same rows, counters, image and signature.
"""

from typing import Any

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core import state as schema
from repro.core.aggregates import _FUNCTIONS, AgingSpec, AgingState
from repro.core.lat import (_AGING_BLOCK_BYTES, _ROW_OVERHEAD_BYTES,
                            _VALUE_BYTES, AggSpec, GroupSpec, LAT,
                            LATDefinition, OrderSpec, _Row)
from repro.core.objects import MonitoredObject
from repro.core.schema import SCHEMA
from repro.sim import SimClock

# ---------------------------------------------------------------------------
# the reference: the interpreted insert and the eviction scan (test-only;
# nothing under src/ interprets a LAT definition per insert any more)
# ---------------------------------------------------------------------------


class _Orderable:
    """Total order over heterogeneous LAT values, optionally reversed."""

    __slots__ = ("value", "reverse", "rank")

    def __init__(self, value: Any, reverse: bool):
        self.value = value
        self.reverse = reverse
        if isinstance(value, bool):
            self.rank = (0, int(value))
        elif isinstance(value, (int, float)):
            self.rank = (0, value)
        elif isinstance(value, str):
            self.rank = (1, value)
        elif isinstance(value, bytes):
            self.rank = (2, value)
        else:
            self.rank = (3, repr(value))

    def __lt__(self, other: "_Orderable") -> bool:
        a, b = self.rank, other.rank
        if a[0] != b[0]:
            return a[0] < b[0]
        return (a[1] > b[1]) if self.reverse else (a[1] < b[1])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Orderable) and self.rank == other.rank


class ReferenceLAT(LAT):
    @staticmethod
    def _value(source, attr):
        if isinstance(source, MonitoredObject):
            return source.get(attr)
        for key in (attr, attr.lower()):
            if key in source:
                return source[key]
        return None

    def insert(self, source, weight=1, now=None):
        if now is None:
            now = self._clock.now
        key = self.key_of(source)
        row = self._rows.get(key)
        self.latch_acquisitions += 3
        if row is None:
            states = []
            for spec, func in zip(self.definition.aggregations,
                                  self._functions):
                if spec.aging is not None:
                    states.append(AgingState(func, spec.aging))
                else:
                    states.append(func.new_state())
            row = _Row(key, states, self._seq)
            self._seq += 1
            self._rows[key] = row
        for i, (spec, func) in enumerate(
                zip(self.definition.aggregations, self._functions)):
            value = self._value(source, spec.attr)
            if isinstance(row.states[i], AgingState):
                row.states[i].update(value, now, weight)
            elif weight != 1:
                row.states[i] = func.update_weighted(
                    row.states[i], value, weight)
            else:
                row.states[i] = func.update(row.states[i], value)
        row.importance = None
        self.insert_count += 1
        self.peak_rows = max(self.peak_rows, len(self._rows))
        return self._enforce_limits(now)

    def _least_important(self, now):
        worst = None
        worst_key = None
        for row in self._rows.values():
            key = self._importance_key(row, now)
            if worst is None or key < worst_key:
                worst = row
                worst_key = key
        return worst

    def _importance_key(self, row, now):
        if row.importance is not None and self._ordering_cacheable:
            return row.importance
        parts: list = []
        n_groups = len(row.key)
        for (index, descending) in self._order_indexes:
            if index < n_groups:
                value = row.key[index]
            else:
                state = row.states[index - n_groups]
                if isinstance(state, AgingState):
                    value = state.result(now)
                else:
                    value = self._functions[index - n_groups].result(state)
            if value is None:
                parts.append((0, 0))
            elif descending:
                parts.append((1, _Orderable(value, reverse=False)))
            else:
                parts.append((1, _Orderable(value, reverse=True)))
        parts.append(row.seq)
        key = tuple(parts)
        if self._ordering_cacheable:
            row.importance = key
        return key

    def memory_bytes(self):
        n_columns = len(self.definition.column_names())
        per_row = _ROW_OVERHEAD_BYTES + n_columns * _VALUE_BYTES
        total = 0
        for row in self._rows.values():
            total += per_row
            for state in row.states:
                if isinstance(state, AgingState):
                    total += state.block_count * _AGING_BLOCK_BYTES
        return total


# ---------------------------------------------------------------------------
# what the machine draws
# ---------------------------------------------------------------------------

GROUP_ATTRS = ("A", "B")
VALUE_ATTRS = ("X", "Y", "A")

#: values of every type rank an ordering column can meet, NULL included;
#: no NaN (it has no place in any order) and no infinities (SUM and STDEV
#: turn them into NaN)
values = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.floats(-4, 4, allow_nan=False).map(lambda x: round(x, 1)),
    st.booleans(),
    st.sampled_from(["a", "b", "Zed"]),
    st.sampled_from([b"a", b"bc"]),
    st.tuples(st.integers(0, 2)),
)
#: mostly numbers: an aggregate over mixed types raises more than it adds
mostly_numbers = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                           st.floats(-4, 4, allow_nan=False), values)


@st.composite
def definitions(draw):
    grouping = draw(st.lists(st.sampled_from(GROUP_ATTRS), min_size=1,
                             max_size=2, unique=True))
    aggregations = []
    for i in range(draw(st.integers(1, 4))):
        aging = None
        if draw(st.integers(0, 3)) == 0:
            aging = AgingSpec(window=10.0,
                              delta=draw(st.sampled_from([2.0, 5.0])))
        aggregations.append(AggSpec(
            draw(st.sampled_from(sorted(_FUNCTIONS))),
            draw(st.sampled_from(VALUE_ATTRS)), f"c{i}", aging))
    columns = [f"g_{attr}" for attr in grouping] + \
        [spec.alias for spec in aggregations]
    ordering = [OrderSpec(column, draw(st.booleans()))
                for column in draw(st.lists(st.sampled_from(columns),
                                            max_size=2, unique=True))]
    max_rows = max_bytes = None
    if ordering:
        max_rows = draw(st.one_of(st.none(), st.integers(1, 8)))
        per_row = _ROW_OVERHEAD_BYTES + len(columns) * _VALUE_BYTES
        max_bytes = draw(st.one_of(
            st.none(), st.integers(per_row, 6 * per_row)))
    return LATDefinition(
        name="Model",
        grouping=[GroupSpec(attr, f"g_{attr}") for attr in grouping],
        aggregations=aggregations, ordering=ordering,
        max_rows=max_rows, max_bytes=max_bytes)


@st.composite
def sources(draw):
    """One insert's source: a monitored object or a dict, keyed as the LAT
    declares, lower-cased, or with an attribute missing."""
    record = {attr: draw(values if attr in GROUP_ATTRS else mostly_numbers)
              for attr in sorted(set(GROUP_ATTRS + VALUE_ATTRS))}
    kind = draw(st.sampled_from(["object", "declared", "lower", "missing"]))
    if kind in ("missing", "object") and draw(st.booleans()):
        del record[draw(st.sampled_from(sorted(record)))]
    if kind == "object":
        return MonitoredObject(
            SCHEMA.monitored_class("Query"), {},
            {attr.lower(): value for attr, value in record.items()})
    if kind == "lower":
        return {attr.lower(): value for attr, value in record.items()}
    return record


def outcome(call):
    try:
        return call()
    except Exception as err:
        return type(err)


class LATMachine(RuleBasedStateMachine):
    """One compiled LAT and one reference LAT, fed alike."""

    @initialize(definition=definitions())
    def create(self, definition):
        self.clock = SimClock()
        self.definition = definition
        self.lat = LAT(definition, self.clock)
        self.model = ReferenceLAT(definition, self.clock)
        self.pair = (self.lat, self.model)
        self.image = None

    def both(self, operation):
        """Run ``operation(lat)`` on each; same result or same error."""
        got, expected = (outcome(lambda: operation(lat))
                         for lat in self.pair)
        assert got == expected
        return got

    @rule(source=sources(), weight=st.sampled_from([1, 1, 1, 2, 5]))
    def insert(self, source, weight):
        self.both(lambda lat: lat.insert(source, weight))

    @rule(seconds=st.sampled_from([0.5, 3.0, 11.0]))
    def advance(self, seconds):
        self.clock.advance_to(self.clock.now + seconds)

    @precondition(lambda self: len(self.lat) > 0)
    @rule(data=st.data())
    def delete_row(self, data):
        key = data.draw(st.sampled_from(list(self.lat._rows)))
        assert self.both(lambda lat: lat.delete_row(key)) is True

    @rule()
    def reset(self):
        self.both(lambda lat: lat.reset())

    @rule(batch=st.lists(sources(), min_size=1, max_size=6))
    def merge_from(self, batch):
        def merge(lat):
            other = type(lat)(self.definition, self.clock)
            for source in batch:
                outcome(lambda: other.insert(source))
            return lat.merge_from(other)
        self.both(merge)

    @rule(batch=st.lists(sources(), max_size=4))
    def scratch_copy_and_adopt(self, batch):
        def through_scratch(lat):
            scratch = lat.scratch_copy()
            evicted = [outcome(lambda: scratch.insert(source))
                       for source in batch]
            lat.adopt(scratch)
            return evicted
        self.both(through_scratch)

    @rule()
    def dump_image(self):
        images = [schema.loads(schema.dumps(lat.image()))
                  for lat in self.pair]
        assert images[0] == images[1]
        self.image = images[0]

    @precondition(lambda self: self.image is not None)
    @rule()
    def restore_image(self):
        for lat in self.pair:
            lat.load_image(self.image)

    @invariant()
    def same_state(self):
        lat, model = self.pair
        assert list(lat._rows) == list(model._rows)
        # results over mixed types (an aged MIN of "a" and 0) raise alike
        assert outcome(lat.rows) == outcome(model.rows)
        assert schema.fold([lat]) == schema.fold([model])
        assert outcome(lat.integrity_signature) \
            == outcome(model.integrity_signature)
        assert lat.memory_bytes() == model.memory_bytes()


LATMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None)
TestLATAgainstModel = LATMachine.TestCase


# ---------------------------------------------------------------------------
# the ordering, on its own
# ---------------------------------------------------------------------------

_MIXED = [None, 0, 1, -2, 2.5, True, False, "a", "b", "", b"a", b"", (1,),
          (0, 2), 10 ** 30, -1e300]


@pytest.mark.parametrize("descending", [True, False])
def test_importance_orders_mixed_types_as_the_reference(descending):
    clock = SimClock()
    definition = LATDefinition(
        name="Mixed", grouping=["A"], aggregations=["LAST(X) AS V"],
        ordering=[OrderSpec("V", descending)])
    lat, model = LAT(definition, clock), ReferenceLAT(definition, clock)
    for i, value in enumerate(_MIXED * 2):  # each value twice: seq ties
        for each in (lat, model):
            each.insert({"A": i, "X": value})
    assert lat.rows() == model.rows()  # most important first, on both
