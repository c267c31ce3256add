"""Light-weight aggregation tables (paper Section 4.3).

A LAT is an in-memory GROUP BY over inserted monitored objects: grouping
columns, aggregation columns (standard or aging), an optional ordering with
a size limit (rows or bytes), and automatic eviction of the least-important
row when the limit is exceeded.  Evicted rows are surfaced to the SQLCM
engine so rules can react to them.

The default structure is the paper's (Section 6.1): a hash map on the
grouping columns for O(1) row lookup and a binary heap on the ordering
columns for eviction.  ``insert`` is generated once per definition (see
"compiled insert" below).  The row layout is this module's alone:
checkpoints and restores carry a LAT as :meth:`LAT.image`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.core import state as schema  # ``state`` names aggregate states here
from repro.core.aggregates import (AggregateFunction, AgingSpec, AgingState,
                                   aggregate_function)
from repro.core.condition import FunctionSource
from repro.core.governor import validate_criticality
from repro.core.objects import MonitoredObject
from repro.errors import LATError


@dataclass(frozen=True)
class GroupSpec:
    """One grouping column: source attribute plus output alias."""

    attr: str
    alias: str | None = None

    @property
    def column(self) -> str:
        return self.alias or self.attr


@dataclass(frozen=True)
class AggSpec:
    """One aggregation column: function, source attribute, alias, aging."""

    func: str
    attr: str
    alias: str | None = None
    aging: AgingSpec | None = field(
        default=None, metadata=schema.mark(element=AgingSpec))

    @property
    def column(self) -> str:
        return self.alias or f"{self.func.lower()}_{self.attr.lower()}"


@dataclass(frozen=True)
class OrderSpec:
    """One ordering column (by output column name)."""

    column: str
    descending: bool = True


def _parse_group(spec: "GroupSpec | str") -> GroupSpec:
    if isinstance(spec, GroupSpec):
        return spec
    text = spec.strip()
    upper = text.upper()
    if " AS " in upper:
        pos = upper.index(" AS ")
        attr, alias = text[:pos].strip(), text[pos + 4:].strip()
    else:
        attr, alias = text, None
    if "." in attr:  # allow "Query.Logical_Signature" — class part is implied
        attr = attr.split(".", 1)[1]
    return GroupSpec(attr, alias)


def _parse_agg(spec: "AggSpec | str") -> AggSpec:
    if isinstance(spec, AggSpec):
        return spec
    text = spec.strip()
    upper = text.upper()
    alias = None
    if " AS " in upper:
        pos = upper.index(" AS ")
        text, alias = text[:pos].strip(), text[pos + 4:].strip()
    if "(" not in text or not text.endswith(")"):
        raise LATError(f"bad aggregation spec {spec!r}; expected FUNC(Attr)")
    func, __, rest = text.partition("(")
    attr = rest[:-1].strip()
    if "." in attr:
        attr = attr.split(".", 1)[1]
    return AggSpec(func.strip().upper(), attr, alias)


@dataclass
class LATDefinition:
    """Declarative specification of a LAT (the paper's "LAT specification").

    ``grouping`` and ``aggregations`` accept either spec objects or strings
    in the paper's syntax (``"Query.Logical_Signature AS Sig"``,
    ``"AVG(Query.Duration) AS Avg_Duration"``).
    """

    name: str
    monitored_class: str = "Query"
    grouping: list = field(default_factory=list,
                           metadata=schema.mark(element=GroupSpec))
    aggregations: list = field(default_factory=list,
                               metadata=schema.mark(element=AggSpec))
    ordering: list = field(default_factory=list,
                           metadata=schema.mark(element=OrderSpec))
    max_rows: int | None = None
    max_bytes: int | None = None
    criticality: str = "normal"

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise LATError(f"invalid LAT name {self.name!r}")
        self.criticality = validate_criticality(self.criticality)
        self.grouping = [_parse_group(g) for g in self.grouping]
        self.aggregations = [_parse_agg(a) for a in self.aggregations]
        if not self.grouping:
            raise LATError("a LAT needs at least one grouping column")
        self.ordering = [
            o if isinstance(o, OrderSpec) else OrderSpec(*_parse_order(o))
            for o in self.ordering
        ]
        columns = self.column_names()
        if len(set(c.lower() for c in columns)) != len(columns):
            raise LATError(f"LAT {self.name!r} has duplicate column names")
        for order in self.ordering:
            if order.column.lower() not in (c.lower() for c in columns):
                raise LATError(
                    f"ordering column {order.column!r} is not a LAT column"
                )
        if (self.max_rows is not None or self.max_bytes is not None) \
                and not self.ordering:
            raise LATError("a size-limited LAT needs ordering columns")
        if self.max_rows is not None and self.max_rows < 1:
            raise LATError("max_rows must be positive")

    def column_names(self) -> list[str]:
        return ([g.column for g in self.grouping]
                + [a.column for a in self.aggregations])

    def source_attributes(self) -> list[str]:
        """Probe attributes read from each inserted object."""
        return ([g.attr for g in self.grouping]
                + [a.attr for a in self.aggregations])


def _parse_order(spec: str) -> tuple[str, bool]:
    text = spec.strip()
    upper = text.upper()
    if upper.endswith(" DESC"):
        return text[:-5].strip(), True
    if upper.endswith(" ASC"):
        return text[:-4].strip(), False
    return text, True  # eviction-ordered LATs default to DESC (top-k style)


class _Row:
    """One LAT row: group key plus aggregate states."""

    __slots__ = ("key", "states", "seq", "importance")

    def __init__(self, key: tuple, states: list, seq: int):
        self.key = key
        self.states = states
        self.seq = seq
        # memoized importance key; None = dirty (recompute on next scan)
        self.importance: tuple | None = None


_ROW_OVERHEAD_BYTES = 48
_VALUE_BYTES = 24
_AGING_BLOCK_BYTES = 32


# -- compiled insert -------------------------------------------------------------
#
# ``LAT.insert`` runs one function generated from the LAT's definition, in
# the manner of ``core/condition.py``: the group key and the aggregate
# updates are unrolled, each source attribute is read into a local once, at
# the point the interpreted loop first read it, and a branch the definition
# cannot reach (aging, a weighted form, a size limit, an importance to
# reset) is not emitted.  Of what the user wrote only plain identifiers are
# spelled out; any other text, the aggregates' initial states and their
# bound ``update`` methods are constants of the function's namespace.

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _InsertEmitter(FunctionSource):
    """Writes the body of ``insert`` for one LAT."""

    def __init__(self, lat: "LAT"):
        super().__init__()
        self.lat = lat
        #: declared attribute -> the local that holds its value
        self.slots: dict[str, str] = {}

    def text(self, value: str) -> str:
        return repr(value) if _IDENTIFIER.fullmatch(value) \
            else self.literal(value)

    def read(self, attr: str) -> str:
        name = self.slots.get(attr)
        if name is None:
            name = self.slots[attr] = f"a{len(self.slots)}"
            lowered = self.text(attr.lower())
            self.emit(f"{name} = probe({lowered}) if probe is not None "
                      f"else _item(source, {self.text(attr)}, {lowered})")
        return name

    def initial_state(self, index: int) -> str:
        spec = self.lat.definition.aggregations[index]
        func = self.lat._functions[index]
        name = func.name.lower()
        if spec.aging is not None:
            return (f"AgingState({self.constant(func, name)}, "
                    f"{self.constant(spec.aging, f'aging{index}')})")
        state = func.new_state()
        if state is None or type(state) is int:
            return repr(state)
        return self.constant(state, f"{name}_new")

    def updates(self, weighted: bool) -> None:
        """Each aggregate in turn: read its attribute, fold the value in."""
        for i, (spec, func) in enumerate(zip(
                self.lat.definition.aggregations, self.lat._functions)):
            value = self.read(spec.attr)
            name = func.name.lower()
            if spec.aging is not None:
                extra = ", weight" if weighted else ""
                self.emit(f"states[{i}].update({value}, now{extra})")
            elif weighted and _has_weighted_form(func):
                update = self.constant(func.update_weighted,
                                       f"{name}_update_weighted")
                self.emit(f"states[{i}] = {update}(states[{i}], {value}, "
                          "weight)")
            else:
                update = self.constant(func.update, f"{name}_update")
                self.emit(f"states[{i}] = {update}(states[{i}], {value})")

    def function(self) -> Callable:
        """The ``insert`` function of the LAT; its text is ``__source__``."""
        lat, emit = self.lat, self.emit
        definition = lat.definition
        n_groups = len(definition.grouping)
        emit("if now is None:")
        emit("    now = self._clock.now")
        emit("probe = source._probe "
             "if isinstance(source, MonitoredObject) else None")
        key = [self.read(g.attr) for g in definition.grouping]
        emit(f"key = ({', '.join(key)},)")
        emit("rows = self._rows")
        emit("row = rows.get(key)")
        # latches: the hash entry, the row, and the structure as a whole
        emit("self.latch_acquisitions += 3")
        emit("if row is None:")
        initial = [self.initial_state(i)
                   for i in range(len(definition.aggregations))]
        emit(f"    states = [{', '.join(initial)}]")
        emit("    row = rows[key] = _Row(key, states, self._seq)")
        emit("    self._seq += 1")
        emit("else:")
        emit("    states = row.states")
        limits = []  # when to look for rows to evict
        if definition.max_rows is not None:
            self.constant(definition.max_rows, "max_rows")
            limits.append("n > max_rows")
        if definition.max_bytes is not None and lat._aging_indexes:
            limits.append("True")  # aging blocks count: leave it to the walk
        elif definition.max_bytes is not None:
            self.constant(lat._row_bytes, "row_bytes")
            self.constant(definition.max_bytes, "max_bytes")
            limits.append("n * row_bytes > max_bytes")
        if limits and lat._ordering_cacheable:
            # noted before the updates: one that raises must not leave a
            # new row the heap never hears of
            emit("if self._dirty is not None:")
            emit("    self._dirty.add(row)")
        if lat._aging_indexes or any(map(_has_weighted_form, lat._functions)):
            emit("if weight != 1:")
            self.depth += 1
            read_before = dict(self.slots)
            self.updates(weighted=True)
            self.slots = read_before  # each branch reads for itself
            self.depth -= 1
            emit("else:")
            self.depth += 1
            self.updates(weighted=False)
            self.depth -= 1
        else:
            self.updates(weighted=False)
        if any(index >= n_groups for index, __ in lat._order_indexes):
            emit("row.importance = None")  # an ordering aggregate moved
        emit("self.insert_count += 1")
        emit("n = len(rows)")
        emit("if n > self.peak_rows:")
        emit("    self.peak_rows = n")
        if limits:
            emit(f"evicted = self._enforce_limits(now) "
                 f"if {' or '.join(limits)} else []")
        else:
            emit("evicted = []")
        # inside a journaled entry the entry's record stands for the insert
        emit("if self.journal is not None and self.journal.tape is None:")
        values = ", ".join(f"{self.text(attr)}: {name}"
                           for attr, name in self.slots.items())
        emit(f"    self.journal.append('lat_insert', "
             f"{{'lat': {self.text(definition.name)}, "
             f"'values': {{{values}}}, 'weight': weight, 'time': now}})")
        emit("return evicted")
        source, insert = self.compile(
            "insert", "self, source, weight, now", "<lat insert>",
            {"__builtins__": {"isinstance": isinstance, "len": len},
             "MonitoredObject": MonitoredObject, "AgingState": AgingState,
             "_Row": _Row, "_item": _item})
        insert.__source__ = source
        return insert


def _has_weighted_form(func: AggregateFunction) -> bool:
    """COUNT/SUM/AVG scale by the weight; the rest apply the value once."""
    return (type(func).update_weighted
            is not AggregateFunction.update_weighted)


class LAT:
    """The default LAT structure: hash on group key, heap on importance."""

    # durability journal (set by DurabilityManager.attach / create_lat);
    # mutations append redo records after they complete
    journal = None

    # the counters and the row sequence: everything scratch_copy, adopt,
    # and the checkpoint carry besides the rows themselves
    STATE = (
        *schema.fields(schema.first, "_seq", "insert_count",
                       "eviction_count", "latch_acquisitions", "peak_rows",
                       "seed_count"),
        *schema.walked("definition", "_rows"),
        *schema.transient("_clock", "_columns", "_functions",
                          "_order_indexes", "_ordering_cacheable",
                          "_row_bytes", "_aging_indexes", "_insert",
                          "_heap", "_dirty", "journal"),
    )

    def __init__(self, definition: LATDefinition, clock):
        self.definition = definition
        self._clock = clock
        # every row dict a probe or an eviction builds is keyed by these
        self._columns = definition.column_names()
        self._functions: list[AggregateFunction] = [
            aggregate_function(a.func) for a in definition.aggregations
        ]
        self._rows: dict[tuple, _Row] = {}
        self._seq = 0
        self._order_indexes = self._resolve_order_indexes()
        # importance keys over aging aggregates decay with time and must
        # not be memoized; plain aggregates only change on insert
        n_groups = len(definition.grouping)
        self._ordering_cacheable = all(
            index < n_groups
            or definition.aggregations[index - n_groups].aging is None
            for index, __ in self._order_indexes
        )
        self._row_bytes = (_ROW_OVERHEAD_BYTES
                           + len(self._columns) * _VALUE_BYTES)
        self._aging_indexes = tuple(
            i for i, spec in enumerate(definition.aggregations)
            if spec.aging is not None)
        self._insert = _InsertEmitter(self).function()
        # eviction heap of ``(importance, row)`` and the rows touched since
        # it was last brought up to date; see _least_important
        self._heap: list | None = None
        self._dirty: set | None = None
        # statistics (reported by benches; latches are counted, not real)
        self.insert_count = 0
        self.eviction_count = 0
        self.latch_acquisitions = 0
        self.peak_rows = 0
        self.seed_count = 0  # rows re-uploaded by restore_lat

    def _resolve_order_indexes(self) -> list[tuple[int, bool]]:
        columns = [c.lower() for c in self._columns]
        return [
            (columns.index(o.column.lower()), o.descending)
            for o in self.definition.ordering
        ]

    # -- core operations --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def key_of(self, source: "MonitoredObject | dict") -> tuple:
        return tuple(
            self._value(source, g.attr) for g in self.definition.grouping
        )

    @staticmethod
    def _value(source: "MonitoredObject | dict", attr: str) -> Any:
        if isinstance(source, MonitoredObject):
            return source.get(attr)
        return _item(source, attr, attr.lower())

    def insert(self, source: "MonitoredObject | dict",
               weight: int = 1, now: float | None = None) -> list[dict]:
        """Insert-or-update the row matching the object's group key.

        ``weight`` > 1 means this object stands in for ``weight`` sampled
        events (overload-governor compensation): COUNT/SUM/AVG scale the
        contribution; order/extreme aggregates apply the value once.

        ``now`` overrides the clock time (journal replay re-applies
        inserts at their original timestamps).

        Returns the rows evicted to satisfy the size constraint (possibly
        including the row just inserted), as column dicts.

        The body is the function generated for this LAT's definition.
        """
        return self._insert(self, source, weight, now)

    def _enforce_limits(self, now: float) -> list[dict]:
        evicted: list[dict] = []
        max_rows = self.definition.max_rows
        max_bytes = self.definition.max_bytes
        while ((max_rows is not None and len(self._rows) > max_rows)
               or (max_bytes is not None
                   and self.memory_bytes() > max_bytes)):
            victim = self._least_important(now)
            if victim is None:
                break
            evicted.append(self._row_values(victim, now))
            del self._rows[victim.key]
            self.eviction_count += 1
            self.latch_acquisitions += 2
        return evicted

    def _least_important(self, now: float) -> _Row | None:
        """The row evicted next: the minimum importance key.

        Found on a binary heap of ``(importance, row)``.  An insert does
        not touch the heap, it only notes the row in ``_dirty``; the rows
        noted are pushed here, so a row updated many times between two
        evictions is keyed once.  Superseded entries stay until they reach
        the top: an entry is live iff its row is still the one stored under
        its key and still carries that very importance tuple.  The heap is
        built on the first eviction, rebuilt when stale entries outnumber
        rows, and dropped wherever rows change other than through
        ``insert`` (:meth:`_drop_heap`).

        An ordering over an aging aggregate has no heap: its keys decay
        with the clock, so every key would be stale at every eviction, and
        keying all rows is what the scan below already does.
        """
        rows = self._rows
        importance = self._importance_key
        if not self._ordering_cacheable:
            return min(rows.values(), default=None,
                       key=lambda row: importance(row, now))
        heap = self._heap
        if heap is None or len(heap) > 2 * len(rows):
            heap = self._heap = [(importance(row, now), row)
                                 for row in rows.values()]
            heapify(heap)
            self._dirty = set()
        elif self._dirty:
            for row in self._dirty:
                if rows.get(row.key) is row:
                    heappush(heap, (importance(row, now), row))
            self._dirty.clear()
        while heap:
            key, row = heap[0]
            if rows.get(row.key) is row and row.importance is key:
                return row
            heappop(heap)
        return None

    def _drop_heap(self) -> None:
        """Forget the eviction heap (the next eviction rebuilds it)."""
        self._heap = self._dirty = None

    def _importance_key(self, row: _Row, now: float) -> tuple:
        """Sortable importance; the minimum is evicted first.

        One part per ordering column, then the row's sequence number
        (FIFO tie-break: older rows evict first).  Parts compare natively
        — see :func:`_importance_part` — so neither the heap nor a sort
        calls back into Python for the usual numeric ordering."""
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
            parts.append(_importance_part(value, descending))
        parts.append(row.seq)
        key = tuple(parts)
        if self._ordering_cacheable:
            row.importance = key
        return key

    def _ordered_values(self, row: _Row, now: float) -> list:
        values = list(row.key)
        for state, func in zip(row.states, self._functions):
            if isinstance(state, AgingState):
                values.append(state.result(now))
            else:
                values.append(func.result(state))
        return values

    def _row_values(self, row: _Row, now: float) -> dict:
        return dict(zip(self._columns, self._ordered_values(row, now)))

    # -- reads --------------------------------------------------------------------

    def lookup(self, key: tuple) -> dict | None:
        """The row whose grouping columns equal ``key``, as a column dict."""
        self.latch_acquisitions += 1
        row = self._rows.get(tuple(key))
        if row is None:
            return None
        return self._row_values(row, self._clock.now)

    def lookup_object(self, source: "MonitoredObject | dict") -> dict | None:
        """The row matching a monitored object's group-key probe values."""
        return self.lookup(self.key_of(source))

    def rows(self) -> list[dict]:
        """All rows, most important first (the LAT's declared ordering)."""
        now = self._clock.now
        ordered = sorted(
            self._rows.values(),
            key=lambda row: self._importance_key(row, now),
            reverse=True,
        )
        return [self._row_values(row, now) for row in ordered]

    def reset(self) -> None:
        """Clear all content and free memory (the Reset action)."""
        self._rows.clear()
        self._drop_heap()
        self.latch_acquisitions += 1
        if self.journal is not None:
            self.journal.append("lat_reset", {"lat": self.definition.name})

    def delete_row(self, key: tuple) -> bool:
        """Remove one group's row (e.g. to re-arm a threshold rule)."""
        self.latch_acquisitions += 2
        removed = self._rows.pop(tuple(key), None) is not None
        if removed and self.journal is not None:
            self.journal.append("lat_del", {"lat": self.definition.name,
                                            "key": tuple(key)})
        return removed

    def seed_row(self, persisted: dict[str, Any]) -> None:
        """Reconstruct one row from persisted column values (LAT restore).

        COUNT/SUM/MIN/MAX/FIRST/LAST restore exactly; AVG restores exactly
        when the LAT also carries a COUNT column (else seeds with count 1);
        STDEV re-seeds mean and count but loses within-window spread.
        Aging aggregates seed a single block at the current time.
        """
        lowered = {k.lower(): v for k, v in persisted.items()}
        key = tuple(
            lowered.get(g.column.lower()) for g in self.definition.grouping
        )
        count_hint = None
        for spec in self.definition.aggregations:
            if spec.func == "COUNT":
                value = lowered.get(spec.column.lower())
                if isinstance(value, (int, float)):
                    count_hint = int(value)
                break
        states: list = []
        now = self._clock.now
        for spec, func in zip(self.definition.aggregations, self._functions):
            value = lowered.get(spec.column.lower())
            state = self._seed_state(spec.func, func, value, count_hint)
            if spec.aging is not None:
                aging = AgingState(func, spec.aging)
                if value is not None:
                    block_start = (math.floor(now / spec.aging.delta)
                                   * spec.aging.delta)
                    aging.blocks.append((block_start, state))
                states.append(aging)
            else:
                states.append(state)
        row = _Row(key, states, self._seq)
        self._seq += 1
        self._rows[key] = row
        self._drop_heap()
        self.seed_count += 1
        self._enforce_limits(now)

    @staticmethod
    def _seed_state(func_name: str, func: AggregateFunction, value: Any,
                    count_hint: int | None) -> Any:
        if value is None:
            return func.new_state()
        if func_name == "COUNT":
            return int(value)
        if func_name in ("SUM", "MIN", "MAX", "FIRST", "LAST"):
            state = func.new_state()
            return func.update(state, value)
        count = count_hint if count_hint and count_hint > 0 else 1
        if func_name == "AVG":
            return (count, value * count)
        if func_name == "STDEV":
            # value is treated as the mean proxy; spread (M2) is lost
            return (count, value, 0.0)
        return func.update(func.new_state(), value)  # pragma: no cover

    def scratch_copy(self) -> "LAT":
        """A detached copy of this LAT for atomic multi-row operations.

        The copy shares the definition and clock but owns deep copies of
        the rows (aging states are mutable) and never journals; mutate it
        freely, then :meth:`adopt` it back on success — an error midway
        leaves the live LAT untouched.
        """
        scratch = type(self)(self.definition, self._clock)
        for key, row in self._rows.items():
            states = [
                state.copy() if isinstance(state, AgingState) else state
                for state in row.states
            ]
            scratch._rows[key] = _Row(key, states, row.seq)
        for name, value in schema.fold([self]).items():
            setattr(scratch, name, value)
        return scratch

    def adopt(self, scratch: "LAT") -> None:
        """Swap in a scratch copy's state (the commit of an atomic restore)."""
        self._rows = scratch._rows
        self._drop_heap()
        # the scratch started from this LAT's counters and only grew them
        for name, value in schema.fold([scratch]).items():
            setattr(self, name, value)
        self.latch_acquisitions += 1

    def image(self) -> dict:
        """This LAT as one record payload — counters, then every
        row's key, encoded aggregate states and sequence number: the
        ``lat_image`` record of a checkpoint or a restore."""
        return schema.fold([self]) | {
            "lat": self.definition.name,
            "rows": [(row.key, [schema.enc_state(s) for s in row.states],
                      row.seq) for row in self._rows.values()]}

    def load_image(self, image: dict) -> None:
        """Replace counters and rows with those of an :meth:`image`."""
        aggs = self.definition.aggregations
        self._rows = {}
        self._drop_heap()
        for key, states, seq in image["rows"]:
            key = tuple(key)
            self._rows[key] = _Row(key, [
                schema.dec_state(enc, func, spec.aging)
                for enc, spec, func in zip(states, aggs, self._functions)
            ], seq)
        schema.load_into(self, image)

    def merge_from(self, other: "LAT") -> list[dict]:
        """Merge another partition of the same LAT definition into this one.

        The shard merge boundary (see repro.shard): per-group aggregate
        states combine via each function's mergeable state — the same
        ``combine`` the stream subsystem uses to merge window panes — so a
        partitioned LAT merged back together equals the LAT a serial run
        would have built, provided every group's inserts landed in one
        partition (group key aligned with the partition key).  FIRST/LAST
        on a *split* group resolve in merge order (shard 0 first), and
        size limits are enforced once here, at the boundary, not during
        per-shard inserts.  Returns rows evicted by that enforcement.
        """
        if [c.lower() for c in other.definition.column_names()] != \
                [c.lower() for c in self.definition.column_names()]:
            raise LATError(
                f"cannot merge LAT {other.definition.name!r} into "
                f"{self.definition.name!r}: column shapes differ")
        self._drop_heap()
        for key, row in other._rows.items():
            mine = self._rows.get(key)
            if mine is None:
                states = [
                    state.copy() if isinstance(state, AgingState) else state
                    for state in row.states
                ]
                self._rows[key] = _Row(key, states, self._seq)
                self._seq += 1
            else:
                for i, func in enumerate(self._functions):
                    theirs = row.states[i]
                    if isinstance(theirs, AgingState):
                        mine.states[i].merge_from(theirs)
                    else:
                        mine.states[i] = func.combine(mine.states[i], theirs)
                mine.importance = None
        self.insert_count += other.insert_count
        self.latch_acquisitions += 1
        self.peak_rows = max(self.peak_rows, len(self._rows))
        return self._enforce_limits(self._clock.now)

    def integrity_signature(self) -> int:
        """Order-independent CRC over all rows' current column values.

        Lets the resilience tests assert that two runs with the same fault
        seed produce bit-identical LAT state without comparing row dicts.
        """
        import zlib
        total = 0
        now = self._clock.now
        for row in self._rows.values():
            values = tuple(self._ordered_values(row, now))
            total ^= zlib.crc32(repr(values).encode("utf-8"))
        return total ^ len(self._rows)

    def occupancy(self) -> float:
        """Row-count fill fraction in [0, 1] against ``max_rows``.

        Unbounded LATs report 0.0 — they cannot evict, so "how full" is
        not a meaningful pressure signal for them.  Feeds the
        ``sqlcm.lat.occupancy.*`` gauges and the TOP OFFENDERS report.
        """
        max_rows = self.definition.max_rows
        if not max_rows:
            return 0.0
        return min(1.0, len(self._rows) / max_rows)

    def memory_bytes(self) -> int:
        """Approximate memory footprint (drives max_bytes limits)."""
        total = len(self._rows) * self._row_bytes
        if self._aging_indexes:  # only aging states vary in size
            for row in self._rows.values():
                for index in self._aging_indexes:
                    total += (row.states[index].block_count
                              * _AGING_BLOCK_BYTES)
        return total


def _item(source: dict, attr: str, lowered: str) -> Any:
    """A dict source's value for an attribute: by the spelling the LAT
    declares, else lower-cased, else NULL."""
    if attr in source:
        return source[attr]
    return source.get(lowered)


def _importance_part(value: Any, descending: bool) -> tuple:
    """One ordering column's share of an importance key.

    NULL sorts below everything; other values sort by type rank (numbers,
    text, bytes, anything else by its ``repr``) and then by value, the
    value order flipped for an ASC column.  The tuples compare natively:
    a DESC value stands as it is and an ASC number is negated, so only
    ASC text goes through :class:`_Reversed`."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, 0, value if descending else -value)
    if isinstance(value, str):
        rank = 1
    elif isinstance(value, bytes):
        rank = 2
    else:
        rank, value = 3, repr(value)
    return (1, rank, value if descending else _Reversed(value))


class _Reversed:
    """A str or bytes value that sorts in the opposite order."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value
