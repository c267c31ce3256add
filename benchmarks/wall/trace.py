"""Span recorder for the traced run: layer boundaries wrapped from outside.

The program under ``src/`` carries no wall-clock instrumentation, so the
traced run patches a fixed table of public boundary callables with a
wrapper that records one span per call (name, start, end, parent, root)
into memory.  All spans caused by one published event / statement /
request share the id of the outermost span on that thread (the *root*).
A span's self time is its duration minus the durations of its direct
children, so self times of one root's tree sum to the root's duration.

Names are resolved by dotted path when the recorder is installed.  A name
that no longer resolves is listed in ``unresolved`` and its layer simply
reports zero time: later changes may rename what is wrapped here, but may
not edit the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import types
from time import perf_counter_ns
from typing import NamedTuple

#: boundary callables wrapped in the traced run, by dotted path.
#: ``MonitoredObject.get`` is deliberately absent (~80 calls per commit:
#: the wrapper would cost more than the call).
WRAP_TABLE = (
    "repro.engine.events.EventBus.publish",
    "repro.core.engine.SQLCM.dispatch_event",
    "repro.core.objects.ObjectFactory.query",
    "repro.core.condition.CompiledCondition.evaluate",
    "repro.core.actions.InsertAction.execute",
    "repro.core.lat.LAT.insert",
    "repro.core.lat.LAT.merge_from",
    "repro.stream.windows.WindowState.observe",
    "repro.stream.windows.WindowState.emit",
    "repro.stream.engine.StreamEngine.flush",
    "repro.core.durability.Journal.append",
    "repro.core.durability.DurabilityManager.checkpoint",
    "repro.core.durability.read_journal",
    "repro.core.durability.DurabilityManager.recover",
    "repro.shard.partition.Partitioner.shard_of",
    "repro.shard.sharded.ShardedSQLCM.run_trace",
    "repro.shard.sharded.ShardedSQLCM.state_digest",
    "repro.engine.server.DatabaseServer.parse",
    "repro.engine.server.DatabaseServer.compile_query",
    "repro.engine.server.DatabaseServer.run",
    "repro.engine.session.Session.execute",
    "repro.service.protocol.encode_frame",
    "repro.service.protocol.decode_frame",
    "repro.service.client.ServiceClient.request",
)

#: wrapped callables whose result length (bytes on the wire) is summed
SIZED = ("encode_frame",)


class Span(NamedTuple):
    sid: int
    name: str
    start: int      # perf_counter_ns
    end: int
    parent: int     # sid of the enclosing span on this thread, -1 for a root
    root: int       # sid of the outermost span on this thread
    thread: int


class LayerTotal(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int


def span_name(path: str) -> str:
    """``repro.core.lat.LAT.insert`` -> ``LAT.insert``; module-level
    functions keep their bare name (``encode_frame``)."""
    parts = path.split(".")
    return ".".join(parts[-2:]) if parts[-2][:1].isupper() else parts[-1]


def resolve(path: str):
    """Find the object that owns the last component of ``path``.

    Returns ``(owner, attribute, original)`` where ``original`` is the raw
    (static) attribute, so staticmethods can be restored as they were.
    Raises :class:`LookupError` when the path no longer resolves.
    """
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            break
        return owner, parts[-1], original
    raise LookupError(path)


class _ThreadState:
    __slots__ = ("stack", "spans", "index")

    def __init__(self, index: int):
        self.stack: list[tuple[int, int]] = []
        self.spans: list[tuple] = []
        self.index = index


class SpanRecorder:
    """Wraps the table's callables while installed; spans stay in memory."""

    def __init__(self, table=WRAP_TABLE):
        self.table = tuple(table)
        self.unresolved: list[str] = []
        self.result_bytes: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- install / remove ------------------------------------------------

    def install(self) -> "SpanRecorder":
        for path in self.table:
            try:
                owner, attr, original = resolve(path)
            except LookupError:
                self.unresolved.append(path)
                continue
            name = span_name(path)
            if isinstance(original, staticmethod):
                wrapper = staticmethod(
                    self._wrap(original.__func__, name, name in SIZED))
            else:
                wrapper = self._wrap(original, name, name in SIZED)
            for target in self._owners(owner, attr, original):
                setattr(target, attr, wrapper)
                self._patched.append((target, attr, original))
        return self

    @staticmethod
    def _owners(owner, attr: str, original) -> list:
        """A module-level function is patched in every module of the same
        top-level package that imported it by name."""
        if not isinstance(owner, types.ModuleType):
            return [owner]
        top = owner.__name__.split(".")[0]
        return [module for name, module in list(sys.modules.items())
                if module is not None
                and (name == top or name.startswith(top + "."))
                and vars(module).get(attr) is original]

    def remove(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- the wrapper -----------------------------------------------------

    def _state(self) -> _ThreadState:
        with self._lock:
            state = _ThreadState(len(self._states))
            self._states.append(state)
        self._local.state = state
        return state

    def _wrap(self, func, name: str, sized: bool):
        local = self._local
        ids = self._ids
        new_state = self._state
        clock = perf_counter_ns
        sizes = self.result_bytes
        if sized:
            sizes[name] = 0

        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            sid = next(ids)
            if stack:
                parent, root = stack[-1]
            else:
                parent, root = -1, sid
            stack.append((sid, root))
            start = clock()
            try:
                result = func(*args, **kwargs)
                if sized:
                    sizes[name] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                state.spans.append((sid, name, start, end, parent, root))

        return wrapper

    # -- results ---------------------------------------------------------

    def spans(self) -> list[Span]:
        return [Span(*record, state.index)
                for state in self._states for record in state.spans]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time per span id: duration minus direct children's durations."""
    result = {span.sid: span.end - span.start for span in spans}
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.end - span.start
    return result


def layer_totals(spans: list[Span]) -> dict[str, LayerTotal]:
    """Calls, total and self nanoseconds per span name."""
    own = self_times(spans)
    totals: dict[str, list[int]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0, 0])
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own[span.sid]
    return {name: LayerTotal(*entry) for name, entry in totals.items()}


def worst_root_residual(spans: list[Span]) -> float:
    """Largest ``|sum(self) - root duration| / root duration`` over roots."""
    own = self_times(spans)
    summed: dict[int, int] = {}
    for span in spans:
        summed[span.root] = summed.get(span.root, 0) + own[span.sid]
    worst = 0.0
    for span in spans:
        if span.parent < 0:
            duration = span.end - span.start
            if duration > 0:
                worst = max(worst,
                            abs(summed[span.sid] - duration) / duration)
    return worst


def write_chrome_trace(spans: list[Span], path: str,
                       max_roots: int = 2000) -> int:
    """Write the spans of the first ``max_roots`` roots as Chrome-trace
    complete events (open in chrome://tracing or ui.perfetto.dev)."""
    roots = sorted(span.start for span in spans if span.parent < 0)
    if not roots:
        cutoff = origin = 0
    else:
        origin = roots[0]
        cutoff = roots[min(max_roots, len(roots)) - 1]
    kept = {span.sid for span in spans
            if span.parent < 0 and span.start <= cutoff}
    events = [{
        "name": span.name, "ph": "X", "pid": 1, "tid": span.thread,
        "ts": (span.start - origin) / 1000.0,
        "dur": (span.end - span.start) / 1000.0,
        "args": {"id": span.sid, "parent": span.parent, "root": span.root},
    } for span in spans if span.root in kept]
    events.sort(key=lambda event: event["ts"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)
    return len(events)
