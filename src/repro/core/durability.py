"""Crash-safe monitor durability: a command log, compacted at checkpoints.

The monitor's state — rules and their health, LAT contents, stream window
panes, open incidents, the governor ladder, dead letters, pending timers —
lives in memory; this module makes it survive being killed.  There is one
on-disk form, the CRC-framed record line (:func:`frame`: a CRC and one
line of tagged JSON, :func:`repro.core.state.dumps`), one reader
(:func:`read_journal`) and one apply table (:data:`HANDLERS`).  Two files
per *generation* N hold such records:

* ``journal-000N.wal`` — the **append-only command log** of what reached
  the monitor after checkpoint N: one committed record per *entry* into
  the monitor from outside — an engine event (``event``), a dispatch
  begun outside every event (``dispatch``), a call of a :func:`command`
  (``call``: an API call, the explicit stream flush, a timer alarm, a
  governor decision at a cost drain) — holding what the entry was and
  the inputs it read from outside the monitor (:class:`Tape`); recovery
  runs the entry again.  The one other record is ``restore_lat``'s
  ``lat_image``: the LAT it read from a server table, whole.  The reader
  is torn-tail tolerant: it stops at the first record that fails its
  CRC, fails to parse, or lacks its trailing newline.
* ``checkpoint-000N.ckpt`` — a **compacted journal**: the shortest record
  sequence that recreates the monitor's folded state in registration
  order (:func:`compact`), written to a temp file and published with
  ``os.replace``.  Every record in it is uncommitted except the final
  end marker, which carries the record count and a CRC chained over all
  preceding record CRCs — so a reader either sees a complete, verified
  checkpoint or rejects the file and falls back to generation N-1.

Recovery applies the newest valid checkpoint's records and then its
journal's through the same handlers — re-running each entry with the
monitor's ``tape`` replaying its record — so the restored monitor's
:meth:`~repro.core.engine.SQLCM.state_digest` equals the digest at the
last committed journal record before the crash — the same replay-stable
digest that proves sharded == serial in :mod:`repro.shard`.  Crash-point
fault injection rides the existing
:class:`~repro.core.resilience.FaultInjector` at two sites
(``durability.checkpoint``, ``durability.append``); the ``monitor_crash``
chaos drill and ``tests/test_durability.py`` kill the monitor at every
site and assert digest equality after rebuild.

What "the monitor's state" is, is not decided here: every stateful class
declares its durable fields once (:mod:`repro.core.state`), record
payloads are ``fold`` images of those declarations (encoded once, when
the record is framed), and :func:`compact` is one walk over a
*sequence* of monitors — a serial monitor alone, or the shard monitors
of a sharded replay folded field by field with each field's declared
merge-op.

Deliberately **not** persisted (see DESIGN.md section 14): the pending
event queue and in-flight dispatch (the journal only holds completed
entries), the outbox/command side-effect logs (already delivered; a
replay reads the outcome of each delivery and never delivers again),
the signature registry's numeric ids (rebuilt on demand; instance counts
are keyed by signature bytes which do round-trip), and the governor's
open measurement window.
"""

from __future__ import annotations

import functools
import inspect
import os
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.actions import (Action, CancelAction, InsertAction,
                                ResetAction, PersistAction,
                                RunExternalAction, SendMailAction,
                                SetTimerAction)
from repro.core.objects import RecordingFactory, ReplayFactory
from repro.core.state import dumps, fold, load, load_into, loads
from repro.errors import DurabilityError, FaultInjected

if TYPE_CHECKING:
    from repro.core.engine import SQLCM
    from repro.core.rules import Rule

# the modules whose methods are commands import this one for
# :func:`command`: what it needs of them is imported where it is used

#: version of the record vocabulary and line format, carried by a
#: checkpoint's first record (8: an API call is a ``call`` record, where
#: 7 wrote its effect; 7 holds an alert ring as window rows, 6 as alert
#: dicts; since 6 the journal holds one record per entry into the
#: monitor; 5 journaled what each event did, with one stream observation
#: per pane group; 4 one per query; 3 wrote ``repr`` lines)
CHECKPOINT_VERSION = 8


# ---------------------------------------------------------------------------
# commands: an API call is an entry into the monitor, journaled as itself
# ---------------------------------------------------------------------------

def command(method: Callable | None = None, *,
            unless: Callable[..., bool] | None = None,
            body: str | None = None) -> Callable:
    """Mark a method that changes monitor state as a *command*.

    Its owner names its monitor (``sqlcm``, None if none) and its place
    under it (``command_path``: an attribute or accessor of the monitor,
    then the accessor's arguments).  With a journal attached and outside
    every entry, a call is one ``call`` entry (:meth:`Journal.entry`)
    whose record holds the path, the method and each argument by name;
    recovery calls the method again under a replay of what the call read
    from outside the monitor.  Otherwise the call runs straight through,
    as it does when ``unless(owner, ...)`` holds.  A call that raises, or
    returns ``False`` (it changed nothing), writes no record: a command
    raises only before it mutates.  The wrapper has the method's own
    signature and, for a method that only calls its owner's ``body``
    function (``LAT._insert``), calls that itself: a dispatch's
    ``LAT.insert`` costs no more than a journal test (DESIGN §14)."""
    if method is None:
        return functools.partial(command, unless=unless, body=body)
    name = method.__name__
    __, *params = inspect.signature(method).parameters.values()
    signature, forward = ["owner"], ["owner"]
    for p in params:  # defaults are literals: their repr is their source
        keyword = p.kind is p.KEYWORD_ONLY
        if keyword and "*" not in signature:
            signature.append("*")
        signature.append(p.name if p.default is p.empty
                         else f"{p.name}={p.default!r}")
        forward.append(f"{p.name}={p.name}" if keyword else p.name)
    forward = ", ".join(forward)
    args = ", ".join(f"{p.name!r}: {p.name}" for p in params)
    straight = "sqlcm is None or sqlcm.journal is None " \
        "or sqlcm.tape is not None"
    if unless is not None:
        straight += f" or unless({forward})"
    run = "method" if body is None else f"owner.{body}"
    source = (f"def {name}({', '.join(signature)}):\n"
              f"    sqlcm = owner.sqlcm\n"
              f"    if {straight}:\n"
              f"        return {run}({forward})\n"
              f"    data = call_data(sqlcm, owner, {name!r}, {{{args}}})\n"
              f"    return sqlcm.journal.entry('call', data, method, "
              f"{forward})\n")
    namespace = {"method": method, "unless": unless,
                 "call_data": call_data}
    exec(compile(source, f"<command {name}>", "exec"), namespace)
    return functools.update_wrapper(namespace[name], method)


def call_data(sqlcm: SQLCM, owner: Any, method: str, args: dict) -> dict:
    """A ``call`` record's data: the target's path, the method, and each
    argument by name as a ``[type, value]`` pair (:func:`_argument`)."""
    return {"path": list(owner.command_path), "method": method,
            "args": {key: _argument(sqlcm, value)
                     for key, value in args.items()}}


def _argument(sqlcm: SQLCM, value: Any) -> list:
    """``[None, value]`` for what ``dumps`` carries itself, ``["monitor",
    None]`` for the monitor, ``[class name, image]`` for a state record
    (a rule's image is :func:`rule_image`)."""
    if value is sqlcm:
        return ["monitor", None]
    kind = type(value).__name__
    if kind == "Rule":
        return [kind, rule_image([value])]
    if kind in _record_types():
        return [kind, fold([value])]
    return [None, value]


@functools.cache
def _record_types() -> dict[str, type]:
    """The state records an API call takes as arguments."""
    from repro.core.governor import GovernorPolicy
    from repro.core.incidents import IncidentPolicy
    from repro.core.lat import LATDefinition
    from repro.core.resilience import DeadLetter
    return {cls.__name__: cls for cls in (LATDefinition, GovernorPolicy,
                                          IncidentPolicy, DeadLetter)}


# ---------------------------------------------------------------------------
# images the field codec cannot derive: polymorphic actions, registrations
# ---------------------------------------------------------------------------

@functools.cache
def _action_types() -> dict[str, type]:
    """Every declaratively-constructed action: each round-trips, where a
    CallbackAction holds a live closure (its rules are re-created by the
    recovery ``setup`` callback or reported as placeholders)."""
    from repro.core.incidents import (CancelBlockerAction,
                                      OpenIncidentAction,
                                      QuarantineRuleAction, ResetLATAction)
    return {cls.__name__: cls
            for cls in (InsertAction, ResetAction, PersistAction,
                        SendMailAction, RunExternalAction, CancelAction,
                        SetTimerAction, OpenIncidentAction,
                        CancelBlockerAction, QuarantineRuleAction,
                        ResetLATAction)}


def action_spec(action: Action) -> list | None:
    cls = _action_types().get(type(action).__name__)
    if type(action) is not cls:
        return None
    return [cls.__name__, fold([action])]


def action_from_spec(spec: list) -> Action:
    name, image = spec
    return load(_action_types()[name], image)


def rule_image(clones: Sequence[Rule]) -> dict:
    """One rule's image: its declared fields folded across its per-shard
    clones (counters summed), plus the action specs."""
    return fold(clones) | {
        "actions": [action_spec(a) for a in clones[0].actions]}


# ---------------------------------------------------------------------------
# the record line, the journal that appends it, the reader that parses it
# ---------------------------------------------------------------------------

@dataclass
class JournalRecord:
    seq: int
    kind: str
    commit: bool
    time: float
    data: Any
    crc: str = ""  # the line's CRC as read (chained by the end marker)


def frame(seq: int, kind: str, commit: bool, time: float, data: Any) -> str:
    """The one on-disk form, journal and checkpoint alike::

        <crc32 of payload, 8 hex> [seq,"kind",commit,time,data]\n

    The payload is :func:`~repro.core.state.dumps` of that list: ASCII
    JSON with tags for tuples, bytes and non-string keys, inf and nan as
    ``Infinity``/``NaN``, and no newline inside."""
    payload = dumps([seq, kind, bool(commit), time, data])
    return f"{zlib.crc32(payload.encode('ascii')):08x} {payload}\n"


def _chain(crcs) -> int:
    """CRC chained over a sequence of record CRCs (8 hex chars each)."""
    chained = 0
    for crc in crcs:
        chained = zlib.crc32(crc.encode("ascii"), chained)
    return chained


class Journal:
    """Append-only logical redo journal: a command log of the entries
    into the monitor.

    One :func:`frame` line per record.  An *entry* is the monitor's
    response to one thing from outside it — an engine event, a dispatch
    begun outside every event, or a call of a :func:`command` (DDL, a
    direct LAT insert, a dead-letter sweep, the explicit stream flush, a
    timer alarm ...).  It runs under a recording :class:`Tape`
    (:meth:`entry`) and leaves one committed record: what it was, and
    every input it read from outside the monitor.  Recovery re-runs the
    entry, so an append made inside an entry is dropped.  It journals the
    first of ``monitors``.

    Flush policy: every record is framed committed and written with one
    ``write`` and one ``flush``, so it has reached the operating system
    when :meth:`append` returns (there is no ``fsync``).

    A fault injected at ``durability.append`` (consulted once per record)
    marks the journal **dead** (the process crashed as far as the disk is
    concerned): subsequent appends are dropped silently, simulating
    post-crash execution the recovery must not see.  ``partial`` mode
    first writes the first half of the faulting line, a torn tail.  A
    real ``OSError`` also fails open — monitoring must never die because
    its journal disk did — and bumps the
    ``sqlcm.durability.journal_failed`` metric.
    """

    def __init__(self, monitors: Sequence[SQLCM]):
        self._sqlcm = monitors[0]
        self._file = None
        self.path: str | None = None
        self.seq = 0
        self.dead = False
        self.records_written = 0
        self.on_commit: list[Callable[[], None]] = []
        #: the recording of the entry running now; None outside entries
        self.tape: Tape | None = None

    def rotate(self, path: str) -> None:
        """Close the current segment and start a fresh one (post-checkpoint)."""
        self.close()
        self._file = open(path, "w", encoding="utf-8")
        self.path = path
        self.dead = False

    def close(self) -> None:
        """Close the segment."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def entry(self, kind: str, data: dict, run: Callable, *args,
              **kwargs) -> Any:
        """Run ``run(*args, **kwargs)`` as one entry into the monitor,
        under a recording tape, and return what it returns; unless that is
        ``False`` (it did nothing), append one committed ``kind`` record:
        ``data`` and the tape's image."""
        sqlcm = self._sqlcm
        tape = self.tape = sqlcm.tape = Tape(sqlcm)
        factory, faults = sqlcm.factory, sqlcm.faults
        sqlcm.factory = tape.factory
        if faults is not None:
            tape.injector, sqlcm.faults = faults, tape
        try:
            result = run(*args, **kwargs)
        finally:
            self.tape = sqlcm.tape = None
            sqlcm.factory = factory
            if sqlcm.faults is tape:
                sqlcm.faults = faults
        if result is not False:
            self.append(kind, data | tape.image())
        return result

    def append(self, kind: str, data: Any) -> None:
        if self.dead or self._file is None or self.tape is not None:
            return
        self.seq += 1
        line = frame(self.seq, kind, True, self._sqlcm.server.clock.now,
                     data)
        try:
            self._sqlcm.check_fault("durability.append")
        except FaultInjected as err:
            if err.mode == "partial":
                # a torn tail: the first half of this line hits the disk
                self._file.write(line[: max(1, len(line) // 2)])
                self._file.flush()
            self.dead = True
            return
        try:
            self._file.write(line)
            self._file.flush()
        except OSError:
            self.dead = True
            self._sqlcm.server.obs.count("sqlcm.durability.journal_failed")
            return
        self.records_written += 1
        for callback in self.on_commit:
            callback()


# ---------------------------------------------------------------------------
# the tape: what one entry read from outside the monitor
# ---------------------------------------------------------------------------

_ERROR_TYPES: dict[str, type] = {}


def _replayed_error(name: str, message: str) -> Exception:
    """An exception that formats as the recorded one did (``Name: msg``)."""
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        cls = _ERROR_TYPES[name] = type(name, (Exception,), {})
    return cls(message)


class Tape:
    """The recording of one journaled entry: every input the entry read
    from outside the monitor, in the order it read it.  While the entry
    runs it is the monitor's ``tape`` and stands in as its fault
    injector; its :meth:`image` goes into the entry's record.

    * ``objects`` — each monitored object the entry built, in creation
      order, as its extra values and one probe memo per generation
      (``RecordingFactory``): the event's own context first
      (``context``, its keys), then iteration-scope expansions;
    * ``scopes`` — the size of each iteration-scope expansion, and
      ``[pairs, edges]`` of each blocking-pairs probe;
    * ``faults`` — each fault the injector gave: ``[ordinal of the
      check in the entry, site, mode]`` (latency faults add the seconds);
    * ``effects`` — the outcome of each effect outside the monitor
      (:meth:`SQLCM.effect`): ``[error type or None, error message or
      result, cost charged]``;
    * ``decisions`` — each governor decision: ``[ordinal of the
      observation, measured, estimated]``, then the transition it made,
      if any, and the components the transition suspended.

    The fault checks made inside an effect are the effect's own: a
    replay never makes them, so they are not counted.
    """

    replaying = False

    def __init__(self, sqlcm: SQLCM):
        self.sqlcm = sqlcm
        self.factory = RecordingFactory(sqlcm)
        self.injector = None
        self.context: dict | None = None
        self.scopes: list = []
        self.faults: list = []
        self.effects: list = []
        self.decisions: list = []
        self.checks = 0
        self.observes = 0
        self.paused = 0

    def image(self) -> dict:
        image: dict = {}
        if self.context is not None:
            image["context"] = list(self.context)
        objects = self.factory.objects
        if objects:
            image["objects"] = [obj.image() for obj in objects]
        for name in ("scopes", "faults", "effects", "decisions"):
            values = getattr(self, name)
            if values:
                image[name] = values
        return image

    # -- what the monitor calls ------------------------------------------

    def check(self, site: str) -> float:
        """The fault injector's ``check``, recorded."""
        if self.paused:
            return self.injector.check(site)
        self.checks += 1
        try:
            extra = self.injector.check(site)
        except FaultInjected as err:
            self.faults.append([self.checks, site, err.mode])
            raise
        if extra:
            self.faults.append([self.checks, site, "latency", extra])
        return extra

    def iterate(self, class_name: str) -> list:
        objects = self.sqlcm._scope(class_name)
        self.scopes.append(len(objects))
        return objects

    def blocking_pairs(self) -> list:
        pairs, edges = self.sqlcm.driver.blocking_pairs()
        self.scopes.append([len(pairs), edges])
        return self.sqlcm._pairs(pairs, edges)

    def effect(self, run: Callable, args: tuple) -> Any:
        server = self.sqlcm.server
        before = server.monitor_cost_total
        self.paused += 1
        try:
            result = run(*args)
        except Exception as err:
            self.effects.append([type(err).__name__, str(err),
                                 server.monitor_cost_total - before])
            raise
        finally:
            self.paused -= 1
        self.effects.append([None, result, server.monitor_cost_total - before])
        return result

    def observed(self) -> None:
        self.observes += 1

    def decided(self, measured: float, estimated: float) -> None:
        self.decisions.append([self.observes, measured, estimated])

    def transitioned(self, state: str, reason: str, suspended: list) -> None:
        self.decisions[-1] += [state, reason, suspended]


class _Replay:
    """A record's :class:`Tape` played back, in its place as the
    monitor's ``tape`` and fault injector: each input the entry read
    comes from the record, in the order the entry read it, and a replay
    that asks for one the record does not hold, or leaves one unread, has
    diverged from the entry (``DurabilityError``)."""

    replaying = True

    def __init__(self, sqlcm: SQLCM, kind: str, data: dict,
                 restorer: "_Restorer"):
        self.sqlcm = sqlcm
        self.kind = kind
        self.factory = ReplayFactory(sqlcm, data.get("objects", []))
        self.context = data.get("context")
        self.placeholders = restorer.placeholders
        self.history = restorer.apply_history
        self.recorded = {name: data.get(name, [])
                         for name in ("scopes", "faults", "effects",
                                      "decisions")}
        self.read = dict.fromkeys(self.recorded, 0)
        self.checks = 0
        self.observes = 0

    def _next(self, name: str, what: str):
        values, at = self.recorded[name], self.read[name]
        if at == len(values):
            raise DurabilityError(f"replay of a {self.kind!r} record needs "
                                  f"{what} the record does not hold")
        self.read[name] = at + 1
        return values[at]

    def _peek(self, name: str, ordinal: int):
        values, at = self.recorded[name], self.read[name]
        if at < len(values) and values[at][0] == ordinal:
            self.read[name] = at + 1
            return values[at]
        return None

    def entry_context(self) -> dict | None:
        """The event's own context, the first objects the entry built."""
        if self.context is None:
            return None
        return {key: self.factory.replayed(key) for key in self.context}

    def finish(self) -> None:
        objects = self.factory
        unread = [name for name, values in self.recorded.items()
                  if self.read[name] < len(values)]
        if objects.built < len(objects.images):
            unread.append("objects")
        if unread:
            raise DurabilityError(f"replay of a {self.kind!r} record left "
                                  f"recorded {', '.join(unread)} unread")

    def check(self, site: str) -> float:
        self.checks += 1
        fault = self._peek("faults", self.checks)
        if fault is None:
            return 0.0
        if fault[1] != site:
            raise DurabilityError(
                f"replay checked {site!r} where the entry's fault fired at "
                f"{fault[1]!r}")
        if fault[2] == "latency":
            return fault[3]
        raise FaultInjected(site, fault[2])

    def iterate(self, class_name: str) -> list:
        count = self._next("scopes", f"the size of a {class_name} scope")
        return [self.factory.replayed(class_name) for __ in range(count)]

    def blocking_pairs(self) -> list:
        count, edges = self._next("scopes", "a blocking-pairs probe")
        return self.sqlcm._pairs([(None, None, None, 0.0)] * count, edges)

    def effect(self, run: Callable, args: tuple) -> Any:
        error, value, cost = self._next(
            "effects", f"the outcome of {run.__qualname__}")
        self.sqlcm.server.add_monitor_cost(cost)
        if error is not None:
            raise _replayed_error(error, value)
        return value

    def observed(self) -> list | None:
        self.observes += 1
        decision = self._peek("decisions", self.observes)
        return None if decision is None else decision[1:]

    def reach(self, event: str) -> None:
        names = [name for name, on in self.placeholders.values()
                 if on == event]
        if names:
            raise DurabilityError(
                f"the journal replays {event} events, which reach callback "
                f"rule {names[0]!r}: a Python callable cannot be re-run from "
                f"disk; register the rule again in recover(setup=...)")


def read_journal(path: str) -> tuple[list[JournalRecord], int]:
    """Read a file of record lines, tolerating a torn tail.

    Returns ``(committed_records, discarded)`` where ``discarded`` counts
    valid-but-uncommitted trailing records plus any torn line.  Reading
    stops at the first line that fails its CRC, fails to parse, or lacks
    its trailing newline.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "r", encoding="utf-8", newline="") as handle:
        content = handle.read()
    records: list[JournalRecord] = []
    lines = content.split("\n")
    # a well-formed file ends with "\n", leaving one empty trailing piece;
    # anything else in the final slot is a torn line
    torn = 1 if lines.pop() else 0
    for line in lines:
        crc_hex, __, payload = line.partition(" ")
        try:
            if len(crc_hex) != 8 or \
                    int(crc_hex, 16) != zlib.crc32(payload.encode("utf-8")):
                raise ValueError("CRC mismatch")
            seq, kind, commit, time, data = loads(payload)
        except (ValueError, TypeError):
            torn = 1
            break
        records.append(JournalRecord(seq, kind, commit, time, data, crc_hex))
    last_commit = max((index for index, record in enumerate(records)
                       if record.commit), default=-1)
    committed = records[: last_commit + 1]
    return committed, len(records) - len(committed) + torn


# ---------------------------------------------------------------------------
# the checkpoint: one walk over a sequence of monitors, emitting records
# ---------------------------------------------------------------------------

class _Compactor:
    """The checkpoint walk's sink: records framed into memory."""

    def __init__(self, clock):
        self.clock = clock
        self.lines: list[str] = []

    def append(self, kind: str, data: Any, commit: bool = False) -> None:
        self.lines.append(frame(len(self.lines) + 1, kind, commit,
                                self.clock.now, data))


def _alert_row(alert: dict) -> list:
    """One alert as ``[kind, window_end, time, *row values, *anomaly]``,
    the row in ``query.columns`` order; ``StreamQuery.alert`` derives the
    rest again."""
    kind = alert["kind"]
    item = [kind, alert["window_end"], alert["time"], *alert["row"].values()]
    if kind == "deviation":
        item += (alert["value"], alert["baseline"], alert["sigma"])
    elif kind == "topk":
        item.append(alert["rank"])
    return item


def _query_image(copies: Sequence) -> dict:
    """One stream query across its per-shard ``copies``: anomaly history
    and alert ring from the control shard's, counters summed, panes
    merged."""
    from repro.core.engine import fold_window
    query = copies[0]
    image = fold(copies) | {"stream": query.name,
                            "alerts": [_alert_row(a) for a in query.alerts]}
    image["window"] = fold_window(copies).image() \
        | fold([q.window for q in copies])
    if query.deviation is not None:
        image["deviation"] = query.deviation.image() \
            | fold([q.deviation for q in copies])
    if query.topk is not None:
        image["topk"] = fold([q.topk for q in copies])
    return image


def compact(monitors: Sequence[SQLCM]) -> str:
    """The text of a checkpoint: the shortest record sequence that
    recreates the state of ``monitors``, folded by each field's declared
    merge-op, in registration order.

    A serial monitor is the one-element sequence: its live LATs and
    windows are read in place.  A sharded replay passes its shard
    monitors, control shard first: totals and counters sum, LAT
    partitions and window panes merge, and registrations and supervisory
    state (health, incidents, governor ladder, dead letters, timers) are
    the control shard's — recovery always rebuilds a *serial* monitor.

    Registrations come first, in the order they were made (the incident
    manager where its sweep rule stands), then one state image per LAT
    and per stream query and the engine totals, then supervisory state.
    Only the closing end marker is committed, and it vouches for the
    whole file: the record count and a CRC chained over every preceding
    record's CRC.
    """
    from repro.core.engine import fold_lat
    from repro.core.incidents import SWEEP_TIMER
    control = monitors[0]
    out = _Compactor(control.server.clock)
    out.append("checkpoint", {"version": CHECKPOINT_VERSION})
    for lat in control.lats():
        out.append("call", call_data(control, control, "create_lat",
                                     {"definition": lat.definition}))
    manager = control._incidents
    # the incidents, and what re-creates their manager where its sweep
    # rule stands in the rule order (at the end if it has none)
    incidents = manager and {"policy": manager.policy,
                             "manager": fold([manager]),
                             "incidents": list(manager._incidents.values())}
    for rule in control._rule_order:
        key = rule.name.lower()
        if incidents and key == SWEEP_TIMER:
            out.append("incidents", incidents)
        out.append("rule_add", {"rule": rule_image(
            [m.rules[key] for m in monitors if key in m.rules])})
    if incidents and SWEEP_TIMER not in control.rules:
        out.append("incidents", incidents)
    streams = control._streams
    engines = [m._streams for m in monitors if m._streams is not None]
    if streams is not None:
        for query in streams.queries():
            out.append("call", call_data(control, streams, "register", {
                "text": query.spec.text, "name": query.name,
                "sink_lat": query.sink_lat,
                "max_alerts": query.alerts.maxlen,
                "criticality": query.criticality}))
    for name in control._lats:
        out.append("lat_image", fold_lat(monitors, name).image())
    if streams is not None:
        for name in streams._queries:
            out.append("stream_image",
                       _query_image([e.query(name) for e in engines]))
    out.append("totals", {"sqlcm": fold(monitors),
                          "streams": fold(engines) if engines else None})
    for health in control.health.known():
        out.append("health", {"ns": "engine", "image": health})
    if streams is not None:
        for health in streams.health.known():
            out.append("health", {"ns": "stream", "image": health})
    if control.governor is not None:
        out.append("governor", fold([control.governor]))
    letters = control.dead_letters
    out.append("deadletters",
               fold([letters]) | {"entries": letters.entries()})
    for timer in control.timer_service.timers():
        out.append("timer", {"name": timer.name, "interval": timer.interval,
                             "repeats": timer.remaining})
    if manager is not None and manager.policy.history:
        for table_name in manager.history_tables():
            if control.server.catalog.has_table(table_name):
                for __, row in control.server.table(table_name).scan():
                    out.append("history", {"table": table_name,
                                           "values": list(row[:-1]),
                                           "time": row[-1]})
    out.append("checkpoint_end", {
        "records": len(out.lines),
        "crc": _chain(line[:8] for line in out.lines)}, commit=True)
    return "".join(out.lines)


def _repr_lines(path: str) -> bool:
    """Does the file open with a whole record line of the version-3
    format, ``<crc> repr(tuple)``?"""
    with open(path, encoding="utf-8", errors="replace") as handle:
        crc_hex, __, payload = handle.readline().rstrip("\n").partition(" ")
    return payload.startswith("(") \
        and crc_hex == f"{zlib.crc32(payload.encode('utf-8')):08x}"


def read_checkpoint(path: str) -> list[JournalRecord]:
    """A checkpoint's records; raises DurabilityError unless the file is
    whole.  It is whole *iff* its last committed record is the end marker
    and that marker's count and chained CRC match what precedes it — no
    other record commits, so no prefix of the file can pass."""
    records, __ = read_journal(path)
    if not records or records[-1].kind != "checkpoint_end":
        if _repr_lines(path):
            raise DurabilityError(
                f"{path}: a version 3 checkpoint (repr record lines); this "
                f"build reads version {CHECKPOINT_VERSION} (JSON lines) only")
        raise DurabilityError(f"{path}: no end marker (torn or foreign file)")
    *body, end = records
    if end.data != {"records": len(body),
                    "crc": _chain(record.crc for record in body)}:
        raise DurabilityError(f"{path}: end marker does not match its records")
    if not body or body[0].kind != "checkpoint":
        raise DurabilityError(f"{path}: not a version "
                              f"{CHECKPOINT_VERSION} checkpoint")
    version = body[0].data.get("version")
    if version != CHECKPOINT_VERSION:
        raise DurabilityError(
            f"{path}: a version {version} checkpoint; this build reads "
            f"version {CHECKPOINT_VERSION} only")
    return records


# ---------------------------------------------------------------------------
# recovery: every record, checkpoint's or journal's, through one table
# ---------------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What a recovery did; ``sqlcm`` is the rebuilt serial monitor."""

    sqlcm: SQLCM
    generation: int
    records_replayed: int = 0
    records_discarded: int = 0
    placeholder_rules: list[str] = field(default_factory=list)


class _Restorer:
    """Applies records to a fresh monitor; one handler per record kind,
    listed in :data:`HANDLERS`."""

    def __init__(self, sqlcm: SQLCM, report: RecoveryReport):
        from repro.core.incidents import INCIDENT_TABLE
        self.sqlcm = sqlcm
        self.report = report
        server = sqlcm.server
        # history rows replay only into a server that did not already
        # hold the history tables (a live supervised restart keeps them)
        self.apply_history = not server.catalog.has_table(INCIDENT_TABLE)
        # the panes and cursor each pane group was loaded with, encoded
        self.pane_images: dict = {}
        # the callback rules that could not be rebuilt: lower-cased name ->
        # (name, the engine event the rule is on)
        self.placeholders: dict[str, tuple[str, str]] = {}
        # what replayed entries charge is taken back when recovery ends:
        # the engine's queries never see it
        self.costs = (server._pending_monitor_cost, server.monitor_cost_total)
        sqlcm.timer_service.running = False

    def apply(self, records: list[JournalRecord]) -> None:
        for record in records:
            self.sqlcm.server.clock.advance_to(record.time)
            handler = HANDLERS.get(record.kind)
            if handler is None:
                raise DurabilityError(
                    f"unknown journal record kind {record.kind!r}")
            handler(self, record.data)

    def take_back(self) -> None:
        """Take back what the replay charged, whether or not it finished."""
        server = self.sqlcm.server
        server._pending_monitor_cost, server.monitor_cost_total = self.costs

    def _replay(self, kind: str, data: dict,
                run: Callable[[_Replay], None]) -> None:
        """Re-run one journaled entry under its record's tape."""
        sqlcm = self.sqlcm
        tape = _Replay(sqlcm, kind, data, self)
        factory, faults = sqlcm.factory, sqlcm.faults
        sqlcm.tape, sqlcm.factory = tape, tape.factory
        sqlcm.faults = tape if tape.recorded["faults"] else None
        try:
            run(tape)
            tape.finish()
        finally:
            sqlcm.tape, sqlcm.factory, sqlcm.faults = None, factory, faults

    def framing(self, data: dict) -> None:
        """Checkpoint header / end marker: verified by
        :func:`read_checkpoint` before anything is applied."""

    # -- entries: re-run from their records -----------------------------

    def call(self, data: dict) -> None:
        """An API call: the method again, on the target its path names."""
        sqlcm, method, path = self.sqlcm, data["method"], data["path"]
        args = {} if method == "add_rule" else {
            key: self._argument(arg) for key, arg in data["args"].items()}
        if self._settled(path, method, args):
            return

        def run(tape: _Replay) -> None:
            if not path and method == "add_rule":
                self.rule_add({"rule": data["args"]["rule"][1]})
                return
            try:
                target = sqlcm
                if path:
                    target = getattr(sqlcm, path[0])
                    if callable(target):
                        target = target(*path[1:])
                getattr(target, method)(**args)
            except Exception as err:
                raise DurabilityError(
                    f"replay of the {method!r} call raised "
                    f"{type(err).__name__}: {err}; the recorded call "
                    f"returned") from err
        self._replay(f"call to {method}", data, run)

    def _settled(self, path: list, method: str, args: dict) -> bool:
        """Does the call find nothing to do?  A registration ``setup()``
        made stands for the record's; a callback rule that was never
        rebuilt cannot be acted on."""
        sqlcm = self.sqlcm
        if not path and method == "create_lat":
            return sqlcm.has_lat(args["definition"].name)
        if path == ["stream_engine"] and method == "register":
            from repro.stream.language import parse_stream_query
            name = args["name"] or parse_stream_query(
                args["text"], schema=sqlcm.schema).name
            return sqlcm._streams is not None \
                and name.lower() in sqlcm._streams._queries
        if path or method not in ("remove_rule", "enable_rule",
                                  "release_quarantine"):
            return False
        key = args["name"].lower()
        placeholder = key in self.placeholders and key not in sqlcm.rules
        if method == "remove_rule":
            self.placeholders.pop(key, None)
        return placeholder

    def _argument(self, pair: list) -> Any:
        """One argument back from its ``[type, value]`` pair."""
        kind, value = pair
        if kind is None:
            return value
        if kind == "monitor":
            return self.sqlcm
        return load(_record_types()[kind], value)

    def event(self, data: dict) -> None:
        """An engine event: the instance count, the rules, the streams."""
        def run(tape: _Replay) -> None:
            tape.reach(data["event"])
            self.sqlcm._enter(data["event"], data.get("alert"),
                              tape.entry_context())
        self._replay("event", data, run)

    def dispatch(self, data: dict) -> None:
        """A dispatch started outside every event and every call."""
        def run(tape: _Replay) -> None:
            self.sqlcm.dispatch_event(data["event"], None,
                                      tape.entry_context())
        self._replay("dispatch", data, run)

    # -- a checkpoint's registrations and state images -------------------

    def rule_add(self, data: dict) -> None:
        from repro.core.rules import Rule
        sqlcm = self.sqlcm
        image = data["rule"]
        rule = sqlcm.rules.get(image["name"].lower())
        if rule is None:
            actions = [action_from_spec(spec) for spec in image["actions"]
                       if spec is not None]
            if len(actions) < len(image["actions"]):
                # a callback action cannot be rebuilt from disk; the
                # recovery setup() callback is the supported path — report
                # the rule so the operator knows, and refuse to replay an
                # event that reaches it
                self.report.placeholder_rules.append(image["name"])
                __, event = sqlcm.schema.resolve_event(image["event"])
                self.placeholders[image["name"].lower()] = (
                    image["name"], event.engine_event)
            if not actions:
                return  # a pure-callback rule (e.g. an app component's)
            rule = sqlcm.add_rule(load(Rule, image, actions=actions))
        else:
            # registered by setup(): it takes its recorded place in the
            # rule order, where the replayed events expect it
            event = rule.event_def.engine_event
            sqlcm._rule_order.remove(rule)
            sqlcm._rule_order.append(rule)
            sqlcm._rules_by_event[event] = tuple(
                r for r in sqlcm._rules_by_event[event] if r is not rule
            ) + (rule,)
            sqlcm.invalidate_signature_cache()
        rule.enabled = image["enabled"]
        rule.fire_count = image["fire_count"]
        rule.evaluation_count = image["evaluation_count"]

    def lat_image(self, data: dict) -> None:
        """A checkpoint's LAT, or what ``restore_lat`` made of one."""
        self.sqlcm.lat(data["lat"]).load_image(data)

    def stream_image(self, data: dict) -> None:
        """One query's image.  The queries of a pane group share panes
        again only if their images hold the same panes and cursor; one
        whose image differs leaves its group first."""
        streams = self.sqlcm.stream_engine()
        query = streams.query(data["stream"])
        panes = dumps([data["window"], data["next_boundary"]])
        group = query.panes
        if self.pane_images.get(group, panes) != panes:
            group = streams._split(group, [query])
        load_into(query, data)
        columns, groups = query.columns, len(query.spec.groups)
        query.alerts.clear()
        query.alerts.extend(
            query.alert(kind, tuple(values[:groups]),
                        dict(zip(columns, values)), window_end, time,
                        *values[len(columns):])
            for kind, window_end, time, *values in data["alerts"])
        if group not in self.pane_images:
            group.window.load_image(data["window"])
            self.pane_images[group] = panes
        if query.deviation is not None and "deviation" in data:
            query.deviation.load_image(data["deviation"])
        if query.topk is not None and "topk" in data:
            load_into(query.topk, data["topk"])

    def totals(self, data: dict) -> None:
        load_into(self.sqlcm, data["sqlcm"])
        self.sqlcm.invalidate_signature_cache()
        if data["streams"] is not None:
            load_into(self.sqlcm.stream_engine(), data["streams"])

    def health(self, data: dict) -> None:
        from repro.core.resilience import RuleHealth
        if data["ns"] == "stream":
            registry = self.sqlcm.stream_engine().health
        else:
            registry = self.sqlcm.health
        registry.restore(load(RuleHealth, data["image"]))

    def incidents(self, data: dict) -> None:
        from repro.core.incidents import Incident, IncidentPolicy
        manager = self.sqlcm.incident_manager(
            load(IncidentPolicy, data["policy"]))
        for image in data["incidents"]:
            manager._incidents[image["incident_id"]] = load(Incident, image)
        load_into(manager, data["manager"])

    def governor(self, data: dict) -> None:
        from repro.core.governor import GovernorPolicy
        if self.sqlcm.governor is None:
            self.sqlcm.enable_governor(load(GovernorPolicy, data["policy"]))
        load_into(self.sqlcm.governor, data)

    def deadletters(self, data: dict) -> None:
        from repro.core.resilience import DeadLetter
        letters = load_into(self.sqlcm.dead_letters, data)
        letters._entries = [load(DeadLetter, image)
                            for image in data["entries"]]

    def timer(self, data: dict) -> None:
        self.sqlcm.set_timer(data["name"], data["interval"], data["repeats"])

    def history(self, data: dict) -> None:
        if not self.apply_history:
            return
        sqlcm = self.sqlcm
        manager = sqlcm._incidents
        if manager is not None:
            manager._ensure_history()
        if sqlcm.server.catalog.has_table(data["table"]):
            sqlcm.server.table(data["table"]).insert(
                list(data["values"]) + [data["time"]])


#: the apply table: every record kind a journal or a checkpoint may hold
HANDLERS: dict[str, Callable[[_Restorer, Any], None]] = {
    "checkpoint": _Restorer.framing,
    "checkpoint_end": _Restorer.framing,
    "event": _Restorer.event,
    "dispatch": _Restorer.dispatch,
    "call": _Restorer.call,
    "rule_add": _Restorer.rule_add,
    "lat_image": _Restorer.lat_image,
    "stream_image": _Restorer.stream_image,
    "totals": _Restorer.totals,
    "health": _Restorer.health,
    "incidents": _Restorer.incidents,
    "governor": _Restorer.governor,
    "deadletters": _Restorer.deadletters,
    "timer": _Restorer.timer,
    "history": _Restorer.history,
}


# ---------------------------------------------------------------------------
# the durability manager
# ---------------------------------------------------------------------------

def _checkpoint_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"checkpoint-{generation:04d}.ckpt")


def _journal_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"journal-{generation:04d}.wal")


def _list_generations(directory: str) -> list[int]:
    generations = []
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            if name.startswith("checkpoint-") and name.endswith(".ckpt"):
                try:
                    generations.append(int(name[len("checkpoint-"):-5]))
                except ValueError:
                    continue
    return sorted(generations)


class DurabilityManager:
    """Owns one monitor's on-disk durability state.

    ``attach()`` gives the monitor its journal and takes the initial
    checkpoint; ``checkpoint()`` publishes a new generation
    atomically and rotates the journal; :func:`recover` (also exposed as
    a static method) rebuilds a monitor from the newest valid generation.
    """

    def __init__(self, sqlcm: SQLCM, directory: str,
                 checkpoint_interval: float | None = None):
        self.sqlcm = sqlcm
        self.directory = directory
        self.checkpoint_interval = checkpoint_interval
        self.journal = Journal([sqlcm])
        existing = _list_generations(directory)
        self.generation = existing[-1] if existing else 0
        self.last_checkpoint_at: float | None = None
        self.checkpoints_taken = 0
        self.attached = False

    @property
    def clock(self):
        return self.sqlcm.server.clock

    # -- wiring ----------------------------------------------------------

    def attach(self) -> "DurabilityManager":
        """Give the monitor its journal, then checkpoint."""
        os.makedirs(self.directory, exist_ok=True)
        self.sqlcm.journal = self.journal
        self.attached = True
        self.checkpoint()
        return self

    def detach(self) -> None:
        """Take the journal off the monitor and close its file."""
        self.sqlcm.journal = None
        self.journal.close()
        self.attached = False

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self) -> str:
        """Write a new checkpoint generation atomically; rotate the journal.

        Protocol: compact the full state into records, consult the
        ``durability.checkpoint`` fault site (an *exception* fault models
        a crash before the rename — the temp file never becomes visible;
        a *partial* fault models a torn write that does become visible —
        recovery finds no end marker and falls back a generation), publish
        via ``os.replace``, and only then start the new journal segment
        and prune generations older than the previous one.
        """
        if self.sqlcm._dispatching or self.sqlcm.tape is not None:
            raise DurabilityError("cannot checkpoint mid-dispatch")
        generation = self.generation + 1
        content = compact([self.sqlcm])
        partial: FaultInjected | None = None
        try:
            self.sqlcm.check_fault("durability.checkpoint")
        except FaultInjected as err:
            if err.mode != "partial":
                raise  # crash mid-checkpoint: nothing became visible
            partial = err
            content = content[: max(1, int(len(content) * 0.6))]
        path = _checkpoint_path(self.directory, generation)
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(temp, path)
        if partial is not None:
            # the torn checkpoint landed, but the journal of the previous
            # generation was never rotated away — recovery falls back to it
            raise partial
        self.generation = generation
        self.journal.rotate(_journal_path(self.directory, generation))
        self._prune()
        self.last_checkpoint_at = self.clock.now
        self.checkpoints_taken += 1
        return path

    def maybe_checkpoint(self, now: float | None = None) -> str | None:
        """Checkpoint when the configured interval has elapsed."""
        if self.checkpoint_interval is None or not self.attached:
            return None
        if self.sqlcm._dispatching or self.sqlcm.tape is not None:
            return None
        now = self.clock.now if now is None else now
        last = self.last_checkpoint_at
        if last is not None and now - last < self.checkpoint_interval:
            return None
        return self.checkpoint()

    def _prune(self) -> None:
        """Keep the current and previous generations; drop older files."""
        for generation in _list_generations(self.directory):
            if generation <= self.generation - 2:
                for path in (_checkpoint_path(self.directory, generation),
                             _journal_path(self.directory, generation)):
                    if os.path.exists(path):
                        os.remove(path)

    def describe(self) -> dict:
        return {
            "directory": self.directory,
            "generation": self.generation,
            "checkpoints_taken": self.checkpoints_taken,
            "last_checkpoint_at": self.last_checkpoint_at,
            "checkpoint_interval": self.checkpoint_interval,
            "journal_records": self.journal.records_written,
            "journal_dead": self.journal.dead,
        }

    # -- recovery --------------------------------------------------------

    @staticmethod
    def recover(directory: str, server=None, *,
                setup: Callable[[SQLCM], None] | None = None
                ) -> RecoveryReport:
        """Rebuild a serial monitor from the newest valid generation, over
        ``server`` — a DatabaseServer or a ProbeDriver, as for
        :class:`SQLCM` — or a fresh in-memory engine.

        Tries checkpoint generations newest-first; a generation whose
        checkpoint fails verification (torn write) is skipped in
        favor of the previous one, whose journal kept growing because
        rotation only happens after a successful checkpoint publish.
        When none verifies, the error names why each was refused (a
        directory written by a version 3 build says so).

        ``setup`` runs against the fresh monitor before any state is
        applied — it is the hook for re-registering components whose
        rules carry live callbacks (AutoRemediator, app rule packs), and a
        rule it registers takes its recorded place in the rule order.
        Rules that cannot be rebuilt and were not pre-registered are
        listed in ``RecoveryReport.placeholder_rules``; a journal whose
        entries reach one is refused (``DurabilityError`` naming it).
        """
        generations = _list_generations(directory)
        if not generations:
            raise DurabilityError(f"no checkpoint found in {directory!r}")
        refused: list[str] = []
        for chosen in reversed(generations):
            try:
                image = read_checkpoint(_checkpoint_path(directory, chosen))
            except (DurabilityError, OSError) as err:
                refused.append(str(err))
                continue
            break
        else:
            raise DurabilityError(
                f"no valid checkpoint generation in {directory!r}: "
                + "; ".join(refused))
        from repro.core.engine import SQLCM
        sqlcm = SQLCM(server)
        if setup is not None:
            setup(sqlcm)
        records, discarded = read_journal(_journal_path(directory, chosen))
        report = RecoveryReport(
            sqlcm=sqlcm, generation=chosen, records_replayed=len(records),
            records_discarded=discarded)
        restorer = _Restorer(sqlcm, report)
        try:
            restorer.apply(image + records)
        except BaseException:
            # a refused recovery leaves nothing wired to the server
            sqlcm.detach()
            raise
        finally:
            restorer.take_back()
        # timers last: their processes need the final clock
        sqlcm.timer_service.resume()
        return report


# ---------------------------------------------------------------------------
# kill-and-rebuild harness
# ---------------------------------------------------------------------------

class DigestTap:
    """Records ``(virtual time, digest)`` at every committed journal append.

    The last point is the state a correct recovery must reproduce: a
    crash can only lose the uncommitted tail, so the recovered monitor's
    digest must equal the digest at the last commit marker the disk saw.
    """

    def __init__(self, manager: DurabilityManager):
        self._fn = manager.sqlcm.state_digest
        self._clock = manager.clock
        self.points: list[tuple[float, int]] = []
        self._capture()  # the post-attach checkpoint state is point zero
        manager.journal.on_commit.append(self._capture)

    def _capture(self) -> None:
        self.points.append((self._clock.now, self._fn()))

    @property
    def last(self) -> tuple[float, int]:
        return self.points[-1]


def verify_recovery(directory: str, tap: DigestTap, *,
                    setup: Callable[[SQLCM], None] | None = None
                    ) -> RecoveryReport:
    """Recover from ``directory`` and assert digest equality with ``tap``.

    Raises :class:`DurabilityError` on mismatch; returns the report on
    success.  The recovered monitor's clock is advanced to the capture
    time first (aging aggregates and integrity signatures read the
    clock).
    """
    report = DurabilityManager.recover(directory, setup=setup)
    target_time, expected = tap.last
    report.sqlcm.server.clock.advance_to(target_time)
    actual = report.sqlcm.state_digest()
    if actual != expected:
        raise DurabilityError(
            f"recovered digest 0x{actual:08x} != pre-crash digest "
            f"0x{expected:08x} (generation {report.generation}, "
            f"{report.records_replayed} records replayed, "
            f"{report.records_discarded} discarded)")
    return report
