"""The SQLCM engine: monitoring engine + ECA rule engine (paper Sections 4-5).

Attach one :class:`SQLCM` to a :class:`~repro.engine.DatabaseServer`; it
subscribes to the server's event bus and evaluates registered rules
synchronously in the event's execution path.  All monitoring work — rule
evaluation, LAT maintenance, signature computation, persist writes — charges
the server's monitor-cost pool, which the running session converts into
virtual time; this is what the overhead experiments measure.

Design contracts from the paper honored here:

* *Fixed rule order, deferred side effects* (Section 5): rules run in
  registration order; events raised by actions (LAT evictions, cancel
  signals) are queued and processed only after all rules for the current
  event have run.
* *Pay only for what you monitor* (Section 2.1): events with no registered
  rules return immediately; signatures are only computed when some rule or
  LAT references them.
* *Scope semantics* (Section 5.2): if the condition references the event's
  class, the triggering object is in context; other referenced classes are
  iterated over all registered objects (Blocker/Blocked pairs come from a
  lock-graph traversal, as in Section 6.1).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.core import state
from repro.core.actions import InsertAction
from repro.core.condition import FunctionSource, bind_condition
from repro.core.durability import command
from repro.core.governor import GovernorPolicy, OverloadGovernor
from repro.core.lat import LAT, LATDefinition
from repro.core.objects import MonitoredObject, ObjectFactory
from repro.core.resilience import (CHECKSUM_COLUMN, DeadLetter,
                                   DeadLetterJournal, FaultInjector,
                                   QuarantinePolicy, RetryPolicy,
                                   RuleHealthRegistry, row_checksum)
from repro.core.rules import Rule
from repro.core.schema import SCHEMA, SQLCMSchema
from repro.core.signatures import (SignatureRegistry, linearize_logical,
                                   linearize_physical, digest,
                                   sequence_signature)
from repro.core.timers import TimerService
from repro.drivers.base import resolve
from repro.engine.catalog import ColumnDef, TableSchema
from repro.engine.planner.logical import walk_logical
from repro.engine.planner.physical import walk_physical
from repro.engine.types import SQLType
from repro.errors import (ActionDeliveryError, DurabilityError, FaultInjected,
                          LATError, PersistCorruptionError, RuleError,
                          RuleQuarantinedError, SchemaError)
from repro.obs.observability import NULL_OBS

_SIGNATURE_ATTRS = {"logical_signature", "physical_signature"}
_INSTANCE_ATTRS = {"number_of_instances"}

#: the context of a queued event that its dispatch has yet to build
_UNBUILT = object()


class _RulePlan(NamedTuple):
    """What evaluating a rule needs besides the event: fixed while the set
    of rules and LATs is, so worked out once (``SQLCM._plan``) and dropped
    with the signature cache."""

    #: classes the condition, its LATs' owners and the actions read
    needed: frozenset
    #: virtual cost of one evaluation
    charge: float
    #: ``(LAT name, LAT, owner class)`` per LAT the condition reads
    lat_probes: tuple
    #: ``{LAT name: (LAT, owner class)}`` per LAT an ``InsertAction`` feeds
    inserts: dict


# -- rule context of each engine event: {class key: monitored object} ------

def _query_context(factory, payload):
    qctx = payload["query"]
    return None if qctx is None else {"query": factory.query(qctx)}


def _blocked_context(factory, payload):
    context = _query_context(factory, payload)
    if context is not None:
        resource = payload.get("resource")
        blockers = payload.get("blockers") or []
        if blockers:
            context["blocker"] = factory.blocker(blockers[0], resource)
        context["blocked"] = factory.blocked(payload["query"], resource, 0.0)
    return context


def _block_released_context(factory, payload):
    context = _query_context(factory, payload)
    if context is not None:
        resource = payload.get("resource")
        wait = payload.get("wait_time", 0.0)
        blocker = payload.get("blocker")
        if blocker is not None:
            context["blocker"] = factory.blocker(blocker, resource, wait)
        context["blocked"] = factory.blocked(payload["query"], resource, wait)
    return context


def _transaction_context(factory, payload):
    txn = payload.get("txn")
    if txn is None:
        return None
    return {"transaction": factory.transaction(
        txn, payload.get("statements", []))}


#: engine event -> ``builder(factory, payload)``, found by the event's full
#: name, else by its family (``query.commit`` -> ``query``: every query.*
#: and txn.* event carries the same payload, an extension class's too).
#: A builder returns None when there is nothing to evaluate against; an
#: event listed in neither form gets an empty context.
_CONTEXT_BUILDERS: dict[str, Callable] = {
    "query": _query_context,
    "query.blocked": _blocked_context,
    "query.block_released": _block_released_context,
    "txn": _transaction_context,
    "session.login_failed": lambda f, p: {"session": f.failed_login(p)},
    "session.login": lambda f, p: {"session": f.session(p["session"])},
    "session.logout": lambda f, p: {"session": f.session(p["session"])},
    "timer.alert": lambda f, p: {"timer": f.timer(p["timer"])},
    "lat.evict": lambda f, p: {"evicted": f.evicted_row(p["lat"], p["row"])},
    "sqlcm.rule_error": lambda f, p: {"rulefailure": f.rule_failure(p)},
    "sqlcm.stream_alert": lambda f, p: {"streamalert": f.stream_alert(p)},
    "sqlcm.governor_transition":
        lambda f, p: {"governor": f.governor_transition(p)},
    "sqlcm.incident": lambda f, p: {"incident": f.incident(p)},
    "sqlcm.remediation": lambda f, p: {"remediation": f.remediation(p)},
}


# -- compiled dispatch -------------------------------------------------------
#
# An event's rules run as the program generated for the event's rule tuple
# and the key set of its context: the rule loop unrolled rule by rule, in
# the manner of ``core/condition.py``.  A block keeps every step of the
# loop, in its order: the enabled test, the quarantine charge and check,
# the evaluation count and charge, the fault check, each LAT probe with its
# charge, the condition called through ``CompiledCondition.evaluate``, the
# fire counts, each action with its charge, and the end of a probation.
# The plan is decided when the text is written: a rule over a class the
# context lacks loops over ``SQLCM._combos``, and one whose plan cannot be
# built builds it again, to fail in the rule's boundary.  The *framed*
# variant runs each rule under its attribution frame and span, admitted
# and weighed by the governor, and charges through ``add_monitor_cost``.
# The *pooled* one, with no governor and observability off, holds the
# pool in two locals, ``pending`` and ``total``, each charge being the two
# additions ``add_monitor_cost`` makes (so the virtual cost is the same
# float), written back around every call that may charge or read it; and
# it runs an ``Insert`` the plan binds in the block, as ``_run_action``
# and ``InsertAction._maintain`` would.  An action that leaves a program
# stale (see ``_STALE``) hands the rest of the tuple to the framed program
# of the rest, written over their plans as they are then.  Both variants
# call the condition of a rule over the context itself only if its
# ``_ThresholdIndex`` leaves the rule a candidate; everything else in the
# block runs, so no count or charge tells the difference.

#: characters of text per generated function.  ``compile()`` holds memory
#: in proportion to one function's text while it runs (a 1000-rule tuple
#: in one function took 105 MB more peak memory), so a program is a run of
#: functions, each ended by the first rule that takes it past this length
_TEXT_PER_FUNCTION = 40_000

#: the pool's locals written back to the server, and read from it again
_STORE = ("server._pending_monitor_cost, server.monitor_cost_total = "
          "pending, total")
_LOAD = ("pending, total = server._pending_monitor_cost, "
         "server.monitor_cost_total")
#: an action dropped the program (the rules or LATs changed); or, for the
#: pooled one, turned on observability (a charge held in the locals skips
#: ``obs.account``) or a governor (a fused Insert skips ``lat_allowed``)
_FRAMED_STALE = "sqlcm._dispatch_programs is not programs"
_STALE = (_FRAMED_STALE + " or server._obs is not None"
          " or sqlcm.governor is not None")


class _ThresholdIndex:
    """The rules of one program whose conditions bound one attribute of
    one in-context class (``CompiledCondition.bound``): their thresholds
    in sorted arrays, one per side and strictness, and the ``ranks`` of a
    value in those arrays, from which a rule's ``test`` reads whether its
    interval holds the value.  A rule fails its test only where its
    condition is certainly False: the value is NULL, or a number outside
    the interval.  A NaN, a value that does not compare with numbers, or
    no object at all leaves every rule a candidate, and its condition
    decides, or raises, as it would have."""

    #: (side, strict) -> the bisect whose rank ``r`` passes the threshold
    #: at index ``k`` when ``k < r`` (a lower bound) or ``r <= k`` (upper)
    _SEARCH = {(0, False): bisect_right, (0, True): bisect_left,
               (1, False): bisect_left, (1, True): bisect_right}

    def __init__(self, class_name: str, attribute: str, bounds: list):
        self.class_name = class_name
        self.attribute = attribute
        values: dict[tuple, set] = {}
        for bound in bounds:
            for side, limit in enumerate((bound.lower, bound.upper)):
                if limit is not None:
                    values.setdefault((side, limit[1]), set()).add(limit[0])
        self.kinds = sorted(values)
        self.arrays = [sorted(values[kind]) for kind in self.kinds]
        self.searches = [(self._SEARCH[kind], array)
                         for kind, array in zip(self.kinds, self.arrays)]
        #: the ranks that leave every rule a candidate, and none
        self.every = tuple(len(array) if side == 0 else 0
                           for (side, __), array in zip(self.kinds,
                                                        self.arrays))
        self.none = tuple(0 if side == 0 else len(array)
                          for (side, __), array in zip(self.kinds,
                                                       self.arrays))
        #: the last value ranked and its ranks: each function of a long
        #: program ranks the same probed value again
        self.last: tuple = (self, self.every)

    def ranks(self, obj: MonitoredObject | None) -> tuple:
        """The ranks of ``obj``'s value: the probe the condition makes
        first, made where it would have made it."""
        if obj is None:
            return self.every  # the condition raises its SchemaError
        value = obj._probe(self.attribute)
        last = self.last
        if value is last[0]:
            return last[1]
        if value is None:
            return self.none
        ranks = self.every
        try:
            if value == value:  # not NaN
                ranks = tuple([search(array, value)
                               for search, array in self.searches])
        except TypeError:
            pass
        self.last = (value, ranks)
        return ranks

    def test(self, bound, ranks: str) -> str:
        """The expression, over the local ``ranks``, true when the value
        lies in ``bound``."""
        terms = []
        for side, limit in enumerate((bound.lower, bound.upper)):
            if limit is not None:
                kind = self.kinds.index((side, limit[1]))
                at = bisect_left(self.arrays[kind], limit[0])
                terms.append(f"{at} < {ranks}[{kind}]" if side == 0
                             else f"{ranks}[{kind}] <= {at}")
        return " and ".join(terms)


def _threshold_indexes(sqlcm: "SQLCM", rules: tuple, keys: frozenset
                       ) -> dict[int, tuple[int, _ThresholdIndex]]:
    """Position -> (group, its index) of each rule of ``rules`` that a
    program over ``keys`` evaluates against the context itself and whose
    condition has a bound; a group is the rules bounding one (class,
    attribute), numbered in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for position, rule in enumerate(rules):
        cond = rule.compiled_condition
        if cond is None or cond.bound is None:
            continue
        try:
            plan = rule.plan or sqlcm._plan(rule)
        except Exception:
            continue  # the block rebuilds the plan, to fail
        if plan.needed <= keys:
            groups.setdefault(cond.bound[:2], []).append(position)
    indexes = {}
    for group, (key, positions) in enumerate(groups.items()):
        index = _ThresholdIndex(*key, [rules[position].compiled_condition
                                       .bound for position in positions])
        for position in positions:
            indexes[position] = (group, index)
    return indexes


class _DispatchEmitter(FunctionSource):
    """Writes ``dispatch(sqlcm, context, now)``, or with ``framed``
    ``dispatch(sqlcm, context, now, obs, governor)``, for the rules from
    ``rules[start]`` on over one context key set, up to the one that takes
    the text past ``_TEXT_PER_FUNCTION``; ``stop`` is then the first rule
    left out.  The function returns True when it handed the rest of the
    tuple to the framed program of the rest."""

    def __init__(self, sqlcm: "SQLCM", event: str, rules: tuple,
                 keys: frozenset, start: int, framed: bool,
                 indexes: dict[int, tuple[int, _ThresholdIndex]]):
        super().__init__()
        self.sqlcm = sqlcm
        self.rules = rules
        self.keys = keys
        self.stop = start
        self.framed = framed
        self.indexes = indexes
        #: the groups of ``indexes`` read so far, each through its local
        #: ``ranks<group>``, None until a rule of the group fills it
        self.used: list[int] = []
        #: whether the pool is in the locals where the text now stands
        self.held = not framed
        costs = sqlcm.server.costs
        self.quarantine_check = self.literal(costs.quarantine_check)
        self.lat_probe = self.literal(costs.lat_lookup + costs.lat_latch)
        self.action_dispatch = self.literal(costs.action_dispatch)
        self.lat_insert = self.literal(costs.lat_insert + 3 * costs.lat_latch)
        self.lat_evict = self.literal(costs.lat_evict)
        self.constant(event, "event")
        self.constant(rules, "rules")
        self.constant(sqlcm._dispatch_programs, "programs")

    def function(self) -> Callable:
        """The ``dispatch`` function; its text is ``__source__``."""
        self.emit("server = sqlcm.server")
        self.emit("health = sqlcm.health")
        if self.held:
            self.emit(_LOAD)
        self.emit("stale = False")
        prologue = len(self.lines)
        while self.stop < len(self.rules) \
                and sum(map(len, self.lines)) < _TEXT_PER_FUNCTION:
            self.rule(self.stop, self.rules[self.stop])
            self.stop += 1
        if self.used:
            self.lines.insert(prologue, f"    {self.unranked()}")
        if self.held:
            self.emit(_STORE)
        self.emit("return False")
        source, dispatch = self.compile(
            "dispatch", "sqlcm, context, now, obs, governor" if self.framed
            else "sqlcm, context, now", "<dispatch>",
            {"__builtins__": {"Exception": Exception, "len": len},
             "NULL_OBS": NULL_OBS})
        dispatch.__source__ = source
        return dispatch

    # -- the pool, in two locals or on the server

    def charge(self, amount: str) -> None:
        """What ``add_monitor_cost(amount)`` adds, to the locals when they
        hold the pool."""
        if self.held:
            self.emit(f"pending += {amount}; total += {amount}")
        else:
            self.emit(f"server.add_monitor_cost({amount})")

    @contextmanager
    def released(self):
        """What is written inside runs with the pool on the server: the
        locals are written back first and read again however it ends."""
        if not self.held:
            yield
            return
        self.emit(_STORE)
        self.emit("try:")
        self.depth += 1
        self.held = False
        yield
        self.held = True
        self.depth -= 1
        self.emit("finally:")
        self.emit("    " + _LOAD)

    def call_out(self, *lines: str) -> None:
        """``lines``, which call what may charge or read the pool."""
        with self.released():
            for line in lines:
                self.emit(line)

    def fault_check(self, site: str) -> None:
        self.emit("if sqlcm.faults is not None:")
        self.depth += 1
        self.call_out(f"sqlcm.check_fault({site!r})")
        self.depth -= 1

    def failure(self, obj: str, site: str, failed: bool = True) -> None:
        """The ``except`` clause of one isolation boundary."""
        self.emit("except Exception as err:")
        self.depth += 1
        self.call_out(f"sqlcm._record_rule_failure({obj}, {site!r}, err)")
        if failed:
            self.emit("failed = True")
        self.depth -= 1

    # -- one rule

    def rule(self, index: int, rule: Rule) -> None:
        emit = self.emit
        obj = self.constant(rule, f"rule{index}")
        name = self.constant(rule.name, f"name{index}")
        emit(f"# rule {index}")
        emit(f"if {obj}.enabled:")
        self.depth += 1
        outer = self.depth
        if self.framed:
            emit(f"with obs.attrib('rule', {name}):")
            self.depth += 1
        self.charge(self.quarantine_check)
        emit(f"if health.all_clear or health.allow({name}, now):")
        self.depth += 1
        may_stale = self.evaluate(index, rule, obj, name)
        if self.framed:
            self.depth = outer  # hand off outside the rule's frames
        if may_stale and index + 1 < len(self.rules):
            emit("if stale:")
            if self.held:
                emit("    " + _STORE)
            handed = "obs, governor" if self.framed else "NULL_OBS, None"
            emit(f"    sqlcm._dispatch_framed(event, rules[{index + 1}:], "
                 f"context, now, {handed})")
            emit("    return True")
        self.depth = outer - 1

    def evaluate(self, index: int, rule: Rule, obj: str, name: str) -> bool:
        """The rule's evaluation in its ``evaluate`` isolation boundary,
        admitted, weighed and timed by a governor and in its span when
        framed; True when one of its actions runs through ``_run_action``
        and so may leave the program stale."""
        emit = self.emit
        if self.framed:
            span = self.constant(f"rule:{rule.name}", f"span{index}")
            emit("if governor is not None:")
            emit(f"    admitted, weight = governor.admit({obj}, event)")
            emit("if governor is None or admitted:")
            emit(f"    with obs.span({span}, 'rule', event=event):")
            self.depth += 2
        emit("try:")
        self.depth += 1
        if self.framed:
            emit("if governor is not None:")
            emit("    cost_before = server.monitor_cost_total")
            emit("    sqlcm.sample_weight = weight")
            emit("try:")
            self.depth += 1
        try:
            plan = rule.plan or self.sqlcm._plan(rule)
        except Exception:
            plan = None
        if plan is None:  # it fails again, in the boundary, at each call
            emit(f"sqlcm._plan({obj})")
            may_stale = False
        elif plan.needed <= self.keys:
            may_stale = self.combination(index, rule, plan, obj, "context")
            emit("if not failed and not health.all_clear:")
            emit(f"    health.record_success({name})")
        else:
            may_stale = self.scoped(index, rule, plan, obj, name)
        if self.framed:
            self.depth -= 1
            emit("finally:")
            emit("    if governor is not None:")
            emit("        sqlcm.sample_weight = 1")
            emit("if governor is not None:")
            emit(f"    governor.note_eval({name}, "
                 "server.monitor_cost_total - cost_before)")
        self.depth -= 1
        self.failure(obj, "evaluate", failed=False)
        return may_stale

    def scoped(self, index: int, rule: Rule, plan: _RulePlan, obj: str,
               name: str) -> bool:
        """Iteration scope (Section 5.2): the block once per combination of
        the context with registered objects of the classes it lacks, with
        the pool on the server."""
        emit = self.emit
        missing = self.constant(plan.needed - self.keys, f"missing{index}")
        with self.released():
            emit("evaluated = failed = False")
            emit(f"for combo in sqlcm._combos({missing}, context):")
            self.depth += 1
            emit("evaluated = True")
            may_stale = self.combination(index, rule, plan, obj, "combo")
            self.depth -= 1
            emit("if evaluated and not failed and not health.all_clear:")
            emit(f"    health.record_success({name})")
        return may_stale

    def combination(self, index: int, rule: Rule, plan: _RulePlan, obj: str,
                    combo: str) -> bool:
        """One evaluation of the condition and, if it fires, the actions,
        against the objects in the local ``combo``."""
        emit = self.emit
        cond = rule.compiled_condition
        indexed = self.indexes.get(index) if combo == "context" else None
        # with no LAT probe, only a candidate's condition and actions read
        # the LAT rows, so a rule that is not one makes none
        rows_late = indexed is not None and not plan.lat_probes
        emit(f"{obj}.evaluation_count += 1")
        self.charge(self.literal(plan.charge))
        if combo == "context":  # a loop keeps ``failed`` across combos
            emit("failed = False")
        if not rows_late:
            emit("lat_rows = {}")
        emit("try:")
        self.depth += 1
        self.fault_check("condition")
        if cond is not None:
            for probe, (lat_name, lat, owner) in enumerate(plan.lat_probes):
                table = self.constant(lat, f"lat{index}_{probe}")
                emit(f"probed = {combo}.get({owner!r})")
                self.charge(self.lat_probe)
                emit(f"lat_rows[{lat_name!r}] = {table}.lookup_object("
                     "probed) if probed is not None else None")
            condition = self.constant(cond, f"condition{index}")
            call = f"fired = {condition}.evaluate({combo}, lat_rows)"
            if indexed is None:
                emit(call)
            else:
                self.candidate(indexed, cond.bound,
                               ("lat_rows = {}", call) if rows_late
                               else (call,))
        self.depth -= 1
        self.failure(obj, "condition")
        emit("else:")
        self.depth += 1
        if cond is not None:
            emit("if fired:")
            self.depth += 1
        emit(f"{obj}.fire_count += 1")
        emit("sqlcm.rule_firings += 1")
        if not self.held:
            emit("server.obs.count('sqlcm.rules.fired')")
        called_out = False
        for number, action in enumerate(rule.actions):
            bound = self.constant(action, f"action{index}_{number}")
            target = plan.inserts.get(action.lat_name) \
                if type(action) is InsertAction else None
            # an action run before it may have dropped the plan, or turned
            # on what wants this one's charges accounted; where the pool
            # is on the server (the framed program, a loop) nothing fuses
            if target is None or called_out or not self.held:
                self.run_action(obj, bound, combo)
                called_out = True
            else:
                self.insert(obj, bound, target, f"{index}_{number}")
        if called_out:
            emit(f"stale = {_FRAMED_STALE if self.framed else _STALE}")
        self.depth -= 2 if cond is not None else 1
        return called_out

    def run_action(self, obj: str, bound: str, combo: str) -> None:
        """An action through ``_run_action``, the isolation boundary (with
        its retries and dead letters); the charge before it goes through
        the server, which accounts it once observability is on.  The
        action may make the context's objects forget what they probed, so
        the ranks read so far are read again."""
        if self.used:
            self.emit(self.unranked())
        self.call_out(
            f"server.add_monitor_cost({self.action_dispatch})",
            f"if not sqlcm._run_action({obj}, {bound}, {combo}, lat_rows):",
            "    failed = True")

    def candidate(self, indexed: tuple, bound, call: tuple) -> None:
        """The lines of ``call`` if the rule's group index leaves it a
        candidate, ``fired = False`` otherwise; the group's ranks are
        filled by the first of its rules to get here."""
        emit = self.emit
        group, index = indexed
        ranks = f"ranks{group}"
        table = self.constant(index, f"index{group}")
        if group not in self.used:
            self.used.append(group)
        emit(f"if {ranks} is None:")
        emit(f"    {ranks} = {table}.ranks("
             f"context.get({index.class_name!r}))")
        emit(f"if {index.test(bound, ranks)}:")
        for line in call:
            emit(f"    {line}")
        emit("else:")
        emit("    fired = False")

    def unranked(self) -> str:
        """The statement that sets the ranks of every group used so far
        to None."""
        return " = ".join(f"ranks{group}" for group in self.used) + " = None"

    def insert(self, obj: str, bound: str, target: tuple,
               suffix: str) -> None:
        """A bound ``Insert`` as ``_run_action`` and ``_maintain`` run it
        with no governor and no observability: the dispatch charge, the
        action's fault site, the owner (a missing one makes ``execute``
        raise its ``ActionError``), the maintenance charge, the insert's
        fault site, ``LAT.insert``, the eviction charge and an evict event
        per row pushed out; a failure is the action's."""
        emit = self.emit
        lat, owner = target
        table = self.constant(lat, f"target{suffix}")
        self.charge(self.action_dispatch)
        emit("try:")
        self.depth += 1
        self.fault_check("action")
        emit(f"owner = context.get({owner!r})")
        emit("if owner is None:")  # it raises before it charges
        emit(f"    {bound}.execute(sqlcm, {obj}, context, lat_rows)")
        self.charge(self.lat_insert)
        self.fault_check("lat.insert")
        emit(f"evicted = {table}.insert(owner, sqlcm.sample_weight)")
        emit("if evicted:")
        self.depth += 1
        emit(f"charge = {self.lat_evict} * len(evicted)")
        self.charge("charge")
        self.call_out("for row in evicted:",
                      f"    sqlcm.enqueue_evict_event({bound}.lat_name, row)")
        self.depth -= 2
        self.failure(obj, "action")


class SQLCM:
    """SQL Continuous Monitoring engine, embedded in a database server."""

    # bus hook points the monitor listens on (query.compile is separate:
    # it routes through _on_compile for signature fill-in first)
    SUBSCRIBED_EVENTS = (
        "query.start", "query.commit", "query.cancel",
        "query.rollback", "query.blocked", "query.block_released",
        "txn.begin", "txn.commit", "txn.rollback", "session.login",
        "session.login_failed", "session.logout", "sqlcm.stream_alert",
    )

    # the totals every shard counts for itself; the children are walked
    # (digest_parts below, durability.compact) and fold one by one
    STATE = (
        *state.fields(sum, "events_handled", "rule_firings",
                      "rule_errors"),
        ("_instance_counts", state.dict_total),
        # whether instances are counted on every commit
        ("_signatures_forced", state.first),
        *state.walked("rules", "_rule_order", "_lats", "_streams",
                      "_incidents", "health", "dead_letters", "governor",
                      "timer_service"),
        # wiring, caches, in-flight dispatch, already-delivered side effects
        *state.transient(
            "driver", "server", "bus_subscribed", "schema", "sample_weight",
            "factory", "_rules_by_event", "_dispatch_programs", "outbox",
            "command_journal",
            "external_handler", "_sig_registry", "_signatures_needed_cache",
            "_event_queue", "_dispatching",
            "retry_policy", "faults", "journal", "tape"),
    )

    def __init__(self, server=None, schema: SQLCMSchema | None = None,
                 faults: FaultInjector | None = None,
                 quarantine: QuarantinePolicy | None = None,
                 retry: RetryPolicy | None = None,
                 governor: GovernorPolicy | None = None,
                 subscribe: bool = True,
                 driver=None):
        # ``server`` is a DatabaseServer or a ProbeDriver; the ``driver``
        # keyword is the older spelling of the second
        self.driver = resolve(driver if driver is not None else server)
        self.server = self.driver.host
        # False for a monitor fed explicitly (a replay shard): events
        # arrive through its owner's delivery calls, not the server's bus
        self.bus_subscribed = subscribe
        self.schema = schema or SCHEMA
        # overload governor (closed-loop degradation); off unless enabled
        self.governor: OverloadGovernor | None = None
        # weight the current rule evaluation carries into LAT inserts;
        # > 1 only while a sampled evaluation stands in for skipped events
        self.sample_weight: int = 1
        self.factory = ObjectFactory(self)
        self.timer_service = TimerService(self)
        self.rules: dict[str, Rule] = {}
        self._rule_order: list[Rule] = []
        # copy-on-write tuples: a dispatch iterates the one it started on
        self._rules_by_event: dict[str, tuple[Rule, ...]] = {}
        # (event, context keys) -> (the rule tuple, its dispatch program);
        # replaced, not cleared, by invalidate_signature_cache, so a program
        # still running can tell (see _DispatchEmitter)
        self._dispatch_programs: dict[tuple, tuple] = {}
        self._lats: dict[str, LAT] = {}
        self.outbox: list = []
        self.command_journal: list = []
        self.external_handler: Callable[[str], None] | None = None
        self._sig_registry = SignatureRegistry()
        self._instance_counts: dict[bytes, int] = {}
        self._signatures_forced = False
        # memoized signatures_needed; None = dirty, recompute on next read
        self._signatures_needed_cache: bool | None = None
        self._event_queue: deque[tuple[str, dict]] = deque()
        self._dispatching = False
        self.events_handled = 0
        self.rule_firings = 0
        # fault-isolation layer: rule failures are caught at the boundary,
        # charged to the clock, and recorded here instead of crashing the
        # triggering query (the paper's non-intrusiveness contract)
        self.health = RuleHealthRegistry(quarantine)
        self.retry_policy = retry or RetryPolicy()
        self.dead_letters = DeadLetterJournal()
        self.dead_letters.sqlcm = self
        self.faults = faults
        self.rule_errors = 0
        # durability journal (set by DurabilityManager.attach): one record
        # per entry into the monitor, an API call's included
        self.journal = None
        # what the entry running now reads from outside the monitor: the
        # journal's recording, or the record a recovery replays; None
        # outside entries and without a journal
        self.tape = None
        # the continuous stream-query subsystem is created lazily (pay only
        # for what you monitor); see stream_engine()
        self._streams = None
        # the incident manager too; see incident_manager()
        self._incidents = None
        if subscribe:
            self.driver.wire(self)
        if governor is not None:
            self.enable_governor(governor)

    #: a command's monitor and its place under it (``durability.command``)
    sqlcm = property(lambda self: self)
    command_path = ()

    # ------------------------------------------------------------------
    # LAT management
    # ------------------------------------------------------------------

    @command
    def create_lat(self, definition: LATDefinition) -> LAT:
        """Create a LAT; validates grouping/aggregation attributes."""
        key = definition.name.lower()
        if key in self._lats:
            raise LATError(f"LAT {definition.name!r} already exists")
        cls = self.schema.monitored_class(definition.monitored_class)
        if cls.name.lower() != "evicted":
            for attr in definition.source_attributes():
                cls.attribute(attr)  # raises SchemaError if unknown
        lat = LAT(definition, self.server.clock)
        lat.sqlcm = self
        self._lats[key] = lat
        self.invalidate_signature_cache()
        return lat

    @command
    def drop_lat(self, name: str) -> None:
        key = name.lower()
        if key not in self._lats:
            raise LATError(f"unknown LAT {name!r}")
        for rule in self._rule_order:
            if rule.compiled_condition is not None and \
                    key in rule.compiled_condition.lats:
                raise LATError(
                    f"LAT {name!r} is referenced by rule {rule.name!r}"
                )
        if self._streams is not None:
            for query in self._streams.queries():
                if query.sink_lat is not None and \
                        query.sink_lat.lower() == key:
                    raise LATError(
                        f"LAT {name!r} is the alert sink of stream query "
                        f"{query.spec.name!r}"
                    )
        self._lats.pop(key).sqlcm = None
        # a later LAT reusing the name must not be born suspended
        if self.governor is not None:
            self.governor.forget_lat(name)
        self.invalidate_signature_cache()

    def lat(self, name: str) -> LAT:
        try:
            return self._lats[name.lower()]
        except KeyError:
            raise LATError(f"unknown LAT {name!r}") from None

    def has_lat(self, name: str) -> bool:
        return name.lower() in self._lats

    def lats(self) -> list[LAT]:
        return list(self._lats.values())

    # ------------------------------------------------------------------
    # rule management
    # ------------------------------------------------------------------

    @command
    def add_rule(self, rule: Rule) -> Rule:
        """Bind and register a rule (takes effect immediately)."""
        key = rule.name.lower()
        if key in self.rules:
            raise RuleError(f"rule {rule.name!r} already exists")
        cls, event_def = self.schema.resolve_event(rule.event)
        rule.event_class = cls
        rule.event_def = event_def
        if rule.condition is not None:
            rule.compiled_condition = bind_condition(
                rule.condition, self.schema, set(self._lats),
                lambda lat: set(self.lat(lat).definition.column_names()),
            )
        for action in rule.actions:
            action.validate(self, rule)
        self.rules[key] = rule
        self._rule_order.append(rule)
        event = event_def.engine_event
        self._rules_by_event[event] = \
            self._rules_by_event.get(event, ()) + (rule,)
        self.invalidate_signature_cache()
        return rule

    @command
    def remove_rule(self, name: str) -> None:
        rule = self.rules.pop(name.lower(), None)
        if rule is None:
            raise RuleError(f"unknown rule {name!r}")
        self._rule_order.remove(rule)
        event = rule.event_def.engine_event
        peers = tuple(r for r in self._rules_by_event[event]
                      if r is not rule)
        if peers:
            self._rules_by_event[event] = peers
        else:
            # drop the key outright: under rule churn, keeping empty
            # tuples keyed grows the dict without bound
            del self._rules_by_event[event]
        # the health record goes with the rule: a later rule reusing the
        # name must not inherit error counts or quarantine state
        self.health.drop(rule.name)
        if self.governor is not None:
            self.governor.forget_rule(rule.name)
        self.invalidate_signature_cache()

    @command
    def enable_rule(self, name: str, enabled: bool = True) -> None:
        rule = self.rules.get(name.lower())
        if rule is None:
            raise RuleError(f"unknown rule {name!r}")
        if enabled and self.health.health_of(name).quarantined:
            raise RuleQuarantinedError(
                f"rule {name!r} is quarantined "
                f"({self.health.health_of(name).quarantine_reason}); "
                f"call release_quarantine first")
        rule.enabled = enabled

    # ------------------------------------------------------------------
    # fault isolation: health, quarantine, fault injection
    # ------------------------------------------------------------------

    def rule_health(self, name: str):
        """The :class:`RuleHealth` record of a registered rule."""
        if name.lower() not in self.rules:
            raise RuleError(f"unknown rule {name!r}")
        return self.health.health_of(name)

    def quarantined_rules(self) -> list[str]:
        """Names of rules currently held out by the circuit breaker."""
        quarantined = {h.name for h in self.health.quarantined()}
        return [r.name for r in self._rule_order
                if r.name.lower() in quarantined]

    @command
    def release_quarantine(self, name: str) -> None:
        """DBA override: put a quarantined rule back in the eval path."""
        if name.lower() not in self.rules:
            raise RuleError(f"unknown rule {name!r}")
        self.health.release(name)

    def set_fault_injector(self, faults: FaultInjector | None) -> None:
        """Install (or remove, with None) the deterministic fault harness."""
        self.faults = faults

    def check_fault(self, site: str) -> None:
        """Consult the fault injector at one site; charges latency faults
        to the monitor-cost pool, lets exception faults propagate to the
        enclosing isolation boundary."""
        if self.faults is None:
            return
        extra = self.faults.check(site)
        if extra:
            self.server.add_monitor_cost(extra)

    @command
    def set_timer(self, name: str, interval: float, repeats: int = -1):
        """Arm a timer (the Set action, also usable directly)."""
        return self.timer_service.set(name, interval, repeats)

    # ------------------------------------------------------------------
    # overload governor
    # ------------------------------------------------------------------

    @command
    def enable_governor(self, policy: GovernorPolicy | None = None
                        ) -> OverloadGovernor:
        """Install the closed-loop overload governor.

        Enables observability as a side effect: the governor's SHEDDING
        state ranks components by the attribution layer's per-component
        cost data.  Idempotent; returns the (possibly existing) governor.
        """
        if self.governor is None:
            self.server.enable_observability()
            self.governor = OverloadGovernor(self, policy)
            self.server.attach_governor(self.governor)
        return self.governor

    @command
    def disable_governor(self) -> None:
        """Remove the governor, releasing every suspension."""
        governor = self.governor
        if governor is not None:
            governor.reset()
            self.server.detach_governor()
            self.governor = None
            self.sample_weight = 1

    # ------------------------------------------------------------------
    # supervised restart teardown
    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Unhook this monitor from its host server entirely.

        Supervised restart (see :mod:`repro.service`) tears the crashed
        monitor down with this before rebuilding a replacement from the
        durability directory: bus subscriptions (through which the stream
        engine and the incident manager hear events too), the governor,
        and pending timers all come off so the old instance can no longer
        observe (or charge) the host.  Idempotent."""
        if self.bus_subscribed:
            self.driver.unwire(self)
            self.bus_subscribed = False
        if self._streams is not None:
            self._streams.detach()
        self.disable_governor()
        self.timer_service.shutdown()

    # ------------------------------------------------------------------
    # continuous stream queries
    # ------------------------------------------------------------------

    def stream_engine(self):
        """The continuous stream-query engine, created on first use.

        Stream queries subscribe to the same event-bus hook points as the
        rule engine, maintain incremental window aggregates, and close the
        loop by publishing ``sqlcm.stream_alert`` events that ECA rules
        (event ``StreamAlert.Alert``) can consume.
        """
        if self._streams is None:
            from repro.stream import StreamEngine
            self._streams = StreamEngine(self)
        return self._streams

    @property
    def has_streams(self) -> bool:
        """True once the stream engine exists and has registered queries."""
        return self._streams is not None and bool(self._streams.queries())

    # ------------------------------------------------------------------
    # incident lifecycle
    # ------------------------------------------------------------------

    @command(unless=lambda sqlcm, policy=None: sqlcm._incidents is not None)
    def incident_manager(self, policy=None):
        """The incident manager, created on first use.

        Dedups rule firings and stream alerts into open -> acked ->
        resolved incidents, runs the remediation guardrails, and persists
        history for investigation; see :mod:`repro.core.incidents`.
        ``policy`` is honored only on the creating call.
        """
        if self._incidents is None:
            from repro.core.incidents import IncidentManager
            self._incidents = IncidentManager(self, policy)
        return self._incidents

    @property
    def has_incidents(self) -> bool:
        """True once the incident manager exists and saw some incident."""
        return self._incidents is not None and bool(self._incidents.opened)

    @command
    def enable_signatures(self, enabled: bool = True) -> None:
        """Force signature computation even with no referencing rule."""
        self._signatures_forced = enabled
        self.invalidate_signature_cache()

    # ------------------------------------------------------------------
    # signatures / instance counting
    # ------------------------------------------------------------------

    def invalidate_signature_cache(self) -> None:
        """Drop the memoized ``signatures_needed`` flag.

        Called whenever the set of rules, LATs, or stream queries changes
        (the only inputs the flag depends on besides the forced switch).
        The rules' evaluation plans, the dispatch programs built from them
        and the governor's cached criticality map depend on the same inputs
        and are invalidated alongside."""
        self._signatures_needed_cache = None
        for rule in self._rule_order:
            rule.plan = None
        self._dispatch_programs = {}
        if self.governor is not None:
            self.governor.invalidate_components()

    @property
    def signatures_needed(self) -> bool:
        """Some rule, LAT, or stream query reads a signature attribute.

        Memoized: the flag is re-derived only after rule/LAT/stream
        registration changes, not on every ``query.compile`` and
        ``query.commit`` — this property sits on the per-statement hot
        path."""
        cached = self._signatures_needed_cache
        if cached is None:
            cached = self._compute_signatures_needed()
            self._signatures_needed_cache = cached
        return cached

    def _compute_signatures_needed(self) -> bool:
        interesting = _SIGNATURE_ATTRS | _INSTANCE_ATTRS
        if self._signatures_forced:
            return True
        if self._streams is not None and self._streams.signatures_needed:
            return True
        for lat in self._lats.values():
            attrs = {a.lower() for a in lat.definition.source_attributes()}
            if attrs & interesting:
                return True
        for rule in self._rule_order:
            cond = rule.compiled_condition
            # bound attribute references, not a text scan: a LAT alias or
            # string literal containing "signature" must not force
            # signature computation onto every query
            if cond is not None and cond.attributes & interesting:
                return True
        return False

    def _on_compile(self, event: str, payload: dict) -> None:
        self._fill_signatures(payload)
        self._on_engine_event(event, payload)

    def _fill_signatures(self, payload: dict) -> None:
        """Compute (or copy from the plan cache) the statement signatures.

        Separated from :meth:`_on_compile` so a sharded replay can fill
        the signatures of a recorded trace on its control shard before
        partitioning it: signature-mode partitioning reads them."""
        entry = payload["entry"]
        qctx = payload["query"]
        if self.signatures_needed and entry.logical_signature is None:
            costs = self.server.costs
            with self.server.obs.attrib("engine", "signature"):
                logical_nodes = sum(1 for __ in walk_logical(entry.logical))
                physical_nodes = sum(
                    1 for __ in walk_physical(entry.physical))
                self.server.add_monitor_cost(
                    costs.signature_per_node
                    * (logical_nodes + physical_nodes)
                )
                entry.logical_signature = digest(
                    linearize_logical(entry.logical))
                entry.physical_signature = digest(
                    linearize_physical(entry.physical))
        qctx.logical_signature = entry.logical_signature
        qctx.physical_signature = entry.physical_signature

    def instance_count(self, logical_signature: bytes | None) -> int:
        if logical_signature is None:
            return 0
        return self._instance_counts.get(logical_signature, 0)

    def transaction_signature(self, statements: Iterable,
                              physical: bool) -> bytes:
        """Logical/physical transaction signature: digest over the sequence
        of per-statement signature ids (Section 4.2, kinds 3 and 4)."""
        return sequence_signature(
            self.transaction_signature_ids(statements, physical))

    def transaction_signature_ids(self, statements: Iterable,
                                  physical: bool = False) -> tuple[int, ...]:
        """The raw id list (Appendix A exposes it as a list of integers)."""
        return tuple(
            self._sig_registry.id_of(
                q.physical_signature if physical else q.logical_signature
            )
            for q in statements
        )

    # ------------------------------------------------------------------
    # event dispatch
    # ------------------------------------------------------------------

    def _on_engine_event(self, event: str, payload: dict) -> None:
        """The bus entry: the monitor's one subscriber to each event it
        hears.  With a journal attached, and outside another entry, the
        event becomes one journaled entry (see ``Journal.entry``)."""
        streams = self._streams
        if not (self._dispatching or self.governor is not None
                or self._rules_by_event.get(event)
                or (streams is not None and streams._by_event.get(event))
                or (event == "query.commit" and self.signatures_needed)
                or (event == "sqlcm.stream_alert"
                    and self._incidents is not None
                    and self._incidents.hears_alerts)):
            # no rule, stream, instance count or incident manager to hear
            # it, and no dispatch for it to queue behind: nothing to do
            return
        if self.journal is None or self.tape is not None:
            self._enter(event, payload,
                        self._build_context(event, payload))
        else:
            data = {"event": event}
            if event == "sqlcm.stream_alert":
                # an alert published from outside: the incident manager
                # reads the alert itself, not its monitored object
                data["alert"] = payload
            self.journal.entry("event", data, self._entered,
                               self._enter, event, payload)

    def _entered(self, run: Callable, event: str, payload: dict) -> None:
        """``run(event, payload, context)`` as a journaled entry: the
        event's context is the first thing the entry builds, so the record
        names its keys, and its objects come first."""
        context = self.tape.context = self._build_context(event, payload)
        run(event, payload, context)

    def _enter(self, event: str, payload: dict | None,
               context: dict | None) -> None:
        """Everything the monitor does about one engine event, in order:
        the instance count, the rules (and every event they raise), the
        stream queries, then, for a stream alert, the incident manager.
        A replay runs it with the recorded context and no payload (a
        stream alert's payload is the alert)."""
        if context is not None and event == "query.commit" \
                and self.signatures_needed:
            signature = context["query"]._probe("logical_signature")
            if signature is not None:
                self._instance_counts[signature] = \
                    self._instance_counts.get(signature, 0) + 1
        if self._dispatching or self.governor is not None \
                or self._rules_by_event.get(event):
            self.dispatch_event(event, payload, context)
        streams = self._streams
        if streams is not None:
            queries = streams._by_event.get(event)
            if queries:
                streams.ingest(queries, context)
        if event == "sqlcm.stream_alert":
            manager = self._incidents
            if manager is not None and manager.hears_alerts:
                manager._on_stream_alert(payload)

    def dispatch_event(self, event: str, payload: dict | None,
                       context: Any = _UNBUILT) -> None:
        """Queue-and-drain dispatch preserving the paper's ordering contract:
        all rules for an event run before any event they raise.  An engine
        event comes with the ``context`` its entry built already.

        Inside a dispatch the event queues behind the current event's
        remaining rules (deferred side effects, Section 5).  Outside any
        dispatch — timer alarms, incident and governor transitions, stream
        ``flush()`` — it drains immediately: parking it in the queue would
        hand it to the *next unrelated* event's dispatch (wrong attribution)
        or lose it to that dispatch's ``clear()`` backstop.  Outside every
        entry, with a journal attached, it is an entry of its own."""
        tape = self.tape
        if tape is not None and tape.replaying:
            tape.reach(event)
        queued = (event, payload) if context is _UNBUILT \
            else (event, payload, context)
        if self._dispatching:
            self._event_queue.append(queued)
            return
        if self.governor is None and not self._rules_by_event.get(event):
            return  # no rule and no governor to hear it
        if self.journal is None or tape is not None:
            self._event_queue.append(queued)
            self._drain_queue()
        else:
            self.journal.entry("dispatch", {"event": event}, self._entered,
                               self.dispatch_event, event, payload)

    def publish_alert(self, alert: dict) -> None:
        """Publish a stream alert, the ``sqlcm.stream_alert`` event the
        monitor raises itself.  A replay hands it to the monitor's own
        entry only, which runs the rules and the incident manager, and
        never to an outside subscriber."""
        event = "sqlcm.stream_alert"
        tape = self.tape
        if tape is None or not tape.replaying:
            self.server.events.publish(event, alert)
            return
        tape.reach(event)
        if self.bus_subscribed:
            self._on_engine_event(event, alert)

    def effect(self, run: Callable, *args) -> Any:
        """``run(*args)``: an effect outside the monitor — a mail, a
        command, a cancel, a ``Persist`` write.  Inside a journaled entry
        its outcome is recorded; a replay reads the outcome back."""
        tape = self.tape
        if tape is None:
            return run(*args)
        return tape.effect(run, args)

    def _drain_queue(self) -> None:
        self._dispatching = True
        try:
            while self._event_queue:
                self._process_event(*self._event_queue.popleft())
        finally:
            self._dispatching = False
            # if _process_event escaped (engine bug, not a rule failure —
            # those are isolated), drop this dispatch's deferred work so a
            # later unrelated event does not drain another event's queue
            self._event_queue.clear()

    def enqueue_evict_event(self, lat_name: str, row: dict) -> None:
        """Called by InsertAction when a LAT row is evicted."""
        if self._rules_by_event.get("lat.evict"):
            try:
                self.check_fault("lat.evict")
            except FaultInjected:
                return  # this eviction notification is lost (counted)
            self.dispatch_event("lat.evict", {"lat": lat_name, "row": row})

    def _process_event(self, event: str, payload: dict | None,
                       context: Any = _UNBUILT) -> None:
        if self.governor is not None:
            self.governor.on_event(event)
        rules = self._rules_by_event.get(event)
        if not rules:
            return
        self.events_handled += 1
        obs = self.server.obs
        if obs.enabled:
            cost_before = self.server.monitor_cost_total
            with obs.span(f"dispatch:{event}", "dispatch"), \
                    obs.attrib("engine", event):
                self._dispatch_rules(event, payload, rules, obs, context)
                obs.count("sqlcm.events.dispatched")
                obs.observe("sqlcm.dispatch.cost",
                            self.server.monitor_cost_total - cost_before)
        else:
            self._dispatch_rules(event, payload, rules, obs, context)

    def _dispatch_rules(self, event: str, payload: dict | None,
                        rules: tuple, obs, context: Any) -> None:
        """The dispatch body: context assembly (unless the entry built the
        context already), then the rules in order, as the generated
        program of their tuple (see ``_DispatchEmitter``): the pooled
        variant with no governor and the null observability object, the
        framed one otherwise."""
        server = self.server
        server.add_monitor_cost(server.costs.event_dispatch)
        if context is _UNBUILT:
            context = self._build_context(event, payload)
        if context is None:
            return
        now = server.clock.now
        governor = self.governor
        if governor is None and obs is NULL_OBS:
            for part in self._program(event, rules, frozenset(context),
                                      False):
                if part(self, context, now):
                    break  # the framed program ran the rest
        else:
            self._dispatch_framed(event, rules, context, now, obs, governor)

    def _dispatch_framed(self, event: str, rules: tuple,
                         context: dict[str, MonitoredObject], now: float,
                         obs, governor: OverloadGovernor | None) -> None:
        """``rules`` as the framed program."""
        for part in self._program(event, rules, frozenset(context), True):
            if part(self, context, now, obs, governor):
                break  # the framed program of the rest ran it

    def _program(self, event: str, rules: tuple, keys: frozenset,
                 framed: bool) -> tuple[Callable, ...]:
        """The pooled or ``framed`` dispatch program of ``rules`` over a
        context holding ``keys``, as its run of functions: built on first
        use, kept while ``rules`` is still the tuple it was built for and
        no registration change has dropped the cache."""
        programs = self._dispatch_programs
        entry = programs.get((event, keys, framed))
        if entry is None or entry[0] is not rules:
            parts = []
            start = 0
            indexes = _threshold_indexes(self, rules, keys)
            while start < len(rules):
                emitter = _DispatchEmitter(self, event, rules, keys, start,
                                           framed, indexes)
                parts.append(emitter.function())
                start = emitter.stop
            entry = programs[event, keys, framed] = (rules, tuple(parts))
        return entry[1]

    def dispatch_source(self, event: str, keys: Iterable[str]) -> str:
        """The text of the dispatch program of ``event``'s rules over a
        context holding the objects of ``keys`` (lowercase class names), in
        the variant a dispatch would run now, built now if no dispatch has
        needed it."""
        framed = self.governor is not None or self.server.obs is not NULL_OBS
        return "\n".join(part.__source__ for part in self._program(
            event, self._rules_by_event.get(event, ()), frozenset(keys),
            framed))

    # ------------------------------------------------------------------
    # context assembly
    # ------------------------------------------------------------------

    def _build_context(self, event: str,
                       payload: dict) -> dict[str, MonitoredObject] | None:
        builder = _CONTEXT_BUILDERS.get(event) \
            or _CONTEXT_BUILDERS.get(event.partition(".")[0])
        return {} if builder is None else builder(self.factory, payload)

    def _iterate_class(self, class_name: str) -> list[MonitoredObject]:
        """All registered objects of a class (Section 5.2 iteration scope)."""
        if self.tape is not None:
            return self.tape.iterate(class_name)
        return self._scope(class_name)

    def _scope(self, class_name: str) -> list[MonitoredObject]:
        factory = self.factory
        if class_name == "query":
            return [factory.query(q) for q in self.driver.active_queries()]
        if class_name == "transaction":
            return [
                factory.transaction(t, t.statement_log)
                for t in self.driver.active_transactions()
            ]
        if class_name == "timer":
            return [factory.timer(t) for t in self.timer_service.timers()]
        if class_name in ("blocker", "blocked"):
            raise SchemaError(
                "blocker/blocked iterate as pairs"
            )  # pragma: no cover - guarded by caller
        return []

    def _blocking_pairs(self) -> list[tuple[MonitoredObject, MonitoredObject]]:
        """Materialize Blocker/Blocked pairs via the driver's waits probe."""
        if self.tape is not None:
            return self.tape.blocking_pairs()
        return self._pairs(*self.driver.blocking_pairs())

    def _pairs(self, pairs: list, edges: int
               ) -> list[tuple[MonitoredObject, MonitoredObject]]:
        costs = self.server.costs
        self.server.add_monitor_cost(costs.deadlock_search_per_edge
                                     * max(1, edges))
        return [
            (
                self.factory.blocker(blocker_q, resource, wait),
                self.factory.blocked(blocked_q, resource, wait),
            )
            for blocker_q, blocked_q, resource, wait in pairs
        ]

    # ------------------------------------------------------------------
    # rule evaluation
    # ------------------------------------------------------------------

    def _plan(self, rule: Rule) -> _RulePlan:
        """Build and keep ``rule.plan``, when the dispatch program is
        written.  A plan that cannot be built (an action naming a dropped
        LAT) is built again in the rule's block, inside its isolation
        boundary, so it fails there, every time: nothing is kept unless
        all of it resolved."""
        cond = rule.compiled_condition
        costs = self.server.costs
        needed: set[str] = set()
        lat_probes = []
        if cond is not None:
            needed |= cond.classes
            for lat_name in cond.lats:
                lat = self.lat(lat_name)
                owner = lat.definition.monitored_class.lower()
                needed.add(owner)
                lat_probes.append((lat_name, lat, owner))
        inserts = {}
        for action in rule.actions:
            needed |= action.required_classes(self)
            if isinstance(action, InsertAction):
                lat = self.lat(action.lat_name)
                inserts[action.lat_name] = (
                    lat, lat.definition.monitored_class.lower())
        rule.plan = _RulePlan(
            frozenset(needed),
            costs.rule_eval_base
            + costs.rule_atomic_condition * rule.atomic_condition_count,
            tuple(lat_probes), inserts)
        return rule.plan

    def _combos(self, missing: set[str],
                context: dict[str, MonitoredObject]
                ) -> list[dict[str, MonitoredObject]]:
        """The event's context extended with every registered object (or
        Blocker/Blocked pair) of each class it lacks (Section 5.2)."""
        combos = [context]
        if missing & {"blocker", "blocked"}:
            combos = [{**combo, "blocker": blocker_obj,
                       "blocked": blocked_obj}
                      for blocker_obj, blocked_obj in self._blocking_pairs()
                      for combo in combos]
        for class_name in sorted(missing - {"blocker", "blocked"}):
            combos = [{**combo, class_name: obj}
                      for obj in self._iterate_class(class_name)
                      for combo in combos]
        return combos

    # ------------------------------------------------------------------
    # isolation boundary: action execution, retry, dead letters
    # ------------------------------------------------------------------

    def _run_action(self, rule: Rule, action,
                    combo: dict[str, MonitoredObject],
                    lat_rows: dict[str, dict | None]) -> bool:
        """Execute one action inside the isolation boundary.

        Side-effecting actions get bounded retry with backoff and land in
        the dead-letter journal when undeliverable; internal actions fail
        fast (retrying LAT maintenance or Cancel is not idempotent-safe).
        Returns True on success.
        """
        ok = True
        if action.side_effect:
            try:
                self._deliver_with_retry(rule, action, combo, lat_rows)
            except ActionDeliveryError as err:
                self._dead_letter(rule, action, combo, lat_rows, err)
                self._record_rule_failure(rule, "action", err)
                ok = False
        else:
            try:
                self.check_fault("action")
                action.execute(self, rule, combo, lat_rows)
            except Exception as err:
                self._record_rule_failure(rule, "action", err)
                ok = False
        if not action.reads_context_only:
            for obj in combo.values():
                obj.forget()
        return ok

    def _deliver_with_retry(self, rule: Rule, action,
                            combo: dict[str, MonitoredObject],
                            lat_rows: dict[str, dict | None]) -> int:
        """Attempt delivery up to ``retry_policy.max_attempts`` times.

        Backoff between attempts is charged as virtual monitoring time.
        Returns the attempt number that succeeded; raises
        :class:`ActionDeliveryError` when the budget is exhausted.
        """
        policy = self.retry_policy
        last: Exception | None = None
        for attempt in range(1, max(1, policy.max_attempts) + 1):
            if attempt > 1:
                self.server.add_monitor_cost(policy.delay_before(attempt))
            try:
                self.check_fault("action")
                # a side effect acts outside the monitor
                self.effect(action.execute, self, rule, combo, lat_rows)
                return attempt
            except DurabilityError:
                raise  # a replay that diverged is not a failed delivery
            except Exception as err:
                last = err
        raise ActionDeliveryError(
            f"{type(action).__name__} undeliverable after "
            f"{policy.max_attempts} attempts: {last}",
            attempts=max(1, policy.max_attempts),
        ) from last

    def _dead_letter(self, rule: Rule, action,
                     combo: dict[str, MonitoredObject],
                     lat_rows: dict[str, dict | None],
                     err: ActionDeliveryError) -> None:
        self.server.add_monitor_cost(self.server.costs.dead_letter_append)
        self.server.obs.gauge("sqlcm.deadletter.depth",
                              min(self.dead_letters.capacity,
                                  self.dead_letters.depth + 1))
        cause = err.__cause__ if err.__cause__ is not None else err
        # a replayed entry's objects have no source to probe again: its
        # dead letters can be inspected, not redelivered, like a loaded one
        live = self.tape is None or not self.tape.replaying
        self.dead_letters.append(DeadLetter(
            time=self.server.clock.now,
            rule=rule.name,
            action=type(action).__name__,
            payload=action.describe(combo, lat_rows),
            error=f"{type(cause).__name__}: {cause}",
            attempts=err.attempts,
            action_obj=action if live else None,
            # replay and redeliver probe the source as it is then
            context={key: obj.detached() for key, obj in combo.items()}
            if live else None,
            lat_rows=dict(lat_rows) if live else None,
        ))
        # ring displacement is data loss; surface it as a metric so a
        # persistent sink outage is visible even after entries rotate out
        if self.dead_letters.dropped:
            self.server.obs.gauge("sqlcm.deadletter.dropped",
                                  self.dead_letters.dropped)

    def _record_rule_failure(self, rule: Rule, site: str,
                             error: BaseException) -> None:
        """Charge, account, and surface one isolated rule failure.  A
        replay that diverged from its record is no rule's failure: it
        escapes the boundary."""
        if isinstance(error, DurabilityError):
            raise error
        self.server.add_monitor_cost(self.server.costs.rule_error_cost)
        self.server.obs.count("sqlcm.rules.errors")
        self.rule_errors += 1
        now = self.server.clock.now
        health, newly_quarantined = self.health.record_failure(
            rule.name, site, error, now)
        # meta-monitoring: surface the failure as a monitorable event, but
        # never for failures of rules that themselves watch rule failures
        # (that would recurse)
        if self._rules_by_event.get("sqlcm.rule_error") and \
                rule.event_def is not None and \
                rule.event_def.engine_event != "sqlcm.rule_error":
            self.dispatch_event("sqlcm.rule_error", {
                "rule": rule.name,
                "site": site,
                "error": f"{type(error).__name__}: {error}",
                "error_count": health.error_count,
                "quarantined": newly_quarantined or health.quarantined,
                "time": now,
            })

    # ------------------------------------------------------------------
    # state digest (determinism proof surface)
    # ------------------------------------------------------------------

    def state_digest(self) -> int:
        """Replay-stable digest over the monitor's observable state; see
        :func:`state_digest` (a serial monitor is the one-element case)."""
        return state_digest([self])

    # ------------------------------------------------------------------
    # persistence (Persist action + LAT restore)
    # ------------------------------------------------------------------

    _TIMESTAMP_COLUMN = "sqlcm_ts"

    def persist_lat(self, lat_name: str, table_name: str) -> int:
        """Write all LAT rows to a disk-resident table; returns row count.

        Each row carries a CRC32 checksum column (torn-write detection for
        :meth:`restore_lat`).  A persist that fails mid-write compensates by
        deleting the rows it already wrote, so a retried Persist action
        never duplicates state; an injected *partial* fault simulates a
        crash mid-write instead — the torn rows stay behind with a bad
        checksum for restore to detect.
        """
        lat = self.lat(lat_name)
        with self.server.obs.attrib("lat", lat_name), \
                self.server.obs.span(f"persist:{lat_name}", "persist",
                                     table=table_name):
            return self._persist_lat_rows(lat, lat_name, table_name)

    def _persist_lat_rows(self, lat: LAT, lat_name: str,
                          table_name: str) -> int:
        rows = lat.rows()
        columns = lat.definition.column_names()
        self._ensure_reporting_table(table_name, columns,
                                     self._lat_column_types(lat),
                                     with_checksum=True)
        table = self.server.table(table_name)
        has_crc = any(c.name.lower() == CHECKSUM_COLUMN
                      for c in table.schema.columns)
        now = self.server.clock.now
        partial: FaultInjected | None = None
        try:
            self.check_fault("lat.persist")
        except FaultInjected as err:
            if err.mode != "partial":
                raise
            partial = err
        cutoff = len(rows) if partial is None else max(1, len(rows) // 2)
        written: list[int] = []
        try:
            for index, row in enumerate(rows[:cutoff]):
                self.server.add_monitor_cost(self.server.costs.persist_row)
                values = [row.get(c) for c in columns] + [now]
                if has_crc:
                    self.server.add_monitor_cost(
                        self.server.costs.persist_checksum_per_row)
                    coerced = table.prepare_row(values + [0])
                    crc = row_checksum(coerced[:-1])
                    if partial is not None and index == cutoff - 1:
                        crc ^= 0xFFFF  # torn final record
                    coerced[-1] = crc
                    values = coerced
                written.append(table.insert(values))
        except Exception:
            # compensation: a failed persist leaves no partial state, so a
            # retried delivery starts from a clean slate
            for rowid in written:
                table.delete(rowid)
            raise
        if partial is not None:
            raise partial  # simulated crash: torn rows stay behind
        return len(rows)

    def persist_object(self, obj: MonitoredObject, table_name: str,
                       attributes: list[str] | None = None) -> None:
        """Write one monitored object's attributes to a table."""
        if attributes is None:
            if obj.class_name.lower() == "evicted":
                raise SchemaError(
                    "Persist of an evicted row needs explicit attributes"
                )
            attributes = list(obj.class_def.attributes)
        types = []
        for attr in attributes:
            if obj.class_def.has_attribute(attr):
                types.append(obj.class_def.attribute(attr).sql_type)
            else:
                types.append(SQLType.FLOAT)
        self._ensure_reporting_table(table_name, attributes, types)
        table = self.server.table(table_name)
        self.server.add_monitor_cost(self.server.costs.persist_row)
        self.check_fault("lat.persist")
        table.insert([obj.get(a) for a in attributes]
                     + [self.server.clock.now])

    def _lat_column_types(self, lat: LAT) -> list[SQLType]:
        cls = self.schema.monitored_class(lat.definition.monitored_class)
        types: list[SQLType] = []
        for group in lat.definition.grouping:
            if cls.name.lower() != "evicted" and \
                    cls.has_attribute(group.attr):
                types.append(cls.attribute(group.attr).sql_type)
            else:
                types.append(SQLType.FLOAT)
        for agg in lat.definition.aggregations:
            if agg.func == "COUNT":
                types.append(SQLType.INTEGER)
            elif agg.func in ("FIRST", "LAST") and cls.has_attribute(agg.attr):
                types.append(cls.attribute(agg.attr).sql_type)
            else:
                types.append(SQLType.FLOAT)
        return types

    def _ensure_reporting_table(self, table_name: str, columns: list[str],
                                types: list[SQLType],
                                with_checksum: bool = False) -> None:
        if self.server.catalog.has_table(table_name):
            return
        defs = [ColumnDef(_sanitize(c), t) for c, t in zip(columns, types)]
        defs.append(ColumnDef(self._TIMESTAMP_COLUMN, SQLType.DATETIME))
        if with_checksum:
            defs.append(ColumnDef(CHECKSUM_COLUMN, SQLType.INTEGER))
        self.server.create_table(TableSchema(table_name, defs))

    def restore_lat(self, lat_name: str, table_name: str) -> int:
        """Upload a persisted table back into a LAT at startup (Section 4.3).

        Aggregate states are re-seeded from the persisted values: COUNT and
        SUM restore exactly; AVG restores exactly when the LAT also has a
        COUNT column (otherwise it seeds with count 1); MIN/MAX/FIRST/LAST
        restore their values; STDEV re-seeds from AVG/COUNT (spread within
        the restored window is lost).  Returns restored row count.

        The restore is atomic: rows are validated and decoded into a
        scratch copy of the LAT, which replaces the live one only when
        every row seeded cleanly.  A checksum mismatch — a torn write
        from a crash mid-persist — raises
        :class:`PersistCorruptionError` and leaves the in-memory LAT
        exactly as it was (no half-filled state), as does any row-decode
        failure mid-seed.  Tables without the checksum column (written by
        older code or by hand) restore unvalidated but still atomically.
        The journal gets the restored LAT as one ``lat_image`` record, so
        a crash leaves the pre- or the post-restore LAT on disk too.
        """
        lat = self.lat(lat_name)
        with self.server.obs.attrib("lat", lat_name), \
                self.server.obs.span(f"restore:{lat_name}", "persist",
                                     table=table_name):
            return self._restore_lat_rows(lat, table_name)

    def _restore_lat_rows(self, lat: LAT, table_name: str) -> int:
        table = self.server.table(table_name)
        columns = [c.name.lower() for c in table.schema.columns]
        rows = [row for __, row in table.scan()]
        if CHECKSUM_COLUMN in columns:
            crc_index = columns.index(CHECKSUM_COLUMN)
            for row in rows:
                self.server.add_monitor_cost(
                    self.server.costs.persist_checksum_per_row)
                if row_checksum(row[:crc_index]) != row[crc_index]:
                    raise PersistCorruptionError(
                        f"checksum mismatch restoring LAT "
                        f"{lat.definition.name!r} from {table_name!r}: "
                        f"partial write detected; in-memory LAT unchanged")
        # seed into a scratch copy; swap in only if every row decodes —
        # an error mid-seed must not leave the live LAT half-restored
        scratch = lat.scratch_copy()
        for row in rows:
            values = dict(zip(columns, row))
            values.pop(CHECKSUM_COLUMN, None)
            scratch.seed_row(values)
        lat.adopt(scratch)
        if self.journal is not None:
            self.journal.append("lat_image", lat.image())
        return len(rows)


# ----------------------------------------------------------------------
# the fold: one walk over a sequence of monitors (determinism proof surface)
# ----------------------------------------------------------------------

def _merged(holders: Sequence, blank: Callable[[], Any]) -> Any:
    """Fold ``merge_from`` holders (LAT partitions, window panes) into a
    ``blank()`` one; a lone holder is returned as is, read in place."""
    if len(holders) == 1:
        return holders[0]
    result = blank()
    for holder in holders:
        result.merge_from(holder)
    return result


def fold_lat(monitors: Sequence[SQLCM], name: str) -> LAT:
    """One LAT across ``monitors``: a serial monitor's live table, read in
    place, or the merge of every shard's partition — size limits are
    enforced during the merge (the boundary where a partitioned LAT's
    global limit is meaningful) and aging results read the control
    shard's clock view."""
    lats = [monitor.lat(name) for monitor in monitors]
    return _merged(lats, lambda: LAT(lats[0].definition, lats[0]._clock))


def fold_window(queries: Sequence):
    """One stream query's pane state across its per-shard copies: the live
    window of a serial monitor, or every shard's panes merged."""
    window = queries[0].window
    return _merged([query.window for query in queries],
                   lambda: type(window)(window.spec, window.funcs))


def fold_rule(monitors: Sequence[SQLCM], name: str) -> dict[str, Any]:
    """One rule's declared fields across ``monitors`` (counters summed)."""
    key = name.lower()
    clones = [m.rules[key] for m in monitors if key in m.rules]
    if not clones:
        raise RuleError(f"unknown rule {name!r}")
    return state.fold(clones)


def digest_parts(monitors: Sequence[SQLCM]) -> tuple:
    """The canonical tuple the state digest hashes: per-LAT integrity
    signatures, per-rule firing/evaluation counters, instance counts, and
    the handled/fired totals, each folded across ``monitors``."""
    control = monitors[0]
    lats = tuple((name, fold_lat(monitors, name).integrity_signature())
                 for name in sorted(control._lats))
    rules = []
    for rule in sorted(control._rule_order, key=lambda r: r.name):
        folded = fold_rule(monitors, rule.name)
        rules.append((rule.name, folded["fire_count"],
                      folded["evaluation_count"]))
    totals = state.fold(monitors)
    instances = tuple(sorted(
        (sig.hex(), count)
        for sig, count in totals["_instance_counts"].items()))
    return (lats, tuple(rules), instances,
            totals["events_handled"], totals["rule_firings"])


def state_digest(monitors: Sequence[SQLCM]) -> int:
    """CRC32 of :func:`digest_parts`.  Two deployments that processed the
    same trace — one serial monitor, or N shard monitors folded (see
    :mod:`repro.shard`) — produce the same digest; this reuses the
    governor's ``sample_digest`` technique of order-independent CRC
    accumulation over replay-stable inputs."""
    return zlib.crc32(repr(digest_parts(monitors)).encode())


def _sanitize(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "c_" + cleaned
    return cleaned
