"""The generated dispatch program against the interpreted rule loop.

An event's rules run as the program generated for the event's rule tuple
(``SQLCM._program``): the pooled variant with no governor and
observability off, the framed one otherwise.  The interpreted loop they
both unroll, ``_run_framed`` and ``_evaluate_rule``, is kept here as the
reference, the way ``tests/test_lat_model.py`` keeps the LAT model: a
``SQLCM`` whose ``_dispatch_rules`` always runs it.  For random rule sets
replayed over one recorded trace, each variant — pooled, framed with a
disabled stand-in observability object, framed with the real layer, and
framed under a governor that the trace drives off ``NORMAL`` — must leave
every counter, the virtual cost (compared with ``==``), the journal, the
failure records, the outbox and the dead letters equal to the reference,
and, where the real layer is on, the attribution tallies, the metrics and
the spans too.
"""

from __future__ import annotations

import functools
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (DatabaseServer, EventTrace, FaultInjector, InsertAction,
                   LATDefinition, QuarantinePolicy, Rule, SendMailAction,
                   SQLCM)
from repro.core.actions import (CallbackAction, RunExternalAction,
                                SetTimerAction)
from repro.core.durability import DurabilityManager
from repro.core.engine import _UNBUILT
from repro.core.governor import GOV_NORMAL, GovernorPolicy, OverloadGovernor
from repro.core.objects import MonitoredObject
from repro.obs.observability import NULL_OBS


class Reference(SQLCM):
    """A monitor that runs every dispatch through the interpreted rule
    loop both program variants unroll, with the obs and governor a
    dispatch is given."""

    def _dispatch_rules(self, event, payload, rules, obs, context):
        server = self.server
        server.add_monitor_cost(server.costs.event_dispatch)
        if context is _UNBUILT:
            context = self._build_context(event, payload)
        if context is None:
            return
        self._run_framed(event, rules, context, server.clock.now, obs,
                         self.governor)

    def _run_framed(self, event: str, rules: tuple,
                    context: dict[str, MonitoredObject], now: float, obs,
                    governor: OverloadGovernor | None) -> None:
        """The interpreted rule loop, the reference the dispatch program
        unrolls: each rule runs under its own attribution frame so every
        charge it makes is tallied against that rule, and the governor
        admits it first."""
        server = self.server
        costs = server.costs
        for rule in rules:
            if not rule.enabled:
                continue
            with obs.attrib("rule", rule.name):
                server.add_monitor_cost(costs.quarantine_check)
                if not self.health.allow(rule.name, now):
                    continue
                if governor is not None:
                    admitted, weight = governor.admit(rule, event)
                    if not admitted:
                        continue
                with obs.span(f"rule:{rule.name}", "rule", event=event):
                    try:
                        if governor is None:
                            self._evaluate_rule(rule, context)
                        else:
                            cost_before = server.monitor_cost_total
                            self.sample_weight = weight
                            try:
                                self._evaluate_rule(rule, context)
                            finally:
                                self.sample_weight = 1
                            governor.note_eval(
                                rule.name,
                                server.monitor_cost_total - cost_before)
                    except Exception as err:
                        # isolation backstop: scope iteration / context
                        # assembly failures
                        self._record_rule_failure(rule, "evaluate", err)

    def _evaluate_rule(self, rule: Rule,
                       context: dict[str, MonitoredObject]) -> None:
        plan = rule.plan or self._plan(rule)
        if context.keys() >= plan.needed:
            combos = (context,)  # the event's own context, as it is
        else:
            combos = self._combos(plan.needed.difference(context), context)
        cond = rule.compiled_condition
        server = self.server
        costs = server.costs
        evaluated = False
        failed = False
        for combo in combos:
            rule.evaluation_count += 1
            evaluated = True
            server.add_monitor_cost(plan.charge)
            lat_rows: dict[str, dict | None] = {}
            try:
                self.check_fault("condition")
                if cond is not None:
                    for lat_name, lat, owner in plan.lat_probes:
                        obj = combo.get(owner)
                        server.add_monitor_cost(
                            costs.lat_lookup + costs.lat_latch
                        )
                        lat_rows[lat_name] = (
                            lat.lookup_object(obj) if obj is not None
                            else None
                        )
                fired = cond is None or cond.evaluate(combo, lat_rows)
            except Exception as err:
                self._record_rule_failure(rule, "condition", err)
                failed = True
                continue
            if not fired:
                continue
            rule.fire_count += 1
            self.rule_firings += 1
            server.obs.count("sqlcm.rules.fired")
            for action in rule.actions:
                server.add_monitor_cost(costs.action_dispatch)
                if not self._run_action(rule, action, combo, lat_rows):
                    failed = True
        if evaluated and not failed and not self.health.all_clear:
            self.health.record_success(rule.name)  # ends a probation


@functools.lru_cache(maxsize=None)
def _trace() -> tuple:
    """Engine events of a short run: selects, and explicit transactions
    that update, so Query.*, Transaction.* and LAT evictions all occur."""
    server = DatabaseServer()
    server.execute_ddl("CREATE TABLE items (id INT NOT NULL PRIMARY KEY, "
                       "price FLOAT, qty INT)")
    server.create_session().execute(
        "INSERT INTO items (id, price, qty) VALUES "
        "(1, 1.5, 10), (2, 2.0, 5), (3, 0.5, 40), (4, 9.5, 3)")
    trace = EventTrace().attach(server)
    session = server.create_session(user="app", application="tests")
    for i in range(10):
        session.execute(f"SELECT price FROM items WHERE id = {i % 4 + 1}")
        if i % 3 == 0:
            session.execute("BEGIN")
            session.execute(f"UPDATE items SET qty = qty + 1 "
                            f"WHERE id = {i % 4 + 1}")
            session.execute("SELECT qty FROM items WHERE qty > 4")
            session.execute("COMMIT")
    trace.detach()
    return tuple(trace.events)


# ---------------------------------------------------------------------------
# the rule sets: conditions and actions by event, built afresh per side
# ---------------------------------------------------------------------------

CONDITIONS = {
    "Query.Commit": [
        None, "Query.Duration >= 0", "Query.Estimated_Cost > 2",
        "Query.Query_Type = 'SELECT' AND Query.Duration >= 0",
        "Hot.N >= 2",                      # a LAT probe
        "Query.Duration >= 0 AND Top.D > 0",
        "Hot.N >= 1 OR Top.D >= 0",        # two probes, two charges
        "Timer.Interval > 5",              # iterates the armed timers
        "Transaction.Statement_Count >= 1",  # none active: no combination
    ],
    "Query.Start": [None, "Query.Duration >= 0", "Hot.N > 1"],
    "Transaction.Commit": [None, "Transaction.Statement_Count >= 2",
                           "Transaction.Duration >= 0"],
    "Evicted.Evict": [None],
    "RuleFailure.Error": [None, "RuleFailure.Error_Count > 1"],
}

ACTIONS = ("insert_top", "insert_hot", "mail", "external", "raise", "log",
           "set_timer", "add_rule", "remove_rule", "swap_top", "govern",
           "drop_hot", "observe")


def _top(owner: str) -> LATDefinition:
    """A two-row LAT, so inserts evict (and queue ``lat.evict``)."""
    return LATDefinition(
        name="Top", monitored_class=owner,
        grouping=[f"{owner}.ID AS Qid"],
        aggregations=[f"MAX({owner}.Duration) AS D"],
        ordering=["D DESC"], max_rows=2)


_rules = st.lists(
    st.tuples(st.sampled_from(sorted(CONDITIONS)),
              st.integers(0, 8),
              st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=3),
              st.booleans() | st.just(True)),
    min_size=1, max_size=7)

# a latency fault charges inside ``check_fault``: the program must write
# the pool it holds in locals back before the call and read it after.
# ``None`` is no injector at all, where the program skips every fault
# check and holds the pool across a whole block
_faults = st.none() | st.fixed_dictionaries({
    site: st.tuples(st.sampled_from([0.0, 0.0, 0.3]),
                    st.sampled_from(["exception", "latency"]))
    for site in ("condition", "action", "lat.insert", "lat.evict", "sink")})


#: how each side runs: ``pooled`` with observability off; ``stand-in``
#: with an observability object disabled like the null one, but not it, so
#: the framed program runs and nothing is charged for its frames;
#: ``observed`` with the real layer; ``governed`` with a governor from the
#: start, whose policy this trace drives off NORMAL
VARIANTS = ("pooled", "stand-in", "observed", "governed")

#: a target this trace's monitoring exceeds whatever the rules, with a
#: cooldown that keeps the ladder a while on each rung: SAMPLED from about
#: 0.04 s of the 0.19 s trace, SHEDDING from 0.09 s, ESSENTIAL from 0.15 s
POLICY = GovernorPolicy(target_overhead=0.0001, exit_overhead=0.00005,
                        window=0.05, cooldown=0.05, decision_interval=0.005,
                        sample_rate=2)


class _Side:
    """One monitor over a fresh server, set up from the drawn spec: the
    reference loop or the generated program."""

    def __init__(self, reference: bool, variant: str, rules, faults, seed,
                 journaled, directory):
        self.server = server = DatabaseServer()
        if variant == "stand-in":
            server._obs = type(NULL_OBS)()
        elif variant == "observed":
            server.enable_observability()
        injector = None
        if faults is not None:
            injector = FaultInjector(seed=seed)
            for site, (rate, mode) in faults.items():
                if rate:
                    injector.arm(site, rate=rate, mode=mode)
        self.injector = injector
        self.sqlcm = sqlcm = (Reference if reference else SQLCM)(
            server, faults=injector,
            quarantine=QuarantinePolicy(failure_threshold=2, cooldown=0.02),
            governor=POLICY if variant == "governed" else None)
        self.log: list = []
        self.calls: list = []
        sqlcm.external_handler = self._handler
        sqlcm.create_lat(_top("Query"))
        sqlcm.create_lat(LATDefinition(
            name="Hot", monitored_class="Query",
            grouping=["Query.Query_Type AS T"],
            aggregations=["COUNT(Query.ID) AS N"]))
        sqlcm.set_timer("a", 10.0)
        sqlcm.set_timer("b", 3.0)
        for index, (event, condition, actions, enabled) in enumerate(rules):
            conditions = CONDITIONS[event]
            sqlcm.add_rule(Rule(
                name=f"r{index}", event=event,
                condition=conditions[condition % len(conditions)],
                actions=[self._action(kind) for kind in actions],
                enabled=enabled))
        self.manager = None
        if journaled:
            self.manager = DurabilityManager(sqlcm, directory).attach()

    def _handler(self, command: str) -> None:
        # three calls in four fail: some deliveries exhaust their retries
        self.calls.append(command)
        if len(self.calls) % 4:
            raise ConnectionError("sink down")

    def _log(self, sqlcm, context) -> None:
        self.log.append(tuple(
            (key, obj.get("ID") if key == "query" else None)
            for key, obj in sorted(context.items())))

    @staticmethod
    def _raise(sqlcm, context) -> None:
        raise RuntimeError("action broke")

    @staticmethod
    def _add_rule(sqlcm, context) -> None:
        if "late" not in sqlcm.rules:
            sqlcm.add_rule(Rule(name="late", event="Query.Commit",
                                condition="Query.Duration >= 0",
                                actions=[InsertAction("Hot")]))

    @staticmethod
    def _remove_rule(sqlcm, context) -> None:
        if "late" in sqlcm.rules:
            sqlcm.remove_rule("late")

    @staticmethod
    def _swap_top(sqlcm, context) -> None:
        """Re-create Top over the other class (raises while a condition
        reads it): the rules after this one need other objects now."""
        owner = "Query" if sqlcm.lat("Top").definition.monitored_class \
            == "Transaction" else "Transaction"
        sqlcm.drop_lat("Top")
        sqlcm.create_lat(_top(owner))

    @staticmethod
    def _observe(sqlcm, context) -> None:
        """Turn observability on mid-dispatch: the rules after this one
        run framed and accounted.  The stand-in would hide the real layer
        from ``enable_observability``, so it is dropped first."""
        server = sqlcm.server
        if server._obs is not None and not server._obs.enabled:
            server._obs = None
        server.enable_observability()

    @staticmethod
    def _drop_hot(sqlcm, context) -> None:
        """Drop Hot (raises while a condition reads it): the plan of every
        rule that inserts into it fails from then on, at each evaluation."""
        sqlcm.drop_lat("Hot")

    @staticmethod
    def _govern(sqlcm, context) -> None:
        """Install the governor mid-dispatch, with observability: the
        rules after this one run framed, admitted and accounted."""
        _Side._observe(sqlcm, context)
        sqlcm.enable_governor()

    def _action(self, kind: str):
        return {
            "insert_top": lambda: InsertAction("Top"),
            "insert_hot": lambda: InsertAction("Hot"),
            "mail": lambda: SendMailAction("d={Query.Duration}", "dba"),
            "external": lambda: RunExternalAction("x {Query.ID}"),
            "raise": lambda: CallbackAction(self._raise),
            "log": lambda: CallbackAction(self._log),
            "set_timer": lambda: SetTimerAction("a", 7.0),
            "add_rule": lambda: CallbackAction(self._add_rule),
            "remove_rule": lambda: CallbackAction(self._remove_rule),
            "swap_top": lambda: CallbackAction(self._swap_top),
            "govern": lambda: CallbackAction(self._govern),
            "drop_hot": lambda: CallbackAction(self._drop_hot),
            "observe": lambda: CallbackAction(self._observe),
        }[kind]()

    def replay(self) -> None:
        server = self.server
        for event, payload, time in _trace():
            server.clock.advance_to(time)
            server.events.publish(event, payload)

    def observed(self) -> dict:
        sqlcm = self.sqlcm
        journal = None
        if self.manager is not None:
            path = self.manager.journal.path
            self.manager.detach()
            with open(path, encoding="utf-8") as handle:
                journal = handle.read()
        obs = self.server._obs
        governor = sqlcm.governor
        return {
            "observed": None if obs is None or not obs.enabled else (
                obs.attribution.totals, obs.attribution.charges,
                obs.metrics.snapshot(),
                [span.name for span in obs.trace.spans()]),
            "governor": None if governor is None else (
                [(t.from_state, t.to_state) for t in governor.transitions],
                governor.evals_sampled_out, governor.evals_suspended),
            "rules": [(r.name, r.evaluation_count, r.fire_count)
                      for r in sqlcm._rule_order],
            "totals": (sqlcm.events_handled, sqlcm.rule_firings,
                       sqlcm.rule_errors),
            "cost": self.server.monitor_cost_total,
            "digest": sqlcm.state_digest(),
            "health": sqlcm.health.snapshot(),
            "dead_letters": sqlcm.dead_letters.snapshot(),
            "outbox": list(sqlcm.outbox),
            "commands": list(sqlcm.command_journal),
            "faults": None if self.injector is None
            else self.injector.snapshot(),
            "log": self.log,
            "calls": self.calls,
            "journal": journal,
        }


@settings(deadline=None, max_examples=200)
@given(_rules, _faults, st.integers(0, 3), st.booleans(),
       st.sampled_from(VARIANTS))
# an action changes the LATs mid-dispatch: the rules after it need other
# objects, and the program hands them to the framed program of the rest
@example([("Query.Commit", 0, ["swap_top"], True),
          ("Query.Commit", 0, ["insert_top"], True)], {}, 0, True, "pooled")
@example([("Query.Commit", 0, ["swap_top"], True),
          ("Query.Commit", 4, ["insert_top"], True)], {}, 0, True,
         "observed")
# an action drops a LAT that later rules insert into: their plans fail
# in the rule's boundary, at each evaluation, and quarantine them
@example([("Query.Commit", 0, ["drop_hot", "log"], True),
          ("Query.Commit", 0, ["insert_hot"], True)], {}, 0, False,
         "pooled")
@example([("Query.Commit", 0, ["drop_hot"], True),
          ("Query.Commit", 0, ["insert_hot"], True)], {}, 0, False,
         "observed")
# an action adds, another removes a rule mid-dispatch (copy-on-write tuple)
@example([("Query.Commit", 0, ["add_rule", "log"], True),
          ("Query.Commit", 1, ["remove_rule", "insert_hot"], True),
          ("Query.Commit", 4, ["mail"], True)], {}, 0, True, "pooled")
# one rule drops the LAT its own next action inserts into: an Insert
# after an action run through ``_run_action`` runs through it too
@example([("Query.Commit", 0, ["swap_top", "insert_top"], True),
          ("Query.Commit", 0, ["insert_top"], True)], {}, 0, True, "pooled")
# the governor comes on mid-dispatch, before an insert of the same rule
# and before the rules after it
@example([("Query.Commit", 0, ["govern", "insert_top"], True),
          ("Query.Commit", 4, ["insert_hot"], True)], {}, 0, False,
         "pooled")
@example([("Query.Commit", 0, ["govern", "insert_top"], True),
          ("Query.Commit", 4, ["insert_hot"], True)], {}, 0, False,
         "stand-in")
# observability alone comes on mid-dispatch
@example([("Query.Commit", 0, ["observe", "insert_top"], True),
          ("Query.Commit", 4, ["insert_hot"], True)], {}, 0, False,
         "pooled")
# no fault injector: every fault check is skipped, and the pool stays in
# the locals from a rule's first charge to its evict events
@example([("Query.Commit", 0, ["insert_top", "mail"], True),
          ("Query.Commit", 4, ["insert_hot"], True)], None, 0, False,
         "pooled")
# iteration scope: a rule over the armed timers, and one over the active
# transactions (none), beside a LAT probe, admitted and sampled by a
# governor that the trace drives off NORMAL
@example([("Query.Commit", 7, ["insert_hot", "log"], True),
          ("Query.Commit", 8, ["insert_top"], True),
          ("Query.Commit", 4, ["insert_top", "mail"], True),
          ("Transaction.Commit", 1, ["log"], True)], {}, 1, True,
         "governed")
def test_program_matches_the_interpreted_loop(rules, faults, seed,
                                              journaled, variant):
    with tempfile.TemporaryDirectory() as directory:
        program = _Side(False, variant, rules, faults, seed, journaled,
                        os.path.join(directory, "program"))
        reference = _Side(True, variant, rules, faults, seed, journaled,
                          os.path.join(directory, "reference"))
        program.replay()
        reference.replay()
        assert not reference.sqlcm._dispatch_programs  # it never ran one
        if variant == "governed":
            assert program.sqlcm.governor.state != GOV_NORMAL
        assert program.observed() == reference.observed()


def test_program_is_kept_per_rule_tuple_and_dropped_on_change():
    side = _Side(False, "pooled",
                 [("Query.Commit", 1, ["insert_hot"], True)],
                 {}, 0, False, None)
    side.replay()
    sqlcm = side.sqlcm
    (key, (rules, program)), = [
        item for item in sqlcm._dispatch_programs.items()
        if item[0][0] == "query.commit"]
    assert key == ("query.commit", frozenset({"query"}), False)
    assert rules is sqlcm._rules_by_event["query.commit"]
    source = sqlcm.dispatch_source("query.commit", {"query"})
    assert "condition0.evaluate(context, lat_rows)" in source
    assert sqlcm._dispatch_programs[key][1] is program  # not rebuilt
    sqlcm.add_rule(Rule(name="more", event="Query.Commit",
                        actions=[InsertAction("Hot")]))
    assert not sqlcm._dispatch_programs
    assert "rule1.enabled" in sqlcm.dispatch_source("query.commit",
                                                    {"query"})


def test_a_bound_insert_runs_in_the_program():
    """An Insert the plan binds calls ``LAT.insert`` from the program, with
    no ``_run_action``, unless an action before it in the rule ran
    through ``_run_action``; the condition is still called through
    ``CompiledCondition.evaluate``, and every fault check the program makes
    is guarded by ``sqlcm.faults``."""
    side = _Side(False, "pooled",
                 [("Query.Commit", 1, ["insert_hot", "mail"], True),
                  ("Query.Commit", 1, ["mail", "insert_hot"], True)],
                 {}, 0, False, None)
    sqlcm = side.sqlcm
    source = sqlcm.dispatch_source("query.commit", {"query"})
    (function,) = sqlcm._program("query.commit",
                                 sqlcm._rules_by_event["query.commit"],
                                 frozenset({"query"}), False)
    assert function.__globals__["target0_0"] is sqlcm.lat("Hot")
    assert "target0_0.insert(" in source
    assert "_run_action(rule0, action0_0," not in source
    assert "_run_action(rule0, action0_1," in source  # SendMail is not bound
    # an Insert after an action run through ``_run_action`` runs through it
    assert "_run_action(rule1, action1_1," in source
    assert "target1_1" not in source
    assert "condition0.evaluate(context, lat_rows)" in source
    lines = source.splitlines()
    checks = [number for number, line in enumerate(lines)
              if "check_fault(" in line]
    assert len(checks) == 4  # condition, action, lat.insert; condition
    for number in checks:
        indent = len(lines[number]) - len(lines[number].lstrip())
        enclosing = []
        for line in reversed(lines[:number]):
            depth = len(line) - len(line.lstrip())
            if line.strip() and depth < indent:
                enclosing.append(line.strip())
                indent = depth
        assert "if sqlcm.faults is not None:" in enclosing, lines[number]


def test_a_long_rule_tuple_is_a_run_of_functions():
    """70 rules: seven functions of about 40 000 characters each (rules
    0-10, 11-20, ..., 62-69); an action in the fourth (rule 40) that adds a
    rule hands the rest to the framed program of the rest, and the later
    functions do not run."""
    side = _Side(False, "pooled",
                 [("Query.Commit", 1, ["insert_hot"], True)] * 40
                 + [("Query.Commit", 0, ["add_rule"], True)]
                 + [("Query.Commit", 1, ["insert_hot"], True)] * 29,
                 {}, 0, False, None)
    sqlcm = side.sqlcm
    source = sqlcm.dispatch_source("query.commit", {"query"})
    assert source.count("def dispatch(") == 7
    assert "rule31.enabled" in source and "rule69.enabled" in source
    side.replay()
    commits = sum(event == "query.commit" for event, __, __ in _trace())
    assert [r.evaluation_count for r in sqlcm._rule_order[:70]] \
        == [commits] * 70
    assert sqlcm.rules["late"].evaluation_count == commits - 1
