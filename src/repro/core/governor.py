"""Overload governor: closed-loop graceful degradation for the monitor.

SQLCM's value proposition is *bounded* monitoring overhead — the paper's
Figure 2 shows 1000 rules with LAT maintenance staying under ~4% of a short
query's time.  Nothing in the engine enforces that bound, though: a
pathological rule set silently blows the budget.  This module adds the
missing feedback controller.

The governor tracks the **rolling overhead ratio** — monitor-cost delta
divided by total virtual-work delta over a sliding virtual-time window —
and walks a degradation ladder::

    NORMAL -> SAMPLED -> SHEDDING -> ESSENTIAL

* ``NORMAL``    — everything runs; the governor only measures.
* ``SAMPLED``   — non-critical rules evaluate on a deterministic hash-based
  sample of events (1 in ``sample_rate``); admitted evaluations carry a
  ``sample_rate`` weight so COUNT/SUM/AVG aggregates stay unbiased (see
  :meth:`~repro.core.aggregates.AggregateFunction.update_weighted`).
* ``SHEDDING``  — additionally suspends the top-offending components,
  ranked by the observability layer's attributed-cost data, ``BEST_EFFORT``
  class before ``NORMAL`` class.
* ``ESSENTIAL`` — only ``CRITICAL`` components run at all.

Transitions are hysteretic: the ladder escalates when the *measured* ratio
exceeds ``target_overhead`` but only recovers when the *estimated
ungoverned* ratio — measured cost plus an estimate of the work the governor
skipped — falls below ``exit_overhead`` (< target).  Estimating the skipped
work is what prevents flapping: without it, degrading immediately lowers the
measured ratio below the exit threshold and the ladder oscillates.  A
``cooldown`` dwell additionally bounds the transition rate to at most one
rung per cooldown window.  Skip estimates come from a per-rule exponential
moving average of observed evaluation cost, maintained by the dispatcher.

Sampling is replay-stable: admission is ``crc32(rule_name, salt) %
sample_rate == 0`` where ``salt = crc32("event:sequence")`` — a pure
function of the rule name and the event sequence, independent of wall time,
dict order, or hash randomization.  Replaying the same trace samples the
identical event subset (asserted by tests and the G1 benchmark via
:attr:`OverloadGovernor.sample_digest`).

Every ladder transition dispatches a ``sqlcm.governor_transition``
meta-event (mirroring ``sqlcm.rule_error``) so ECA rules can monitor the
governor itself; rules bound to meta-events are exempt from sampling and
shedding — watching the governor must survive the governor.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.core import state
from repro.core.durability import command
from repro.errors import SQLCMError

__all__ = [
    "BEST_EFFORT",
    "CRITICAL",
    "CRITICALITIES",
    "GOV_ESSENTIAL",
    "GOV_NORMAL",
    "GOV_SAMPLED",
    "GOV_SHEDDING",
    "GovernorError",
    "GovernorPolicy",
    "LADDER",
    "NORMAL",
    "OverloadGovernor",
    "validate_criticality",
]


class GovernorError(SQLCMError):
    """Invalid governor policy or criticality class."""


# --- criticality classes (assigned to rules / streams / LATs) -------------

CRITICAL = "critical"
NORMAL = "normal"
BEST_EFFORT = "best_effort"

#: valid criticality classes, most protected first
CRITICALITIES = (CRITICAL, NORMAL, BEST_EFFORT)


def validate_criticality(value: str) -> str:
    """Normalize and validate a criticality class name."""
    normalized = str(value).strip().lower().replace("-", "_")
    if normalized not in CRITICALITIES:
        raise GovernorError(
            f"unknown criticality {value!r}; expected one of {CRITICALITIES}")
    return normalized


# --- degradation ladder ---------------------------------------------------

GOV_NORMAL = "NORMAL"
GOV_SAMPLED = "SAMPLED"
GOV_SHEDDING = "SHEDDING"
GOV_ESSENTIAL = "ESSENTIAL"

#: ladder states in escalation order
LADDER = (GOV_NORMAL, GOV_SAMPLED, GOV_SHEDDING, GOV_ESSENTIAL)

#: meta-events whose rules are never sampled or shed — monitoring the
#: monitor (rule failures, governor transitions, the incident/remediation
#: loop) must survive degradation
EXEMPT_EVENTS = frozenset({"sqlcm.governor_transition", "sqlcm.rule_error",
                           "sqlcm.incident", "sqlcm.remediation"})


@dataclass
class GovernorPolicy:
    """Tuning knobs for the overload governor.

    ``target_overhead`` is the paper's envelope (Figure 2: < 4%); the
    governor escalates when the measured rolling ratio exceeds it.
    ``exit_overhead`` must sit strictly below the target (hysteresis): the
    ladder only recovers when the *estimated ungoverned* ratio drops below
    it.  ``window`` is the sliding virtual-time window the ratio is
    measured over; ``cooldown`` is the minimum virtual time between
    transitions; ``decision_interval`` rate-limits how often the controller
    re-evaluates; ``sample_rate`` is the 1-in-N admission rate applied to
    non-critical rules under SAMPLED and SHEDDING; ``shed_headroom``
    scales the target when sizing the shed set (shed enough attributed cost
    to land at ``target * shed_headroom``, not right at the edge).
    """

    target_overhead: float = 0.04
    exit_overhead: float = 0.02
    window: float = 2.0
    cooldown: float = 4.0
    decision_interval: float = 0.25
    sample_rate: int = 4
    shed_headroom: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.target_overhead < 1.0:
            raise GovernorError("target_overhead must be in (0, 1)")
        if not 0.0 < self.exit_overhead < self.target_overhead:
            raise GovernorError(
                "exit_overhead must be positive and below target_overhead "
                "(hysteresis gap)")
        if self.window <= 0.0:
            raise GovernorError("window must be positive")
        if self.cooldown <= 0.0:
            raise GovernorError("cooldown must be positive")
        if self.decision_interval <= 0.0:
            raise GovernorError("decision_interval must be positive")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate < 2:
            raise GovernorError("sample_rate must be an integer >= 2")
        self.sample_rate = int(self.sample_rate)
        if not 0.0 < self.shed_headroom <= 1.0:
            raise GovernorError("shed_headroom must be in (0, 1]")


@dataclass
class GovernorTransition:
    """One recorded ladder transition."""

    time: float
    from_state: str
    to_state: str
    reason: str  # "escalate" | "recover"
    overhead_ratio: float
    estimated_ratio: float
    suspended: tuple = field(default_factory=tuple)


class OverloadGovernor:
    """Closed-loop controller enforcing the monitoring-overhead envelope.

    One instance per :class:`~repro.core.engine.SQLCM`, attached to the
    server so :meth:`observe` runs every time a session drains the
    monitor-cost pool (i.e. continuously, in virtual time).  The dispatcher
    consults :meth:`admit` per rule evaluation and :meth:`note_eval` after
    each one; the stream engine consults :meth:`admit_stream`; LAT inserts
    consult :meth:`lat_allowed`.
    """

    # the ladder is supervisory state: a fold keeps the control's fields
    STATE = (
        ("policy", state.first, GovernorPolicy),
        ("transitions", state.first, GovernorTransition),
        *state.fields(
            state.first, "state", "last_transition_at", "suspended", "_ema",
            "_global_ema", "_event_seq", "_event_salt", "measured_ratio",
            "estimated_ratio", "events_seen", "evals_sampled_out",
            "evals_suspended", "inserts_shed", "stream_events_shed",
            "requests_denied", "sample_digest"),
        # the open measurement window and per-state tallies restart
        *state.transient("sqlcm", "server", "_samples", "_skipped_total",
                         "_last_decision_at", "_in_decision", "_eff_crit",
                         "state_time", "state_cost", "_last_mark"),
    )

    def __init__(self, sqlcm, policy: GovernorPolicy | None = None):
        self.sqlcm = sqlcm
        self.server = sqlcm.server
        self.policy = policy if policy is not None else GovernorPolicy()
        self.state = GOV_NORMAL
        #: (virtual time, monitor_cost_total, skipped-cost estimate total)
        self._samples: deque[tuple[float, float, float]] = deque()
        self._skipped_total = 0.0
        self._last_decision_at = float("-inf")
        self.last_transition_at: float | None = None  # never, so far
        self.transitions: list[GovernorTransition] = []
        #: currently suspended components as (kind, lowercase name) pairs
        self.suspended: set[tuple[str, str]] = set()
        # per-rule EMA of evaluation cost (virtual seconds) for estimating
        # the cost of work the governor skipped
        self._ema: dict[str, float] = {}
        self._global_ema = 0.0
        self._event_seq = 0
        self._event_salt = 0
        self._in_decision = False
        self._eff_crit: dict[str, str] = {}
        # controller outputs / telemetry
        self.measured_ratio = 0.0
        self.estimated_ratio = 0.0
        self.events_seen = 0
        self.evals_sampled_out = 0
        self.evals_suspended = 0
        self.inserts_shed = 0
        self.stream_events_shed = 0
        self.requests_denied = 0
        #: XOR digest of admitted sample hashes — equal across replays of
        #: the same trace iff the identical event subset was sampled
        self.sample_digest = 0
        # per-ladder-state virtual time and monitor cost, for the G1 bench
        self.state_time = {state: 0.0 for state in LADDER}
        self.state_cost = {state: 0.0 for state in LADDER}
        self._last_mark: tuple[float, float] | None = None

    # -- event / cost observation -----------------------------------------

    def on_event(self, event: str) -> None:
        """Called by the dispatcher once per dispatched event."""
        self.events_seen += 1
        self._event_seq += 1
        self.observe(self.server.clock.now)
        if self.state != GOV_NORMAL:
            # one CRC per event; admit() extends it per rule name.  Pure
            # function of (event name, sequence number) => replay-stable.
            self._event_salt = zlib.crc32(
                f"{event}:{self._event_seq}".encode())

    command_path = ("governor",)

    def _idle(self, now: float | None = None) -> bool:
        """No decision is due: an observation changes no durable field."""
        if now is None:
            now = self.server.clock.now
        return self._in_decision \
            or now - self._last_decision_at < self.policy.decision_interval

    @command(unless=_idle)
    def observe(self, now: float | None = None) -> bool:
        """Record one (time, cost) sample and maybe run the controller;
        True when it made a transition.

        Wired into :meth:`DatabaseServer.take_monitor_cost` so the loop
        closes wherever monitoring cost is drained into the virtual clock.
        Inside a journaled entry each decision is recorded; the replay of
        the entry applies the recorded decisions and never samples the
        cost drain, which is outside the monitor.  Outside every entry an
        observation that decides is a command of its own.
        """
        if self._in_decision:
            return False
        if now is None:
            now = self.server.clock.now
        tape = self.sqlcm.tape
        if tape is not None:
            decision = tape.observed()
            if tape.replaying:
                if decision is not None:
                    self._replay_decision(now, *decision)
                return False
        self.server.add_monitor_cost(self.server.costs.governor_observe)
        cost = self.server.monitor_cost_total
        mark = self._last_mark
        self._last_mark = (now, cost)
        if mark is not None:
            self.state_time[self.state] += now - mark[0]
            self.state_cost[self.state] += cost - mark[1]
        samples = self._samples
        samples.append((now, cost, self._skipped_total))
        # keep one sample at or beyond the window horizon so the measured
        # delta always spans at least the full window once warmed up
        horizon = now - self.policy.window
        while len(samples) >= 3 and samples[1][0] <= horizon:
            samples.popleft()
        if self._idle(now):
            return False
        made = len(self.transitions)
        self._decide(now)
        return len(self.transitions) > made

    def note_eval(self, rule_name: str, cost: float) -> None:
        """Feed one observed rule-evaluation cost into the skip estimator."""
        key = rule_name.lower()
        prev = self._ema.get(key)
        self._ema[key] = cost if prev is None else prev * 0.8 + cost * 0.2
        self._global_ema = (cost if self._global_ema == 0.0
                            else self._global_ema * 0.95 + cost * 0.05)

    def _note_skip(self, key: str) -> None:
        self._skipped_total += self._ema.get(key, self._global_ema)

    # -- admission (hot path) ----------------------------------------------

    def admit(self, rule, event: str) -> tuple[bool, int]:
        """Decide whether one rule runs for one event.

        Returns ``(admitted, weight)``; the weight is ``sample_rate`` when
        the evaluation stands in for ``sample_rate`` events (SAMPLED /
        SHEDDING admission), else 1.
        """
        state = self.state
        if state == GOV_NORMAL:
            return True, 1
        if event in EXEMPT_EVENTS:
            return True, 1
        self.server.add_monitor_cost(self.server.costs.governor_admit)
        key = rule.name.lower()
        if ("rule", key) in self.suspended:
            self.evals_suspended += 1
            self._note_skip(key)
            return False, 1
        if self.effective_criticality(rule) == CRITICAL:
            return True, 1
        if state == GOV_ESSENTIAL:
            self.evals_suspended += 1
            self._note_skip(key)
            return False, 1
        rate = self.policy.sample_rate
        admitted_hash = zlib.crc32(key.encode(), self._event_salt)
        if admitted_hash % rate == 0:
            self.sample_digest ^= admitted_hash or 0x9E3779B9
            return True, rate
        self.evals_sampled_out += 1
        self._note_skip(key)
        return False, 1

    def admit_stream(self, query) -> bool:
        """Decide whether one stream query ingests one event.

        Streams are suspended (SHEDDING / ESSENTIAL), never sampled:
        window aggregates and anomaly detectors live deep inside the pane
        machinery where weight compensation does not reach.
        """
        if self.state == GOV_NORMAL:
            return True
        key = query.spec.name.lower()
        if ("stream", key) in self.suspended:
            self.stream_events_shed += 1
            return False
        if (self.state == GOV_ESSENTIAL
                and getattr(query, "criticality", NORMAL) != CRITICAL):
            self.stream_events_shed += 1
            return False
        return True

    def lat_allowed(self, name: str) -> bool:
        """Whether maintenance of the named LAT is currently allowed."""
        if not self.suspended:
            return True
        if ("lat", name.lower()) in self.suspended:
            self.inserts_shed += 1
            return False
        return True

    # -- criticality -------------------------------------------------------

    def effective_criticality(self, rule) -> str:
        """A rule's own class, escalated to CRITICAL if it feeds a CRITICAL
        LAT — shedding the feeder would silently starve the protected table.
        """
        key = rule.name.lower()
        cached = self._eff_crit.get(key)
        if cached is not None:
            return cached
        crit = getattr(rule, "criticality", NORMAL)
        if crit != CRITICAL:
            for action in rule.actions:
                lat_name = getattr(action, "lat_name", None)
                if lat_name and self.sqlcm.has_lat(lat_name):
                    lat = self.sqlcm.lat(lat_name)
                    declared = getattr(lat.definition, "criticality", NORMAL)
                    if declared == CRITICAL:
                        crit = CRITICAL
                        break
        self._eff_crit[key] = crit
        return crit

    def _lat_effective_criticality(self, lat) -> str:
        """A LAT's own class, escalated to CRITICAL when a CRITICAL rule or
        stream feeds or reads it."""
        name = lat.definition.name.lower()
        if getattr(lat.definition, "criticality", NORMAL) == CRITICAL:
            return CRITICAL
        for rule in self.sqlcm._rule_order:
            if getattr(rule, "criticality", NORMAL) != CRITICAL:
                continue
            for action in rule.actions:
                if (getattr(action, "lat_name", None) or "").lower() == name:
                    return CRITICAL
            compiled = getattr(rule, "compiled_condition", None)
            if compiled is not None and name in getattr(compiled, "lats", ()):
                return CRITICAL
        streams = self.sqlcm._streams
        if streams is not None:
            for query in streams.queries():
                if (getattr(query, "criticality", NORMAL) == CRITICAL
                        and (query.sink_lat or "").lower() == name):
                    return CRITICAL
        return NORMAL

    def invalidate_components(self) -> None:
        """Drop cached criticality; re-derive the shed set if degraded.

        Called whenever rules / LATs / streams are added or removed so the
        suspension set never references departed components.  The set is
        ranked by attributed cost, read from outside the monitor: inside a
        journaled entry it is an effect, which a replay reads back.
        """
        self._eff_crit.clear()
        if self.state in (GOV_SHEDDING, GOV_ESSENTIAL):
            self.suspended = set(self.sqlcm.effect(self._shed_set,
                                                   self.state))

    def forget_rule(self, name: str) -> None:
        key = name.lower()
        self._ema.pop(key, None)
        self.suspended.discard(("rule", key))

    def forget_stream(self, name: str) -> None:
        self.suspended.discard(("stream", name.lower()))

    def forget_lat(self, name: str) -> None:
        self.suspended.discard(("lat", name.lower()))

    # -- the controller ----------------------------------------------------

    def _window_rates(self) -> tuple[float, float, float] | None:
        samples = self._samples
        if len(samples) < 2:
            return None
        t0, cost0, skipped0 = samples[0]
        t1, cost1, skipped1 = samples[-1]
        span = t1 - t0
        if span <= 0.0:
            return None
        measured = (cost1 - cost0) / span
        estimated = (cost1 - cost0 + skipped1 - skipped0) / span
        return span, measured, estimated

    def _decide(self, now: float) -> None:
        self._last_decision_at = now
        rates = self._window_rates()
        if rates is None:
            return
        span, measured, estimated = rates
        self.measured_ratio = measured
        self.estimated_ratio = estimated
        tape = self.sqlcm.tape
        if tape is not None:
            tape.decided(measured, estimated)
        self.server.add_monitor_cost(self.server.costs.governor_decision)
        obs = self.server.obs
        if obs.enabled:
            obs.gauge("sqlcm.governor.overhead_ratio", measured)
            obs.gauge("sqlcm.governor.estimated_ratio", estimated)
            obs.gauge("sqlcm.governor.state", LADDER.index(self.state))
            obs.gauge("sqlcm.governor.suspended", len(self.suspended))
            obs.gauge("sqlcm.governor.sampled_out", self.evals_sampled_out)
        if span < self.policy.window * 0.5:
            return  # not enough history for a trustworthy ratio yet
        if self.last_transition_at is not None \
                and now - self.last_transition_at < self.policy.cooldown:
            return  # dwell: at most one transition per cooldown window
        index = LADDER.index(self.state)
        if measured > self.policy.target_overhead and index < len(LADDER) - 1:
            self._transition(now, LADDER[index + 1], measured, estimated,
                             "escalate")
        elif estimated < self.policy.exit_overhead and index > 0:
            self._transition(now, LADDER[index - 1], measured, estimated,
                             "recover")

    def _replay_decision(self, now: float, measured: float,
                         estimated: float, *transition) -> None:
        """A recorded :meth:`_decide`: its ratios, and the transition it
        made with the components it suspended, if it made one."""
        self.measured_ratio = measured
        self.estimated_ratio = estimated
        if transition:
            new_state, reason, suspended = transition
            self._transition(now, new_state, measured, estimated, reason,
                             set(suspended))

    def _transition(self, now: float, new_state: str, measured: float,
                    estimated: float, reason: str,
                    suspended: set | None = None) -> None:
        old_state = self.state
        obs = self.server.obs
        self._in_decision = True
        try:
            with obs.attrib("governor", "controller"), obs.span(
                    f"governor:{reason}", "governor",
                    from_state=old_state, to_state=new_state,
                    overhead_pct=round(measured * 100, 3)):
                self.state = new_state
                self.last_transition_at = now
                if suspended is None:
                    self.suspended = self._shed_set(new_state, measured)
                else:
                    self.suspended = suspended
        finally:
            self._in_decision = False
        tape = self.sqlcm.tape
        if tape is not None and not tape.replaying:
            tape.transitioned(new_state, reason, sorted(self.suspended))
        record = GovernorTransition(
            time=now, from_state=old_state, to_state=new_state,
            reason=reason, overhead_ratio=measured,
            estimated_ratio=estimated,
            suspended=tuple(sorted(
                f"{kind}:{name}" for kind, name in self.suspended)))
        self.transitions.append(record)
        self._publish(record)

    def _shed_set(self, state: str, measured: float | None = None) -> set:
        if measured is None:
            measured = self.measured_ratio
        if state in (GOV_NORMAL, GOV_SAMPLED):
            return set()
        if state == GOV_SHEDDING:
            return self._select_shed(measured)
        return self._all_non_critical()

    def _select_shed(self, measured: float) -> set[tuple[str, str]]:
        """Pick components to suspend from the attributed-cost ranking.

        BEST_EFFORT candidates go before NORMAL ones regardless of cost;
        within a class, the biggest attributed spender goes first.  Enough
        attributed cost is shed to bring the measured ratio back to
        ``target * shed_headroom`` (proportional sizing), with at least one
        component suspended whenever any candidate exists.
        """
        attribution = getattr(self.server.obs, "attribution", None)
        totals = attribution.totals if attribution is not None else {}
        candidates: list[tuple[int, float, str, str, float]] = []
        for rule in self.sqlcm._rule_order:
            crit = self.effective_criticality(rule)
            if crit == CRITICAL:
                continue
            key = rule.name.lower()
            score = totals.get(("rule", key), 0.0)
            for action in rule.actions:
                lat_name = getattr(action, "lat_name", None)
                if lat_name:  # the rule's LAT maintenance is its cost too
                    score += totals.get(("lat", lat_name.lower()), 0.0)
            if score <= 0.0:
                score = self._ema.get(key, 0.0)
            rank = 0 if crit == BEST_EFFORT else 1
            candidates.append((rank, -score, "rule", key, score))
        streams = self.sqlcm._streams
        if streams is not None:
            for query in streams.queries():
                crit = getattr(query, "criticality", NORMAL)
                if crit == CRITICAL:
                    continue
                key = query.spec.name.lower()
                score = totals.get(("stream", key), 0.0)
                rank = 0 if crit == BEST_EFFORT else 1
                candidates.append((rank, -score, "stream", key, score))
        candidates.sort()
        total_score = sum(row[4] for row in candidates)
        needed = 0.0
        if measured > 0.0:
            target = self.policy.target_overhead * self.policy.shed_headroom
            needed = max(0.0, (measured - target) / measured)
        shed: set[tuple[str, str]] = set()
        cumulative = 0.0
        for __, __, kind, name, score in candidates:
            if shed and total_score > 0.0 and (
                    cumulative / total_score) >= needed:
                break
            shed.add((kind, name))
            cumulative += score
        return shed

    def _all_non_critical(self) -> set[tuple[str, str]]:
        shed: set[tuple[str, str]] = set()
        for rule in self.sqlcm._rule_order:
            if self.effective_criticality(rule) != CRITICAL:
                shed.add(("rule", rule.name.lower()))
        streams = self.sqlcm._streams
        if streams is not None:
            for query in streams.queries():
                if getattr(query, "criticality", NORMAL) != CRITICAL:
                    shed.add(("stream", query.spec.name.lower()))
        for lat in self.sqlcm.lats():
            if self._lat_effective_criticality(lat) != CRITICAL:
                shed.add(("lat", lat.definition.name.lower()))
        return shed

    def _publish(self, record: GovernorTransition) -> None:
        engine = self.sqlcm
        if engine._rules_by_event.get("sqlcm.governor_transition"):
            engine.dispatch_event("sqlcm.governor_transition", {
                "from_state": record.from_state,
                "to_state": record.to_state,
                "reason": record.reason,
                "overhead_ratio": record.overhead_ratio,
                "estimated_ratio": record.estimated_ratio,
                "suspended_count": len(self.suspended),
                "time": record.time,
            })

    # -- lifecycle / reporting ---------------------------------------------

    def reset(self) -> None:
        """Return to NORMAL and release every suspension (used on detach)."""
        self.state = GOV_NORMAL
        self.suspended = set()
        self._samples.clear()
        self._last_mark = None

    def state_overheads(self) -> dict[str, float]:
        """Per-ladder-state overhead ratio (state cost / state time)."""
        out: dict[str, float] = {}
        for state in LADDER:
            elapsed = self.state_time[state]
            if elapsed > 0.0:
                out[state] = self.state_cost[state] / elapsed
        return out

    def admit_request(self, criticality: str) -> tuple[bool, float]:
        """Service-tier admission control for one client request.

        Returns ``(admitted, retry_after)``.  NORMAL and SAMPLED admit
        everything — sampling degrades monitoring, never client work.
        SHEDDING drops BEST_EFFORT requests; ESSENTIAL admits only
        CRITICAL ones.  ``retry_after`` (virtual seconds) is the hint the
        service echoes in its ``overloaded`` backpressure reply: the
        soonest the ladder could have stepped back down.
        """
        crit = validate_criticality(criticality)
        state = self.state
        if state in (GOV_NORMAL, GOV_SAMPLED):
            return True, 0.0
        if crit == CRITICAL:
            return True, 0.0
        if state == GOV_SHEDDING and crit != BEST_EFFORT:
            return True, 0.0
        self.requests_denied += 1
        return False, max(self.policy.cooldown,
                          self.policy.decision_interval)

    def describe(self) -> dict:
        return {
            "state": self.state,
            "overhead_ratio": self.measured_ratio,
            "estimated_ratio": self.estimated_ratio,
            "target_overhead": self.policy.target_overhead,
            "exit_overhead": self.policy.exit_overhead,
            "events_seen": self.events_seen,
            "evals_sampled_out": self.evals_sampled_out,
            "evals_suspended": self.evals_suspended,
            "inserts_shed": self.inserts_shed,
            "stream_events_shed": self.stream_events_shed,
            "requests_denied": self.requests_denied,
            "suspended": sorted(
                f"{kind}:{name}" for kind, name in self.suspended),
            "transitions": len(self.transitions),
            "sample_digest": self.sample_digest,
        }
