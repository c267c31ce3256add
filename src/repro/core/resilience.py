"""Fault-isolation layer: rule health, quarantine, retry, fault injection.

The paper's core promise — monitoring runs *inside* the server's execution
path at < 4% overhead — only holds if a misbehaving rule can never take the
monitored query (or the server) down with it.  This module supplies the
pieces the :class:`~repro.core.engine.SQLCM` engine wires into its
evaluation path:

* :class:`RuleHealthRegistry` — per-rule failure accounting on the virtual
  clock, with a circuit breaker: a rule failing ``failure_threshold`` times
  within ``window`` virtual seconds is *quarantined* (removed from the
  evaluation path), then probed again after a cooldown that backs off
  exponentially across repeated quarantines.
* :class:`RetryPolicy` — bounded retry with exponential backoff for
  side-effecting actions (SendMail / RunExternal / Persist).  Backoff
  delays are *simulated-time aware*: they are charged to the server's
  monitor-cost pool, not slept.
* :class:`DeadLetterJournal` — undeliverable side effects land here with
  enough context to inspect or replay them.
* :class:`FaultInjector` — a seeded, deterministic fault harness.  Each
  injection site can be armed with a failure rate and mode (``exception``,
  ``latency``, ``partial``); the same seed over the same workload produces
  bit-identical fault sequences, which is what the resilience test suite
  and ``bench_r1_fault_overhead`` rely on.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core import state
from repro.errors import FaultInjected, RuleError

# rule health states
HEALTHY = "healthy"
QUARANTINED = "quarantined"
PROBATION = "probation"

#: core injection sites wired by the rule engine itself; subsystems add
#: their own with :func:`register_fault_sites` (e.g. the stream engine's
#: ``stream.eval`` / ``stream.window``)
FAULT_SITES = (
    "condition",     # rule condition evaluation (incl. LAT lookups)
    "action",        # action execution (any action kind)
    "sink",          # SendMail / RunExternal delivery
    "lat.insert",    # LAT insert-or-update
    "lat.evict",     # LAT eviction event delivery
    "lat.persist",   # Persist writes of LAT rows / objects
    "timer",         # timer alert firing
    "durability.checkpoint",  # crash mid-checkpoint (partial = torn file)
    "durability.append",      # crash mid-journal-append (partial = torn tail)
)

_registered_sites: set[str] = set(FAULT_SITES)

_FAULT_MODES = ("exception", "latency", "partial")


def register_fault_sites(*sites: str) -> None:
    """Declare additional injection sites (idempotent).

    Subsystems call this at init time so the injector can validate their
    site names without the core site list having to know every subsystem.
    Site names are dotted identifiers, e.g. ``stream.eval``.
    """
    for site in sites:
        if not site or not all(
            part and part.replace("_", "").isalnum()
            for part in site.split(".")
        ):
            raise ValueError(f"invalid fault site name {site!r}")
        _registered_sites.add(site)


def known_fault_sites() -> tuple[str, ...]:
    """All currently registered injection sites (core + subsystem)."""
    return tuple(sorted(_registered_sites))


# ---------------------------------------------------------------------------
# quarantine / circuit breaker
# ---------------------------------------------------------------------------


@dataclass
class QuarantinePolicy:
    """Circuit-breaker tuning for rule quarantine.

    ``failure_threshold`` failures within ``window`` virtual seconds
    quarantine the rule for ``cooldown`` seconds; each re-quarantine
    multiplies the cooldown by ``backoff`` up to ``max_cooldown``.
    """

    failure_threshold: int = 3
    window: float = 60.0
    cooldown: float = 120.0
    backoff: float = 2.0
    max_cooldown: float = 3600.0


@dataclass
class RuleHealth:
    """Per-rule failure accounting and quarantine state."""

    name: str
    state: str = HEALTHY
    error_count: int = 0
    condition_errors: int = 0
    action_errors: int = 0
    quarantine_count: int = 0
    quarantined_at: float | None = None
    reactivate_at: float | None = None
    quarantine_reason: str | None = None
    last_error: str | None = None
    last_site: str | None = None
    current_cooldown: float = 0.0
    recent_failures: deque = field(default_factory=deque, repr=False)

    @property
    def quarantined(self) -> bool:
        return self.state == QUARANTINED

    def snapshot(self) -> tuple:
        """Hashable state used by the determinism tests."""
        return (self.name, self.state, self.error_count,
                self.condition_errors, self.action_errors,
                self.quarantine_count, self.quarantined_at,
                self.reactivate_at, self.last_error, self.last_site)


class RuleHealthRegistry:
    """All rules' health records plus the quarantine state machine."""

    # durability hook (set by DurabilityManager.attach): called with the
    # RuleHealth record after every durable state change
    journal_hook = None

    STATE = (*state.walked("_health"),
             *state.transient("policy", "journal_hook", "all_clear"))

    def __init__(self, policy: QuarantinePolicy | None = None):
        self.policy = policy or QuarantinePolicy()
        self._health: dict[str, RuleHealth] = {}
        #: no record is off HEALTHY: ``allow`` would say yes to every rule
        #: and ``record_success`` would do nothing, so dispatch skips both
        self.all_clear = True

    def _refresh_all_clear(self) -> None:
        self.all_clear = all(h.state == HEALTHY
                             for h in self._health.values())

    def _notify(self, health: RuleHealth) -> None:
        if self.journal_hook is not None:
            self.journal_hook(health)

    def health_of(self, name: str) -> RuleHealth:
        key = name.lower()
        health = self._health.get(key)
        if health is None:
            health = RuleHealth(key)
            self._health[key] = health
        return health

    def known(self) -> list[RuleHealth]:
        return list(self._health.values())

    def drop(self, name: str) -> None:
        """Forget a rule's record (called when the rule is removed): a new
        rule reusing the name starts with a clean history."""
        self._health.pop(name.lower(), None)
        self._refresh_all_clear()

    def restore(self, health: RuleHealth) -> None:
        """Put back a record read from a checkpoint or the journal."""
        self._health[health.name] = health
        self._refresh_all_clear()

    def quarantined(self) -> list[RuleHealth]:
        return [h for h in self._health.values() if h.state == QUARANTINED]

    def allow(self, name: str, now: float) -> bool:
        """Should the rule run at virtual time ``now``?

        Quarantined rules whose cooldown has expired move to *probation*:
        they get one probe evaluation — success restores them, another
        failure re-quarantines immediately with an escalated cooldown.
        """
        health = self._health.get(name.lower())
        if health is None or health.state == HEALTHY:
            return True
        if health.state == PROBATION:
            return True
        if health.reactivate_at is not None and now >= health.reactivate_at:
            health.state = PROBATION
            return True
        return False

    def record_failure(self, name: str, site: str, error: BaseException,
                       now: float) -> tuple[RuleHealth, bool]:
        """Account one failure; returns (health, newly_quarantined)."""
        health = self.health_of(name)
        health.error_count += 1
        if site == "condition":
            health.condition_errors += 1
        elif site == "action":
            health.action_errors += 1
        health.last_error = f"{type(error).__name__}: {error}"
        health.last_site = site
        if health.state == PROBATION:
            # the reactivation probe failed: straight back to quarantine
            self._quarantine(health, now, "reactivation probe failed: "
                             + health.last_error)
            self._notify(health)
            return health, True
        failures = health.recent_failures
        failures.append(now)
        horizon = now - self.policy.window
        while failures and failures[0] < horizon:
            failures.popleft()
        if len(failures) >= self.policy.failure_threshold:
            self._quarantine(
                health, now,
                f"{len(failures)} failures within "
                f"{self.policy.window:g}s: {health.last_error}")
            self._notify(health)
            return health, True
        self._notify(health)
        return health, False

    def record_success(self, name: str) -> None:
        health = self._health.get(name.lower())
        if health is not None and health.state == PROBATION:
            health.state = HEALTHY
            health.current_cooldown = 0.0
            health.quarantine_reason = None
            health.reactivate_at = None
            health.recent_failures.clear()
            self._refresh_all_clear()
            self._notify(health)

    def quarantine(self, name: str, now: float, reason: str) -> None:
        """Force a rule into quarantine (remediation / DBA override).

        Same state machine as breaker-tripped quarantine: the rule leaves
        the evaluation path, gets a reactivation probe after the cooldown,
        and its cooldown escalates across repeated quarantines.
        """
        health = self.health_of(name)
        self._quarantine(health, now, reason)
        self._notify(health)

    def release(self, name: str) -> None:
        """Manually clear a quarantine (DBA override)."""
        health = self._health.get(name.lower())
        if health is None or health.state == HEALTHY:
            raise RuleError(f"rule {name!r} is not quarantined")
        health.state = HEALTHY
        health.current_cooldown = 0.0
        health.quarantine_reason = None
        health.reactivate_at = None
        health.recent_failures.clear()
        self._refresh_all_clear()
        self._notify(health)

    def _quarantine(self, health: RuleHealth, now: float,
                    reason: str) -> None:
        policy = self.policy
        if health.current_cooldown <= 0:
            health.current_cooldown = policy.cooldown
        else:
            health.current_cooldown = min(
                policy.max_cooldown,
                health.current_cooldown * policy.backoff)
        health.state = QUARANTINED
        self.all_clear = False
        health.quarantine_count += 1
        health.quarantined_at = now
        health.reactivate_at = now + health.current_cooldown
        health.quarantine_reason = reason
        health.recent_failures.clear()

    def snapshot(self) -> tuple:
        return tuple(sorted(h.snapshot() for h in self._health.values()))


# ---------------------------------------------------------------------------
# side-effect retry + dead letters
# ---------------------------------------------------------------------------


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff for side-effect delivery.

    Backoff delays are virtual seconds charged to the monitor-cost pool.
    """

    max_attempts: int = 3
    base_delay: float = 1e-3
    backoff: float = 2.0

    def delay_before(self, attempt: int) -> float:
        """Backoff charged before retry number ``attempt`` (2, 3, ...)."""
        return self.base_delay * (self.backoff ** max(0, attempt - 2))


@dataclass
class DeadLetter:
    """One undeliverable side-effect action."""

    time: float
    rule: str
    action: str
    payload: str
    error: str
    attempts: int
    # retained so the journal can replay the delivery later (live
    # references: a recovered entry can be inspected, not redelivered)
    action_obj: Any = field(default=None, repr=False,
                            metadata=state.TRANSIENT)
    context: Any = field(default=None, repr=False, metadata=state.TRANSIENT)
    lat_rows: Any = field(default=None, repr=False, metadata=state.TRANSIENT)


@dataclass
class RedeliveryReport:
    """Outcome of one :meth:`DeadLetterJournal.redeliver` sweep."""

    delivered: int = 0
    dropped: int = 0
    remaining: int = 0


class DeadLetterJournal:
    """Bounded ring journal of side effects that exhausted their retries.

    The journal holds at most ``capacity`` entries: under a persistent
    action outage the oldest entries are displaced (counted in
    :attr:`dropped`) rather than letting the journal grow without limit.
    """

    # durability journal (set by DurabilityManager.attach): gets each
    # appended entry, and the whole ring after a sweep removed entries or
    # re-attempted them, so the ring survives a monitor crash
    journal = None

    STATE = (*state.walked("_entries"),
             *state.fields(state.first, "capacity", "dropped",
                           "poison_dropped"),
             *state.transient("journal"))

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("dead-letter capacity must be positive")
        self.capacity = capacity
        self._entries: list[DeadLetter] = []
        #: oldest entries displaced by the ring bound
        self.dropped = 0
        #: entries discarded as poison by :meth:`redeliver`
        self.poison_dropped = 0

    def append(self, entry: DeadLetter) -> None:
        if len(self._entries) >= self.capacity:
            overflow = len(self._entries) - self.capacity + 1
            del self._entries[:overflow]
            self.dropped += overflow
        self._entries.append(entry)
        if self.journal is not None:
            self.journal.dead_lettered(entry)

    def _swept(self, remaining: list[DeadLetter]) -> None:
        self._entries = remaining
        if self.journal is not None:
            self.journal.dead_letters_changed(self)

    def entries(self, rule: str | None = None) -> list[DeadLetter]:
        if rule is None:
            return list(self._entries)
        key = rule.lower()
        return [e for e in self._entries if e.rule.lower() == key]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def depth(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._swept([])

    def replay(self, sqlcm) -> int:
        """Re-attempt delivery of every entry; returns how many succeeded.

        Entries that fail again stay in the journal with an incremented
        attempt count.
        """
        remaining: list[DeadLetter] = []
        delivered = 0
        for entry in self._entries:
            if entry.action_obj is None:
                remaining.append(entry)
                continue
            try:
                entry.action_obj.execute(
                    sqlcm, None, entry.context or {}, entry.lat_rows or {})
                delivered += 1
            except Exception as err:  # still undeliverable
                entry.attempts += 1
                entry.error = f"{type(err).__name__}: {err}"
                remaining.append(entry)
        self._swept(remaining)
        return delivered

    def redeliver(self, sqlcm, drop_after: int = 9) -> RedeliveryReport:
        """Replay every entry through the engine's :class:`RetryPolicy`.

        Unlike :meth:`replay` (one bare attempt per entry), each entry
        gets a full fresh retry cycle — up to ``retry_policy.max_attempts``
        attempts with exponential backoff charged to the monitor-cost pool,
        exactly like first-time delivery.  Entries whose *cumulative*
        attempt count reaches ``drop_after`` are discarded as poison
        (counted in :attr:`poison_dropped`) so a permanently broken sink
        cannot clog the journal forever.
        """
        policy = sqlcm.retry_policy
        server = sqlcm.server
        remaining: list[DeadLetter] = []
        report = RedeliveryReport()
        for entry in self._entries:
            if entry.action_obj is None:
                remaining.append(entry)
                continue
            delivered = False
            for attempt in range(1, max(1, policy.max_attempts) + 1):
                if attempt > 1:
                    server.add_monitor_cost(policy.delay_before(attempt))
                entry.attempts += 1
                try:
                    entry.action_obj.execute(
                        sqlcm, None, entry.context or {},
                        entry.lat_rows or {})
                    delivered = True
                    break
                except Exception as err:  # still undeliverable
                    entry.error = f"{type(err).__name__}: {err}"
            if delivered:
                report.delivered += 1
            elif entry.attempts >= drop_after:
                report.dropped += 1
                self.poison_dropped += 1
            else:
                remaining.append(entry)
        self._swept(remaining)
        report.remaining = len(remaining)
        return report

    def snapshot(self) -> tuple:
        return tuple((e.time, e.rule, e.action, e.payload, e.error,
                      e.attempts) for e in self._entries)


# ---------------------------------------------------------------------------
# deterministic fault injection
# ---------------------------------------------------------------------------


@dataclass
class FaultSpec:
    """Configuration of one injection site.

    ``rate`` is the per-check injection probability; ``mode`` selects the
    failure: ``exception`` raises :class:`FaultInjected`, ``latency``
    charges ``latency`` extra virtual seconds, ``partial`` simulates a torn
    write (only meaningful at ``lat.persist``).
    """

    rate: float = 0.0
    mode: str = "exception"
    latency: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.mode not in _FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")


class FaultInjector:
    """Seeded deterministic fault harness for the monitoring path.

    Arm sites with :meth:`arm` (rate-based) or :meth:`fail_next`
    (deterministic burst).  The engine consults :meth:`check` at each site;
    the random stream is drawn *only* for armed sites, so arming one site
    never perturbs the fault sequence of another.
    """

    def __init__(self, seed: int = 0,
                 specs: dict[str, FaultSpec] | None = None):
        self.seed = seed
        self._specs: dict[str, FaultSpec] = {}
        self._rngs: dict[str, random.Random] = {}
        self._bursts: dict[str, int] = {}
        self.injected: dict[str, int] = {}
        self.checks: dict[str, int] = {}
        for site, spec in (specs or {}).items():
            self.arm(site, rate=spec.rate, mode=spec.mode,
                     latency=spec.latency)

    def arm(self, site: str, rate: float = 0.1, mode: str = "exception",
            latency: float = 1e-3) -> FaultSpec:
        """Configure an injection site; replaces any previous spec."""
        if site not in _registered_sites:
            raise ValueError(
                f"unknown fault site {site!r}; expected one of "
                f"{known_fault_sites()}")
        spec = FaultSpec(rate=rate, mode=mode, latency=latency)
        self._specs[site] = spec
        # per-site stream: arming/checking one site does not perturb others
        self._rngs.setdefault(
            site, random.Random(f"{self.seed}:{site}"))
        return spec

    def disarm(self, site: str | None = None) -> None:
        if site is None:
            self._specs.clear()
            self._bursts.clear()
        else:
            self._specs.pop(site, None)
            self._bursts.pop(site, None)

    def fail_next(self, site: str, count: int = 1,
                  mode: str = "exception") -> None:
        """Deterministically inject the next ``count`` checks at ``site``."""
        if site not in _registered_sites:
            raise ValueError(f"unknown fault site {site!r}")
        self._bursts[site] = self._bursts.get(site, 0) + count
        self._specs.setdefault(site, FaultSpec(rate=0.0, mode=mode))
        self._specs[site].mode = mode
        self._rngs.setdefault(site, random.Random(f"{self.seed}:{site}"))

    def check(self, site: str) -> float:
        """Consult the site; returns extra latency seconds to charge.

        Raises :class:`FaultInjected` when an exception/partial fault fires.
        """
        burst = self._bursts.get(site, 0)
        spec = self._specs.get(site)
        if spec is None and not burst:
            return 0.0
        self.checks[site] = self.checks.get(site, 0) + 1
        if burst:
            self._bursts[site] = burst - 1
            self.injected[site] = self.injected.get(site, 0) + 1
            raise FaultInjected(site, spec.mode if spec else "exception")
        if spec.rate <= 0.0 or self._rngs[site].random() >= spec.rate:
            return 0.0
        self.injected[site] = self.injected.get(site, 0) + 1
        if spec.mode == "latency":
            return spec.latency
        raise FaultInjected(site, spec.mode)

    def injected_total(self) -> int:
        return sum(self.injected.values())

    def snapshot(self) -> tuple:
        return (tuple(sorted(self.injected.items())),
                tuple(sorted(self.checks.items())))


# ---------------------------------------------------------------------------
# persisted-row checksums
# ---------------------------------------------------------------------------

#: extra column appended to persisted LAT tables for torn-write detection
CHECKSUM_COLUMN = "sqlcm_crc"


def row_checksum(values: list) -> int:
    """Stable CRC32 over one persisted row's (coerced) column values."""
    return zlib.crc32(repr(tuple(values)).encode("utf-8"))
