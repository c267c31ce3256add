"""The chaos scenarios: scripted operational failures with known cures.

Each scenario owns three phases, all driven by the harness:

* :meth:`ChaosScenario.setup` — DDL and seed data on a fresh server;
* :meth:`ChaosScenario.inject` — submit the misbehaving (and victim)
  session scripts; all randomness comes from the scenario's seeded RNG,
  so a ``(scenario, seed)`` pair replays bit-identically;
* :meth:`ChaosScenario.check` — scenario-specific recovery assertions on
  top of the harness's generic invariants.

The scenarios deliberately cover the *different* remediation outcomes the
incident subsystem can produce: a cancel that works (the blocked query is
released), a cancel that honestly fails (the blocker is idling in think
time between statements, so there is nothing running to kill), attempts
suppressed by the remediation budget, a self-healing engine (deadlock
victims) detected through a stream alert, and a quarantine that removes a
misbehaving monitoring component.
"""

from __future__ import annotations

import random

from repro.core import LATDefinition, Rule, SQLCM
from repro.core.actions import CallbackAction, InsertAction
from repro.core.incidents import IncidentPolicy
from repro.engine import Statement
from repro.errors import ChaosError

#: rows seeded into the scenario table
_SEED_ROWS = 8
#: starting balance of every seeded row
_SEED_BAL = 100.0


class ChaosScenario:
    """Base class: one scripted failure drill.

    Subclasses set ``name`` / ``description`` / ``expected_class`` and
    implement :meth:`remediator_kwargs` and :meth:`inject` (and usually
    :meth:`check`).  ``load_until`` is the virtual time by which all
    injected scripts are done; ``settle_time`` bounds how long the
    harness waits beyond that for incidents to resolve.
    """

    name = ""
    description = ""
    #: incident class the drill must produce (generic invariant)
    expected_class = ""
    load_until = 10.0
    settle_time = 8.0
    slice_seconds = 0.5
    #: whole-run monitoring overhead ceiling (generous; the paper's 4%
    #: envelope applies to steady state, not to remediation storms)
    max_overhead = 0.10

    def __init__(self, seed: int = 0, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.rng = random.Random(f"chaos:{self.name}:{seed}")

    # -- configuration hooks ------------------------------------------------------

    def policy(self) -> IncidentPolicy:
        return IncidentPolicy(escalation_timeout=3.0, clear_after=1.5,
                              sweep_interval=0.25)

    def remediator_kwargs(self) -> dict:
        """Keyword arguments of the drill's ``AutoRemediator``."""
        raise NotImplementedError

    def configure(self, harness) -> None:
        """Extra SQLCM wiring (LATs, governor, hostile rules)."""

    # -- drill phases -------------------------------------------------------------

    def setup(self, harness) -> None:
        harness.server.execute_ddl(
            "CREATE TABLE chaos_acct "
            "(id INT NOT NULL PRIMARY KEY, bal FLOAT)")
        values = ", ".join(f"({i + 1}, {_SEED_BAL})"
                           for i in range(_SEED_ROWS))
        harness.server.create_session(user="chaos-loader").execute(
            f"INSERT INTO chaos_acct VALUES {values}")

    def inject(self, harness) -> None:
        raise NotImplementedError

    def check(self, harness, failures: list[str]) -> None:
        """Append scenario-specific failures (empty list == healthy)."""

    # -- helpers ------------------------------------------------------------------

    def _session(self, harness, user: str):
        session = harness.server.create_session(user=user)
        self_sessions = getattr(self, "sessions", None)
        if self_sessions is None:
            self.sessions = self_sessions = {}
        self_sessions[user] = session
        return session

    def _outcomes(self, harness) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in harness.manager.remediations():
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts


class BlockingStorm(ChaosScenario):
    """A head blocker pins a chain; cancelling the middle frees the tail.

    Session ``head`` holds a row lock across a long think time.  Session
    ``middle`` grabs a second hot row, then blocks behind ``head``.
    Victim sessions pile up behind ``middle``.  The remediator opens one
    ``blocking`` incident per hot resource; cancelling ``head`` honestly
    fails (its statement already finished — it is *thinking*, not
    running), while cancelling ``middle`` succeeds because its current
    statement is itself blocked, which rolls ``middle`` back and releases
    the whole tail.  ``head`` eventually commits on its own and the
    incidents auto-resolve.
    """

    name = "blocking_storm"
    description = "lock chain behind a think-time blocker"
    expected_class = "blocking"

    def policy(self) -> IncidentPolicy:
        return IncidentPolicy(escalation_timeout=3.0, clear_after=1.5,
                              sweep_interval=0.25, max_remediations=3,
                              remediation_window=60.0)

    def remediator_kwargs(self) -> dict:
        return dict(sweep_interval=0.25, block_wait_threshold=0.5,
                    cancel_blockers=True)

    def inject(self, harness) -> None:
        hold = 4.0 + self.rng.random() * 2.0
        self.load_until = hold + 2.0
        # the seed picks the hot rows, so incident signatures (and the
        # timeline digest) genuinely vary across seeds
        head_row, mid_row = self.rng.sample(range(1, _SEED_ROWS + 1), 2)
        head = self._session(harness, "head")
        head.submit_script([
            "BEGIN",
            f"UPDATE chaos_acct SET bal = bal + 1 WHERE id = {head_row}",
            Statement("COMMIT", think_time=hold),
        ])
        middle = self._session(harness, "middle")
        middle.submit_script([
            "BEGIN",
            f"UPDATE chaos_acct SET bal = bal + 1 WHERE id = {mid_row}",
            f"UPDATE chaos_acct SET bal = bal + 1 WHERE id = {head_row}",
            "COMMIT",
        ], at=0.1)
        victims = 2 if self.quick else self.rng.randint(3, 5)
        self.victim_count = 0
        for i in range(victims):
            if not harness.allow_load():
                continue
            victim = self._session(harness, f"victim-{i}")
            victim.submit_script([
                f"UPDATE chaos_acct SET bal = bal + 1 WHERE id = {mid_row}",
            ], at=round(0.3 + 0.1 * i + self.rng.uniform(0.0, 0.2), 3))
            self.victim_count += 1

    def check(self, harness, failures: list[str]) -> None:
        outcomes = self._outcomes(harness)
        if not outcomes.get("ok"):
            failures.append("no successful cancel (middle blocker should "
                            "have been killed while blocked)")
        if not outcomes.get("failed"):
            failures.append("no failed cancel (head blocker idles in "
                            "think time; cancelling it must fail)")
        head = self.sessions["head"]
        if not (head.results and head.results[-1].ok):
            failures.append("head session did not commit cleanly")
        middle = self.sessions["middle"]
        if not any(r.error for r in middle.results):
            failures.append("middle session was never rolled back")
        for i in range(self.victim_count):
            victim = self.sessions.get(f"victim-{i}")
            if victim is None or not victim.results:
                failures.append(f"victim-{i} never ran")
            elif victim.results[-1].error:
                failures.append(f"victim-{i} failed: "
                                f"{victim.results[-1].error}")


class DeadlockCascade(ChaosScenario):
    """Waves of opposite-order writers; the engine self-heals.

    Each wave spawns two deadlocking session pairs.  The engine detects
    the cycles at enqueue and picks victims, so no remediation action is
    needed — the drill exercises the *detection* path instead: a
    tumbling-window stream query counts ``Query.Rollback`` events and its
    HAVING crossing lands in the incident manager's stream-alert sink as
    a ``stream.having`` incident.
    """

    name = "deadlock_cascade"
    description = "deadlock waves detected through a stream alert"
    expected_class = "stream.having"

    def remediator_kwargs(self) -> dict:
        return dict(sweep_interval=0.25, block_wait_threshold=30.0,
                    cancel_blockers=False, deadlock_window=1.0,
                    deadlock_threshold=2)

    def inject(self, harness) -> None:
        waves = 2 if self.quick else 3
        self.waves = waves
        self.load_until = waves * 1.2 + 1.5
        for wave in range(waves):
            offset = wave * 1.2
            for pair, (row_a, row_b) in enumerate([(1, 2), (3, 4)]):
                if wave > 0 and not harness.allow_load():
                    continue
                first = self._session(harness, f"dl-{wave}-{pair}-a")
                first.submit_script([
                    "BEGIN",
                    f"UPDATE chaos_acct SET bal = bal + 1 "
                    f"WHERE id = {row_a}",
                    Statement(f"UPDATE chaos_acct SET bal = bal + 1 "
                              f"WHERE id = {row_b}", think_time=0.3),
                    "COMMIT",
                ], at=offset)
                second = self._session(harness, f"dl-{wave}-{pair}-b")
                second.submit_script([
                    "BEGIN",
                    f"UPDATE chaos_acct SET bal = bal + 1 "
                    f"WHERE id = {row_b}",
                    Statement(f"UPDATE chaos_acct SET bal = bal + 1 "
                              f"WHERE id = {row_a}", think_time=0.3),
                    "COMMIT",
                ], at=offset + 0.05)

    def check(self, harness, failures: list[str]) -> None:
        detected = harness.server.locks.deadlocks_detected
        if detected < 2:
            failures.append(f"expected >= 2 deadlocks, engine saw "
                            f"{detected}")
        if self._outcomes(harness):
            failures.append("self-healing drill must not attempt "
                            "remediations")
        # every wave's survivor committed; balances stayed consistent
        session = harness.server.create_session(user="chaos-check")
        total = session.execute(
            "SELECT SUM(bal) FROM chaos_acct").rows[0][0]
        if total <= _SEED_ROWS * _SEED_BAL:
            failures.append("no deadlock survivor committed its writes")


class RunawayQuery(ChaosScenario):
    """A victim statement stuck for virtual seconds gets cancelled.

    A holder transaction parks on the hot row; a victim SELECT blocks
    behind it and its ``Query.Duration`` keeps growing.  The remediator's
    runaway rule cancels any statement past the threshold — and because
    the victim is blocked, the cancel takes effect immediately (the lock
    wait is abandoned and the statement fails), long before the holder
    would have released the row.
    """

    name = "runaway_query"
    description = "blocked statement crosses the runaway threshold"
    expected_class = "runaway"

    def remediator_kwargs(self) -> dict:
        return dict(sweep_interval=0.25, block_wait_threshold=50.0,
                    cancel_blockers=False, runaway_threshold=1.0)

    def inject(self, harness) -> None:
        hold = 5.0 + self.rng.random() * 2.0
        self.load_until = hold + 1.5
        holder = self._session(harness, "holder")
        holder.submit_script([
            "BEGIN",
            "UPDATE chaos_acct SET bal = bal + 1 WHERE id = 1",
            Statement("COMMIT", think_time=hold),
        ])
        victim = self._session(harness, "victim")
        victim.submit_script([
            Statement("SELECT bal FROM chaos_acct WHERE id = 1",
                      think_time=0.2),
        ])

    def check(self, harness, failures: list[str]) -> None:
        outcomes = self._outcomes(harness)
        if not outcomes.get("ok"):
            failures.append("runaway victim was never cancelled")
        victim = self.sessions["victim"]
        if not any(r.error for r in victim.results):
            failures.append("victim statement did not fail after cancel")
        holder = self.sessions["holder"]
        if not (holder.results and holder.results[-1].ok):
            failures.append("holder transaction did not commit")
        # the cancel must beat the holder's natural release by a wide
        # margin — that is the point of the drill
        result = harness.result
        if (result.first_ok_remediation_at is not None
                and result.first_ok_remediation_at > 3.0):
            failures.append("cancel came later than the runaway "
                            "threshold should allow")


class HotRowContention(ChaosScenario):
    """A commit convoy on one row; the budget caps useless cancels.

    Writers serialize on the hot row, each holding it through a think-time
    commit.  The blocker is always *between* statements, so every cancel
    honestly fails; after ``max_remediations`` failures the budget turns
    further attempts into ``suppressed`` records — the page-the-DBA path.
    Crucially the convoy itself is never harmed: every writer commits.
    """

    name = "hot_row_contention"
    description = "commit convoy; remediation budget exhausts"
    expected_class = "blocking"

    def policy(self) -> IncidentPolicy:
        return IncidentPolicy(escalation_timeout=3.0, clear_after=1.5,
                              sweep_interval=0.25, max_remediations=2,
                              remediation_window=60.0)

    def remediator_kwargs(self) -> dict:
        return dict(sweep_interval=0.25, block_wait_threshold=0.4,
                    cancel_blockers=True)

    def inject(self, harness) -> None:
        writers = 3 if self.quick else self.rng.randint(4, 6)
        self.writer_count = writers
        self.load_until = 0.9 * writers + 1.5
        for i in range(writers):
            writer = self._session(harness, f"writer-{i}")
            writer.submit_script([
                "BEGIN",
                "UPDATE chaos_acct SET bal = bal + 1 WHERE id = 1",
                Statement("COMMIT", think_time=0.9),
            ], at=0.05 * i)

    def check(self, harness, failures: list[str]) -> None:
        outcomes = self._outcomes(harness)
        if outcomes.get("ok"):
            failures.append("think-time blockers must not be cancellable")
        if outcomes.get("failed", 0) != 2:
            failures.append(f"budget allows exactly 2 failed attempts, "
                            f"saw {outcomes.get('failed', 0)}")
        if not outcomes.get("suppressed"):
            failures.append("budget never suppressed an attempt")
        session = harness.server.create_session(user="chaos-check")
        bal = session.execute(
            "SELECT bal FROM chaos_acct WHERE id = 1").rows[0][0]
        expected = _SEED_BAL + self.writer_count
        if bal != expected:
            failures.append(f"convoy lost updates: bal={bal}, "
                            f"expected {expected}")


class OverloadSpike(ChaosScenario):
    """A hostile monitoring rule breaches the envelope; quarantine cures.

    One best-effort rule charges heavy per-event cost (a stand-in for
    runaway LAT maintenance).  The governor escalates; the remediator's
    governor watch opens an ``overload`` incident, quarantines the
    hostile rule and resets its LAT.  With the hostile component out, the
    estimated ratio collapses and the governor walks back to NORMAL while
    the workload is still running — the full closed loop.
    """

    name = "overload_spike"
    description = "hostile rule breaches the 4% envelope; quarantined"
    expected_class = "overload"
    load_until = 5.0
    # the whole point of this drill is a deliberate overhead breach
    max_overhead = 1.0

    HOG_RULE = "chaos_hog_rule"
    HOG_LAT = "Chaos_Hog_LAT"

    def remediator_kwargs(self) -> dict:
        return dict(sweep_interval=0.25, block_wait_threshold=50.0,
                    cancel_blockers=False, watch_governor=True,
                    quarantine_rule=self.HOG_RULE,
                    reset_lat=self.HOG_LAT)

    def configure(self, harness) -> None:
        from repro.core import GovernorPolicy
        sqlcm: SQLCM = harness.sqlcm
        sqlcm.create_lat(LATDefinition(
            name=self.HOG_LAT,
            grouping=["Query.Logical_Signature AS Sig"],
            aggregations=["COUNT(Query.ID) AS N",
                          "AVG(Query.Duration) AS Avg_Duration"],
            ordering=["N DESC"],
            max_rows=50,
            criticality="best_effort",
        ))

        def heavy_maintenance(s, _context):
            s.server.add_monitor_cost(4e-3)

        sqlcm.add_rule(Rule(
            name=self.HOG_RULE,
            event="Query.Commit",
            condition="Query.Duration >= 0.0",
            actions=[InsertAction(self.HOG_LAT),
                     CallbackAction(heavy_maintenance)],
            criticality="best_effort",
        ))
        sqlcm.enable_governor(GovernorPolicy(
            target_overhead=0.04, exit_overhead=0.02, window=0.5,
            cooldown=0.5, decision_interval=0.1, sample_rate=8))

    def inject(self, harness) -> None:
        clients = 2 if self.quick else 3
        per_client = 40 if self.quick else 80
        self.load_until = per_client * 0.05 + 1.0
        for c in range(clients):
            session = self._session(harness, f"client-{c}")
            session.submit_script([
                Statement("SELECT bal FROM chaos_acct WHERE id = "
                          f"{1 + (c + i) % _SEED_ROWS}", think_time=0.05)
                for i in range(per_client)
            ], at=0.01 * c)

    def check(self, harness, failures: list[str]) -> None:
        sqlcm: SQLCM = harness.sqlcm
        governor = sqlcm.governor
        if governor is None or not governor.transitions:
            failures.append("governor never reacted to the spike")
            return
        outcomes = self._outcomes(harness)
        if not outcomes.get("ok"):
            failures.append("quarantine/reset remediation never "
                            "succeeded")
        if not sqlcm.health.health_of(self.HOG_RULE).quarantined:
            failures.append("hostile rule is not quarantined")
        from repro.core import GOV_NORMAL
        if governor.state != GOV_NORMAL:
            failures.append(f"governor did not recover "
                            f"(state={governor.state})")
        if governor.transitions[-1].reason != "recover":
            failures.append("last governor transition was not a "
                            "recovery")


class MonitorCrash(ChaosScenario):
    """The monitor itself dies mid-drill; durable recovery must be lossless.

    The drill attaches the durability layer (checkpoint + journal) to the
    harness's monitor and runs a steady query load.  A scheduler process
    then pulls the plug at a seeded virtual time: one of the durability
    crash sites fires — a journal append that dies cleanly or tears its
    tail, or a checkpoint that aborts or publishes a torn file — exactly
    as a real ``kill -9`` would leave the disk.  One virtual second later
    the process rebuilds a *fresh* SQLCM from the surviving checkpoint +
    journal and compares state digests against the last committed point
    the live monitor reached (``DigestTap``).

    The outcome flows through the incident subsystem like every other
    drill: a ``monitor_crash`` incident opens when the plug is pulled and
    is resolved only when recovery verifies — a digest mismatch leaves it
    open, which the generic invariants turn into a failure.
    """

    name = "monitor_crash"
    description = "monitor dies; checkpoint + journal recovery verifies"
    expected_class = "monitor_crash"
    load_until = 5.0

    #: seeded crash points: (fault site, failure mode)
    CRASH_SITES = (
        ("durability.append", "exception"),   # clean kill between records
        ("durability.append", "partial"),     # torn journal tail
        ("durability.checkpoint", "exception"),  # checkpoint aborts early
        ("durability.checkpoint", "partial"),    # torn checkpoint published
    )

    CRASH_LAT = "Chaos_Crash_LAT"
    CRASH_RULE = "chaos_crash_track"

    def remediator_kwargs(self) -> dict:
        return dict(sweep_interval=0.25, block_wait_threshold=50.0,
                    cancel_blockers=False)

    def configure(self, harness) -> None:
        import tempfile

        from repro.core.durability import DigestTap, DurabilityManager

        sqlcm: SQLCM = harness.sqlcm
        sqlcm.create_lat(LATDefinition(
            name=self.CRASH_LAT,
            grouping=["Query.User AS U"],
            aggregations=["COUNT(Query.ID) AS N",
                          "AVG(Query.Duration) AS Avg_D"]))
        sqlcm.add_rule(Rule(name=self.CRASH_RULE, event="Query.Commit",
                            actions=[InsertAction(self.CRASH_LAT)]))
        self.site, self.mode = self.rng.choice(self.CRASH_SITES)
        self.crash_at = round(1.5 + self.rng.random() * 1.5, 3)
        self.durability_dir = tempfile.mkdtemp(prefix="sqlcm-chaos-crash-")
        self.durability = DurabilityManager(sqlcm, self.durability_dir)
        self.durability.attach()
        self.tap = DigestTap(self.durability)
        self.recovery_report = None
        self.recovery_error: str | None = None
        self.crash_incident_id: int | None = None

    def inject(self, harness) -> None:
        clients = 2 if self.quick else 3
        per_client = 30 if self.quick else 50
        self.load_until = max(self.load_until,
                              per_client * 0.08 + self.crash_at)
        for c in range(clients):
            session = self._session(harness, f"client-{c}")
            session.submit_script([
                Statement("SELECT bal FROM chaos_acct WHERE id = "
                          f"{1 + (c + i) % _SEED_ROWS}", think_time=0.08)
                for i in range(per_client)
            ], at=0.02 * c)
        harness.server.scheduler.spawn("chaos-crash",
                                       self._crash_process(harness))

    def _crash_process(self, harness):
        from repro.sim.scheduler import Delay

        yield Delay(self.crash_at)
        incident = harness.manager.report(
            "monitor_crash", f"{self.site}:{self.mode}",
            severity="critical",
            summary=f"monitor killed at {self.site} ({self.mode}) "
                    f"t={harness.server.clock.now:g}")
        self.crash_incident_id = incident.incident_id
        harness.faults.fail_next(self.site, mode=self.mode)
        if self.site == "durability.checkpoint":
            # the crash happens during the checkpoint itself
            try:
                self.durability.checkpoint()
            except Exception:
                pass
        # let the workload run into the armed fault (append sites) and
        # past the crash point, then verify recovery on a fresh monitor
        yield Delay(1.0)
        from repro.core.durability import verify_recovery
        from repro.errors import DurabilityError
        try:
            self.recovery_report = verify_recovery(
                self.durability_dir, self.tap)
        except DurabilityError as err:
            self.recovery_error = str(err)
            return  # incident stays open -> generic invariants fail
        try:
            harness.manager.resolve(
                incident.incident_id,
                resolution=f"recovery verified: "
                           f"{self.recovery_report.records_replayed} "
                           f"records replayed", by="chaos-supervisor")
        except Exception:
            pass  # already auto-resolved by the sweeper

    def check(self, harness, failures: list[str]) -> None:
        if self.crash_incident_id is None:
            failures.append("crash process never pulled the plug")
            return
        if self.recovery_error is not None:
            failures.append(f"recovery verification failed: "
                            f"{self.recovery_error}")
            return
        report = self.recovery_report
        if report is None:
            failures.append("recovery never ran")
            return
        if report.records_replayed <= 0:
            failures.append("journal replay did nothing; crash point "
                            "was not exercised")
        if self.site == "durability.append":
            if not self.durability.journal.dead:
                failures.append("append fault never fired; the journal "
                                "outlived the crash")
            if self.mode == "partial" and not report.records_discarded:
                failures.append("torn tail left no discarded record")


#: registry: scenario name -> class
SCENARIOS: dict[str, type[ChaosScenario]] = {
    cls.name: cls
    for cls in (BlockingStorm, DeadlockCascade, RunawayQuery,
                HotRowContention, OverloadSpike, MonitorCrash)
}


def get_scenario(name: str, seed: int = 0,
                 quick: bool = False) -> ChaosScenario:
    """Instantiate a registered scenario by name."""
    try:
        cls = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ChaosError(f"unknown chaos scenario {name!r} "
                         f"(known: {known})") from None
    return cls(seed=seed, quick=quick)
