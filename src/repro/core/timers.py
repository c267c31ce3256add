"""Timer monitored objects: periodic rule invocation (paper Section 5.1).

Timers let rules fire when condition evaluation "cannot be tied to a system
event" — e.g. reporting queries blocked longer than a threshold.  Each armed
timer runs as a scheduler process that sleeps its interval, raises
``Timer.Alert``, and repeats for the configured number of alarms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.durability import command
from repro.errors import FaultInjected
from repro.sim.scheduler import Delay


@dataclass
class TimerObject:
    """One timer: interval seconds between alarms, remaining repeat count
    (negative = infinite, 0 = disabled)."""

    timer_id: int
    name: str
    interval: float = 0.0
    remaining: int = 0
    generation: int = 0  # bumped by Set(); stale processes exit
    overruns: int = 0  # alarms coalesced because rule work outran the interval

    @property
    def enabled(self) -> bool:
        return self.remaining != 0 and self.interval > 0


class TimerService:
    """Creates and (re)arms timers as scheduler processes."""

    command_path = ("timer_service",)

    def __init__(self, sqlcm):
        self.sqlcm = sqlcm
        self._timers: dict[str, TimerObject] = {}
        self._next_id = 1
        # False while a recovery rebuilds the timers: they are armed, with
        # what is left of them, once it is done (see resume)
        self.running = True

    def timers(self) -> list[TimerObject]:
        return list(self._timers.values())

    def get(self, name: str) -> TimerObject | None:
        return self._timers.get(name.lower())

    def set(self, name: str, interval: float, repeats: int) -> TimerObject:
        """Arm (or disarm, with repeats=0) a timer; spawns its process."""
        interval, repeats = float(interval), int(repeats)
        timer = self._timers.get(name.lower())
        if timer is None:
            timer = TimerObject(self._next_id, name)
            self._next_id += 1
            self._timers[name.lower()] = timer
        timer.interval = interval
        timer.remaining = repeats
        timer.generation += 1
        if timer.enabled and self.running:
            self.sqlcm.server.scheduler.spawn(
                f"timer-{name}", self._timer_process(timer, timer.generation)
            )
        return timer

    def resume(self) -> None:
        """Start the processes of the timers set while not running."""
        self.running = True
        for timer in self.timers():
            self.set(timer.name, timer.interval, timer.remaining)

    def shutdown(self) -> None:
        """Disarm every timer: running processes see the generation bump
        (or remaining == 0) and exit at their next wakeup."""
        for timer in self._timers.values():
            timer.generation += 1
            timer.remaining = 0

    @command
    def alarm(self, name: str, due: float) -> tuple[float, float]:
        """One alarm, due at ``due``, as one entry: the alert, then the
        countdown, which a recovered monitor re-arms from rather than
        re-firing spent alarms.  Returns how long the alert's work took
        (drained from the server: an input, read back on replay) and when
        the next alarm is due."""
        sqlcm = self.sqlcm
        server = sqlcm.server
        timer = self.get(name)
        with server.obs.attrib("engine", "timer"):
            server.add_monitor_cost(server.costs.timer_fire)
            try:
                sqlcm.check_fault("timer")
            except FaultInjected:
                pass  # this alert is lost; the timer itself survives
            else:
                sqlcm.dispatch_event("timer.alert", {"timer": timer})
        # the alert's rule work executes in this background thread
        work = sqlcm.effect(float, server.take_monitor_cost())
        if timer.remaining > 0:
            timer.remaining -= 1
        due += timer.interval
        # an absolute schedule from arm time: a slow alert skips the alarms
        # its work ran past (a backlog would only add more work)
        now = server.clock.now + work
        if timer.enabled and now >= due:
            missed = int((now - due) // timer.interval) + 1
            if timer.remaining > 0:
                missed = min(missed, timer.remaining)
            if missed > 0:
                timer.overruns += missed
                server.obs.count("sqlcm.timer.overruns", missed)
                due += missed * timer.interval
                if timer.remaining > 0:
                    timer.remaining -= missed
        return work, due

    def _timer_process(self, timer: TimerObject,
                       generation: int) -> Iterator:
        server = self.sqlcm.server
        due = server.clock.now + timer.interval
        while timer.generation == generation and timer.enabled:
            yield Delay(max(0.0, due - server.clock.now))
            if timer.generation != generation or not timer.enabled:
                return
            work, due = self.alarm(timer.name, due)
            yield Delay(work)
