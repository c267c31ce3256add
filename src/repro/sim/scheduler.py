"""Cooperative discrete-event scheduler.

Sessions, timers, and polling monitors run as *processes*: Python generators
that yield control items to the scheduler.

Two control items exist:

* :class:`Delay` — the process performed ``dt`` seconds of (virtual) work or
  sleep; the scheduler re-queues it at ``now + dt``.
* :class:`WaitLock` — the process is blocked on a lock ticket; the scheduler
  parks it until some other component (the lock manager, a cancel action)
  calls :meth:`Scheduler.wake`.

Query execution itself is eager Python code; only lock acquisitions suspend.
This yields deterministic interleavings: at any virtual instant the set of
active queries, their elapsed times, and the waits-for graph are well
defined, which is what polling monitors and ``Blocker``/``Blocked`` probes
observe.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.errors import ReproError
from repro.sim.clock import SimClock


class Delay:
    """Yielded by a process to advance virtual time by ``dt`` seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise ValueError(f"negative delay {dt!r}")
        self.dt = dt

    def __repr__(self) -> str:  # pragma: no cover
        return f"Delay({self.dt:.6f})"


class WaitLock:
    """Yielded by a process to block until an external wake-up.

    ``ticket`` is opaque to the scheduler; the lock manager interprets it.
    """

    __slots__ = ("ticket",)

    def __init__(self, ticket: Any):
        self.ticket = ticket

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitLock({self.ticket!r})"


_READY = "ready"
_BLOCKED = "blocked"
_DONE = "done"
_FAILED = "failed"


class Process:
    """A schedulable generator with bookkeeping state."""

    def __init__(self, name: str, gen: Generator, priority: int = 0):
        self.name = name
        self.gen = gen
        self.priority = priority
        self.state = _READY
        self.wake_time = 0.0
        self.result: Any = None
        self.error: BaseException | None = None
        self._pending_exception: BaseException | None = None

    @property
    def done(self) -> bool:
        return self.state in (_DONE, _FAILED)

    @property
    def blocked(self) -> bool:
        return self.state == _BLOCKED

    def __repr__(self) -> str:  # pragma: no cover
        return f"Process({self.name!r}, state={self.state})"


class SchedulerStalledError(ReproError):
    """All remaining processes are blocked and nothing can wake them."""

    def __init__(self, blocked: Iterable[Process]):
        names = ", ".join(p.name for p in blocked)
        super().__init__(f"scheduler stalled; blocked processes: {names}")
        self.blocked = list(blocked)


class Scheduler:
    """Runs processes in virtual-time order.

    The process with the smallest wake time runs next; ties break by spawn
    order (FIFO), which keeps runs reproducible.
    """

    def __init__(self, clock: SimClock | None = None):
        self.clock = clock or SimClock()
        self._heap: list[tuple[float, int, int, Process]] = []
        self._seq = 0
        # live processes only, in spawn order: a finished process (and the
        # result rows it holds) must not stay reachable from the scheduler
        self._processes: list[Process] = []
        self._stall_handlers: list[Callable[[list[Process]], bool]] = []

    # -- process management -------------------------------------------------

    def spawn(self, name: str, gen: Generator, *, at: float | None = None,
              priority: int = 0) -> Process:
        """Register a generator as a process, runnable at time ``at``."""
        proc = Process(name, gen, priority)
        proc.wake_time = self.clock.now if at is None else max(at, self.clock.now)
        self._processes.append(proc)
        self._push(proc)
        return proc

    def wake(self, proc: Process, *, exception: BaseException | None = None) -> None:
        """Make a blocked process runnable again at the current time.

        If ``exception`` is given it is thrown into the process generator at
        its suspension point (used for deadlock victims and cancellations).
        """
        if proc.done:
            return
        if proc.state != _BLOCKED:
            raise ReproError(f"cannot wake process {proc.name!r} in state {proc.state}")
        proc.state = _READY
        proc.wake_time = self.clock.now
        proc._pending_exception = exception
        self._push(proc)

    def add_stall_handler(self, handler: Callable[[list[Process]], bool]) -> None:
        """Register a callback invoked when all processes are blocked.

        The handler should attempt to break the stall (e.g. run deadlock
        detection) and return ``True`` if it woke something.
        """
        self._stall_handlers.append(handler)

    # -- execution ------------------------------------------------------------

    def step(self) -> Process | None:
        """Run one process for one yield. Returns the process, or None if idle."""
        proc = self._pop_runnable()
        if proc is None:
            return None
        self.clock.advance_to(proc.wake_time)
        try:
            if proc._pending_exception is not None:
                exc = proc._pending_exception
                proc._pending_exception = None
                item = proc.gen.throw(exc)
            else:
                item = next(proc.gen)
        except StopIteration as stop:
            proc.state = _DONE
            proc.result = stop.value
            self._processes.remove(proc)
            return proc
        except BaseException as err:  # noqa: BLE001 - recorded, not swallowed
            proc.state = _FAILED
            proc.error = err
            self._processes.remove(proc)
            raise
        if isinstance(item, Delay):
            proc.wake_time = self.clock.now + item.dt
            self._push(proc)
        elif isinstance(item, WaitLock):
            proc.state = _BLOCKED
        else:
            raise ReproError(
                f"process {proc.name!r} yielded unsupported item {item!r}"
            )
        return proc

    def run(self, until: float | None = None) -> None:
        """Run until the event queue drains (or virtual time passes ``until``).

        Raises :class:`SchedulerStalledError` if live processes remain blocked
        with nothing runnable and no stall handler can break the stall.
        """
        while True:
            nxt = self._peek_runnable()
            if nxt is None:
                blocked = [p for p in self._processes if p.blocked]
                if not blocked:
                    return
                if any(handler(blocked) for handler in list(self._stall_handlers)):
                    continue
                raise SchedulerStalledError(blocked)
            if until is not None and nxt.wake_time > until:
                self.clock.advance_to(until)
                return
            self.step()

    def run_until_done(self, proc: Process) -> Any:
        """Run until the given process completes; returns its result.

        Other processes interleave normally; stall handlers (deadlock
        detection) are consulted when everything is blocked.
        """
        while not proc.done:
            nxt = self._peek_runnable()
            if nxt is None:
                blocked = [p for p in self._processes if p.blocked]
                if blocked and any(h(blocked) for h in list(self._stall_handlers)):
                    continue
                raise SchedulerStalledError(blocked)
            self.step()
        if proc.error is not None:  # pragma: no cover - step() re-raises
            raise proc.error
        return proc.result

    # -- internals ---------------------------------------------------------

    def _push(self, proc: Process) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (proc.wake_time, proc.priority, self._seq, proc))

    def _pop_runnable(self) -> Process | None:
        while self._heap:
            __, __, __, proc = heapq.heappop(self._heap)
            if proc.state == _READY:
                return proc
        return None

    def _peek_runnable(self) -> Process | None:
        while self._heap:
            __, __, __, proc = self._heap[0]
            if proc.state == _READY:
                return proc
            heapq.heappop(self._heap)
        return None
