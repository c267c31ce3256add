"""The probe-driver abstraction: SQLCM's hook points behind one interface.

The paper's monitor is compiled *into* the engine; this reproduction grew
the same way — :class:`~repro.core.engine.SQLCM` reached directly into
:class:`~repro.engine.server.DatabaseServer` internals for every probe.
That coupling is what kept the monitor bound to the one engine we wrote
ourselves.  A :class:`ProbeDriver` names the hook points SQLCM actually
consumes so any backend that can supply them becomes monitorable:

* **events** — the query/transaction/session lifecycle, delivered on the
  driver's *host bus* (``driver.host.events``) under the engine's event
  vocabulary (``query.start``, ``query.commit``, ``query.blocked``, ...)
  with :class:`~repro.engine.query.QueryContext` payloads.  SQLCM's rule
  and stream machinery runs unchanged on top.
* **plan text / signatures** — a linearized plan per statement, feeding
  the Section 4.2 signature digests.
* **blocker/blocked pairs** — who is waiting on whom, for the Section 6.1
  blocking applications.
* **a polling-capable snapshot catalog** — DMV-style views
  (``active_queries``, ``blocking_chains``, ``memory_pressure``) that the
  PULL baselines poll, so the paper's probe-vs-polling comparison can be
  rerun against any backend.

Every driver owns a *host* :class:`DatabaseServer`: for the in-memory
driver it is the monitored engine itself; for external backends (sqlite3)
it is a sidecar that contributes only the clock, the event bus, the
monitor-cost ledger, and storage for ``Persist`` targets.  Capability
flags (:class:`DriverCapabilities`) make degradation explicit instead of
implied — a backend that cannot probe something says so, and consumers
check the flag rather than crashing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import DriverError

#: the DMV-style snapshot catalog every polling-capable driver serves
SNAPSHOT_CATALOG = ("active_queries", "blocking_chains", "memory_pressure")


@dataclass(frozen=True)
class DriverCapabilities:
    """What one backend can and cannot probe.

    ``False`` flags are a contract, not a bug: consumers degrade
    explicitly (PULL falls back to tick-driven polling without a virtual
    clock; overhead accounting becomes an estimate without in-engine
    cost attribution).
    """

    events: bool = True             # lifecycle events on the host bus
    plan_signatures: bool = True    # plan text -> logical/physical digests
    blocker_pairs: bool = True      # waits-for pairs for Blocker/Blocked
    transactions: bool = True       # txn.begin/commit/rollback + iteration
    snapshots: tuple = SNAPSHOT_CATALOG
    virtual_clock: bool = False     # scheduler-driven deterministic time
    in_engine_cost: bool = False    # monitoring cost delays the workload
    cancel: bool = False            # driver can abort an in-flight query

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "plan_signatures": self.plan_signatures,
            "blocker_pairs": self.blocker_pairs,
            "transactions": self.transactions,
            "snapshots": list(self.snapshots),
            "virtual_clock": self.virtual_clock,
            "in_engine_cost": self.in_engine_cost,
            "cancel": self.cancel,
        }


@dataclass
class DriverResult:
    """Outcome of one statement executed through a driver."""

    text: str
    rows: list = field(default_factory=list)
    rows_affected: int = 0
    error: str | None = None
    query: Any = None  # the QueryContext the statement ran under, if any

    @property
    def ok(self) -> bool:
        return self.error is None


class ProbeDriver(abc.ABC):
    """One monitorable backend behind SQLCM's hook points."""

    #: short backend identifier (``inmemory``, ``sqlite``)
    name: str = "abstract"

    def __init__(self, host):
        self.host = host
        self.sqlcm = None  # set by wire()

    # -- monitor wiring ----------------------------------------------------

    def wire(self, sqlcm) -> None:
        """Subscribe a SQLCM instance to this driver's event stream.

        The default implementation attaches the monitor to the host bus
        under the exact hook points the embedded monitor always used, so
        the in-memory path is bit-for-bit the pre-driver behavior.
        """
        self.sqlcm = sqlcm
        for event in sqlcm.SUBSCRIBED_EVENTS:
            self.host.events.subscribe(event, sqlcm._on_engine_event)
        self.host.events.subscribe("query.compile", sqlcm._on_compile)

    def unwire(self, sqlcm) -> None:
        """The inverse of :meth:`wire`: ``sqlcm`` hears no further event."""
        for event in sqlcm.SUBSCRIBED_EVENTS:
            self.host.events.unsubscribe(event, sqlcm._on_engine_event)
        self.host.events.unsubscribe("query.compile", sqlcm._on_compile)
        if self.sqlcm is sqlcm:
            self.sqlcm = None

    # -- probe surfaces ----------------------------------------------------

    @abc.abstractmethod
    def capabilities(self) -> DriverCapabilities:
        """The backend's capability flags."""

    @abc.abstractmethod
    def active_queries(self) -> list:
        """QueryContexts currently executing (rule scope + PULL source)."""

    @abc.abstractmethod
    def active_transactions(self) -> list:
        """Open transactions, for Transaction scope iteration.

        Backends without transaction introspection return ``[]`` — rules
        iterating the Transaction class then evaluate over no combos,
        the declared degradation for ``transactions=False``.
        """

    @abc.abstractmethod
    def blocking_pairs(self) -> tuple[list, int]:
        """Current waits: ``([(blocker_qctx, blocked_qctx, resource,
        wait_seconds), ...], edge_count)``.

        ``edge_count`` sizes the waits-for graph the backend traversed so
        SQLCM can charge the traversal to the monitor-cost ledger.
        """

    @abc.abstractmethod
    def completed_queries(self) -> list:
        """Finished QueryContexts (accuracy ground truth)."""

    @abc.abstractmethod
    def execute(self, sql: str, params=None) -> DriverResult:
        """Run one statement against the backend, monitored."""

    @abc.abstractmethod
    def plan_text(self, sql: str) -> str:
        """The backend's plan rendering for a statement (signature feed)."""

    # -- snapshot catalog (the polling surface) ----------------------------

    def snapshot_names(self) -> tuple:
        return self.capabilities().snapshots

    def snapshot(self, name: str):
        """One DMV-style snapshot by catalog name."""
        method = getattr(self, f"_snapshot_{name}", None)
        if name not in self.snapshot_names() or method is None:
            raise DriverError(
                f"driver {self.name!r} serves no snapshot {name!r} "
                f"(catalog: {', '.join(self.snapshot_names())})")
        return method()

    # -- time --------------------------------------------------------------

    def now(self) -> float:
        """Current time in the driver's clock domain (host clock)."""
        return self.host.clock.now

    def add_tick_listener(self, listener: Callable) -> None:
        """Register a callback invoked as backend time passes.

        Drivers without a virtual clock override this; it is how polling
        monitors schedule themselves against a wall-clock backend.  The
        default (virtual-clock backends) refuses: schedule a scheduler
        process instead.
        """
        raise DriverError(
            f"driver {self.name!r} has a virtual clock; spawn a scheduler "
            f"process instead of a tick listener")

    # -- lifecycle / introspection -----------------------------------------

    def describe(self) -> dict:
        """Backend identity + capabilities + counters (``.driver``)."""
        return {
            "driver": self.name,
            "backend": self.backend_info(),
            "capabilities": self.capabilities().as_dict(),
            "counters": self.counters(),
        }

    @abc.abstractmethod
    def backend_info(self) -> str:
        """Which backend this is, e.g. the database file (``.driver``)."""

    @abc.abstractmethod
    def counters(self) -> dict:
        """Backend-side counters (``.driver``, ``status``)."""

    def close(self) -> None:
        """Release backend resources (connections, files)."""

    def __enter__(self) -> "ProbeDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def resolve(backend=None) -> ProbeDriver:
    """The driver of ``backend``: a :class:`ProbeDriver` as it is, a
    :class:`~repro.engine.server.DatabaseServer` (or None, for a fresh one)
    behind an :class:`~repro.drivers.inmemory.InMemoryDriver` — wrapping is
    side-effect free.  Every constructor that takes "a server or a driver"
    calls this and reads ``driver.host`` for the server."""
    if isinstance(backend, ProbeDriver):
        return backend
    from repro.drivers.inmemory import InMemoryDriver
    return InMemoryDriver(backend)


def from_url(url: str, **kwargs) -> ProbeDriver:
    """Build a driver from a ``scheme:detail`` URL.

    * ``memory:`` / ``inmemory:`` — a fresh in-memory engine
      (:class:`~repro.drivers.inmemory.InMemoryDriver`).
    * ``sqlite:PATH`` — a real sqlite3 database at PATH
      (:class:`~repro.drivers.sqlite3_probe.SQLiteDriver`);
      ``sqlite::memory:`` monitors a private in-memory sqlite database.
    """
    scheme, sep, detail = url.partition(":")
    scheme = scheme.strip().lower()
    if scheme in ("memory", "inmemory", "mem"):
        from repro.drivers.inmemory import InMemoryDriver
        return InMemoryDriver(**kwargs)
    if scheme in ("sqlite", "sqlite3"):
        from repro.drivers.sqlite3_probe import SQLiteDriver
        if not sep or not detail:
            raise DriverError(
                "sqlite driver needs a path: sqlite:PATH or sqlite::memory:")
        return SQLiteDriver(detail, **kwargs)
    raise DriverError(
        f"unknown driver scheme {scheme!r} (try memory: or sqlite:PATH)")
