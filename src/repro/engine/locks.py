"""Multi-granularity two-phase locking with a waits-for graph.

The lock manager is the source of the paper's ``Blocker``/``Blocked``
monitored objects: every conflict produces a block event carrying the
waiting query and the holders of the resource, and the waits-for graph can
be traversed on demand (e.g. from a ``Timer.Alert`` rule) exactly as
Section 6.1 describes.

Lock modes follow SQL Server: intent-shared (IS), intent-exclusive (IX),
shared (S), update (U), exclusive (X).  Requests queue FIFO per resource;
lock conversions by a transaction that already holds the resource bypass the
queue (standard conversion priority, which also avoids self-deadlock).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable

from repro.errors import DeadlockError, QueryCancelledError, TransactionError

Resource = Hashable

MODES = ("IS", "IX", "S", "U", "X")

# _COMPATIBLE[held][requested]
_COMPATIBLE: dict[str, dict[str, bool]] = {
    "IS": {"IS": True, "IX": True, "S": True, "U": True, "X": False},
    "IX": {"IS": True, "IX": True, "S": False, "U": False, "X": False},
    "S": {"IS": True, "IX": False, "S": True, "U": True, "X": False},
    "U": {"IS": True, "IX": False, "S": True, "U": False, "X": False},
    "X": {"IS": False, "IX": False, "S": False, "U": False, "X": False},
}

_STRENGTH = {"IS": 0, "IX": 1, "S": 2, "U": 3, "X": 4}


def mode_covers(held: str, requested: str) -> bool:
    """True if a held mode already satisfies a new request."""
    if held == requested:
        return True
    if held == "X":
        return True
    if held == "U" and requested in ("S", "IS"):
        return True
    if held == "S" and requested == "IS":
        return True
    if held == "IX" and requested == "IS":
        return True
    return False


def combine_modes(a: str, b: str) -> str:
    """The weakest single mode covering both ``a`` and ``b``."""
    if mode_covers(a, b):
        return a
    if mode_covers(b, a):
        return b
    if {a, b} == {"S", "IX"}:
        return "X"  # SIX simplified to X
    return a if _STRENGTH[a] >= _STRENGTH[b] else b


@dataclass
class Ticket:
    """Outcome carrier for one lock request.

    ``granted`` is True when the request succeeded immediately or after a
    wait; ``outcome`` is one of None (still waiting), 'granted', 'deadlock',
    'cancelled'.
    """

    txn_id: int
    resource: Resource
    mode: str
    qctx: Any = None
    granted: bool = False
    outcome: str | None = None
    requested_at: float = 0.0
    granted_at: float | None = None
    # query contexts of the holders that were blocking this request,
    # recorded at block time (the first entry is the designated Blocker)
    blockers: list = field(default_factory=list)

    @property
    def wait_time(self) -> float:
        if self.granted_at is None or self.granted_at <= self.requested_at:
            return 0.0
        return self.granted_at - self.requested_at

    def resolve_or_raise(self) -> None:
        """After resumption, raise if the wait ended in abort/cancel."""
        if self.outcome == "deadlock":
            raise DeadlockError(
                f"transaction {self.txn_id} chosen as deadlock victim "
                f"waiting for {self.mode} on {self.resource!r}"
            )
        if self.outcome == "cancelled":
            raise QueryCancelledError(
                f"query cancelled while waiting for {self.mode} on "
                f"{self.resource!r}"
            )
        if not self.granted:
            raise TransactionError(
                f"lock wait resumed without grant: {self.resource!r}"
            )


@dataclass
class _ResourceState:
    holders: dict[int, str] = field(default_factory=dict)  # txn_id -> mode
    queue: deque = field(default_factory=deque)  # of Ticket


class LockManager:
    """Grants, queues, and releases locks; detects deadlocks at enqueue."""

    def __init__(self, clock, costs=None,
                 on_block: Callable[[Ticket, list[Ticket]], None] | None = None,
                 on_unblock: Callable[[Ticket], None] | None = None,
                 waker: Callable[[Ticket], None] | None = None):
        self._clock = clock
        self._costs = costs
        self._resources: dict[Resource, _ResourceState] = {}
        self._held_by_txn: dict[int, set[Resource]] = {}
        self._waiting_ticket: dict[int, Ticket] = {}  # txn_id -> ticket
        self.on_block = on_block
        self.on_unblock = on_unblock
        self.waker = waker
        self.deadlocks_detected = 0

    # -- introspection ---------------------------------------------------------

    def holders_of(self, resource: Resource) -> dict[int, str]:
        state = self._resources.get(resource)
        return dict(state.holders) if state else {}

    def waiters_of(self, resource: Resource) -> list[Ticket]:
        state = self._resources.get(resource)
        return list(state.queue) if state else []

    def locks_held(self, txn_id: int) -> set[Resource]:
        return set(self._held_by_txn.get(txn_id, ()))

    def waits_for_edges(self) -> list[tuple[int, int, Resource]]:
        """Edges (waiter_txn, holder_txn, resource) of the waits-for graph."""
        edges: list[tuple[int, int, Resource]] = []
        for resource, state in self._resources.items():
            for ticket in state.queue:
                for holder, mode in state.holders.items():
                    if holder == ticket.txn_id:
                        continue
                    if not _COMPATIBLE[mode][ticket.mode]:
                        edges.append((ticket.txn_id, holder, resource))
        return edges

    def blocking_pairs(self) -> list[tuple[Ticket, int, Resource]]:
        """(blocked ticket, designated blocker txn, resource) triples.

        When several transactions hold the contested resource the first
        incompatible holder is designated the blocker, matching the paper's
        "we designate one of the queries holding the resource as the
        Blocker".
        """
        pairs: list[tuple[Ticket, int, Resource]] = []
        for resource, state in self._resources.items():
            for ticket in state.queue:
                for holder, mode in state.holders.items():
                    if holder != ticket.txn_id and \
                            not _COMPATIBLE[mode][ticket.mode]:
                        pairs.append((ticket, holder, resource))
                        break
        return pairs

    # -- request / release -------------------------------------------------------

    def request(self, txn_id: int, resource: Resource, mode: str,
                qctx: Any = None) -> Ticket:
        """Request a lock.  Returns a ticket; if not granted, the caller must
        suspend on it (yield WaitLock) unless ``outcome`` is already fatal."""
        if mode not in MODES:
            raise TransactionError(f"unknown lock mode {mode!r}")
        state = self._resources.setdefault(resource, _ResourceState())
        ticket = Ticket(txn_id, resource, mode, qctx,
                        requested_at=self._clock.now)

        held = state.holders.get(txn_id)
        if held is not None and mode_covers(held, mode):
            ticket.granted = True
            ticket.outcome = "granted"
            ticket.granted_at = self._clock.now
            return ticket

        target = combine_modes(held, mode) if held is not None else mode
        others_compatible = all(
            _COMPATIBLE[h_mode][target]
            for h_txn, h_mode in state.holders.items() if h_txn != txn_id
        )
        is_conversion = held is not None
        # conversions bypass the queue; fresh requests respect FIFO fairness
        if others_compatible and (is_conversion or not state.queue):
            self._grant(state, ticket, target)
            return ticket

        # must wait: check that waiting would not close a deadlock cycle
        if self._would_deadlock(txn_id, state):
            self.deadlocks_detected += 1
            ticket.outcome = "deadlock"
            return ticket

        state.queue.append(ticket)
        self._waiting_ticket[txn_id] = ticket
        if self.on_block is not None:
            blockers = [
                Ticket(h_txn, resource, h_mode, None)
                for h_txn, h_mode in state.holders.items()
                if h_txn != txn_id and not _COMPATIBLE[h_mode][ticket.mode]
            ]
            self.on_block(ticket, blockers)
        return ticket

    def _grant(self, state: _ResourceState, ticket: Ticket,
               target_mode: str | None = None) -> None:
        mode = target_mode or ticket.mode
        held = state.holders.get(ticket.txn_id)
        if held is not None:
            mode = combine_modes(held, mode)
        state.holders[ticket.txn_id] = mode
        self._held_by_txn.setdefault(ticket.txn_id, set()).add(ticket.resource)
        ticket.granted = True
        ticket.outcome = "granted"
        ticket.granted_at = self._clock.now

    def release(self, txn_id: int, resource: Resource) -> None:
        """Release one resource held by a transaction (statement-level S)."""
        state = self._resources.get(resource)
        if state is None or txn_id not in state.holders:
            return
        del state.holders[txn_id]
        held = self._held_by_txn.get(txn_id)
        if held is not None:
            held.discard(resource)
        self._wake_queue(resource, state)

    def release_all(self, txn_id: int) -> int:
        """Release every lock held by a transaction (commit/rollback)."""
        resources = self._held_by_txn.pop(txn_id, set())
        for resource in resources:
            state = self._resources.get(resource)
            if state is None:
                continue
            state.holders.pop(txn_id, None)
            self._wake_queue(resource, state)
        return len(resources)

    def cancel_wait(self, txn_id: int) -> Ticket | None:
        """Remove a blocked transaction from its wait queue (Cancel action)."""
        ticket = self._waiting_ticket.pop(txn_id, None)
        if ticket is None:
            return None
        state = self._resources.get(ticket.resource)
        if state is not None:
            try:
                state.queue.remove(ticket)
            except ValueError:
                pass
            self._wake_queue(ticket.resource, state)
        ticket.outcome = "cancelled"
        if self.waker is not None:
            self.waker(ticket)
        return ticket

    def abort_waiter(self, txn_id: int) -> Ticket | None:
        """Mark a blocked transaction as a deadlock victim and wake it."""
        ticket = self._waiting_ticket.pop(txn_id, None)
        if ticket is None:
            return None
        state = self._resources.get(ticket.resource)
        if state is not None:
            try:
                state.queue.remove(ticket)
            except ValueError:
                pass
            self._wake_queue(ticket.resource, state)
        ticket.outcome = "deadlock"
        self.deadlocks_detected += 1
        if self.waker is not None:
            self.waker(ticket)
        return ticket

    def _wake_queue(self, resource: Resource, state: _ResourceState) -> None:
        """Grant queued requests that are now compatible, FIFO."""
        granted_any = True
        while granted_any and state.queue:
            granted_any = False
            ticket = state.queue[0]
            compatible = all(
                _COMPATIBLE[h_mode][ticket.mode]
                for h_txn, h_mode in state.holders.items()
                if h_txn != ticket.txn_id
            )
            if compatible:
                state.queue.popleft()
                self._waiting_ticket.pop(ticket.txn_id, None)
                self._grant(state, ticket)
                if self.on_unblock is not None:
                    self.on_unblock(ticket)
                if self.waker is not None:
                    self.waker(ticket)
                granted_any = True
        if not state.holders and not state.queue:
            self._resources.pop(resource, None)

    # -- deadlock detection -------------------------------------------------------

    def _would_deadlock(self, requester: int, state: _ResourceState) -> bool:
        """Would blocking ``requester`` on ``state`` close a cycle?

        Follows waits-for edges from the incompatible holders of the
        requested resource; if any path reaches ``requester``, the new wait
        would create a cycle.
        """
        start = {h for h in state.holders if h != requester}
        seen: set[int] = set()
        stack = list(start)
        while stack:
            txn = stack.pop()
            if txn == requester:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            ticket = self._waiting_ticket.get(txn)
            if ticket is None:
                continue
            blocked_on = self._resources.get(ticket.resource)
            if blocked_on is None:
                continue
            for holder, mode in blocked_on.holders.items():
                if holder != txn and not _COMPATIBLE[mode][ticket.mode]:
                    stack.append(holder)
        return False

    def detect_deadlocks(self) -> list[int]:
        """Scan the full waits-for graph for cycles; abort one victim per cycle.

        Used as a scheduler stall handler (safety net for cycles that slip
        past enqueue-time detection, e.g. after conversions).
        """
        victims: list[int] = []
        while True:
            cycle = self._find_cycle()
            if cycle is None:
                return victims
            victim = max(cycle)  # youngest transaction dies
            self.abort_waiter(victim)
            victims.append(victim)

    def _find_cycle(self) -> list[int] | None:
        adjacency: dict[int, set[int]] = {}
        for waiter, holder, __ in self.waits_for_edges():
            adjacency.setdefault(waiter, set()).add(holder)
        visited: set[int] = set()
        path: list[int] = []
        on_path: set[int] = set()

        def visit(node: int) -> list[int] | None:
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for nxt in adjacency.get(node, ()):
                if nxt in on_path:
                    return path[path.index(nxt):]
                if nxt not in visited:
                    found = visit(nxt)
                    if found is not None:
                        return found
            path.pop()
            on_path.discard(node)
            return None

        for node in list(adjacency):
            if node not in visited:
                found = visit(node)
                if found is not None:
                    return found
        return None
