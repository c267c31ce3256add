"""Attributed cost accounting: who is spending the monitor-cost pool.

The paper's evaluation (Section 6.2) measures *total* monitoring overhead;
this module splits that total by component so a DBA (or a benchmark) can
see which rule, LAT, or stream query is responsible.  The engine pushes an
attribution context — ``("rule", name)``, ``("lat", name)``,
``("stream", name)``, or ``("engine", site)`` — around each unit of
monitoring work; every charge to the server's monitor-cost pool is then
tallied against the innermost open context in addition to the pool itself.

Conservation invariant: the per-component sums always add up to the pool
total accumulated while attribution was active (charges with no open
context land in the ``("engine", "unattributed")`` bucket rather than
disappearing).  The invariant is exact up to float associativity — the
per-component accumulators and the pool accumulator add the same charges
in different groupings — and the test suite asserts it to 1e-9 relative
tolerance over a full TPC-H-style workload.
"""

from __future__ import annotations

from typing import Iterable

#: valid attribution kinds, in report order
KINDS = ("rule", "lat", "stream", "governor", "engine")

#: bucket for charges arriving with no open attribution context
UNATTRIBUTED = ("engine", "unattributed")


class CostAttribution:
    """Per-component tallies over a stack of attribution contexts."""

    __slots__ = ("_stack", "totals", "charges", "total", "pushes")

    def __init__(self):
        self._stack: list[tuple[str, str]] = []
        #: (kind, lowercase name) -> accumulated virtual seconds
        self.totals: dict[tuple[str, str], float] = {}
        #: (kind, lowercase name) -> number of individual charges
        self.charges: dict[tuple[str, str], int] = {}
        #: running pool total while attribution was active
        self.total = 0.0
        self.pushes = 0

    # -- context stack --------------------------------------------------------

    def push(self, kind: str, name: str) -> None:
        self._stack.append((kind, name.lower()))
        self.pushes += 1

    def pop(self) -> None:
        self._stack.pop()

    # -- accounting -----------------------------------------------------------

    def account(self, seconds: float) -> None:
        """Tally one pool charge against the innermost open context."""
        key = self._stack[-1] if self._stack else UNATTRIBUTED
        self.totals[key] = self.totals.get(key, 0.0) + seconds
        self.charges[key] = self.charges.get(key, 0) + 1
        self.total += seconds

    # -- read side ------------------------------------------------------------

    def attributed_total(self) -> float:
        """Sum of all per-component tallies (== :attr:`total` up to float
        associativity; the conservation invariant)."""
        import math
        return math.fsum(self.totals.values())

    def by_kind(self) -> dict[str, float]:
        """Cost per attribution kind (rule / lat / stream / engine)."""
        out: dict[str, float] = {}
        for (kind, __), cost in self.totals.items():
            out[kind] = out.get(kind, 0.0) + cost
        return out

    def components(self, kind: str | None = None
                   ) -> list[tuple[str, str, float, int]]:
        """``(kind, name, cost, charges)`` rows, most expensive first."""
        rows = [
            (k, name, cost, self.charges.get((k, name), 0))
            for (k, name), cost in self.totals.items()
            if kind is None or k == kind
        ]
        rows.sort(key=lambda row: row[2], reverse=True)
        return rows

    def top(self, limit: int = 10,
            kinds: Iterable[str] = ("rule", "lat", "stream")
            ) -> list[tuple[str, str, float, int]]:
        """The most expensive monitored components (the TOP OFFENDERS)."""
        wanted = set(kinds)
        return [row for row in self.components() if row[0] in wanted][:limit]

    def snapshot(self) -> dict:
        return {
            "total": self.total,
            "attributed": self.attributed_total(),
            "by_kind": self.by_kind(),
            "components": {
                f"{kind}:{name}": cost
                for kind, name, cost, __ in self.components()
            },
        }
