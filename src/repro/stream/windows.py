"""Incremental window state: ring-buffer panes on the virtual clock.

A window is evaluated as a union of *panes* — half-open slices of the
virtual-time axis, each ``hop`` seconds wide.  Every arriving event updates
exactly one pane's aggregate states (O(#aggregates)); when a window closes,
the result is a merge of the panes it covers (O(panes_per_window) combine
calls, using the mergeable states from :mod:`repro.core.aggregates`).  No
per-event values are retained and no O(window) rescan ever happens — the
same block-aging idea the paper uses for LAT aging aggregates, applied to
overlapping windows.

``update_ops`` / ``combine_ops`` count state updates and pane merges so
tests can assert incrementality by operation count instead of wall-clock.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core import state
from repro.core.aggregates import AggregateFunction
from repro.errors import StreamError

WINDOW_KINDS = ("tumbling", "sliding", "hopping")


@dataclass(frozen=True)
class WindowSpec:
    """Window shape: ``length`` seconds advancing every ``hop`` seconds.

    ``tumbling(len)`` is ``hop == length`` (non-overlapping);
    ``sliding``/``hopping`` overlap, emitting a result every ``hop``.
    ``length`` must be an integral multiple of ``hop`` so pane merges are
    exact.
    """

    kind: str
    length: float
    hop: float

    def __post_init__(self):
        if self.kind not in WINDOW_KINDS:
            raise StreamError(f"unknown window kind {self.kind!r}")
        if self.length <= 0 or self.hop <= 0:
            raise StreamError("window length and hop must be positive")
        if self.hop > self.length:
            raise StreamError("window hop cannot exceed the length")
        ratio = self.length / self.hop
        if abs(ratio - round(ratio)) > 1e-9:
            raise StreamError(
                f"window length {self.length:g} must be a multiple of "
                f"hop {self.hop:g} (pane merge must be exact)")

    @property
    def panes_per_window(self) -> int:
        return int(round(self.length / self.hop))

    def pane_index(self, t: float) -> int:
        """The pane containing virtual time ``t``."""
        return int(math.floor(t / self.hop))

    def boundary_time(self, boundary: int) -> float:
        """Virtual time at which pane boundary ``boundary`` closes."""
        return boundary * self.hop


class WindowState:
    """All groups' pane buffers for the stream queries of one pane
    group (see :class:`repro.stream.engine.PaneGroup`).

    Each group holds a deque of ``(pane_index, [state per aggregate])``;
    panes older than the largest window that could still need them are
    dropped during emission.
    """

    STATE = (*state.fields(sum, "update_ops", "combine_ops"),
             *state.walked("groups"), *state.transient("spec", "funcs"))

    def __init__(self, spec: WindowSpec, funcs: list[AggregateFunction]):
        self.spec = spec
        self.funcs = funcs
        self.groups: dict[tuple, deque] = {}
        self.update_ops = 0
        self.combine_ops = 0

    def observe(self, key: tuple, values: Iterable[Any], now: float) -> int:
        """Fold one event's values into its group's current pane.

        Returns the number of aggregate-state updates performed (for cost
        charging).
        """
        pane = self.spec.pane_index(now)
        buffer = self.groups.get(key)
        if buffer is None:
            buffer = deque()
            self.groups[key] = buffer
        if buffer and buffer[-1][0] == pane:
            states = buffer[-1][1]
        else:
            if buffer and buffer[-1][0] > pane:
                raise StreamError(
                    "stream events must arrive in virtual-time order")
            states = [f.new_state() for f in self.funcs]
            buffer.append((pane, states))
        ops = 0
        for i, (func, value) in enumerate(zip(self.funcs, values)):
            states[i] = func.update(states[i], value)
            ops += 1
        self.update_ops += ops
        return ops

    def in_order(self, key: tuple, now: float) -> bool:
        """Would :meth:`observe` accept an event of ``key`` at ``now``?"""
        buffer = self.groups.get(key)
        return not buffer or buffer[-1][0] <= self.spec.pane_index(now)

    def emit(self, boundary: int) -> tuple[list[tuple[tuple, list]], int]:
        """Merge each group's panes for the window ending at ``boundary``.

        The window covers pane indices ``[boundary - panes_per_window,
        boundary)``.  Groups with no pane in range produce no row; groups
        whose panes have all expired are dropped entirely.  Returns
        ``(rows, combine_ops)`` where each row is ``(key, [result per
        aggregate])``.
        """
        low = boundary - self.spec.panes_per_window
        funcs = self.funcs
        rows: list[tuple[tuple, list]] = []
        ops = 0
        dead: list[tuple] = []
        for key, buffer in self.groups.items():
            while buffer and buffer[0][0] < low:
                buffer.popleft()
            if not buffer:
                dead.append(key)
                continue
            live = [states for pane, states in buffer if pane < boundary]
            if not live:
                continue
            first, *rest = live
            ops += len(funcs) * len(rest)
            results = []
            # each aggregate folds its panes oldest first
            for i, func in enumerate(funcs):
                merged = first[i]
                for states in rest:
                    merged = func.combine(merged, states[i])
                results.append(func.result(merged))
            rows.append((key, results))
        for key in dead:
            del self.groups[key]
        self.combine_ops += ops
        return rows, ops

    def merge_from(self, other: "WindowState") -> int:
        """Merge another partition's pane buffers into this state.

        The shard merge boundary (see repro.shard): panes with the same
        index combine states pairwise; distinct panes interleave by index.
        Returns the number of combine operations performed.
        """
        ops = 0
        for key, buffer in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = deque(
                    (pane, list(states)) for pane, states in buffer)
                continue
            merged: dict[int, list] = {pane: states for pane, states in mine}
            for pane, states in buffer:
                ours = merged.get(pane)
                if ours is None:
                    merged[pane] = list(states)
                else:
                    for i, func in enumerate(self.funcs):
                        ours[i] = func.combine(ours[i], states[i])
                        ops += 1
            self.groups[key] = deque(
                (pane, merged[pane]) for pane in sorted(merged))
        self.combine_ops += ops
        return ops

    def panes(self) -> tuple:
        """The panes and counters as they stand, for :meth:`copy`.  The
        pane state lists are this window's own, so the result is valid
        until the next :meth:`observe`."""
        return ([(key, tuple(buffer)) for key, buffer in self.groups.items()],
                self.update_ops, self.combine_ops)

    def copy(self, panes: tuple | None = None) -> "WindowState":
        """A window with buffers and state lists of its own, holding this
        window's panes now, or those an earlier :meth:`panes` returned."""
        groups, update_ops, combine_ops = panes or self.panes()
        clone = WindowState(self.spec, self.funcs)
        clone.groups = {key: deque((pane, list(states))
                                   for pane, states in buffer)
                        for key, buffer in groups}
        clone.update_ops = update_ops
        clone.combine_ops = combine_ops
        return clone

    def image(self) -> dict:
        """The counters and every group's panes with their aggregate
        states encoded: the window part of a ``stream_image`` record."""
        return state.fold([self]) | {
            "groups": [(key, [(pane, [state.enc_plain(s) for s in states])
                              for pane, states in panes])
                       for key, panes in self.groups.items()]}

    def load_image(self, image: dict) -> None:
        """Replace counters and panes with those of an :meth:`image`."""
        state.load_into(self, image)
        self.groups = {
            tuple(key): deque(
                (pane, [state.dec_plain(enc, func)
                        for enc, func in zip(states, self.funcs)])
                for pane, states in panes)
            for key, panes in image["groups"]}

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def earliest_pane(self) -> int | None:
        """Smallest live pane index across groups (None when empty)."""
        panes = [b[0][0] for b in self.groups.values() if b]
        return min(panes) if panes else None
