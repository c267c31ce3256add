"""Stateful anomaly operators over window results (SAQL-style).

These operate on the *output* stream of a windowed query — one value per
group per window — rather than on raw events, which keeps their state
proportional to the number of groups, not the event rate:

* :class:`DeviationOperator` — per-group moving average ± k·σ over the last
  ``history`` window results; a window whose value deviates more than
  ``k`` standard deviations from its group's baseline is flagged.  Flagged
  values are *not* folded into the baseline (an anomaly must not teach the
  model that anomalies are normal).
* :class:`TopKOperator` — ranks a window's group rows by one output column
  and flags the top ``k``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core import state
from repro.errors import StreamError


@dataclass(frozen=True)
class DeviationSpec:
    """``DEVIATION(column, k[, history])`` clause configuration."""

    column: str
    k: float
    history: int = 16
    min_history: int = 3

    def __post_init__(self):
        if self.k <= 0:
            raise StreamError("deviation k must be positive")
        if self.history < 2 or self.min_history < 2:
            raise StreamError("deviation history must be at least 2")


@dataclass(frozen=True)
class TopKSpec:
    """``TOPK(column, k)`` clause configuration."""

    column: str
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise StreamError("top-k k must be at least 1")


@dataclass(frozen=True)
class Deviation:
    """One flagged window value with its baseline statistics."""

    value: float
    baseline: float
    sigma: float


class DeviationOperator:
    """Moving-average ± k·σ deviation detection, one baseline per group."""

    STATE = (*state.fields(sum, "observations", "flagged"),
             *state.walked("_history"), *state.transient("spec"))

    def __init__(self, spec: DeviationSpec):
        self.spec = spec
        self._history: dict[tuple, deque] = {}
        self.observations = 0
        self.flagged = 0

    def observe(self, key: tuple, value: Any) -> Deviation | None:
        """Feed one window result; returns a Deviation when it's anomalous.

        Non-numeric / None values are skipped (an empty window's AVG is
        None, which is absence of signal, not a zero).
        """
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return None
        self.observations += 1
        history = self._history.get(key)
        if history is None:
            history = deque(maxlen=self.spec.history)
            self._history[key] = history
        flagged = None
        if len(history) >= self.spec.min_history:
            mean = sum(history) / len(history)
            variance = sum((v - mean) ** 2 for v in history) / len(history)
            sigma = math.sqrt(variance)
            # the relative epsilon keeps a flat baseline's float noise
            # (σ ~ 1e-18 from identical windows) from flagging everything,
            # while a genuine jump still clears it easily
            threshold = self.spec.k * sigma + abs(mean) * 1e-6 + 1e-12
            if abs(value - mean) > threshold:
                flagged = Deviation(float(value), mean, sigma)
        if flagged is None:
            history.append(float(value))
        else:
            self.flagged += 1
        return flagged

    def baseline(self, key: tuple) -> tuple[float, float] | None:
        """Current (mean, sigma) for one group, if enough history exists."""
        history = self._history.get(key)
        if not history or len(history) < self.spec.min_history:
            return None
        mean = sum(history) / len(history)
        variance = sum((v - mean) ** 2 for v in history) / len(history)
        return mean, math.sqrt(variance)

    def forget(self, key: tuple) -> None:
        self._history.pop(key, None)

    def image(self) -> dict:
        """The counters and every group's baseline history: the deviation
        part of a ``stream_image`` record."""
        return state.fold([self]) | {
            "history": [(key, list(values))
                        for key, values in self._history.items()]}

    def load_image(self, image: dict) -> None:
        """Replace counters and histories with those of an :meth:`image`."""
        state.load_into(self, image)
        self._history = {
            tuple(key): deque(values, maxlen=self.spec.history)
            for key, values in image["history"]}

    @property
    def group_count(self) -> int:
        return len(self._history)


class TopKOperator:
    """Top-k-within-window ranking over one output column."""

    STATE = (("windows_ranked", sum), *state.transient("spec"))

    def __init__(self, spec: TopKSpec):
        self.spec = spec
        self.windows_ranked = 0

    def rank(self, rows: list[dict]) -> list[tuple[int, dict]]:
        """Rank one window's group rows; returns [(1-based rank, row)].

        Rows whose column is None are unrankable and excluded.
        """
        rankable = [r for r in rows if r.get(self.spec.column) is not None]
        if not rankable:
            return []
        self.windows_ranked += 1
        ordered = sorted(rankable, key=lambda r: r[self.spec.column],
                         reverse=True)
        return [(i + 1, row) for i, row in enumerate(ordered[:self.spec.k])]
