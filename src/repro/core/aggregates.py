"""LAT aggregation functions, including aging (moving-window) variants.

Standard functions: COUNT, SUM, AVG, MIN, MAX, STDEV, FIRST, LAST
(Section 4.3).  Every function also has an *aging* version: the aggregate
reflects no value older than a window ``t``.  Exactly as the paper
describes, values are not aged out individually (that would require storing
every value); they are grouped into blocks spanning ``Δ`` seconds, and whole
blocks are dropped once they fall out of the window — costing at most
``2t/Δ`` times the storage of the non-aging aggregate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import LATError


class AggregateFunction:
    """One aggregation function over a stream of probe values.

    Implementations provide mergeable state so the aging wrapper can
    combine per-block states into a window result.
    """

    name = "?"

    def new_state(self) -> Any:
        raise NotImplementedError

    def update(self, state: Any, value: Any) -> Any:
        raise NotImplementedError

    def update_weighted(self, state: Any, value: Any, weight: int) -> Any:
        """Update as if ``weight`` identical values arrived.

        Used by the overload governor's sampling mode: an admitted
        evaluation stands in for ``sample_rate`` events, so additive
        aggregates (COUNT / SUM / AVG) scale the contribution by the
        weight and stay unbiased in expectation.  Order/extreme statistics
        (MIN / MAX / FIRST / LAST / STDEV) cannot be compensated by
        scaling; this default applies the value once, so those aggregates
        are *biased toward the sampled subset* while sampling is active —
        see DESIGN.md section 9.
        """
        return self.update(state, value)

    def combine(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def result(self, state: Any) -> Any:
        raise NotImplementedError


class CountAgg(AggregateFunction):
    name = "COUNT"

    def new_state(self):
        return 0

    def update(self, state, value):
        return state + (0 if value is None else 1)

    def update_weighted(self, state, value, weight):
        return state + (0 if value is None else weight)

    def combine(self, left, right):
        return left + right

    def result(self, state):
        return state


class SumAgg(AggregateFunction):
    name = "SUM"

    def new_state(self):
        return None

    def update(self, state, value):
        if value is None:
            return state
        return value if state is None else state + value

    def update_weighted(self, state, value, weight):
        if value is None:
            return state
        scaled = value * weight
        return scaled if state is None else state + scaled

    def combine(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return left + right

    def result(self, state):
        return state


class AvgAgg(AggregateFunction):
    name = "AVG"

    def new_state(self):
        return (0, 0.0)

    def update(self, state, value):
        if value is None:
            return state
        count, total = state
        return (count + 1, total + value)

    def update_weighted(self, state, value, weight):
        if value is None:
            return state
        count, total = state
        return (count + weight, total + value * weight)

    def combine(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def result(self, state):
        count, total = state
        return None if count == 0 else total / count


class MinAgg(AggregateFunction):
    name = "MIN"

    def new_state(self):
        return None

    def update(self, state, value):
        if value is None:
            return state
        if state is None or value < state:
            return value
        return state

    def combine(self, left, right):
        return self.update(left, right)

    def result(self, state):
        return state


class MaxAgg(AggregateFunction):
    name = "MAX"

    def new_state(self):
        return None

    def update(self, state, value):
        if value is None:
            return state
        if state is None or value > state:
            return value
        return state

    def combine(self, left, right):
        return self.update(left, right)

    def result(self, state):
        return state


class StdevAgg(AggregateFunction):
    """Sample standard deviation, single-pass and mergeable.

    State is Welford's ``(count, mean, M2)`` — M2 is the sum of squared
    deviations from the running mean — merged pairwise with Chan's
    parallel-variance formula.  Unlike the naive (count, sum, sum-of-
    squares) state this does not catastrophically cancel when the values
    share a large common offset, which matters for window panes merged
    out of the stream subsystem.
    """

    name = "STDEV"

    def new_state(self):
        return (0, 0.0, 0.0)

    def update(self, state, value):
        if value is None:
            return state
        count, mean, m2 = state
        count += 1
        delta = value - mean
        mean += delta / count
        return (count, mean, m2 + delta * (value - mean))

    def combine(self, left, right):
        n_left, mean_left, m2_left = left
        n_right, mean_right, m2_right = right
        if n_left == 0:
            return right
        if n_right == 0:
            return left
        count = n_left + n_right
        delta = mean_right - mean_left
        mean = mean_left + delta * n_right / count
        m2 = m2_left + m2_right + delta * delta * n_left * n_right / count
        return (count, mean, m2)

    def result(self, state):
        count, __, m2 = state
        if count < 2:
            return None
        return math.sqrt(max(0.0, m2 / (count - 1)))


class FirstAgg(AggregateFunction):
    """Value of the first object inserted (e.g. a representative Query_Text)."""

    name = "FIRST"
    _EMPTY = object()

    def new_state(self):
        return self._EMPTY

    def update(self, state, value):
        return value if state is self._EMPTY else state

    def combine(self, left, right):
        return right if left is self._EMPTY else left

    def result(self, state):
        return None if state is self._EMPTY else state


class LastAgg(AggregateFunction):
    """Value of the most recently inserted object."""

    name = "LAST"
    _EMPTY = object()

    def new_state(self):
        return self._EMPTY

    def update(self, state, value):
        return value

    def combine(self, left, right):
        return left if right is self._EMPTY else right

    def result(self, state):
        return None if state is self._EMPTY else state


_FUNCTIONS: dict[str, AggregateFunction] = {
    f.name: f for f in (
        CountAgg(), SumAgg(), AvgAgg(), MinAgg(), MaxAgg(), StdevAgg(),
        FirstAgg(), LastAgg(),
    )
}


def aggregate_function(name: str) -> AggregateFunction:
    """Look up an aggregation function by name (case-insensitive)."""
    try:
        return _FUNCTIONS[name.upper()]
    except KeyError:
        raise LATError(f"unknown aggregation function {name!r}") from None


# ---------------------------------------------------------------------------
# aging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgingSpec:
    """Moving-window configuration: window ``t``, block width ``delta``."""

    window: float
    delta: float

    def __post_init__(self):
        if self.window <= 0 or self.delta <= 0:
            raise LATError("aging window and delta must be positive")
        if self.delta > self.window:
            raise LATError("aging delta cannot exceed the window")

    @property
    def max_blocks(self) -> int:
        """Storage bound: at most ceil(t/Δ)+1 live blocks (≤ 2t/Δ for Δ ≤ t)."""
        return int(math.ceil(self.window / self.delta)) + 1


class AgingState:
    """Block-aged state for one aggregate in one LAT row."""

    __slots__ = ("func", "spec", "blocks")

    def __init__(self, func: AggregateFunction, spec: AgingSpec):
        self.func = func
        self.spec = spec
        self.blocks: deque[tuple[float, Any]] = deque()  # (block_start, state)

    def _expire(self, now: float) -> None:
        horizon = now - self.spec.window
        while self.blocks and self.blocks[0][0] + self.spec.delta <= horizon:
            self.blocks.popleft()

    def update(self, value: Any, now: float, weight: int = 1) -> None:
        self._expire(now)
        block_start = math.floor(now / self.spec.delta) * self.spec.delta
        if self.blocks and self.blocks[-1][0] == block_start:
            start, state = self.blocks[-1]
            self.blocks[-1] = (
                start, self.func.update_weighted(state, value, weight)
                if weight != 1 else self.func.update(state, value))
        else:
            fresh = self.func.new_state()
            self.blocks.append((
                block_start,
                self.func.update_weighted(fresh, value, weight)
                if weight != 1 else self.func.update(fresh, value),
            ))

    def result(self, now: float) -> Any:
        self._expire(now)
        if not self.blocks:
            return self.func.result(self.func.new_state())
        combined = self.blocks[0][1]
        for __, state in list(self.blocks)[1:]:
            combined = self.func.combine(combined, state)
        return self.func.result(combined)

    def copy(self) -> "AgingState":
        clone = AgingState(self.func, self.spec)
        clone.blocks.extend(self.blocks)
        return clone

    def merge_from(self, other: "AgingState") -> None:
        """Merge another partition's blocks into this state.

        Blocks with the same start combine via the aggregate's mergeable
        state; distinct blocks interleave by start time.  This is the
        aging-aggregate leg of the shard merge (see repro.shard)."""
        merged: dict[float, Any] = dict(self.blocks)
        for start, state in other.blocks:
            if start in merged:
                merged[start] = self.func.combine(merged[start], state)
            else:
                merged[start] = state
        self.blocks = deque(sorted(merged.items()))

    @property
    def block_count(self) -> int:
        return len(self.blocks)
