"""Trace spans on the virtual clock, exportable as Chrome-trace JSON.

Spans are begin/end intervals around monitoring hot-path units — event
dispatch, rule evaluation, LAT inserts, persist/restore, stream window
flushes.  Timestamps come from the simulation clock (the quantity the
paper measures), completed spans land in a bounded ring buffer (old spans
fall off; tracing never grows without bound), and the whole layer is a
no-op when observability is disabled.

Export format is the Chrome trace-event JSON (``chrome://tracing`` /
Perfetto): complete events (``"ph": "X"``) with microsecond timestamps.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any


class Span:
    """One completed (or still-open) trace span."""

    __slots__ = ("name", "category", "start", "end", "args")

    def __init__(self, name: str, category: str, start: float,
                 args: dict[str, Any] | None = None):
        self.name = name
        self.category = category
        self.start = start
        self.end: float | None = None
        self.args = args

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def chrome_event(self) -> dict[str, Any]:
        event = {
            "name": self.name,
            "cat": self.category,
            "ph": "X",
            "ts": self.start * 1e6,      # virtual seconds -> microseconds
            "dur": self.duration * 1e6,
            "pid": 1,
            "tid": 1,
        }
        if self.args:
            event["args"] = dict(self.args)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, cat={self.category!r}, "
                f"start={self.start:.6f}, dur={self.duration:.2e})")


class TraceRecorder:
    """Bounded ring buffer of completed spans on the virtual clock."""

    def __init__(self, clock, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        self._clock = clock
        self.capacity = capacity
        self._ring: deque[Span] = deque(maxlen=capacity)
        self.started = 0
        self.completed = 0

    def begin(self, name: str, category: str,
              args: dict[str, Any] | None = None) -> Span:
        self.started += 1
        return Span(name, category, self._clock.now, args)

    def end(self, span: Span) -> Span:
        span.end = self._clock.now
        self._ring.append(span)
        self.completed += 1
        return span

    @property
    def dropped(self) -> int:
        """Completed spans that fell off the ring."""
        return self.completed - len(self._ring)

    def spans(self, limit: int | None = None) -> list[Span]:
        """Most recent completed spans, oldest first."""
        spans = list(self._ring)
        return spans if limit is None else spans[-limit:]

    def __len__(self) -> int:
        return len(self._ring)

    # -- export ---------------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """The retained spans as a Chrome trace-event document."""
        return {
            "traceEvents": [span.chrome_event() for span in self._ring],
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "sqlcm-virtual",
                "spans_completed": self.completed,
                "spans_dropped": self.dropped,
            },
        }

    def export_json(self, fp: IO[str] | None = None) -> str:
        """Serialize to Chrome-trace JSON; writes to ``fp`` when given."""
        text = json.dumps(self.chrome_trace(), indent=1)
        if fp is not None:
            fp.write(text)
        return text
