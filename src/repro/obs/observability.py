"""The observability facade: attribution + tracing + metrics behind one flag.

One :class:`Observability` instance per server, installed with
:meth:`~repro.engine.server.DatabaseServer.enable_observability`.  Hot-path
call sites never branch on whether observability is on: they always go
through ``server.obs`` and get either the live instance or the shared
:data:`NULL_OBS` null object, whose context managers are no-ops and which
never charges the monitor-cost pool — disabled observability is free both
in Python terms (a couple of attribute loads) and in virtual time (zero
pool cost, asserted in tests).

When enabled, the layer *charges for itself* — pushing an attribution
context, recording a span, and updating a metric each cost a calibrated
sliver of virtual time (``obs_attrib`` / ``obs_span`` / ``obs_metric`` in
the cost model) so the overhead benchmarks measure the instrumented
instrument honestly.  Those self-charges flow through the normal
``add_monitor_cost`` path and are themselves attributed to the innermost
open context, so the conservation invariant covers them too.
"""

from __future__ import annotations

from typing import Any

from repro.obs.attribution import KINDS, CostAttribution
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, TraceRecorder


class _AttribContext:
    """Context manager pushing one attribution frame."""

    __slots__ = ("_attribution",)

    def __init__(self, attribution: CostAttribution, kind: str, name: str):
        self._attribution = attribution
        attribution.push(kind, name)

    def __enter__(self) -> "_AttribContext":
        return self

    def __exit__(self, *exc) -> None:
        self._attribution.pop()


class _SpanContext:
    """Context manager recording one trace span.

    The virtual clock does not advance inside monitoring code (its cost is
    pooled and drained by sessions later), so wall-duration alone would
    read as zero for most spans; each span therefore also captures the
    monitor-cost delta accrued while it was open as a ``cost_us`` arg.
    """

    __slots__ = ("_trace", "_span", "_server", "_cost0")

    def __init__(self, trace: TraceRecorder, span: Span, server):
        self._trace = trace
        self._span = span
        self._server = server
        self._cost0 = server.monitor_cost_total

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        delta = self._server.monitor_cost_total - self._cost0
        span = self._span
        if span.args is None:
            span.args = {}
        span.args["cost_us"] = round(delta * 1e6, 6)
        self._trace.end(span)


class _NullContext:
    """Shared no-op context manager for disabled observability."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class Observability:
    """Attribution, tracing, and metrics for one server."""

    enabled = True

    def __init__(self, server, trace_capacity: int = 4096):
        self._server = server
        self._costs = server.costs
        self.attribution = CostAttribution()
        self.metrics = MetricsRegistry()
        self.trace = TraceRecorder(server.clock, trace_capacity)
        self.tracing_enabled = True

    # -- accounting (called from DatabaseServer.add_monitor_cost) ----------

    def account(self, seconds: float) -> None:
        self.attribution.account(seconds)

    # -- attribution contexts ----------------------------------------------

    def attrib(self, kind: str, name: str) -> _AttribContext:
        """Open one attribution frame; charges cost to the *enclosing*
        frame (the push itself is the parent's overhead, not the child's)."""
        if kind not in KINDS:
            raise ValueError(
                f"unknown attribution kind {kind!r}; expected one of {KINDS}")
        self._server.add_monitor_cost(self._costs.obs_attrib)
        return _AttribContext(self.attribution, kind, name)

    # -- spans --------------------------------------------------------------

    def span(self, name: str, category: str = "sqlcm",
             **args: Any) -> "_SpanContext | _NullContext":
        if not self.tracing_enabled:
            return _NULL_CONTEXT
        self._server.add_monitor_cost(self._costs.obs_span)
        return _SpanContext(self.trace,
                            self.trace.begin(name, category, args or None),
                            self._server)

    # -- metric helpers (each charges one obs_metric) -----------------------

    def count(self, name: str, n: int = 1) -> None:
        self._server.add_monitor_cost(self._costs.obs_metric)
        self.metrics.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        self._server.add_monitor_cost(self._costs.obs_metric)
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self._server.add_monitor_cost(self._costs.obs_metric)
        self.metrics.histogram(name).observe(value)

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Everything at once: metrics, attribution, trace statistics."""
        return {
            "metrics": self.metrics.snapshot(),
            "attribution": self.attribution.snapshot(),
            "trace": {
                "retained": len(self.trace),
                "completed": self.trace.completed,
                "dropped": self.trace.dropped,
                "capacity": self.trace.capacity,
            },
        }


class _NullObservability:
    """Null object returned by ``server.obs`` when observability is off.

    Every context manager is the shared no-op, every metric helper returns
    immediately, and nothing ever touches the monitor-cost pool.
    """

    enabled = False
    tracing_enabled = False

    __slots__ = ()

    def account(self, seconds: float) -> None:
        return None

    def attrib(self, kind: str, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def span(self, name: str, category: str = "sqlcm",
             **args: Any) -> _NullContext:
        return _NULL_CONTEXT

    def count(self, name: str, n: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


#: the shared disabled instance — identity-comparable, never charges
NULL_OBS = _NullObservability()
