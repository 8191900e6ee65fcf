"""Process-wide telemetry runtime: install/uninstall plus no-op fast paths.

Instrumented code throughout the repo calls the module-level helpers here
(``count`` / ``gauge_set`` / ``observe`` / ``span`` / ``latency`` /
``event``) on its hot paths.  When no :class:`Telemetry` session is
installed every helper is a cheap early return (one global load + ``None``
check), so default-on instrumentation costs effectively nothing; installing
a session routes the same calls into a
:class:`~repro.obs.registry.MetricsRegistry`, a
:class:`~repro.obs.trace.SpanTracer`, and a
:class:`~repro.obs.tracestore.TraceStore`.

Every span follows one rule: it is an :class:`~repro.obs.context.ActiveSpan`
on the trace context, and when it closes it folds into the per-stage time
tree under the span that was innermost when it opened — and is *also*
recorded individually into the trace store when that parent belongs to a
request trace.  Request traces are opened by ``MicroBatcher.submit``
(:func:`begin_request`) and joined by its flush (:func:`fanin`);
``event()`` attaches point events (retry attempts, breaker transitions) to
the innermost open request span.

Typical use::

    from repro import obs

    with obs.session() as telemetry:
        model.fit(dataset, epochs=5)
    print(telemetry.tracer.render())
    telemetry.dump_jsonl("run.jsonl")
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs import context as _context
from repro.obs.context import ActiveSpan
from repro.obs.registry import Counter, Gauge, LogHistogram, MetricsRegistry
from repro.obs.trace import SpanTracer
from repro.obs.tracestore import TraceStore

__all__ = ["Telemetry", "install", "uninstall", "current", "enabled",
           "session", "count", "gauge_set", "observe", "observe_many", "span",
           "latency", "event", "begin_request", "fanin", "end_trace_span",
           "record_span"]


class Telemetry:
    """One observability session: metrics registry, span tracer, traces."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()
        self.traces = TraceStore()

    def snapshot(self) -> list[dict]:
        """Metrics and spans as one flat, deterministic event list."""
        events = self.registry.snapshot()
        for rec in self.tracer.flatten():
            events.append({"type": "span", **rec})
        return events

    def dump_jsonl(self, path: str | Path, run_id: str | None = None) -> int:
        """Write the session snapshot as JSONL; returns the event count."""
        from repro.obs.exporters import dump_jsonl

        return dump_jsonl(self, path, run_id=run_id)

    def to_prometheus(self) -> str:
        from repro.obs.exporters import to_prometheus

        return to_prometheus(self.registry)


_TELEMETRY: Telemetry | None = None


def install(telemetry: Telemetry | None = None) -> Telemetry:
    """Make ``telemetry`` (or a fresh session) the process-wide sink."""
    global _TELEMETRY
    _TELEMETRY = telemetry if telemetry is not None else Telemetry()
    return _TELEMETRY


def uninstall() -> Telemetry | None:
    """Remove the installed session (returning it); helpers become no-ops."""
    global _TELEMETRY
    telemetry, _TELEMETRY = _TELEMETRY, None
    return telemetry


def current() -> Telemetry | None:
    return _TELEMETRY


def enabled() -> bool:
    return _TELEMETRY is not None


@contextmanager
def session(telemetry: Telemetry | None = None):
    """Install a session for the block, restoring the previous one after."""
    global _TELEMETRY
    previous = _TELEMETRY
    telemetry = install(telemetry)
    try:
        yield telemetry
    finally:
        _TELEMETRY = previous


# -- hot-path helpers (no-ops unless a session is installed) -------------------

def count(name: str, amount: float = 1.0, **labels) -> None:
    t = _TELEMETRY
    if t is None:
        return
    t.registry._fast_get(Counter, name, labels).inc(amount)


def gauge_set(name: str, value: float, **labels) -> None:
    t = _TELEMETRY
    if t is None:
        return
    t.registry._fast_get(Gauge, name, labels).set(value)


def observe(name: str, value: float, **labels) -> None:
    t = _TELEMETRY
    if t is None:
        return
    t.registry._fast_get(LogHistogram, name, labels).observe(value)


def observe_many(name: str, values, **labels) -> None:
    """Vectorised :func:`observe` — one helper call for a whole batch."""
    t = _TELEMETRY
    if t is None:
        return
    t.registry._fast_get(LogHistogram, name, labels).observe_many(values)


class _NullSpan:
    """Shared do-nothing context manager for the uninstrumented fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def _under(t: "Telemetry", name: str):
    """``(parent, node)`` for a span opening here: the innermost open span of
    this context (``None`` unless this session opened it) and the child node
    for ``name`` under its node, or under the root."""
    parent = _context.current()
    if parent is None or parent.store is not t.traces:
        return None, t.tracer.root.child(name)
    return parent, parent.node.child(name)


def span(name: str):
    """Open a span, or a shared no-op context when not installed.

    With a session installed the span becomes the innermost open span for
    the block and folds into the per-stage time tree under the span that was
    open; if that span belongs to a request trace this one is *additionally*
    recorded individually into the trace store, in the same traces.
    """
    t = _TELEMETRY
    if t is None:
        return _NULL_SPAN
    traces = t.traces
    parent, node = _under(t, name)
    if parent is None:
        return ActiveSpan(name, node, traces, traces.clock())
    return traces.begin(name, parent, node=node)


def event(name: str, **attrs) -> None:
    """Attach a point-in-time event to the innermost open request span."""
    t = _TELEMETRY
    if t is None:
        return
    active = _context.current()
    if active is None or not active.trace_ids:
        return
    t.traces.event(active, name, attrs or None)


# -- request traces across a queue (MicroBatcher) ------------------------------

def begin_request(name: str, **attrs):
    """Open a trace root without entering it (``None`` when uninstrumented).

    Pair with :func:`end_trace_span` once the request resolves; spans
    recorded in between (by any context) land in the request's trace.
    """
    t = _TELEMETRY
    if t is None:
        return None
    __, node = _under(t, name)
    return t.traces.begin(name, None, attrs or None, node=node)


def fanin(name: str, parents: list, **attrs):
    """One span shared by many open request spans, entered for the block.

    It joins every parent's trace and folds into the time tree under this
    context's innermost open span; an exception escaping the block ends it
    as an error.
    """
    t = _TELEMETRY
    if t is None:
        return _NULL_SPAN
    __, node = _under(t, name)
    return t.traces.begin_fanin(name, parents, attrs or None, node=node)


def end_trace_span(span_obj, error=None) -> None:
    """Close a span from :func:`begin_request` (no-op on ``None``)."""
    t = _TELEMETRY
    if t is None or span_obj is None:
        return
    t.traces.end(span_obj, error=error)


def record_span(name: str, parent, start: float, end: float | None = None,
                **attrs) -> None:
    """Record a retroactive span under ``parent``, ending now by default."""
    t = _TELEMETRY
    if t is None or parent is None:
        return
    t.traces.record(name, parent, start, end, attrs=attrs or None)


class _LatencyTimer:
    """Times a block into a latency histogram (seconds)."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist) -> None:
        self._hist = hist

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._hist.observe(time.perf_counter() - self._start)
        return False


def latency(name: str, **labels):
    """``with obs.latency("serving.lookup_seconds"):`` → latency histogram.

    The block's wall time in seconds is one :func:`observe` into the same
    log-bucket :class:`LogHistogram` — O(1) per observation, mergeable, and
    accurate p99/p999 at millions of observations.
    """
    t = _TELEMETRY
    if t is None:
        return _NULL_SPAN
    return _LatencyTimer(t.registry._fast_get(LogHistogram, name, labels))
