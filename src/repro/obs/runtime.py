"""Process-wide telemetry runtime: install/uninstall plus no-op fast paths.

Instrumented code throughout the repo calls the module-level helpers here
(``count`` / ``gauge_set`` / ``observe`` / ``span`` / ``latency`` /
``event`` / ``request``) on its hot paths.  When no :class:`Telemetry`
session is installed every helper is a cheap early return (one global load +
``None`` check), so default-on instrumentation costs effectively nothing;
installing a session routes the same calls into a
:class:`~repro.obs.registry.MetricsRegistry`, a
:class:`~repro.obs.trace.SpanTracer`, and a
:class:`~repro.obs.tracestore.TraceStore`.

Two tiers of tracing keep the hot path honest:

* **aggregate** — ``span()`` always folds into the per-stage time tree;
* **request-scoped** — when a trace context is active (``request()`` opened
  a root, or a ``MicroBatcher`` flush re-activated captured contexts), the
  same ``span()`` call *additionally* records an individually-timed span
  into the trace store, and ``event()`` attaches point events (retry
  attempts, breaker transitions) to the innermost open span.

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
from repro.obs.registry import Counter, Gauge, LogHistogram, MetricsRegistry
from repro.obs.trace import SpanTracer
from repro.obs.tracestore import TraceStore

__all__ = ["Telemetry", "install", "uninstall", "current", "enabled",
           "session", "count", "gauge_set", "observe", "span", "latency",
           "event", "request", "trace_now", "begin_request",
           "end_trace_span", "begin_fanin", "record_span", "activate_span",
           "deactivate_span"]


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


class _TracedSpan:
    """Aggregate span + request-scoped trace span, as one context manager.

    Enters the per-stage tracer span as usual, *and* opens a trace-store
    span (child of ``parent``, or a fresh trace root when ``parent`` is
    ``None`` and ``root=True``) which becomes the active context for the
    block — nested ``span()``/``event()`` calls land under it.
    """

    __slots__ = ("_telemetry", "_name", "_parent", "_root", "_attrs", "_agg",
                 "_span", "_token")

    def __init__(self, telemetry: "Telemetry", name: str,
                 parent, root: bool = False, attrs: dict | None = None,
                 ) -> None:
        self._telemetry = telemetry
        self._name = name
        self._parent = parent
        self._root = root
        self._attrs = attrs

    def __enter__(self) -> "_TracedSpan":
        t = self._telemetry
        self._agg = t.tracer.span(self._name)
        self._agg.__enter__()
        self._span = t.traces.begin(
            self._name, parent=None if self._root else self._parent,
            attrs=self._attrs)
        self._token = _context.activate(self._span)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _context.deactivate(self._token)
        self._telemetry.traces.end(self._span, error=exc)
        self._agg.__exit__(exc_type, exc, tb)
        return False

    @property
    def trace_ids(self) -> tuple[str, ...]:
        return self._span.trace_ids


def span(name: str):
    """Open a tracer span, or a shared no-op context when not installed.

    With a session installed the span always aggregates into the per-stage
    time tree; if a request trace is also active in this context the span
    is *additionally* recorded individually into the trace store, nested
    under the innermost open trace span.
    """
    t = _TELEMETRY
    if t is None:
        return _NULL_SPAN
    active = _context.current()
    if active is None:
        return t.tracer.span(name)
    return _TracedSpan(t, name, active)


def request(name: str = "request", **attrs):
    """Open a *root* trace span: a new request-scoped trace.

    Everything instrumented beneath the block — nested ``span()`` calls,
    ``event()`` point events, spans recorded by the micro-batcher on the
    request's behalf — lands in this request's trace, which is finalized
    (and tail-sampled for retention) when the block exits.
    """
    t = _TELEMETRY
    if t is None:
        return _NULL_SPAN
    return _TracedSpan(t, name, None, root=True, attrs=attrs or None)


def event(name: str, **attrs) -> None:
    """Attach a point-in-time event to the innermost open trace span."""
    t = _TELEMETRY
    if t is None:
        return
    active = _context.current()
    if active is None:
        return
    t.traces.event(active, name, attrs or None)


# -- manual trace plumbing (thread hops: MicroBatcher & friends) ---------------

def trace_now() -> float:
    """The trace store's clock (0.0 when no session is installed)."""
    t = _TELEMETRY
    return t.traces.clock() if t is not None else 0.0


def begin_request(name: str, **attrs):
    """Manually open a trace root (returns ``None`` when uninstrumented).

    Pair with :func:`end_trace_span` once the request resolves; spans
    recorded in between (on any thread) land in the request's trace.
    """
    t = _TELEMETRY
    if t is None:
        return None
    return t.traces.begin(name, parent=None, attrs=attrs or None)


def begin_fanin(name: str, parents: list, **attrs):
    """Open one span shared by many captured request contexts."""
    t = _TELEMETRY
    if t is None or not parents:
        return None
    return t.traces.begin_fanin(name, parents, attrs=attrs or None)


def end_trace_span(span_obj, error=None) -> None:
    """Close a manually-opened trace span (no-op on ``None``)."""
    t = _TELEMETRY
    if t is None or span_obj is None:
        return
    t.traces.end(span_obj, error=error)


def record_span(name: str, parent, start: float, end: float,
                **attrs) -> None:
    """Record a retroactive span (explicit times) under ``parent``."""
    t = _TELEMETRY
    if t is None or parent is None:
        return
    t.traces.record(name, parent, start, end, attrs=attrs or None)


def activate_span(span_obj):
    """Make a captured/fan-in span current in this context; returns a token."""
    if _TELEMETRY is None or span_obj is None:
        return None
    return _context.activate(span_obj)


def deactivate_span(token) -> None:
    if token is not None:
        _context.deactivate(token)


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
