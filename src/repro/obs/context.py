"""Open spans, carried via :mod:`contextvars`.

:class:`ActiveSpan` is the one in-flight span: the aggregate-tree node it
folds into when it closes, and — when it belongs to a serving request — the
trace(s) it is part of, its parent inside each trace, and its point-in-time
events (retry attempts, breaker transitions).  Entering a span makes it the
innermost open span of the current context; leaving it restores the previous
one and closes it in the :class:`repro.obs.tracestore.TraceStore` that
opened it, which folds its time into the node and, for a request span,
freezes it into an immutable record.

A *trace* follows one serving request end to end.  Why *traces* plural on
one span: the serving path fans requests **in** — ``MicroBatcher`` coalesces
many single-key requests into one flush, and that flush (plus everything
beneath it: cache probe, guarded store read, IVF, inference) is genuinely
shared work.  Rather than duplicating those spans per request we record each
once with the full set of member trace ids and a *per-trace* parent map, so
every request's reconstructed trace contains the shared spans, correctly
parented under that request's own root.  A span outside any request has no
trace ids and no span id.

The open spans live on one :class:`contextvars.ContextVar`, so they follow
the logical flow of control and every thread starts with none of its own: a
thread's spans never nest under another thread's.  Span and trace ids are
deterministic process-wide counters — no randomness, per the repo-wide rule.
"""

from __future__ import annotations

import itertools
import threading
from contextvars import ContextVar

__all__ = ["ActiveSpan", "current", "new_trace_id", "new_span_id",
           "child_span", "root_span", "fanin_span"]

_COUNTER = itertools.count(1)
_COUNTER_LOCK = threading.Lock()


def _next() -> int:
    with _COUNTER_LOCK:
        return next(_COUNTER)


def new_trace_id() -> str:
    return f"t{_next():08x}"


def new_span_id() -> str:
    return f"s{_next():08x}"


class ActiveSpan:
    """One open span: aggregate node, per-trace parent links, start, events.

    ``node`` is the :class:`~repro.obs.trace.SpanNode` the span's time folds
    into (``None``: none), ``store`` the trace store that closes it.
    ``trace_ids`` is the tuple of traces this span is part of (empty outside
    a request, one for ordinary request spans, many for a fan-in span like a
    batched flush) and ``parents`` maps each trace id to this span's parent
    span id *within that trace* (``None`` marks the trace's root).
    """

    __slots__ = ("name", "node", "store", "span_id", "trace_ids", "parents",
                 "start", "attrs", "events", "_token")

    def __init__(self, name: str, node, store, start: float,
                 trace_ids: tuple[str, ...] = (),
                 parents: dict[str, str | None] | None = None,
                 attrs: dict | None = None) -> None:
        self.name = name
        self.node = node
        self.store = store
        self.start = start
        self.trace_ids = trace_ids
        self.parents = parents
        self.span_id = new_span_id() if trace_ids else None
        self.attrs = attrs
        self.events: list[tuple[float, str, dict]] = []

    def add_event(self, ts: float, name: str, attrs: dict | None = None) -> None:
        self.events.append((ts, name, attrs or {}))

    def __enter__(self) -> "ActiveSpan":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.reset(self._token)
        self.store.end(self, error=exc)
        return False

    def __repr__(self) -> str:
        return (f"ActiveSpan({self.name!r}, span_id={self.span_id}, "
                f"traces={list(self.trace_ids)})")


_ACTIVE: ContextVar[ActiveSpan | None] = ContextVar("repro_active_span",
                                                    default=None)


def current() -> ActiveSpan | None:
    """The innermost open span in this context, or ``None``."""
    return _ACTIVE.get()


def root_span(name: str, node, store, start: float,
              attrs: dict | None = None) -> ActiveSpan:
    """Open a new trace: a root span with a fresh trace id."""
    trace_id = new_trace_id()
    return ActiveSpan(name, node, store, start, (trace_id,), {trace_id: None},
                      attrs)


def child_span(name: str, parent: ActiveSpan, node, store, start: float,
               attrs: dict | None = None) -> ActiveSpan:
    """Open a span under ``parent`` in every trace the parent belongs to."""
    trace_ids = parent.trace_ids
    if not trace_ids:
        return ActiveSpan(name, node, store, start)
    return ActiveSpan(name, node, store, start, trace_ids,
                      dict.fromkeys(trace_ids, parent.span_id), attrs)


def fanin_span(name: str, parents: list[ActiveSpan], node, store,
               start: float, attrs: dict | None = None) -> ActiveSpan:
    """Open one span shared by many traces (batched work for many requests).

    The span joins every trace of every parent; inside each trace it hangs
    under the first parent that carries that trace id.
    """
    parent_map: dict[str, str | None] = {}
    for parent in parents:
        for tid in parent.trace_ids:
            parent_map.setdefault(tid, parent.span_id)
    return ActiveSpan(name, node, store, start, tuple(parent_map), parent_map,
                      attrs)
