"""Request-scoped trace context, carried via :mod:`contextvars`.

A *trace* follows one serving request end to end; a *span* is one timed
operation inside it.  :class:`ActiveSpan` is the in-flight representation —
it knows which trace(s) it belongs to, who its parent is inside each trace,
and accumulates point-in-time events (retry attempts, breaker transitions).
When a span closes, :class:`repro.obs.tracestore.TraceStore` freezes it into
an immutable record.

Why *traces* plural on one span: the serving path fans requests **in** —
``MicroBatcher`` coalesces many single-key requests into one flush, and that
flush (plus everything beneath it: cache probe, guarded store read, IVF,
inference) is genuinely shared work.  Rather than duplicating those spans per
request we record each once with the full set of member trace ids and a
*per-trace* parent map, so every request's reconstructed trace contains the
shared spans, correctly parented under that request's own root.

Propagation uses a :class:`contextvars.ContextVar`, so the active span
follows the logical flow of control across function calls and survives
thread hops when explicitly captured (``current()`` at submit time, re-
activated in the flushing thread).  Span and trace ids are deterministic
process-wide counters — no randomness, per the repo-wide rule.
"""

from __future__ import annotations

import itertools
import threading
from contextvars import ContextVar
from typing import Mapping

__all__ = ["ActiveSpan", "current", "activate", "deactivate", "new_trace_id",
           "new_span_id", "child_span", "root_span", "fanin_span"]

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
    """One open span: ids, per-trace parent links, start time, events.

    ``trace_ids`` is the tuple of traces this span is part of (one for
    ordinary spans, many for a fan-in span like a batched flush) and
    ``parents`` maps each trace id to this span's parent span id *within
    that trace* (``None`` marks the trace's root).
    """

    __slots__ = ("name", "span_id", "trace_ids", "parents", "start", "attrs",
                 "events")

    def __init__(self, name: str, span_id: str, trace_ids: tuple[str, ...],
                 parents: Mapping[str, str | None], start: float,
                 attrs: dict | None = None) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_ids = trace_ids
        self.parents = dict(parents)
        self.start = start
        self.attrs = attrs or {}
        self.events: list[tuple[float, str, dict]] = []

    def add_event(self, ts: float, name: str, attrs: dict | None = None) -> None:
        self.events.append((ts, name, attrs or {}))

    def __repr__(self) -> str:
        return (f"ActiveSpan({self.name!r}, span_id={self.span_id}, "
                f"traces={list(self.trace_ids)})")


_ACTIVE: ContextVar[ActiveSpan | None] = ContextVar("repro_active_span",
                                                    default=None)


def current() -> ActiveSpan | None:
    """The innermost open span in this context, or ``None``."""
    return _ACTIVE.get()


def activate(span: ActiveSpan | None):
    """Make ``span`` the current context; returns a token for :func:`deactivate`."""
    return _ACTIVE.set(span)


def deactivate(token) -> None:
    _ACTIVE.reset(token)


def root_span(name: str, start: float, attrs: dict | None = None) -> ActiveSpan:
    """Open a new trace: a root span with a fresh trace id."""
    trace_id = new_trace_id()
    return ActiveSpan(name, new_span_id(), (trace_id,), {trace_id: None},
                      start, attrs)


def child_span(name: str, parent: ActiveSpan, start: float,
               attrs: dict | None = None) -> ActiveSpan:
    """Open a span under ``parent`` in every trace the parent belongs to."""
    parents = {tid: parent.span_id for tid in parent.trace_ids}
    return ActiveSpan(name, new_span_id(), parent.trace_ids, parents, start,
                      attrs)


def fanin_span(name: str, parents: list[ActiveSpan], start: float,
               attrs: dict | None = None) -> ActiveSpan:
    """Open one span shared by many traces (batched work for many requests).

    The span joins every trace of every parent; inside each trace it hangs
    under the first parent that carries that trace id.
    """
    trace_ids: list[str] = []
    parent_map: dict[str, str | None] = {}
    for parent in parents:
        for tid in parent.trace_ids:
            if tid not in parent_map:
                parent_map[tid] = parent.span_id
                trace_ids.append(tid)
    return ActiveSpan(name, new_span_id(), tuple(trace_ids), parent_map,
                      start, attrs)
