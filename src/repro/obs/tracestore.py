"""Trace storage: ring-buffered traces with tail-based sampling + export.

Spans close into immutable :class:`SpanRecord`s; when a trace's *root* span
closes the whole trace is assembled into a :class:`TraceRecord` and a
retention decision is made — this is **tail-based sampling**, deciding after
the outcome is known rather than at request start:

* traces containing an error span are **always** kept (own ring buffer);
* the slowest traces seen so far are kept (bounded min-heap on duration —
  the "slowest percentile" in the limit of a steady workload);
* every finished trace additionally rotates through a recent-traces ring,
  so the latest traffic is inspectable even when healthy and fast.

All three pools are bounded, so memory is O(capacity) no matter how many
requests flow through.  Export is Chrome trace-event JSON (``ph: "X"``
complete events plus ``ph: "i"`` instants for span events), loadable in
``chrome://tracing`` / Perfetto; :func:`validate_chrome` is the schema check
CI runs against every export.
"""

from __future__ import annotations

import heapq
import json
import time
from pathlib import Path
from typing import Callable, Iterable

from repro.obs import context
from repro.obs.context import ActiveSpan

__all__ = ["SpanRecord", "TraceRecord", "TraceStore", "to_chrome",
           "dump_chrome", "validate_chrome"]


class SpanRecord:
    """One closed span (immutable once stored)."""

    __slots__ = ("name", "span_id", "trace_ids", "parents", "start", "end",
                 "status", "error", "attrs", "events")

    def __init__(self, name: str, span_id: str, trace_ids: tuple[str, ...],
                 parents: dict, start: float, end: float, status: str = "ok",
                 error: str | None = None, attrs: dict | None = None,
                 events: list | None = None) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_ids = trace_ids
        self.parents = parents
        self.start = start
        self.end = end
        self.status = status
        self.error = error
        self.attrs = attrs or {}
        self.events = events or []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def parent_in(self, trace_id: str) -> str | None:
        """Parent span id of this span within ``trace_id`` (None = root)."""
        return self.parents.get(trace_id)

    def to_dict(self) -> dict:
        return {"name": self.name, "span_id": self.span_id,
                "trace_ids": list(self.trace_ids),
                "parents": dict(self.parents), "start": self.start,
                "end": self.end, "duration": self.duration,
                "status": self.status, "error": self.error,
                "attrs": dict(self.attrs),
                "events": [{"ts": ts, "name": name, "attrs": attrs}
                           for ts, name, attrs in self.events]}

    def __repr__(self) -> str:
        return (f"SpanRecord({self.name!r}, span_id={self.span_id}, "
                f"status={self.status}, dur={self.duration:.6f}s)")


class TraceRecord:
    """One finished trace: the root plus every span that touched it."""

    __slots__ = ("trace_id", "spans", "root")

    def __init__(self, trace_id: str, spans: list[SpanRecord],
                 root: SpanRecord) -> None:
        self.trace_id = trace_id
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self.root = root

    @property
    def duration(self) -> float:
        return self.root.duration

    @property
    def has_error(self) -> bool:
        return any(span.status == "error" for span in self.spans)

    def span_named(self, name: str) -> SpanRecord | None:
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [span for span in self.spans if span.name == name]

    def children_of(self, span_id: str) -> list[SpanRecord]:
        return [span for span in self.spans
                if span.parent_in(self.trace_id) == span_id]

    def render(self) -> str:
        """Indented one-trace text tree (for ``repro trace`` summaries)."""
        by_parent: dict[str | None, list[SpanRecord]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent_in(self.trace_id), []).append(span)
        lines = [f"trace {self.trace_id}  "
                 f"{self.duration * 1e3:.3f} ms  "
                 f"{'ERROR' if self.has_error else 'ok'}"]

        def walk(parent_id: str | None, depth: int) -> None:
            for span in by_parent.get(parent_id, []):
                flag = " !" if span.status == "error" else ""
                lines.append(f"  {'  ' * depth}{span.name:<24} "
                             f"{span.duration * 1e3:9.3f} ms{flag}")
                for __, ev_name, ev_attrs in span.events:
                    detail = ",".join(f"{k}={v}" for k, v in
                                      sorted(ev_attrs.items()))
                    lines.append(f"  {'  ' * (depth + 1)}@ {ev_name}"
                                 f"{' [' + detail + ']' if detail else ''}")
                walk(span.span_id, depth + 1)

        walk(None, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"TraceRecord({self.trace_id}, spans={len(self.spans)}, "
                f"dur={self.duration:.6f}s, error={self.has_error})")


class TraceStore:
    """Bounded store of finished traces with tail-based retention.

    Parameters
    ----------
    capacity:
        Recent-traces ring size (every finished trace rotates through).
    keep_errors:
        Ring size of the always-kept error-trace pool.
    keep_slowest:
        How many of the slowest traces to pin regardless of recency.
    max_open:
        Safety cap on traces whose root never closes (leaked requests);
        the oldest open trace is dropped beyond this.
    clock:
        Monotonic time source for every span of the session — the
        aggregate time tree's and the request traces' (injectable in tests).
    """

    def __init__(self, capacity: int = 256, keep_errors: int = 64,
                 keep_slowest: int = 32, max_open: int = 4096,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.keep_errors = keep_errors
        self.keep_slowest = keep_slowest
        self.max_open = max_open
        self.clock = clock
        self._open: dict[str, list[SpanRecord]] = {}
        self._recent: dict[str, TraceRecord] = {}   # insertion-ordered ring
        self._errors: dict[str, TraceRecord] = {}
        self._slowest: list[tuple[float, int, TraceRecord]] = []  # min-heap
        self._seq = 0
        self.finished = 0
        self.dropped_open = 0

    # -- span lifecycle --------------------------------------------------------

    def begin(self, name: str, parent: ActiveSpan | None = None,
              attrs: dict | None = None, node=None) -> ActiveSpan:
        """Open a span: a child of ``parent``, or a fresh trace root.

        ``node`` is the aggregate :class:`~repro.obs.trace.SpanNode` the
        span's time folds into when it closes (``None``: none).
        """
        now = self.clock()
        if parent is None:
            span = context.root_span(name, node, self, now, attrs)
            self._track_open(span.trace_ids[0])
            return span
        return context.child_span(name, parent, node, self, now, attrs)

    def begin_fanin(self, name: str, parents: list[ActiveSpan],
                    attrs: dict | None = None, node=None) -> ActiveSpan:
        """Open one span shared by every parent's trace (batched work)."""
        return context.fanin_span(name, parents, node, self, self.clock(),
                                  attrs)

    def event(self, span: ActiveSpan, name: str,
              attrs: dict | None = None) -> None:
        span.add_event(self.clock(), name, attrs)

    def end(self, span: ActiveSpan, error: BaseException | str | None = None,
            ) -> SpanRecord | None:
        """Close ``span``: fold its time into its node and, for a request
        span, store its record (finalizing any trace whose root it is)."""
        return self._close(span, self.clock(), error)

    def record(self, name: str, parent: ActiveSpan, start: float,
               end: float | None = None, attrs: dict | None = None,
               ) -> SpanRecord | None:
        """Close a span retroactively under ``parent`` (e.g. queue wait),
        from ``start`` to ``end`` (default: now)."""
        node = None if parent.node is None else parent.node.child(name)
        span = context.child_span(name, parent, node, self, start, attrs)
        return self._close(span, self.clock() if end is None else end)

    def _close(self, span: ActiveSpan, end: float,
               error: BaseException | str | None = None) -> SpanRecord | None:
        node = span.node
        if node is not None:
            node.count += 1
            node.total += end - span.start
        if not span.trace_ids:
            return None
        err = None if error is None else (error if isinstance(error, str)
                                          else f"{type(error).__name__}: {error}")
        record = SpanRecord(span.name, span.span_id, span.trace_ids,
                            span.parents, span.start, end,
                            status="ok" if error is None else "error",
                            error=err, attrs=span.attrs, events=span.events)
        self._store(record)
        return record

    # -- retention -------------------------------------------------------------

    def _track_open(self, trace_id: str) -> None:
        self._open[trace_id] = []
        while len(self._open) > self.max_open:
            victim = next(iter(self._open))
            del self._open[victim]
            self.dropped_open += 1

    def _store(self, record: SpanRecord) -> None:
        roots = []
        for trace_id in record.trace_ids:
            spans = self._open.get(trace_id)
            if spans is None:
                continue  # trace already finalized or never tracked
            spans.append(record)
            if record.parent_in(trace_id) is None:
                roots.append(trace_id)
        for trace_id in roots:
            self._finalize(trace_id, record)

    def _finalize(self, trace_id: str, root: SpanRecord) -> None:
        spans = self._open.pop(trace_id)
        trace = TraceRecord(trace_id, spans, root)
        self.finished += 1
        self._seq += 1

        self._recent[trace_id] = trace
        while len(self._recent) > self.capacity:
            del self._recent[next(iter(self._recent))]

        if trace.has_error and self.keep_errors > 0:
            self._errors[trace_id] = trace
            while len(self._errors) > self.keep_errors:
                del self._errors[next(iter(self._errors))]

        if self.keep_slowest > 0:
            entry = (trace.duration, self._seq, trace)
            if len(self._slowest) < self.keep_slowest:
                heapq.heappush(self._slowest, entry)
            elif trace.duration > self._slowest[0][0]:
                heapq.heapreplace(self._slowest, entry)

    # -- access ----------------------------------------------------------------

    @property
    def open_traces(self) -> int:
        return len(self._open)

    def traces(self) -> list[TraceRecord]:
        """Every retained trace (recent ∪ errors ∪ slowest), oldest first."""
        seen: dict[str, TraceRecord] = {}
        for pool in (self._recent, self._errors):
            seen.update(pool)
        for __, _seq, trace in self._slowest:
            seen[trace.trace_id] = trace
        return sorted(seen.values(), key=lambda t: (t.root.start, t.trace_id))

    def trace(self, trace_id: str) -> TraceRecord | None:
        for pool in (self._recent, self._errors):
            if trace_id in pool:
                return pool[trace_id]
        for __, _seq, trace in self._slowest:
            if trace.trace_id == trace_id:
                return trace
        return None

    def error_traces(self) -> list[TraceRecord]:
        return sorted(self._errors.values(),
                      key=lambda t: (t.root.start, t.trace_id))

    def slowest_traces(self) -> list[TraceRecord]:
        return [t for __, __s, t in sorted(self._slowest,
                                           key=lambda e: -e[0])]

    def reset(self) -> None:
        self._open.clear()
        self._recent.clear()
        self._errors.clear()
        self._slowest = []
        self.finished = 0
        self.dropped_open = 0


# -- Chrome trace-event export -------------------------------------------------

def to_chrome(traces: Iterable[TraceRecord]) -> dict:
    """Chrome trace-event JSON for a set of traces.

    Each trace renders as its own track (``tid``); spans are ``ph: "X"``
    complete events with microsecond timestamps, span events are ``ph: "i"``
    thread-scoped instants.  A span shared by several traces (a batched
    flush) appears once per member trace, so each request's track is
    self-contained — exactly how the trace *reads*, not how it was stored.
    """
    events: list[dict] = []
    tids: dict[str, int] = {}
    emitted: set[tuple[str, str]] = set()
    for trace in traces:
        tid = tids.setdefault(trace.trace_id, len(tids) + 1)
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": f"trace {trace.trace_id}"}})
        for span in trace.spans:
            key = (trace.trace_id, span.span_id)
            if key in emitted:
                continue
            emitted.add(key)
            events.append({
                "name": span.name, "cat": "repro", "ph": "X",
                "ts": span.start * 1e6, "dur": span.duration * 1e6,
                "pid": 1, "tid": tid,
                "args": {"trace_id": trace.trace_id,
                         "span_id": span.span_id,
                         "parent_id": span.parent_in(trace.trace_id),
                         "status": span.status,
                         **({"error": span.error} if span.error else {}),
                         **span.attrs}})
            for ts, name, attrs in span.events:
                events.append({"name": name, "cat": "repro.event", "ph": "i",
                               "ts": ts * 1e6, "pid": 1, "tid": tid,
                               "s": "t", "args": dict(attrs)})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_chrome(traces: Iterable[TraceRecord], path: str | Path) -> int:
    """Write Chrome trace JSON; returns the number of events written."""
    doc = to_chrome(traces)
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return len(doc["traceEvents"])


def validate_chrome(doc: dict) -> list[str]:
    """Schema check for a Chrome trace document; returns problem strings.

    This is the gate CI runs on every export: top-level shape, required
    per-event fields, numeric non-negative timestamps/durations, and known
    phase types.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' missing or not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                problems.append(f"event {i} lacks required field {field!r}")
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "B", "E"):
            problems.append(f"event {i} has unknown phase {ph!r}")
        if ph in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"event {i} has bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} has bad dur {dur!r}")
    return problems
