"""TraceStore: span lifecycle, tail-based retention, Chrome export."""

from __future__ import annotations

import pytest

from repro.obs import TraceStore, to_chrome, validate_chrome
from repro.utils import ManualClock


def make_store(**kwargs) -> tuple[TraceStore, ManualClock]:
    clock = ManualClock()
    defaults = dict(capacity=4, keep_errors=2, keep_slowest=2, clock=clock)
    defaults.update(kwargs)
    return TraceStore(**defaults), clock


def one_trace(store: TraceStore, clock: ManualClock, duration: float = 1.0,
              error: Exception | None = None, name: str = "req"):
    root = store.begin(name)
    clock.advance(duration)
    store.end(root, error=error)
    return root


class TestSpanLifecycle:
    def test_root_child_parenting(self):
        store, clock = make_store()
        root = store.begin("req")
        clock.advance(0.1)
        child = store.begin("work", parent=root)
        clock.advance(0.2)
        store.end(child)
        store.end(root)

        trace = store.traces()[0]
        assert [s.name for s in trace.spans] == ["req", "work"]
        tid = trace.trace_id
        assert trace.span_named("req").parent_in(tid) is None
        assert trace.span_named("work").parent_in(tid) == \
            trace.span_named("req").span_id
        assert trace.duration == pytest.approx(0.3)
        assert trace.children_of(trace.root.span_id)[0].name == "work"

    def test_trace_finalizes_only_when_root_closes(self):
        store, clock = make_store()
        root = store.begin("req")
        child = store.begin("work", parent=root)
        store.end(child)
        assert store.finished == 0 and store.open_traces == 1
        store.end(root)
        assert store.finished == 1 and store.open_traces == 0

    def test_fanin_span_lands_in_every_member_trace(self):
        store, clock = make_store()
        roots = [store.begin(f"req{i}") for i in range(3)]
        shared = store.begin_fanin("flush", roots, attrs={"batch_size": 3})
        clock.advance(0.5)
        store.end(shared)
        for root in roots:
            store.end(root)

        traces = store.traces()
        assert len(traces) == 3
        # trace ids distinct per request, the flush span shared across them
        assert len({t.trace_id for t in traces}) == 3
        flush_ids = set()
        for trace in traces:
            flush = trace.span_named("flush")
            assert flush is not None
            assert flush.parent_in(trace.trace_id) == \
                trace.span_named(trace.root.name).span_id
            assert flush.attrs == {"batch_size": 3}
            flush_ids.add(flush.span_id)
        assert len(flush_ids) == 1  # one span object, not three copies

    def test_retroactive_record_span(self):
        store, clock = make_store()
        root = store.begin("req")
        clock.advance(1.0)
        store.record("wait", root, start=0.2, end=0.7)
        store.end(root)
        wait = store.traces()[0].span_named("wait")
        assert wait.start == 0.2 and wait.end == 0.7
        assert wait.parent_in(store.traces()[0].trace_id) == root.span_id

    def test_events_attach_with_timestamps(self):
        store, clock = make_store()
        root = store.begin("req")
        clock.advance(0.25)
        store.event(root, "retry.attempt", {"attempt": 2})
        store.end(root)
        events = store.traces()[0].root.events
        assert events == [(0.25, "retry.attempt", {"attempt": 2})]

    def test_error_marks_span_and_trace(self):
        store, clock = make_store()
        one_trace(store, clock, error=ValueError("boom"))
        trace = store.traces()[0]
        assert trace.has_error
        assert trace.root.status == "error"
        assert "ValueError" in trace.root.error


class TestRetention:
    def test_recent_ring_evicts_oldest(self):
        store, clock = make_store(capacity=3, keep_slowest=0, keep_errors=0)
        for i in range(5):
            one_trace(store, clock, duration=0.1, name=f"req{i}")
        kept = [t.root.name for t in store.traces()]
        assert kept == ["req2", "req3", "req4"]
        assert store.finished == 5

    def test_error_traces_survive_ring_eviction(self):
        store, clock = make_store(capacity=2, keep_errors=2, keep_slowest=0)
        one_trace(store, clock, error=RuntimeError("down"), name="bad")
        for i in range(4):
            one_trace(store, clock, name=f"ok{i}")
        names = {t.root.name for t in store.traces()}
        assert "bad" in names  # evicted from recent, pinned in errors
        assert store.error_traces()[0].root.name == "bad"

    def test_slowest_heap_keeps_the_tail(self):
        store, clock = make_store(capacity=2, keep_errors=0, keep_slowest=2)
        for i, duration in enumerate([0.1, 9.0, 0.1, 5.0, 0.1, 0.2]):
            one_trace(store, clock, duration=duration, name=f"req{i}")
        slowest = [t.root.name for t in store.slowest_traces()]
        assert slowest == ["req1", "req3"]  # slowest first

    def test_open_trace_cap_drops_leaked_requests(self):
        store, clock = make_store(max_open=3)
        spans = [store.begin(f"leak{i}") for i in range(5)]
        assert store.open_traces == 3
        assert store.dropped_open == 2
        # ending a dropped trace's root is harmless (already evicted)
        store.end(spans[0])
        assert store.finished == 0


class TestChromeExport:
    def _export(self):
        store, clock = make_store()
        roots = [store.begin(f"req{i}") for i in range(2)]
        shared = store.begin_fanin("flush", roots)
        clock.advance(0.1)
        store.event(shared, "retry.attempt", {"attempt": 1})
        store.end(shared)
        for root in roots:
            store.end(root)
        return to_chrome(store.traces())

    def test_export_is_schema_valid(self):
        doc = self._export()
        assert validate_chrome(doc) == []
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_a_trace_given_twice_is_named_once(self):
        store, __ = make_store()
        store.end(store.begin("req"))
        doc = to_chrome(store.traces() + store.traces())
        assert [e["tid"] for e in doc["traceEvents"] if e["ph"] == "M"] == [1]

    def test_shared_span_appears_on_every_track(self):
        doc = self._export()
        flush_events = [e for e in doc["traceEvents"]
                        if e["ph"] == "X" and e["name"] == "flush"]
        assert len(flush_events) == 2
        assert len({e["tid"] for e in flush_events}) == 2

    def test_validator_flags_broken_documents(self):
        assert validate_chrome([]) != []
        assert validate_chrome({}) != []
        assert validate_chrome({"traceEvents": [{"ph": "X"}]})  # missing name
        bad_ts = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1}]}
        assert any("ts" in p for p in validate_chrome(bad_ts))
        bad_ph = {"traceEvents": [
            {"name": "a", "ph": "Z", "pid": 1, "tid": 1}]}
        assert any("phase" in p for p in validate_chrome(bad_ph))
