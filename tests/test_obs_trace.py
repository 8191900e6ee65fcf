"""repro.obs.trace: span nesting, aggregation, and the runtime no-op path."""

from __future__ import annotations

import pytest

from repro.obs import Telemetry, TraceStore, context
from repro.obs import runtime as obs


@pytest.fixture()
def tracer(freeze_clock):
    """The time tree of a session whose spans run on ``freeze_clock``."""
    telemetry = Telemetry()
    telemetry.traces = TraceStore(clock=freeze_clock)
    with obs.session(telemetry):
        yield telemetry.tracer


class TestSpanTracer:
    def test_aggregates_repeated_spans(self, tracer):
        for __ in range(5):
            with obs.span("forward"):
                pass
        node = tracer.root.children["forward"]
        assert node.count == 5
        assert node.total >= 0.0

    def test_nesting_builds_tree(self, tracer):
        with obs.span("epoch"):
            with obs.span("forward"):
                pass
            with obs.span("backward"):
                pass
        epoch = tracer.root.children["epoch"]
        assert set(epoch.children) == {"forward", "backward"}
        assert "forward" not in tracer.root.children

    def test_same_name_different_parents_are_distinct(self, tracer):
        with obs.span("a"):
            with obs.span("x"):
                pass
        with obs.span("b"):
            with obs.span("x"):
                pass
        assert tracer.root.children["a"].children["x"].count == 1
        assert tracer.root.children["b"].children["x"].count == 1

    def test_total_by_path(self, tracer, freeze_clock):
        with obs.span("epoch"):
            with obs.span("forward"):
                freeze_clock.advance(0.5)
        assert tracer.total("epoch/forward") == 0.5
        assert tracer.total("epoch") == 0.5
        assert tracer.total("nope") == 0.0
        assert tracer.total("epoch/nope") == 0.0

    def test_self_time_excludes_children(self, tracer, freeze_clock):
        with obs.span("outer"):
            freeze_clock.advance(0.25)
            with obs.span("inner"):
                freeze_clock.advance(1.0)
        outer = tracer.root.children["outer"]
        assert outer.total == 1.25
        assert outer.children["inner"].total == 1.0
        assert outer.self_time == pytest.approx(0.25)

    def test_span_survives_exception(self, tracer):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert tracer.root.children["boom"].count == 1
        assert context.current() is None

    def test_flatten_paths(self, tracer):
        with obs.span("epoch"):
            with obs.span("forward"):
                pass
        paths = [rec["path"] for rec in tracer.flatten()]
        assert paths == ["epoch", "epoch/forward"]
        rec = tracer.flatten()[1]
        assert rec["count"] == 1 and rec["mean"] == rec["total"]

    def test_render_contains_stages(self, tracer):
        with obs.span("epoch"):
            with obs.span("forward"):
                pass
        text = tracer.render()
        assert "epoch" in text and "forward" in text and "count" in text

    def test_reset_requires_closed_spans(self, tracer):
        span = obs.span("open")
        span.__enter__()
        with pytest.raises(RuntimeError):
            tracer.reset()
        span.__exit__(None, None, None)
        tracer.reset()
        assert tracer.flatten() == []

    def test_concurrent_spans_from_two_threads_stay_separate(self, tracer):
        """Regression: every thread starts with no open span, so two threads
        opening spans concurrently must not nest under each other."""
        import threading

        inside = threading.Barrier(2)

        def worker(name: str) -> None:
            with obs.span(name):
                inside.wait()  # both spans provably open at the same time
                with obs.span("inner"):
                    pass

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # each thread's spans hang off the shared root — never off the
        # other thread's open span
        assert set(tracer.root.children) == {"t0", "t1"}
        for name in ("t0", "t1"):
            node = tracer.root.children[name]
            assert node.count == 1
            assert set(node.children) == {"inner"}
            assert node.children["inner"].count == 1

    def test_many_threads_aggregate_counts_consistently(self, tracer):
        import threading

        def worker() -> None:
            for __ in range(50):
                with obs.span("op"):
                    with obs.span("sub"):
                        pass

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # structure is exact; totals tolerate the documented rare lost
        # increment under concurrent += on one shared node
        assert set(tracer.root.children) == {"op"}
        assert set(tracer.root.children["op"].children) == {"sub"}
        assert 190 <= tracer.root.children["op"].count <= 200
        assert 190 <= tracer.root.children["op"].children["sub"].count <= 200
        assert context.current() is None


class TestRuntime:
    def test_helpers_noop_without_session(self):
        assert not obs.enabled()
        obs.count("x")
        obs.gauge_set("g", 1.0)
        obs.observe("h", 1.0)
        with obs.span("s"):
            pass
        with obs.latency("l"):
            pass
        assert obs.current() is None

    def test_session_installs_and_restores(self):
        assert obs.current() is None
        with obs.session() as telemetry:
            assert obs.current() is telemetry
            obs.count("x", 2)
            obs.gauge_set("g", 5.0)
            obs.observe("h", 1.5)
        assert obs.current() is None
        assert telemetry.registry.get("x").value == 2
        assert telemetry.registry.get("g").value == 5.0
        assert telemetry.registry.get("h").count == 1

    def test_nested_sessions_restore_outer(self):
        with obs.session() as outer:
            with obs.session() as inner:
                assert obs.current() is inner
            assert obs.current() is outer

    def test_span_routes_to_installed_tracer(self):
        with obs.session() as telemetry:
            with obs.span("stage"):
                pass
        assert telemetry.tracer.root.children["stage"].count == 1

    def test_latency_records_seconds(self):
        with obs.session() as telemetry:
            with obs.latency("lat", op="q"):
                pass
        hist = telemetry.registry.get("lat", {"op": "q"})
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_install_uninstall(self):
        telemetry = obs.install()
        assert obs.enabled() and obs.current() is telemetry
        assert obs.uninstall() is telemetry
        assert not obs.enabled()
        assert obs.uninstall() is None

    def test_install_existing_session(self):
        mine = Telemetry()
        try:
            assert obs.install(mine) is mine
            assert obs.current() is mine
        finally:
            obs.uninstall()

    def test_snapshot_merges_metrics_and_spans(self):
        with obs.session() as telemetry:
            obs.count("c")
            with obs.span("s"):
                pass
        types = {e["type"] for e in telemetry.snapshot()}
        assert types == {"counter", "span"}
