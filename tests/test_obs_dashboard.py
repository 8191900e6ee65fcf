"""Dashboard renderer: frames from snapshot events, QPS from deltas."""

from __future__ import annotations

from repro import obs
from repro.obs import Dashboard, SLOEngine, availability_slo, render_dashboard
from repro.utils import ManualClock


def serving_events() -> list[dict]:
    registry = obs.MetricsRegistry()
    registry.counter("serving.lookups", {"source": "cache"}).inc(70)
    registry.counter("serving.lookups", {"source": "store"}).inc(25)
    registry.counter("serving.lookups", {"source": "default"}).inc(5)
    registry.counter("cache.hits", {"cache": "serving"}).inc(70)
    registry.counter("cache.misses", {"cache": "serving"}).inc(30)
    registry.counter("serve.flushes", {"trigger": "size"}).inc(3)
    registry.counter("serve.flushes", {"trigger": "deadline"}).inc(2)
    registry.log_histogram("serve.batch_size").observe(8)
    hist = registry.log_histogram("serving.batch_lookup_seconds")
    hist.observe_many([0.001, 0.002, 0.010])
    registry.gauge("breaker.state", {"breaker": "serving-store"}).set(2.0)
    return registry.snapshot()


class TestRenderDashboard:
    def test_frame_sections(self):
        frame = render_dashboard(serving_events(), qps=1234.0,
                                 trace_stats={"kept": 7, "errors": 2,
                                              "finished": 100, "open": 1})
        assert "QPS 1,234" in frame
        assert "requests 100" in frame
        assert "lookup (batch)" in frame
        assert "cache hit rate" in frame and "70.00%" in frame
        assert "cache" in frame and "store" in frame and "default" in frame
        assert "size=3" in frame and "deadline=2" in frame
        assert "breaker serving-store" in frame and "open !" in frame
        assert "kept=7 errors=2" in frame

    def test_slo_table_appended(self):
        engine = SLOEngine([availability_slo("avail", 99.0)])
        engine.record(0.01, ok=True)
        frame = render_dashboard(serving_events(), slo_table=engine.render())
        assert "SLO verdicts" in frame and "PASS" in frame

    def test_empty_registry_degrades_gracefully(self):
        frame = render_dashboard([])
        assert "no serving metrics yet" in frame


class TestDashboardRates:
    def test_qps_from_counter_deltas(self):
        clock = ManualClock()
        with obs.session() as telemetry:
            dashboard = Dashboard(telemetry, clock=clock)
            counter = telemetry.registry.counter("serving.lookups",
                                                 {"source": "cache"})
            counter.inc(100)
            first = dashboard.frame()
            assert "QPS" not in first  # no previous frame to diff against
            counter.inc(50)
            clock.advance(2.0)
            second = dashboard.frame()
            assert "QPS 25" in second  # 50 requests over 2 seconds

    def test_trace_stats_come_from_the_store(self):
        with obs.session() as telemetry:
            with obs.request("req"):
                pass
            frame = Dashboard(telemetry).frame()
            assert "finished=1" in frame
