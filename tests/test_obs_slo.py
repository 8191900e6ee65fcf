"""SLO engine: objective parsing, scripted-timeline verdicts, budget burn."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import (Objective, SLOEngine, availability_slo, latency_slo,
                       parse_objective)
from repro.utils import ManualClock


def make_engine(*objectives, **kwargs) -> tuple[SLOEngine, ManualClock]:
    clock = ManualClock()
    return SLOEngine(list(objectives), clock=clock, **kwargs), clock


class TestObjective:
    def test_latency_helper(self):
        obj = latency_slo("p99", threshold_ms=50.0)
        assert obj.kind == "latency"
        assert obj.target == pytest.approx(0.99)
        assert obj.threshold_seconds == pytest.approx(0.05)
        assert obj.describe() == "p99 latency <= 50ms"

    def test_availability_helper(self):
        obj = availability_slo("avail", 99.9)
        assert obj.target == pytest.approx(0.999)
        assert obj.describe() == "availability >= 99.9%"

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Objective("x", "throughput", 0.99)
        with pytest.raises(ValueError, match="target"):
            Objective("x", "availability", 1.5)
        with pytest.raises(ValueError, match="threshold"):
            Objective("x", "latency", 0.99, threshold_seconds=None)
        with pytest.raises(ValueError, match="window"):
            Objective("x", "availability", 0.99, window_seconds=0)

    @pytest.mark.parametrize("field", ["window_seconds", "threshold_seconds"])
    def test_nan_rejected(self, field):
        # ``nan <= 0`` is False: the check must be ``not x > 0``
        with pytest.raises(ValueError):
            Objective("x", "latency", 0.99,
                      **{"threshold_seconds": 0.05, field: float("nan")})

    def test_infinite_window_is_all_time(self):
        objective = Objective("x", "availability", 0.99,
                              window_seconds=float("inf"))
        engine = SLOEngine([objective], clock=lambda: 1e9)
        engine.record(0.0, ok=True, ts=0.0)
        assert engine.evaluate()[0].total == 1

    @pytest.mark.parametrize("spec,kind,target,threshold", [
        ("p99 latency <= 50ms", "latency", 0.99, 0.05),
        ("p99.9 latency <= 1s", "latency", 0.999, 1.0),
        ("P50 <= 500us", "latency", 0.50, 5e-4),
        ("availability >= 99.9%", "availability", 0.999, None),
        ("  Availability >= 95 %  ", "availability", 0.95, None),
    ])
    def test_parse_objective(self, spec, kind, target, threshold):
        obj = parse_objective(spec)
        assert obj.kind == kind
        assert obj.target == pytest.approx(target)
        if threshold is not None:
            assert obj.threshold_seconds == pytest.approx(threshold)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_objective("latency under 3 parsecs")


class TestScriptedTimeline:
    """The acceptance scenario: scripted latencies on an injectable clock."""

    def test_verdict_and_burn_rate(self):
        engine, clock = make_engine(
            latency_slo("p90-lat", threshold_ms=100.0, quantile=90.0,
                        window_seconds=60.0))
        # 20 requests: 4 over the 100ms bound → good fraction 0.8 < 0.9
        for i in range(20):
            clock.advance(1.0)
            engine.record(0.5 if i % 5 == 0 else 0.01)
        (status,) = engine.evaluate()
        assert not status.passed
        assert status.total == 20 and status.bad == 4
        # burn = bad-rate / allowed-bad-rate = 0.2 / 0.1
        assert status.burn_rate == pytest.approx(2.0)
        # budget: allowed 2 bad, saw 4 → 1 - 4/2 = -1
        assert status.budget_remaining == pytest.approx(-1.0)
        assert status.observed == pytest.approx(
            float(np.percentile([0.5 if i % 5 == 0 else 0.01
                                 for i in range(20)], 90.0)))
        assert "FAIL" in str(status)

    def test_rolling_window_forgets_the_bad_minute(self):
        engine, clock = make_engine(
            availability_slo("avail", 99.0, window_seconds=30.0))
        for __ in range(10):  # a bad burst at t≈0
            clock.advance(0.1)
            engine.record(0.01, ok=False)
        assert not engine.evaluate()[0].passed
        clock.advance(60.0)  # the burst ages out of the window
        for __ in range(10):
            clock.advance(0.1)
            engine.record(0.01, ok=True)
        status = engine.evaluate()[0]
        assert status.passed
        assert status.total == 10 and status.bad == 0
        assert status.budget_remaining == pytest.approx(1.0)
        assert status.burn_rate == pytest.approx(0.0)

    def test_failed_requests_count_against_latency_slo(self):
        engine, clock = make_engine(
            latency_slo("p50", threshold_ms=100.0, quantile=50.0))
        engine.record(0.01, ok=True)
        engine.record(0.01, ok=False)  # fast but failed → still bad
        engine.record(0.01, ok=False)
        status = engine.evaluate()[0]
        assert status.bad == 2
        assert not status.passed

    def test_empty_window_passes_with_full_budget(self):
        engine, clock = make_engine(availability_slo("avail", 99.9),
                                    latency_slo("lat", threshold_ms=50.0))
        for status in engine.evaluate():
            assert status.passed and status.total == 0
            assert status.budget_remaining == 1.0
            assert status.burn_rate == 0.0
            assert np.isnan(status.observed)
        # nothing observed renders as "-" in both rows, never "nanms"
        rows = {line.split()[0]: line.split()
                for line in engine.render().splitlines()[3:]}
        assert rows["avail"][-3] == "-"
        assert rows["lat"][-3] == "-"

    def test_all_failed_latency_window_renders_dash(self):
        engine, clock = make_engine(latency_slo("lat", threshold_ms=50.0))
        engine.record(0.01, ok=False)
        assert engine.evaluate()[0].observed == float("inf")
        row = engine.render().splitlines()[3].split()
        assert row[0] == "lat" and row[-3] == "-"

    def test_multiple_objectives_share_one_sample_stream(self):
        engine, clock = make_engine(
            latency_slo("lat", threshold_ms=50.0, quantile=50.0),
            availability_slo("avail", 90.0))
        for __ in range(10):
            clock.advance(0.5)
            engine.record(0.2, ok=True)  # slow but successful
        lat, avail = engine.evaluate()
        assert not lat.passed       # every request over 50ms
        assert avail.passed         # but all of them succeeded
        assert not engine.all_passing

    def test_render_contains_verdicts(self):
        engine, clock = make_engine(availability_slo("avail", 99.0))
        engine.record(0.01, ok=True)
        text = engine.render()
        assert "SLO verdicts" in text
        assert "PASS" in text and "avail" in text
