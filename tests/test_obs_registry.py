"""repro.obs.registry: counters, gauges, histograms, and the registry.

The log-bucket sketch itself is covered in tests/test_obs_loghist.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import Counter, Gauge, LogHistogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)

    def test_snapshot(self):
        c = Counter("hits", (("cache", "serving"),))
        c.inc(4)
        snap = c.snapshot()
        assert snap == {"type": "counter", "name": "hits",
                        "labels": {"cache": "serving"}, "value": 4.0}


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        assert np.isnan(g.value)
        g.set(1.0)
        g.set(7.0)
        assert g.value == 7.0
        assert g.writes == 2


class TestHistogram:
    def test_exact_moments(self):
        h = LogHistogram("h")
        h.observe_many([1.0, 2.0])
        h.observe(3.0)
        h.observe(10.0)
        # count/sum/mean/min/max are exact, not bucketed
        assert h.count == 4
        assert h.sum == 16.0
        assert h.mean == 4.0
        assert h.min == 1.0 and h.max == 10.0

    def test_percentiles_match_numpy_under_capacity(self):
        rng = np.random.default_rng(3)
        values = rng.gamma(2.0, 1.5, size=500)
        h = LogHistogram("lat")
        for v in values:
            h.observe(v)
        # within one bucket of the exact value: never below the bucket's
        # lower bound, never more than one bucket width above
        for q in (50, 95, 99):
            exact = float(np.percentile(values, q))
            assert exact / h.growth <= h.percentile(q) <= exact * h.growth
        np.testing.assert_array_equal(
            h.percentile([50, 95, 99]),
            [h.percentile(q) for q in (50, 95, 99)])

    def test_empty_percentile_is_nan(self):
        h = LogHistogram("h")
        assert np.isnan(h.percentile(50))
        assert np.isnan(h.percentile([50, 95])).all()
        assert np.isnan(h.mean)

    def test_snapshot_keys(self):
        h = LogHistogram("h")
        h.observe(1.0)
        snap = h.snapshot()
        assert {"type", "name", "labels", "count", "sum", "mean", "min",
                "max", "p50", "p95", "p99", "p999", "growth",
                "buckets"} <= set(snap)
        assert snap["growth"] == h.growth == 1.1


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.counter("c", {"a": 1}) is not reg.counter("c", {"a": 2})

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("c", {"a": 1, "b": 2}) is reg.counter("c", {"b": 2, "a": 1})

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_get_never_creates(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None
        assert len(reg) == 0

    def test_snapshot_deterministic_order(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.gauge("a", {"x": 1}).set(3)
        names = [(e["name"], tuple(sorted(e["labels"].items())))
                 for e in reg.snapshot()]
        assert names == sorted(names)

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert len(reg) == 0
