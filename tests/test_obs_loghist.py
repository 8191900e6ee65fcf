"""LogHistogram: O(1) log-bucket sketch vs ``np.percentile`` as the oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs import LogHistogram, MetricsRegistry


class TestLogHistogram:
    def test_percentiles_within_one_bucket_at_1m_observations(self):
        """Acceptance: loghist p99 matches the exact p99 within one bucket's
        relative error on a 1M-observation latency distribution."""
        rng = np.random.default_rng(0)
        # lognormal ≈ a serving-latency shape: heavy right tail
        values = rng.lognormal(mean=-7.0, sigma=1.0, size=1_000_000)
        hist = LogHistogram("lat")
        hist.observe_many(values)
        assert hist.count == 1_000_000
        for q in (50.0, 95.0, 99.0, 99.9):
            exact = float(np.percentile(values, q))
            approx = hist.percentile(q)
            # upper bucket bound: may overshoot by < growth, never undershoot
            # below the bucket's lower bound
            assert exact / hist.growth <= approx <= exact * hist.growth

    def test_observe_many_matches_looped_observe(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(size=500)
        one = LogHistogram("a")
        many = LogHistogram("b")
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert one.count == many.count
        assert one.sum == pytest.approx(many.sum)
        assert one._buckets == many._buckets
        assert one.percentile(99) == many.percentile(99)

    def test_pending_batches_are_bucketed_like_observe(self):
        # Many small batches stay pending until a read or 64k values; both
        # routes must land every value in observe()'s bucket, and a caller
        # mutating its array afterwards must not change what was observed.
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.lognormal(size=70_000), [0.0, -3.0]])
        one, many = LogHistogram("a"), LogHistogram("b")
        for v in values:
            one.observe(v)
        for batch in np.array_split(values, 350):
            many.observe_many(batch)
            batch[:] = 1.0
        assert len(many._pending) < 350          # the 64k bound folded
        assert one.zeros == many.zeros == 2
        assert one._buckets == many._buckets
        assert not many._pending
        assert one.buckets() == many.buckets()

    def test_merge_equals_single_histogram(self):
        rng = np.random.default_rng(2)
        a_vals, b_vals = rng.lognormal(size=300), rng.lognormal(size=200)
        a, b, both = (LogHistogram(n) for n in "ab0")
        a.observe_many(a_vals)
        b.observe_many(b_vals)
        both.observe_many(np.concatenate([a_vals, b_vals]))
        a.merge(b)
        assert a.count == both.count == 500
        assert a._buckets == both._buckets
        assert a.percentile([50, 99]).tolist() == \
            both.percentile([50, 99]).tolist()

    def test_zero_and_negative_land_in_underflow_bucket(self):
        hist = LogHistogram("z")
        hist.observe_many([0.0, -1.0, 0.5, 2.0])
        assert hist.zeros == 2
        assert hist.count == 4
        # half the mass is <= 0 → p50 reports the underflow bound
        assert hist.percentile(50) <= 0.0
        assert hist.percentile(100) == pytest.approx(2.0, rel=0.1)

    def test_percentile_clamped_to_observed_range(self):
        hist = LogHistogram("c")
        hist.observe(1.0)
        # a single sample: every quantile is that sample, within a bucket
        assert hist.min <= hist.percentile(1) <= hist.max * hist.growth
        assert hist.percentile(99) <= hist.max

    def test_empty_is_nan(self):
        hist = LogHistogram("e")
        assert np.isnan(hist.percentile(99))
        assert np.isnan(hist.mean)

    def test_snapshot_shape(self):
        hist = LogHistogram("s")
        hist.observe_many([0.001, 0.002, 0.004])
        snap = hist.snapshot()
        assert snap["type"] == "loghist"
        assert snap["count"] == 3
        assert snap["growth"] == hist.growth
        for key in ("p50", "p95", "p99", "p999", "buckets"):
            assert key in snap
        les = [le for le, __ in snap["buckets"]]
        counts = [n for __, n in snap["buckets"]]
        assert les == sorted(les)
        assert counts == sorted(counts)      # cumulative
        assert counts[-1] == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected_before_any_state_change(self, bad):
        hist = LogHistogram("lat", (("op", "get"),))
        hist.observe_many([0.0, 0.5, 2.0])
        before = (hist.count, hist.sum, hist.zeros, dict(hist._buckets),
                  hist.min, hist.max)
        with pytest.raises(ValueError, match="'lat'.*non-finite"):
            hist.observe(bad)
        with pytest.raises(ValueError, match="'lat'.*non-finite"):
            hist.observe_many([1.0, bad, 3.0])
        assert (hist.count, hist.sum, hist.zeros, dict(hist._buckets),
                hist.min, hist.max) == before


class TestRegistryIntegration:
    def test_log_histogram_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.log_histogram("lat", {"op": "get"})
        b = registry.log_histogram("lat", {"op": "get"})
        assert a is b
        assert registry.log_histogram("lat", {"op": "put"}) is not a

    def test_observe_and_latency_share_one_instrument(self):
        with obs.session() as telemetry:
            obs.observe("op_seconds", 0.5, op="get")
            obs.observe_many("op_seconds", [0.25, 1.0], op="get")
            with obs.latency("op_seconds", op="get"):
                pass
        hist = telemetry.registry.get("op_seconds", {"op": "get"})
        assert isinstance(hist, LogHistogram)
        assert hist.count == 4
        assert [e["type"] for e in telemetry.snapshot()] == ["loghist"]

    def test_snapshot_includes_loghist_events(self):
        registry = MetricsRegistry()
        registry.log_histogram("lat").observe_many([0.01, 0.02])
        kinds = {e["type"] for e in registry.snapshot()}
        assert "loghist" in kinds
