"""Serving-path degradation: retries, circuit breaker, fallback chain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.loadtest import ChaosStore, ServingFaultSchedule
from repro.lookalike import EmbeddingStore, ServingProxy, ServingResilience
from repro.resilience import (CircuitBreaker, CircuitOpenError,
                              DeadlineExceeded, RetryPolicy,
                              StoreUnavailableError)
from repro.utils import ManualClock as FakeClock


def fast_retry(**kwargs) -> RetryPolicy:
    clock = FakeClock()
    defaults = dict(max_attempts=3, backoff_seconds=0.01, clock=clock,
                    sleep=clock.sleep,
                    retry_on=(ConnectionError, TimeoutError, OSError))
    defaults.update(kwargs)
    return RetryPolicy(**defaults)


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def sometimes():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("flap")
            return "ok"

        assert fast_retry().call(sometimes) == "ok"
        assert calls["n"] == 3

    def test_exhaustion_reraises_last_error(self):
        def always():
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            fast_retry(max_attempts=2).call(always)

    def test_non_transient_errors_propagate_immediately(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise KeyError("bug, not outage")

        with pytest.raises(KeyError):
            fast_retry().call(boom)
        assert calls["n"] == 1

    def test_deadline_exceeded(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=10, backoff_seconds=0.5,
                             deadline_seconds=1.0, clock=clock,
                             sleep=clock.sleep, retry_on=(ConnectionError,))

        def always():
            clock.now += 0.3  # each attempt takes 300ms
            raise ConnectionError("slow and down")

        with pytest.raises(DeadlineExceeded):
            policy.call(always)
        assert clock.now <= 2.0  # gave up near the budget, not after 10 tries

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_seconds=10,
                                 clock=clock)
        for __ in range(3):
            with pytest.raises(ConnectionError):
                breaker.call(lambda: (_ for _ in ()).throw(
                    ConnectionError("down")))
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.now += 11
        assert breaker.allow()  # cool-down elapsed -> half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10,
                                 clock=clock)
        breaker.record_failure()
        clock.now += 11
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        assert not breaker.allow()  # cool-down restarted

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_base_exception_in_probe_releases_the_slot(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10,
                                 clock=clock)
        breaker.record_failure()
        clock.now += 11

        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            breaker.call(interrupted)
        # the interrupted probe counts as a failure, not a wedged slot:
        # the breaker re-opens and a later cool-down admits a fresh probe
        assert breaker.state == CircuitBreaker.OPEN
        clock.now += 11
        assert breaker.allow()

    def test_stale_half_open_probe_is_reclaimed(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10,
                                 clock=clock)
        breaker.record_failure()
        clock.now += 11
        assert breaker.allow()       # direct allow() caller takes the probe
        assert not breaker.allow()   # single-probe rule holds...
        clock.now += 11              # ...but the caller never records anything
        assert breaker.allow()       # full cool-down -> slot reclaimed
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED


def _filled_store(n=40, dim=4, seed=0):
    store = EmbeddingStore(dim=dim)
    ids = [f"u{i}" for i in range(n)]
    store.put_many(ids, np.random.default_rng(seed).normal(size=(n, dim)))
    return store, ids


def _resilience(**kwargs) -> ServingResilience:
    defaults = dict(retry=fast_retry(),
                    breaker=CircuitBreaker(failure_threshold=5,
                                           reset_seconds=5.0,
                                           clock=FakeClock()))
    defaults.update(kwargs)
    return ServingResilience(**defaults)


class TestServingDegradation:
    def test_legacy_behavior_unchanged_without_resilience(self):
        store, __ = _filled_store()
        proxy = ServingProxy(store, cache_capacity=4)
        assert proxy.get_embedding("ghost") is None
        with pytest.raises(KeyError):
            proxy.get_embeddings_batch(["ghost"])

    def test_twenty_percent_failure_never_returns_none(self):
        store, ids = _filled_store()
        chaos = ChaosStore(store, ServingFaultSchedule(failure_rate=0.2),
                           rng=1)
        proxy = ServingProxy(chaos, cache_capacity=8,
                             resilience=_resilience())
        vectors = [proxy.get_embedding(uid) for uid in ids * 5]
        assert all(v is not None for v in vectors)
        assert chaos.injected_failures > 0
        assert set(proxy.source_counts) <= {"cache", "store", "stale",
                                            "inferred", "default"}

    def test_stale_snapshot_served_during_outage(self):
        store, ids = _filled_store(n=3)
        chaos = ChaosStore(store)
        proxy = ServingProxy(chaos, cache_capacity=1,
                             resilience=_resilience())
        expected = proxy.get_embedding(ids[0]).copy()  # warm the snapshot
        proxy.get_embedding(ids[1])  # evict ids[0] from the 1-entry cache
        chaos.fail_next(100)  # hard outage outlasting every retry
        out = proxy.get_embedding(ids[0])
        np.testing.assert_array_equal(out, expected)
        assert proxy.source_counts["stale"] == 1
        assert proxy.store_errors >= 1

    def test_default_embedding_is_last_resort(self):
        store, __ = _filled_store()
        prior = ServingResilience.from_store_prior(store)
        proxy = ServingProxy(store, resilience=_resilience(
            default_embedding=prior.default_embedding))
        __, matrix = store.as_matrix()
        out = proxy.get_embedding("ghost")
        np.testing.assert_allclose(out, matrix.mean(axis=0))
        assert proxy.source_counts["default"] == 1

    def test_breaker_trips_under_hard_outage(self):
        store, ids = _filled_store()
        chaos = ChaosStore(store, ServingFaultSchedule(failure_rate=1.0))
        resilience = _resilience(
            breaker=CircuitBreaker(failure_threshold=3, reset_seconds=1e9,
                                   clock=FakeClock()))
        proxy = ServingProxy(chaos, resilience=resilience)
        for uid in ids[:5]:
            proxy.get_embedding(uid)  # all fall through to default
        assert resilience.breaker.state == CircuitBreaker.OPEN
        # once open, lookups skip the store entirely: no new injected errors
        before = chaos.injected_failures
        proxy.get_embedding(ids[6])
        assert chaos.injected_failures == before
        assert proxy.source_counts["default"] == 6

    def test_inference_fallback_populates_store(self):
        store, __ = _filled_store(n=0)
        proxy = ServingProxy(store, infer_fn=lambda uid: np.full(4, 0.5),
                             resilience=_resilience())
        out = proxy.get_embedding("fresh")
        np.testing.assert_array_equal(out, np.full(4, 0.5))
        assert proxy.source_counts["inferred"] == 1
        assert "fresh" in store  # write-back

    def test_get_embeddings_default_row_instead_of_raise(self):
        store, ids = _filled_store(n=2)
        proxy = ServingProxy(store)
        out = proxy.get_embeddings_batch(ids + ["ghost"],
                                         default=np.zeros(4))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out[2], np.zeros(4))
        assert proxy.source_counts["miss"] == 1

    def test_masked_lookup_flags_unresolved(self):
        store, ids = _filled_store(n=2)
        proxy = ServingProxy(store)
        matrix, mask = proxy.get_embeddings_masked_batch(ids + ["ghost"])
        assert matrix.shape == (3, 4)
        assert mask.tolist() == [True, True, False]
        np.testing.assert_array_equal(matrix[2], np.zeros(4))

    def test_masked_lookup_resilient_defaults_unresolved(self):
        store, ids = _filled_store(n=2)
        proxy = ServingProxy(store, resilience=_resilience())
        matrix, mask = proxy.get_embeddings_masked_batch(ids + ["ghost"])
        assert mask.tolist() == [True, True, False]
        assert matrix[2] is not None and matrix.shape == (3, 4)
