"""Overload safety: admission control, shedding, deadlines, clean shutdown."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.loadtest import ChaosStore
from repro.lookalike import (EmbeddingStore, ServingProxy, ServingResilience)
from repro.obs.slo import availability_slo, parse_objective
from repro.resilience import (CircuitBreaker, Deadline, RetryPolicy,
                              deadline_scope)
from repro.serve import (AdaptiveThrottle, AdmissionError, MicroBatcher,
                         ShutdownError)
from repro.utils import ManualClock as FakeClock

DIM = 4


def make_store(keys, seed=0):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim=DIM)
    store.put_many(list(keys), rng.normal(size=(len(keys), DIM)))
    return store


def echo_flush(keys):
    return [f"v:{k}" for k in keys]


def clear_cache(proxy):
    """Fresh serving cache (LRUCache has no clear(); replace it)."""
    proxy.cache = type(proxy.cache)(proxy.cache.capacity, name="serving")


class TestBoundedQueue:
    def test_reject_policy_fails_the_new_arrival(self):
        clock = FakeClock()
        batcher = MicroBatcher(echo_flush, max_batch=10, clock=clock,
                               max_queue=2, policy="reject")
        a, b = batcher.submit("a"), batcher.submit("b")
        c = batcher.submit("c")
        assert c.done and c.shed
        with pytest.raises(AdmissionError):
            c.result()
        assert not a.done and not b.done  # queued requests untouched
        assert batcher.shed_counts == {"queue_full": 1}
        assert batcher.shed_rate == pytest.approx(1 / 3)
        assert batcher.flush() == 2
        assert a.result() == "v:a" and b.result() == "v:b"

    def test_drop_oldest_policy_evicts_in_favour_of_the_new(self):
        clock = FakeClock()
        batcher = MicroBatcher(echo_flush, max_batch=10, clock=clock,
                               max_queue=2, policy="drop_oldest")
        a, b = batcher.submit("a"), batcher.submit("b")
        c = batcher.submit("c")
        assert a.done and a.shed       # stalest request paid the price
        assert not c.done              # newest got its slot
        batcher.flush()
        assert b.result() == "v:b" and c.result() == "v:c"
        assert batcher.shed_counts == {"queue_full": 1}

    def test_drop_oldest_with_empty_queue_sheds_the_arrival(self):
        # A throttle shed can fire while the queue is empty; drop_oldest has
        # no victim to evict, so the new arrival must be shed (regression:
        # this used to IndexError out of submit()).
        clock = FakeClock()
        throttle = AdaptiveThrottle(0.05, min_samples=1)
        throttle.record(10.0)  # latency signal live on the first decision
        batcher = MicroBatcher(echo_flush, max_batch=10, clock=clock,
                               policy="drop_oldest", throttle=throttle)
        handle = batcher.submit("a")
        assert handle.done and handle.shed
        with pytest.raises(AdmissionError):
            handle.result()
        assert batcher.shed_counts == {"throttle": 1}
        assert len(batcher) == 0

    def test_degrade_fn_failure_still_resolves_the_handle(self):
        def broken_prior(key):
            raise KeyError(key)

        batcher = MicroBatcher(echo_flush, max_batch=10, clock=FakeClock(),
                               max_queue=1, policy="degrade",
                               degrade_fn=broken_prior)
        a = batcher.submit("a")
        b = batcher.submit("b")
        assert b.done and b.shed   # failed, not hung
        with pytest.raises(AdmissionError):
            b.result()
        assert batcher.shed_counts == {"queue_full": 1}
        batcher.flush()
        assert a.result() == "v:a"  # queued request unaffected

    def test_degrade_policy_answers_from_the_prior(self):
        clock = FakeClock()
        prior = np.full(DIM, 7.0)
        batcher = MicroBatcher(echo_flush, max_batch=10, clock=clock,
                               max_queue=1, policy="degrade",
                               degrade_fn=lambda key: prior)
        batcher.submit("a")
        b = batcher.submit("b")
        assert b.done and not b.shed   # resolved, not errored
        np.testing.assert_array_equal(b.result(), prior)
        assert batcher.shed_counts == {"queue_full": 1}

    def test_unbounded_legacy_default_never_sheds(self):
        batcher = MicroBatcher(echo_flush, max_batch=1000, clock=FakeClock())
        handles = [batcher.submit(i) for i in range(500)]
        assert batcher.shed == 0
        batcher.flush()
        assert all(h.result() == f"v:{h.key}" for h in handles)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(echo_flush, max_queue=0)
        with pytest.raises(ValueError):
            MicroBatcher(echo_flush, policy="panic")
        with pytest.raises(ValueError):
            MicroBatcher(echo_flush, policy="degrade")  # needs degrade_fn


class TestAdaptiveThrottle:
    def test_from_objective_takes_threshold_and_quantile(self):
        objective = parse_objective("p95 latency <= 20ms")
        throttle = AdaptiveThrottle.from_objective(objective)
        assert throttle.threshold_seconds == pytest.approx(0.02)
        assert throttle.quantile == pytest.approx(95.0)

    def test_from_objective_rejects_availability(self):
        with pytest.raises(ValueError):
            AdaptiveThrottle.from_objective(availability_slo("a", 99.0))

    def test_cold_throttle_never_sheds_on_latency(self):
        throttle = AdaptiveThrottle(0.05, min_samples=16)
        throttle.record(10.0)  # one terrible sample, below min_samples
        assert not throttle.should_shed(queue_depth=0)

    def test_sheds_on_sojourn_tail_then_recovers_as_window_drains(self):
        throttle = AdaptiveThrottle(0.05, min_samples=4, window=64)
        for __ in range(8):
            throttle.record(0.2)   # sojourns way past the 50ms bound
        sheds = sum(throttle.should_shed(0) for __ in range(20))
        assert sheds >= 4          # overload observed -> shedding
        assert sheds < 20          # window drained -> probing resumed
        for __ in range(8):
            throttle.record(0.001)
        # the few leftover slow samples drain one-per-shed, then it stays open
        post = [throttle.should_shed(0) for __ in range(6)]
        assert post[-2:] == [False, False]

    def test_sheds_on_predicted_queue_wait(self):
        throttle = AdaptiveThrottle(0.05, min_samples=100)
        throttle.record_flush(0.08, batch_size=8)  # 10ms per request
        assert throttle.predicted_wait(10) == pytest.approx(0.1)
        assert throttle.should_shed(queue_depth=10)   # 100ms wait > 50ms SLO
        assert not throttle.should_shed(queue_depth=2)

    def test_concurrent_feed_and_decide_are_serialized(self):
        # record/record_flush run after a flush, outside the batcher lock,
        # while should_shed iterates the same windows from submitting
        # threads; without internal locking this raised "deque mutated
        # during iteration".
        throttle = AdaptiveThrottle(0.05, min_samples=1, window=512)
        errors: list[BaseException] = []

        def feed():
            try:
                for i in range(3000):
                    throttle.record(0.0001 * (i % 7))
                    throttle.record_flush(0.001, batch_size=4)
            except BaseException as exc:  # pragma: no cover - regression
                errors.append(exc)

        def decide():
            try:
                for __ in range(3000):
                    throttle.should_shed(queue_depth=3)
            except BaseException as exc:  # pragma: no cover - regression
                errors.append(exc)

        threads = ([threading.Thread(target=feed) for __ in range(2)]
                   + [threading.Thread(target=decide) for __ in range(2)])
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert throttle.decisions == 6000

    def test_batcher_feeds_and_obeys_the_throttle(self):
        clock = FakeClock()
        throttle = AdaptiveThrottle(0.05, min_samples=2, window=16)

        def slow_flush(keys):
            clock.advance(0.2)     # every flush blows the 50ms budget
            return [f"v:{k}" for k in keys]

        batcher = MicroBatcher(slow_flush, max_batch=2, clock=clock,
                               throttle=throttle)
        batcher.submit("a"), batcher.submit("b")   # size flush: 2 sojourns
        assert throttle.observed_quantile > 0.05
        shed = batcher.submit("c")
        assert shed.done and shed.shed
        assert batcher.shed_counts == {"throttle": 1}

    @pytest.mark.parametrize("bad_result", [
        lambda keys: keys[:-1],             # wrong length
        lambda keys: (k for k in keys),     # no length at all
    ], ids=["short", "unsized"])
    def test_a_rejected_flush_result_still_feeds_the_throttle(self,
                                                              bad_result):
        clock = FakeClock()
        throttle = AdaptiveThrottle(0.05, min_samples=2, window=16)

        def slow_bad_flush(keys):
            clock.advance(0.2)
            return bad_result(keys)

        batcher = MicroBatcher(slow_bad_flush, max_batch=2, clock=clock,
                               throttle=throttle)
        a, b = batcher.submit("a"), batcher.submit("b")
        for handle in (a, b):
            with pytest.raises(ValueError, match="values for 2 keys"):
                handle.result(timeout=0.1)
        # the flush cost 200ms whatever it returned: service time and both
        # sojourns are recorded, so the next arrival is shed
        assert throttle.observed_quantile > 0.05
        assert batcher.submit("c").shed


class TestShutdown:
    def test_close_fails_pending_instead_of_hanging(self):
        batcher = MicroBatcher(echo_flush, max_batch=10, clock=FakeClock())
        a, b = batcher.submit("a"), batcher.submit("b")
        assert batcher.close() == 2
        for handle in (a, b):
            with pytest.raises(ShutdownError):
                handle.result(timeout=0.1)

    def test_close_drain_flushes_normally(self):
        batcher = MicroBatcher(echo_flush, max_batch=10, clock=FakeClock())
        a = batcher.submit("a")
        assert batcher.close(drain=True) == 1
        assert a.result() == "v:a"
        assert batcher.flush_reasons["close"] == 1

    def test_submit_after_close_resolves_with_shutdown_error(self):
        batcher = MicroBatcher(echo_flush, clock=FakeClock())
        batcher.close()
        late = batcher.submit("late")
        assert late.done
        with pytest.raises(ShutdownError):
            late.result()
        assert batcher.shed_counts == {"closed": 1}

    def test_degrade_policy_does_not_mask_shutdown(self):
        batcher = MicroBatcher(echo_flush, clock=FakeClock(),
                               max_queue=4, policy="degrade",
                               degrade_fn=lambda key: "prior")
        batcher.close()
        with pytest.raises(ShutdownError):
            batcher.submit("late").result()

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(echo_flush, clock=FakeClock())
        batcher.submit("a")
        assert batcher.close() == 1
        assert batcher.close() == 0

    def test_context_manager_drains_on_clean_exit(self):
        with MicroBatcher(echo_flush, max_batch=10,
                          clock=FakeClock()) as batcher:
            handle = batcher.submit("a")
        assert handle.result() == "v:a"
        assert batcher.closed

    def test_context_manager_fails_pending_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with MicroBatcher(echo_flush, max_batch=10,
                              clock=FakeClock()) as batcher:
                handle = batcher.submit("a")
                raise RuntimeError("boom")
        with pytest.raises(ShutdownError):
            handle.result(timeout=0.1)


class TestBatcherDeadlines:
    def _stack(self, clock, **batcher_kwargs):
        """store -> chaos wrapper -> resilient proxy -> batcher, one clock."""
        store = make_store(range(8))
        chaos = ChaosStore(store)
        resilience = ServingResilience.from_store_prior(
            store,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.01,
                              clock=clock, sleep=clock.sleep,
                              retry_on=(ConnectionError, TimeoutError,
                                        OSError)),
            breaker=CircuitBreaker(failure_threshold=50, reset_seconds=60.0,
                                   clock=clock))
        proxy = ServingProxy(chaos, cache_capacity=100, resilience=resilience)
        batcher = MicroBatcher(proxy.get_embeddings_batch, max_batch=8,
                               clock=clock, **batcher_kwargs)
        return store, chaos, proxy, batcher

    def test_expired_requests_short_circuit_to_degraded_tiers(self):
        clock = FakeClock()
        store, chaos, proxy, batcher = self._stack(clock)
        proxy.lookup_batch([0, 1])        # warm the stale snapshot
        clear_cache(proxy)
        proxy.source_counts.clear()

        stale_handle = batcher.submit(0, deadline=Deadline(0.01, clock=clock))
        live_handle = batcher.submit(1, deadline=Deadline(60.0, clock=clock))
        clock.advance(0.05)               # first budget lapses in the queue
        batcher.flush()

        assert batcher.expired_flushed == 1
        assert proxy.deadline_skips == 1  # lapsed sub-batch skipped the store
        np.testing.assert_array_equal(stale_handle.result(), store.get(0))
        np.testing.assert_array_equal(live_handle.result(), store.get(1))
        assert proxy.source_counts["stale"] == 1
        assert proxy.source_counts["store"] == 1

    def test_interrupted_live_flush_does_not_strand_the_lapsed_batch(self):
        clock = FakeClock()

        def flush_fn(keys):
            if "live" in keys:
                raise KeyboardInterrupt
            return [f"v:{k}" for k in keys]

        batcher = MicroBatcher(flush_fn, max_batch=8, clock=clock)
        lapsed = batcher.submit("late", deadline=Deadline(0.01, clock=clock))
        live = batcher.submit("live", deadline=Deadline(60.0, clock=clock))
        clock.advance(0.05)
        with pytest.raises(KeyboardInterrupt):
            batcher.flush()
        assert lapsed.result(timeout=0.1) == "v:late"
        with pytest.raises(KeyboardInterrupt):
            live.result(timeout=0.1)

    def test_live_batch_runs_under_tightest_admitted_budget(self):
        clock = FakeClock()
        seen = []

        def spy_flush(keys):
            from repro.resilience import current_deadline
            seen.append(current_deadline())
            return [f"v:{k}" for k in keys]

        batcher = MicroBatcher(spy_flush, max_batch=8, clock=clock)
        tight = Deadline(0.05, clock=clock)
        batcher.submit("a", deadline=Deadline(60.0, clock=clock))
        batcher.submit("b", deadline=tight)
        batcher.submit("c")               # no deadline at all
        batcher.flush()
        assert seen == [tight]

    def test_no_deadlines_means_no_scope(self):
        clock = FakeClock()
        seen = []

        def spy_flush(keys):
            from repro.resilience import current_deadline
            seen.append(current_deadline())
            return keys

        batcher = MicroBatcher(spy_flush, max_batch=8, clock=clock)
        batcher.submit("a")
        batcher.flush()
        assert seen == [None]

    def test_expired_budget_bounds_retries_in_the_flush(self):
        """A batch flushed under an expired scope must not spend retry
        backoff on a dead request — the proxy falls straight through."""
        clock = FakeClock()
        store, chaos, proxy, batcher = self._stack(clock)
        proxy.lookup_batch([2])
        clear_cache(proxy)
        chaos.schedule.failure_rate = 1.0  # store would fail; skip it

        handle = batcher.submit(2, deadline=Deadline(0.0, clock=clock))
        batcher.flush()
        np.testing.assert_array_equal(handle.result(), store.get(2))
        assert proxy.store_errors == 0    # the store was never attempted
        assert clock.sleeps == []         # and no retry backoff was burned


class TestCorruptionRouting:
    def _proxy(self, chaos, store, **kwargs):
        clock = FakeClock()
        resilience = ServingResilience.from_store_prior(
            store,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01,
                              clock=clock, sleep=clock.sleep,
                              retry_on=(ConnectionError, TimeoutError,
                                        OSError)),
            breaker=CircuitBreaker(failure_threshold=50, reset_seconds=60.0,
                                   clock=clock))
        return ServingProxy(chaos, resilience=resilience, **kwargs)

    def test_scalar_corrupt_row_never_served(self):
        store = make_store(["u"])
        chaos = ChaosStore(store)
        proxy = self._proxy(chaos, store)
        proxy.lookup("u")                 # warm stale snapshot
        clear_cache(proxy)
        chaos.corrupt_next()
        vec, source = proxy.lookup("u")
        assert source == "stale"
        assert np.isfinite(vec).all()
        np.testing.assert_array_equal(vec, store.get("u"))
        assert proxy.corruptions == 1
        assert proxy.source_counts["corrupt"] == 1

    def test_batch_isolates_corrupt_rows_and_serves_the_rest(self):
        store = make_store(["a", "b", "c"])

        class OneRowCorrupt:
            """Store whose batch reads corrupt exactly one row (NaN)."""
            dim = DIM

            def get_batch(self, keys):
                matrix, found = store.get_batch(keys)
                matrix = matrix.copy()
                matrix[1] = np.nan
                return matrix, found

        proxy = self._proxy(OneRowCorrupt(), store)
        matrix, sources = proxy.lookup_batch(["a", "b", "c"])
        assert list(sources) == ["store", "default", "store"]
        assert np.isfinite(matrix).all()
        np.testing.assert_array_equal(matrix[0], store.get("a"))
        np.testing.assert_array_equal(matrix[2], store.get("c"))
        assert proxy.corruptions == 1
        assert proxy.source_counts["corrupt"] == 1

    def test_wrong_dim_batch_rerouted_entirely(self):
        store = make_store(["a", "b"])

        class WrongDim:
            """Store whose batch reads turn one column too wide on demand."""
            dim = DIM
            corrupt = False

            def get_batch(self, keys):
                matrix, found = store.get_batch(keys)
                if self.corrupt:
                    return np.zeros((len(keys), DIM + 1)), found
                return matrix, found

        wrong = WrongDim()
        proxy = self._proxy(wrong, store)
        proxy.lookup_batch(["a", "b"])    # warm stale snapshots
        clear_cache(proxy)
        wrong.corrupt = True
        matrix, sources = proxy.lookup_batch(["a", "b"])
        assert list(sources) == ["stale", "stale"]
        assert matrix.shape == (2, DIM)   # the bad shape never escaped
        assert proxy.source_counts["corrupt"] == 2

    def test_scalar_and_batch_corruption_counts_agree(self):
        """The check oracle compares source_counts across the two paths —
        corruption tallies must stay symmetric."""
        def run(batched: bool):
            store = make_store(["a", "b"])
            chaos = ChaosStore(store)
            proxy = self._proxy(chaos, store)
            (proxy.lookup_batch(["a", "b"]) if batched else
             [proxy.lookup(k) for k in ("a", "b")])
            clear_cache(proxy)
            chaos.corrupt_next(2)
            (proxy.lookup_batch(["a", "b"]) if batched else
             [proxy.lookup(k) for k in ("a", "b")])
            return proxy.source_counts

        assert run(batched=False) == run(batched=True)


class TestMaskedBatchDegradation:
    """Satellite: get_embeddings_masked_batch under breaker-open and
    expired-deadline conditions — every degraded tier reachable and counted."""

    def _stack(self, clock):
        store = make_store(["warm", "staled"])
        chaos = ChaosStore(store)
        resilience = ServingResilience.from_store_prior(
            store,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01,
                              clock=clock, sleep=clock.sleep,
                              retry_on=(ConnectionError, TimeoutError,
                                        OSError)),
            breaker=CircuitBreaker(failure_threshold=1, reset_seconds=60.0,
                                   clock=clock))
        proxy = ServingProxy(
            chaos, cache_capacity=1,
            infer_fn=lambda uid: (np.full(DIM, 0.5) if uid == "fresh"
                                  else None),
            resilience=resilience)
        return store, chaos, proxy

    def test_mid_batch_breaker_open_reaches_every_tier(self):
        clock = FakeClock()
        store, chaos, proxy = self._stack(clock)
        proxy.lookup_batch(["warm", "staled"])     # snapshot both
        proxy.cache = type(proxy.cache)(8, name="serving")
        proxy.lookup_batch(["warm"])               # re-warm one key
        chaos.fail_next()                          # trips the breaker mid-run

        matrix, mask = proxy.get_embeddings_masked_batch(
            ["warm", "staled", "fresh", "ghost"])
        assert proxy.resilience.breaker.state == CircuitBreaker.OPEN
        assert mask.tolist() == [True, True, True, False]
        np.testing.assert_array_equal(matrix[0], store.get("warm"))
        np.testing.assert_array_equal(matrix[1], store.get("staled"))
        np.testing.assert_array_equal(matrix[2], np.full(DIM, 0.5))
        prior = proxy.resilience.default_for(DIM)
        np.testing.assert_array_equal(matrix[3], prior)
        for source in ("cache", "stale", "inferred", "default"):
            assert proxy.source_counts[source] == 1, source

    def test_expired_deadline_reaches_every_tier_without_store_io(self):
        clock = FakeClock()
        store, chaos, proxy = self._stack(clock)
        proxy.lookup_batch(["warm", "staled"])
        proxy.cache = type(proxy.cache)(8, name="serving")
        proxy.lookup_batch(["warm"])
        proxy.source_counts.clear()
        reads_before = chaos.reads if hasattr(chaos, "reads") else None

        expired = Deadline(0.0, clock=clock)
        with deadline_scope(expired):
            matrix, mask = proxy.get_embeddings_masked_batch(
                ["warm", "staled", "fresh", "ghost"])
        assert proxy.deadline_skips == 1
        assert mask.tolist() == [True, True, True, False]
        np.testing.assert_array_equal(matrix[1], store.get("staled"))
        assert proxy.store_errors == 0             # skip, not a failure
        assert proxy.resilience.breaker.state == CircuitBreaker.CLOSED
        assert dict(proxy.source_counts) == {"cache": 1, "stale": 1,
                                             "inferred": 1, "default": 1}

    def test_scalar_masked_path_matches_under_expired_deadline(self):
        clock = FakeClock()
        store, chaos, proxy = self._stack(clock)
        proxy.lookup("staled")
        clear_cache(proxy)
        with deadline_scope(Deadline(0.0, clock=clock)):
            vec, source = proxy.lookup("staled")
        assert source == "stale"
        np.testing.assert_array_equal(vec, store.get("staled"))
        assert proxy.deadline_skips == 1
