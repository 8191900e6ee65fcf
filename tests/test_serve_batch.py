"""Serving fast path: batch partition, columnar store/cache, micro-batcher."""

from __future__ import annotations

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.loadtest import ChaosStore
from repro.lookalike import (EmbeddingStore, LRUCache, ServingProxy,
                             ServingResilience)
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.serve import MicroBatcher, ShutdownError
from repro.utils import ManualClock as FakeClock

DIM = 4


def fast_resilience(**kwargs) -> ServingResilience:
    clock = FakeClock()
    defaults = dict(
        retry=RetryPolicy(max_attempts=3, backoff_seconds=0.01, clock=clock,
                          sleep=clock.sleep,
                          retry_on=(ConnectionError, TimeoutError, OSError)),
        breaker=CircuitBreaker(failure_threshold=5, reset_seconds=60.0,
                               clock=clock))
    defaults.update(kwargs)
    return ServingResilience(**defaults)


def make_store(keys, seed=0):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim=DIM)
    store.put_many(list(keys), rng.normal(size=(len(keys), DIM)))
    return store


class TestBatchPartition:
    """get_embeddings_batch splits one batch into per-source groups."""

    def test_every_source_in_one_batch(self):
        """cache + stale + inferred + default resolved in a single call."""
        store = make_store(["warm", "staled"])
        chaos = ChaosStore(store)
        proxy = ServingProxy(chaos, cache_capacity=1,
                             infer_fn=lambda uid: (np.full(DIM, 0.5)
                                                   if uid == "fresh" else None),
                             resilience=fast_resilience())
        proxy.lookup_batch(["warm", "staled"])   # both now stale-snapshotted
        proxy.cache = LRUCache(8, name="serving")
        proxy.lookup_batch(["warm"])             # re-warm only one key
        chaos.schedule.failure_rate = 1.0

        matrix, sources = proxy.lookup_batch(["warm", "staled", "fresh",
                                              "ghost"])
        assert list(sources) == ["cache", "stale", "inferred", "default"]
        np.testing.assert_array_equal(matrix[0], store.get("warm"))
        np.testing.assert_array_equal(matrix[1], store.get("staled"))
        np.testing.assert_array_equal(matrix[2], np.full(DIM, 0.5))
        np.testing.assert_array_equal(matrix[3], np.zeros(DIM))
        assert proxy.store_errors == 1           # one failure for the group
        assert proxy.source_counts["stale"] == 1

    def test_legacy_mode_miss_raises_or_fills_default(self):
        proxy = ServingProxy(make_store(["a"]), cache_capacity=4)
        with pytest.raises(KeyError, match="ghost"):
            proxy.get_embeddings_batch(["a", "ghost"])
        filled = proxy.get_embeddings_batch(["a", "ghost"],
                                            default=np.ones(DIM))
        np.testing.assert_array_equal(filled[1], np.ones(DIM))
        matrix, mask = proxy.get_embeddings_masked_batch(["a", "ghost"])
        assert mask.tolist() == [True, False]
        np.testing.assert_array_equal(matrix[1], np.zeros(DIM))

    def test_breaker_open_mid_sequence_skips_store(self):
        """Once the breaker opens, later batches fail over without new reads."""
        store = make_store(["a", "b"])
        chaos = ChaosStore(store)
        res = fast_resilience(
            breaker=CircuitBreaker(failure_threshold=2, reset_seconds=60.0,
                                   clock=FakeClock()))
        proxy = ServingProxy(chaos, cache_capacity=1, resilience=res)
        proxy.lookup_batch(["a", "b"])           # warm the stale snapshot
        proxy.cache = LRUCache(8, name="serving")

        chaos.fail_next(3)                       # all retry attempts fail
        __, sources = proxy.lookup_batch(["a", "b"])
        assert list(sources) == ["stale", "stale"]
        assert res.breaker.state == CircuitBreaker.OPEN
        injected_before = chaos.injected_failures

        proxy.cache = LRUCache(8, name="serving")
        __, sources = proxy.lookup_batch(["a", "b"])
        assert list(sources) == ["stale", "stale"]
        assert chaos.injected_failures == injected_before  # store never hit
        assert proxy.store_errors == 2

    def test_duplicate_keys_share_one_resolution(self):
        proxy = ServingProxy(make_store(["a", "b"]), cache_capacity=8,
                             resilience=fast_resilience())
        matrix, sources = proxy.lookup_batch(["a", "a", "b"])
        assert list(sources) == ["store", "store", "store"]
        np.testing.assert_array_equal(matrix[0], matrix[1])
        matrix, sources = proxy.lookup_batch(["a", "a"])
        assert list(sources) == ["cache", "cache"]
        assert proxy.source_counts == {"store": 3, "cache": 2}

    def test_source_counts_match_batch_labels(self):
        proxy = ServingProxy(make_store(["a", "b", "c"]), cache_capacity=8)
        proxy.lookup_batch(["a", "b"])
        __, sources = proxy.lookup_batch(["a", "b", "c"])
        assert list(sources) == ["cache", "cache", "store"]
        assert proxy.source_counts == {"store": 3, "cache": 2}


class TestLRUCacheBatch:
    def test_get_many_aggregates_counters_and_gathers_hits(self):
        cache = LRUCache(capacity=4)
        cache.put_many(["a", "b"], np.eye(2))
        hits, mask = cache.get_many(["a", "miss1", "b", "miss2"])
        assert mask.tolist() == [True, False, True, False]
        np.testing.assert_array_equal(hits, np.eye(2))
        assert (cache.hits, cache.misses) == (2, 2)

    def test_get_many_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put_many(["a", "b"], np.zeros((2, 1)))
        cache.get_many(["a"])                    # a becomes most recent
        cache.put("c", np.zeros(1))              # evicts b, not a
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.evictions == 1

    def test_put_many_eviction_recycles_slots(self):
        cache = LRUCache(capacity=2)
        cache.put_many(["a", "b", "c"], np.arange(6.0).reshape(3, 2))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("a") is None
        np.testing.assert_array_equal(cache.get("b"), [2.0, 3.0])
        np.testing.assert_array_equal(cache.get("c"), [4.0, 5.0])
        cache.put("d", np.array([9.0, 9.0]))     # reuses b's or c's slot
        np.testing.assert_array_equal(cache.get("d"), [9.0, 9.0])

    def test_first_vector_fixes_dim(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(3))
        with pytest.raises(ValueError):
            cache.put("b", np.zeros(5))

    def test_overwrite_updates_in_place(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(2))
        cache.put("a", np.ones(2))
        assert len(cache) == 1
        np.testing.assert_array_equal(cache.get("a"), np.ones(2))


class TestEmbeddingStoreColumnar:
    def test_get_many_raises_on_first_missing_key(self):
        store = make_store(["a", "b"])
        with pytest.raises(KeyError, match="ghost"):
            store.get_many(["a", "ghost", "b"])

    def test_rows_stay_stable_across_overwrites(self):
        store = make_store(["a", "b"])
        rows = store.rows_for(["a", "b"])
        store.put("a", np.ones(DIM))
        assert store.rows_for(["a", "b"]).tolist() == rows.tolist()
        np.testing.assert_array_equal(store.get("a"), np.ones(DIM))

    def test_as_matrix_alignment(self):
        store = make_store(["a", "b", "c"])
        keys, matrix = store.as_matrix()
        for pos, key in enumerate(keys):
            np.testing.assert_array_equal(matrix[pos], store.get(key))


class TestMicroBatcher:
    def test_size_trigger_flushes_in_order(self):
        flushed = []

        def flush_fn(keys):
            flushed.append(list(keys))
            return [k.upper() for k in keys]

        batcher = MicroBatcher(flush_fn, max_batch=3, clock=FakeClock())
        a, b = batcher.submit("a"), batcher.submit("b")
        assert not a.done and len(batcher) == 2
        c = batcher.submit("c")
        assert flushed == [["a", "b", "c"]]
        assert (a.result(), b.result(), c.result()) == ("A", "B", "C")
        assert batcher.flush_reasons == {"size": 1}
        assert len(batcher) == 0

    def test_deadline_trigger_on_submit(self):
        clock = FakeClock()
        batcher = MicroBatcher(lambda keys: keys, max_batch=100,
                               max_delay_seconds=1.0, clock=clock)
        a = batcher.submit("a")
        assert batcher.deadline == 1.0               # armed by first submit
        clock.advance(0.5)
        batcher.submit("b")                          # not yet expired
        assert not a.done
        clock.advance(0.5)
        c = batcher.submit("c")                      # expired: flushes all 3
        assert a.done and c.done
        assert batcher.flush_reasons == {"deadline": 1}
        assert batcher.deadline is None

    def test_deadline_trigger_on_poll(self):
        clock = FakeClock()
        batcher = MicroBatcher(lambda keys: keys, max_batch=100,
                               max_delay_seconds=1.0, clock=clock)
        lone = batcher.submit("lone")
        assert batcher.poll() == 0                   # deadline not reached
        clock.advance(1.0)
        assert batcher.poll() == 1                   # lone request flushed
        assert lone.result() == "lone"
        assert batcher.poll() == 0                   # idempotent when empty

    def test_manual_flush_and_empty_flush(self):
        batcher = MicroBatcher(lambda keys: keys, clock=FakeClock())
        assert batcher.flush() == 0                  # empty: not even counted
        assert batcher.flush_reasons == {}
        batcher.submit("a")
        assert batcher.flush() == 1
        assert batcher.flush_reasons == {"manual": 1}

    def test_get_is_synchronous(self):
        batcher = MicroBatcher(lambda keys: [k * 2 for k in keys],
                               max_batch=100, clock=FakeClock())
        batcher.submit("queued")
        assert batcher.get("mine") == "minemine"     # flushes both
        assert batcher.flush_reasons == {"sync": 1}
        assert len(batcher) == 0

    def test_flush_error_propagates_to_every_handle(self):
        def flush_fn(keys):
            raise ConnectionError("backend down")

        batcher = MicroBatcher(flush_fn, max_batch=2, clock=FakeClock())
        a = batcher.submit("a")
        b = batcher.submit("b")
        for handle in (a, b):
            with pytest.raises(ConnectionError, match="backend down"):
                handle.result()

    def test_length_mismatch_fails_the_batch(self):
        batcher = MicroBatcher(lambda keys: keys[:-1], max_batch=2,
                               clock=FakeClock())
        a = batcher.submit("a")
        batcher.submit("b")
        with pytest.raises(ValueError, match="1 values for 2 keys"):
            a.result()

    @pytest.mark.parametrize("traced", [False, True])
    def test_unsized_flush_result_fails_the_batch(self, traced):
        """A generator has no len(): the batch fails, it does not leak."""
        from repro.obs import runtime as obs

        with obs.session() if traced else contextlib.nullcontext() as session:
            batcher = MicroBatcher(lambda keys: (k for k in keys),
                                   max_batch=2, clock=FakeClock())
            a = batcher.submit("a")
            b = batcher.submit("b")         # size flush; must not raise
        for handle in (a, b):
            assert handle.done
            with pytest.raises(ValueError, match="unsized values "
                                                 "for 2 keys"):
                handle.result(timeout=0.1)
        if traced:
            assert session.traces.open_traces == 0
            assert len(session.traces.error_traces()) == 2

    def test_interrupt_fails_the_handles_and_propagates(self):
        def flush_fn(keys):
            raise KeyboardInterrupt

        batcher = MicroBatcher(flush_fn, max_batch=2, clock=FakeClock())
        a = batcher.submit("a")
        with pytest.raises(KeyboardInterrupt):
            batcher.submit("b")             # the flushing caller sees Ctrl-C
        assert a.done and len(batcher) == 0
        with pytest.raises(KeyboardInterrupt):
            a.result(timeout=0.1)           # and no waiter is left hanging

    def test_result_timeout(self):
        batcher = MicroBatcher(lambda keys: keys, max_batch=100,
                               clock=FakeClock())
        pending = batcher.submit("a")
        with pytest.raises(TimeoutError, match="'a'"):
            pending.result(timeout=0.01)
        assert batcher.flush() == 1         # a timed-out wait loses nothing
        assert pending.result(timeout=0.1) == "a"

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda keys: keys, max_batch=0)
        with pytest.raises(ValueError, match="max_delay_seconds"):
            MicroBatcher(lambda keys: keys, max_delay_seconds=-1.0)

    def test_fronting_a_serving_proxy(self):
        """The intended wiring: batcher flushes into get_embeddings_batch."""
        store = make_store(["a", "b", "c"])
        proxy = ServingProxy(store, cache_capacity=8)
        batcher = MicroBatcher(proxy.get_embeddings_batch, max_batch=3,
                               clock=FakeClock())
        handles = [batcher.submit(k) for k in ("a", "b", "c")]
        for key, handle in zip(("a", "b", "c"), handles):
            np.testing.assert_array_equal(handle.result(), store.get(key))
        assert proxy.source_counts["store"] == 3


def park(handle, timeout=30.0):
    """Block in ``handle.result(timeout)`` on a thread; the outcome lands in
    ``thread.outcome`` as ``("ok", value)`` or ``("err", exception)`` and the
    time spent blocked in ``thread.blocked``.  The default timeout outlasts
    :func:`joined`'s, so a lost wake-up fails the join instead of passing late.
    """
    def run():
        start = time.monotonic()
        try:
            thread.outcome = ("ok", handle.result(timeout=timeout))
        except BaseException as exc:
            thread.outcome = ("err", exc)
        thread.blocked = time.monotonic() - start

    thread = threading.Thread(target=run, daemon=True)
    thread.outcome = None
    thread.start()
    return thread


def wait_parked(batcher, n, timeout=5.0):
    """Spin until exactly ``n`` threads sit inside the batcher's condition."""
    end = time.monotonic() + timeout
    while len(batcher._resolved._waiters) != n:
        assert time.monotonic() < end, "waiters never parked"
        time.sleep(0.001)


def joined(*threads, timeout=5.0):
    for thread in threads:
        thread.join(timeout)
    return not any(thread.is_alive() for thread in threads)


class TestMicroBatcherThreads:
    """One condition for every handle: nothing is lost, nobody wakes early."""

    def test_concurrent_submitters_and_a_flusher(self):
        n_threads, per_thread = 8, 200
        sizes, failures = [], []
        stop = threading.Event()

        def flush_fn(keys):
            sizes.append(len(keys))
            return [("v", key) for key in keys]

        batcher = MicroBatcher(flush_fn, max_batch=4, max_delay_seconds=1e-4)

        def client(tid):
            try:
                for i in range(per_thread):
                    key = (tid, i)
                    if batcher.submit(key).result(timeout=5) != ("v", key):
                        failures.append(key)
            except BaseException as exc:   # TimeoutError included
                failures.append(exc)

        def flusher():
            while not stop.is_set():
                batcher.poll()
                batcher.flush()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, args=(tid,),
                                        daemon=True)
                       for tid in range(n_threads)]
            pump = threading.Thread(target=flusher, daemon=True)
            for thread in (*clients, pump):
                thread.start()
            done = joined(*clients, timeout=60.0)
            stop.set()
            assert joined(pump) and done
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert failures == []
        assert sum(sizes) == batcher.submitted == n_threads * per_thread
        assert len(batcher) == 0 and batcher.shed == 0

    def _two_batches(self):
        """Batch k (a1, a2) in flight behind ``gate``, batch k+1 (b1) queued,
        one waiter parked on each handle."""
        gate = threading.Event()

        def flush_fn(keys):
            if "a1" in keys:
                assert gate.wait(5.0)
            return [key.upper() for key in keys]

        batcher = MicroBatcher(flush_fn, max_batch=100, clock=FakeClock())
        a_waiters = [park(batcher.submit(key)) for key in ("a1", "a2")]
        wait_parked(batcher, 2)
        flusher = threading.Thread(target=batcher.flush, daemon=True)
        flusher.start()
        while len(batcher):                 # batch k has left the queue
            time.sleep(0.001)
        b1 = batcher.submit("b1")
        b_waiter = park(b1)
        wait_parked(batcher, 3)
        return batcher, gate, flusher, a_waiters, b1, b_waiter

    def test_a_batch_wakes_its_own_waiters_only(self):
        batcher, gate, flusher, a_waiters, b1, b_waiter = self._two_batches()
        gate.set()
        assert joined(flusher, *a_waiters)
        assert [t.outcome for t in a_waiters] == [("ok", "A1"), ("ok", "A2")]
        wait_parked(batcher, 1)             # b1's waiter woke and re-parked
        assert b_waiter.is_alive() and not b1.done and len(batcher) == 1
        assert batcher.flush() == 1
        assert joined(b_waiter) and b_waiter.outcome == ("ok", "B1")

    def test_close_wakes_parked_waiters_with_shutdown_error(self):
        batcher = MicroBatcher(lambda keys: keys, max_batch=100,
                               clock=FakeClock())
        waiters = [park(batcher.submit(key)) for key in ("a", "b", "c")]
        wait_parked(batcher, 3)
        closer = threading.Thread(target=batcher.close, daemon=True)
        closer.start()
        assert joined(closer, *waiters)
        for thread in waiters:
            kind, error = thread.outcome
            assert kind == "err" and isinstance(error, ShutdownError)

    def test_without_the_batch_notify_a_parked_waiter_sleeps_out_its_timeout(
            self, monkeypatch):
        """Mutation smoke check: the one ``notify_all`` per completed group is
        what wakes waiters.  Patched out, a waiter parked before the flush
        stays parked after it and only comes back when its own timeout runs
        out (``Condition.wait_for`` re-reads the flag then, so it returns the
        value late rather than raising) — bounded, so it cannot hang the suite.
        """
        batcher = MicroBatcher(lambda keys: keys, max_batch=100,
                               clock=FakeClock())
        handle = batcher.submit("a")
        waiter = park(handle, timeout=0.5)
        wait_parked(batcher, 1)             # provably parked before the flush
        monkeypatch.setattr(batcher._resolved, "notify_all", lambda: None)
        assert batcher.flush() == 1 and handle.done
        assert len(batcher._resolved._waiters) == 1     # nobody woke it
        assert joined(waiter) and waiter.outcome == ("ok", "a")
        assert waiter.blocked >= 0.5


class TestMicroBatcherTracing:
    """Batcher telemetry: flush_reasons counters and per-request traces."""

    def test_flush_reason_counters_reach_telemetry(self):
        from repro.obs import runtime as obs

        clock = FakeClock()
        with obs.session() as telemetry:
            batcher = MicroBatcher(lambda keys: keys, max_batch=2,
                                   max_delay_seconds=1.0, clock=clock)
            batcher.submit("a"), batcher.submit("b")      # size trigger
            batcher.submit("c")
            clock.advance(1.0)
            batcher.poll()                                # deadline trigger
            batcher.submit("d")
            batcher.flush()                               # manual trigger
            batcher.get("e")                              # sync trigger
        assert batcher.flush_reasons == {"size": 1, "deadline": 1,
                                         "manual": 1, "sync": 1}
        for trigger in ("size", "deadline", "manual", "sync"):
            counter = telemetry.registry.get("serve.flushes",
                                             {"trigger": trigger})
            assert counter.value == 1
        batch_hist = telemetry.registry.get("serve.batch_size")
        assert batch_hist.count == 4

    def test_trace_ids_distinct_per_submit_shared_per_flush(self):
        from repro.obs import runtime as obs

        with obs.session() as telemetry:
            batcher = MicroBatcher(lambda keys: keys, max_batch=3,
                                   clock=FakeClock())
            for key in ("a", "b", "c"):
                batcher.submit(key)
        traces = telemetry.traces.traces()
        assert len(traces) == 3
        assert len({t.trace_id for t in traces}) == 3     # distinct per submit
        flush_ids = {t.span_named("batcher.flush").span_id for t in traces}
        assert len(flush_ids) == 1                        # shared per flush
        for trace in traces:
            root = trace.span_named("serve.request")
            wait = trace.span_named("batcher.wait")
            flush = trace.span_named("batcher.flush")
            assert wait.parent_in(trace.trace_id) == root.span_id
            assert flush.parent_in(trace.trace_id) == root.span_id
            assert not trace.has_error

    def test_flush_error_propagates_and_marks_every_trace(self):
        from repro.obs import runtime as obs

        def flush_fn(keys):
            raise ConnectionError("backend down")

        with obs.session() as telemetry:
            batcher = MicroBatcher(flush_fn, max_batch=2, clock=FakeClock())
            a, b = batcher.submit("a"), batcher.submit("b")
            for handle in (a, b):                         # per-handle errors
                with pytest.raises(ConnectionError, match="backend down"):
                    handle.result()
        errors = telemetry.traces.error_traces()
        assert len(errors) == 2
        for trace in errors:
            assert trace.has_error
            assert trace.span_named("serve.request").error is not None
            assert trace.span_named("batcher.flush").error is not None
        assert telemetry.traces.open_traces == 0

    def test_no_trace_records_without_session(self):
        batcher = MicroBatcher(lambda keys: keys, max_batch=1,
                               clock=FakeClock())
        assert batcher.submit("a").result() == "a"        # plain no-op path
        assert batcher.flush_reasons == {"size": 1}
