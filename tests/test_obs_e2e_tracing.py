"""Acceptance e2e: concurrent requests through the traced serving path.

Drives concurrent requests through ``MicroBatcher`` →
``ServingProxy.get_embeddings_batch`` with injected store failures and
asserts each request's trace contains correctly parented spans for the
batcher wait, the flush, the per-source proxy groups, and the retry/breaker
events — and that error traces are always retained by tail sampling.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.loadtest import ChaosStore, ServingFaultSchedule
from repro.lookalike import ServingProxy, ServingResilience
from repro.lookalike.store import EmbeddingStore
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.serve import MicroBatcher
from repro.utils import ManualClock

DIM = 4


def make_stack(n_users=16, failure_rate=0.0, resilient=True):
    store = EmbeddingStore(dim=DIM)
    store.put_many(list(range(n_users)),
                   np.random.default_rng(0).normal(size=(n_users, DIM)))
    chaos = ChaosStore(store, ServingFaultSchedule(failure_rate=failure_rate))
    resilience = None
    if resilient:
        clock = ManualClock()
        resilience = ServingResilience(
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.01,
                              clock=clock, sleep=clock.sleep,
                              retry_on=(ConnectionError, TimeoutError,
                                        OSError)),
            breaker=CircuitBreaker(failure_threshold=2, reset_seconds=60.0,
                                   clock=clock, name="serving-store"))
    proxy = ServingProxy(chaos, resilience=resilience)
    # a far deadline so only explicit flush() decides batch boundaries —
    # the concurrency tests need the whole batch in ONE flush
    batcher = MicroBatcher(proxy.get_embeddings_batch, max_batch=64,
                           max_delay_seconds=10.0)
    return store, chaos, proxy, batcher


class TestTracedServingPath:
    def test_concurrent_submits_build_correctly_parented_traces(self):
        __, chaos, __p, batcher = make_stack()
        with obs.session() as telemetry:
            barrier = threading.Barrier(4)
            handles: list = [None] * 4

            def client(i: int) -> None:
                barrier.wait()
                handles[i] = batcher.submit(i)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            batcher.flush()
            for handle in handles:
                handle.result(timeout=2)

            traces = telemetry.traces.traces()
            assert len(traces) == 4
            # trace ids distinct per submit
            assert len({t.trace_id for t in traces}) == 4

            flush_ids = set()
            for trace in traces:
                tid = trace.trace_id
                root = trace.span_named("serve.request")
                assert root is trace.root
                assert root.parent_in(tid) is None
                wait = trace.span_named("batcher.wait")
                flush = trace.span_named("batcher.flush")
                assert wait.parent_in(tid) == root.span_id
                assert flush.parent_in(tid) == root.span_id
                # queue wait sits inside the request envelope
                assert root.start <= wait.start <= wait.end <= root.end
                # proxy groups nest under the shared flush
                cache = trace.span_named("proxy.cache")
                store_span = trace.span_named("proxy.store")
                assert cache.parent_in(tid) == flush.span_id
                assert store_span.parent_in(tid) == flush.span_id
                flush_ids.add(flush.span_id)
            # ... and the flush span is shared by the whole batch
            assert len(flush_ids) == 1

    def test_retry_and_breaker_events_in_degraded_trace(self):
        __, chaos, proxy, batcher = make_stack(failure_rate=0.0)
        with obs.session() as telemetry:
            chaos.fail_next(10)  # exhaust retries, trip the breaker
            handle = batcher.submit(3)
            batcher.flush()
            handle.result(timeout=2)  # resilient: default embedding, no raise

            trace = telemetry.traces.traces()[-1]
            assert trace.has_error  # store span failed inside
            store_span = trace.span_named("proxy.store")
            assert store_span.status == "error"
            names = [name for __t, name, __a in store_span.events]
            assert "retry.attempt" in names
            assert "retry.failure" in names
            assert "breaker.transition" in names
            transition = next(attrs for __t, name, attrs in store_span.events
                              if name == "breaker.transition")
            assert transition == {"breaker": "serving-store", "to": "open"}
            # degraded-but-resolved requests are error traces for retention
            assert trace in telemetry.traces.error_traces()

    def test_error_traces_always_retained_past_ring_capacity(self):
        __, chaos, __p, batcher = make_stack(resilient=False)
        telemetry = obs.Telemetry()
        telemetry.traces = obs.TraceStore(capacity=4, keep_slowest=0)
        with obs.session(telemetry):
            chaos.fail_next(1)
            bad = batcher.submit(2)
            batcher.flush()
            # store down + no resilience + no default row → flush raises
            with pytest.raises(KeyError):
                bad.result(timeout=2)
            bad_trace_id = telemetry.traces.error_traces()[0].trace_id

            for i in range(20):  # flood the recent ring with healthy traffic
                ok = batcher.submit(i % 8)
                batcher.flush()
                ok.result(timeout=2)

            retained = {t.trace_id for t in telemetry.traces.traces()}
            assert bad_trace_id in retained
            errors = telemetry.traces.error_traces()
            assert [t.trace_id for t in errors] == [bad_trace_id]
            # the failed flush closed every handle's request root with the
            # error, so nothing is left open
            assert telemetry.traces.open_traces == 0

    def test_flush_error_closes_all_member_traces_as_errors(self):
        __, chaos, __p, batcher = make_stack(resilient=False)
        with obs.session() as telemetry:
            chaos.fail_next(1)
            handles = [batcher.submit(i) for i in range(3)]
            batcher.flush()
            for handle in handles:
                with pytest.raises(KeyError):
                    handle.result(timeout=2)
            errors = telemetry.traces.error_traces()
            assert len(errors) == 3
            for trace in errors:
                assert trace.root.status == "error"
                assert trace.span_named("batcher.flush").status == "error"

    def test_ivf_query_span_nests_under_the_request_root(self):
        from repro.lookalike.ann import IVFIndex

        rng = np.random.default_rng(0)
        index = IVFIndex(dim=DIM, n_lists=4, nprobe=2,
                         seed=0).fit(rng.normal(size=(32, DIM)))
        with obs.session() as telemetry:
            with obs.request("rank"):
                index.query(rng.normal(size=DIM), k=4)
            trace = telemetry.traces.traces()[0]
            ivf = trace.span_named("ivf.query_batch")
            assert ivf is not None
            assert ivf.parent_in(trace.trace_id) == trace.root.span_id

    def test_no_per_request_records_without_active_context(self):
        __, __f, proxy, __b = make_stack()
        with obs.session() as telemetry:
            proxy.get_embeddings_batch([1, 2, 3])
            # aggregate tracer sees the work, the trace store stays empty
            assert telemetry.traces.finished == 0
            assert telemetry.tracer.root.children  # aggregate spans recorded
