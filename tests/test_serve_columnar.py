"""The columnar miss path: no tier aliases another, one gather per tier.

Three kinds of test live here: regression tests for the scalar proxy path
(which used to file a live *view* of the store in the stale tier), the
mmap-gather trap (``ndarray.take`` on the adopted mmap copies the whole
matrix), and hypothesis models — ``LRUCache`` against a verbatim per-key
``OrderedDict`` loop, the proxy's stale tier against a ``dict`` of copies.
"""

from __future__ import annotations

import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadtest import ChaosStore
from repro.lookalike import (EmbeddingStore, LRUCache, ServingProxy,
                             ServingResilience)
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.utils import ManualClock

DIM = 4


def resilience() -> ServingResilience:
    clock = ManualClock()
    return ServingResilience(
        retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01, clock=clock,
                          sleep=clock.sleep,
                          retry_on=(ConnectionError, TimeoutError, OSError)),
        breaker=CircuitBreaker(failure_threshold=50, reset_seconds=60.0,
                               clock=clock))


def make_store(keys) -> EmbeddingStore:
    store = EmbeddingStore(dim=DIM)
    store.put_many(list(keys),
                   np.random.default_rng(0).normal(size=(len(keys), DIM)))
    return store


def clear_cache(proxy: ServingProxy) -> None:
    proxy.cache = LRUCache(proxy.cache.capacity, name="serving")


def serve(proxy: ServingProxy, key, batched: bool) -> np.ndarray:
    if batched:
        return proxy.get_embeddings_batch([key])[0]
    return proxy.get_embedding(key)


# -- the scalar path is a batch of one -----------------------------------------


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
class TestServedVectorAliasesNoTier:
    def test_store_hit_then_cache_hit_share_no_memory(self, batched):
        store = make_store(["a", "b"])
        proxy = ServingProxy(store, cache_capacity=4, resilience=resilience())
        for source in ("store", "cache"):
            vec = serve(proxy, "a", batched)
            assert proxy.source_counts[source] == 1
            for tier in (store._matrix, proxy.cache._matrix,
                         proxy._stale._matrix):
                assert not np.shares_memory(vec, tier)
            assert vec.flags.writeable and vec.dtype == np.float64

    def test_writing_into_the_served_vector_changes_no_tier(self, batched):
        store = make_store(["a"])
        expected = store.get("a").copy()
        proxy = ServingProxy(store, cache_capacity=4, resilience=resilience())
        serve(proxy, "a", batched)[:] = 99.0        # a careless caller
        np.testing.assert_array_equal(store.get("a"), expected)
        np.testing.assert_array_equal(serve(proxy, "a", batched), expected)
        clear_cache(proxy)
        np.testing.assert_array_equal(proxy._stale.read(["a"])[0][0],
                                      expected)

    def test_stale_tier_serves_the_version_last_served(self, batched):
        """...not a later write the proxy never read, during an outage."""
        store = make_store(["a"])
        chaos = ChaosStore(store)
        proxy = ServingProxy(chaos, cache_capacity=4, resilience=resilience())
        served = serve(proxy, "a", batched).copy()
        store.put("a", np.full(DIM, 7.0))           # refreshed behind its back
        clear_cache(proxy)
        chaos.schedule.failure_rate = 1.0
        during_outage = serve(proxy, "a", batched)
        assert proxy.source_counts["stale"] == 1
        np.testing.assert_array_equal(during_outage, served)

    def test_stale_tier_follows_the_store_while_it_is_read(self, batched):
        store = make_store(["a"])
        chaos = ChaosStore(store)
        proxy = ServingProxy(chaos, cache_capacity=4, resilience=resilience())
        serve(proxy, "a", batched)
        store.put("a", np.full(DIM, 7.0))
        clear_cache(proxy)
        serve(proxy, "a", batched)                  # reads the new version
        clear_cache(proxy)
        chaos.schedule.failure_rate = 1.0
        np.testing.assert_array_equal(serve(proxy, "a", batched),
                                      np.full(DIM, 7.0))


def test_scalar_lookup_is_lookup_batch_of_one():
    def run(batched: bool):
        store = make_store(["a", "b"])
        proxy = ServingProxy(store, cache_capacity=4, resilience=resilience(),
                             infer_fn=lambda uid: (np.full(DIM, 0.5)
                                                   if uid == "fresh" else None))
        rows, sources = [], []
        for key in ("a", "fresh", "ghost", "a", "fresh"):
            if batched:
                matrix, labels = proxy.lookup_batch([key])
                vec, source = matrix[0], labels[0]
            else:
                vec, source = proxy.lookup(key)
            rows.append(vec)
            sources.append(source)
        return np.stack(rows), sources, dict(proxy.source_counts), len(store)

    scalar, batch = run(False), run(True)
    np.testing.assert_array_equal(scalar[0], batch[0])
    assert scalar[1:] == batch[1:]
    assert scalar[1] == ["store", "inferred", "default", "cache", "cache"]


def test_legacy_scalar_miss_is_none():
    proxy = ServingProxy(make_store(["a"]), cache_capacity=4)
    assert proxy.lookup("ghost") == (None, "miss")
    assert proxy.source_counts == {"miss": 1}


# -- the mmap gather -----------------------------------------------------------


class TestMappedGetBatch:
    @staticmethod
    def mapped(tmp_path, n_rows: int, dim: int = 64) -> EmbeddingStore:
        store = EmbeddingStore(dim)
        if n_rows:
            store.put_many(range(n_rows), np.random.default_rng(n_rows)
                           .normal(size=(n_rows, dim)))
        path = tmp_path / f"snap{n_rows}.npz"
        store.save_snapshot(path)
        loaded = EmbeddingStore.load(path, mmap=True)
        assert loaded.is_mapped
        return loaded

    def test_all_found_some_absent_and_result_type(self, tmp_path):
        store = self.mapped(tmp_path, 50)
        __, truth = store.as_matrix()
        out, found = store.get_batch([3, 49, 3, 0])
        assert found.all()
        np.testing.assert_array_equal(out, truth[[3, 49, 3, 0]])

        out, found = store.get_batch([7, "ghost", 48, -1])
        assert found.tolist() == [True, False, True, False]
        np.testing.assert_array_equal(out[[0, 2]], truth[[7, 48]])
        np.testing.assert_array_equal(out[[1, 3]], np.zeros((2, 64)))

        # a plain array the caller owns — not a window onto the file
        assert type(out) is np.ndarray and out.flags.writeable
        assert not np.shares_memory(out, store._matrix)
        assert store.is_mapped                       # reads never copy-on-write

    def test_empty_store(self, tmp_path):
        store = self.mapped(tmp_path, 0)
        out, found = store.get_batch(["a", "b"])
        assert out.shape == (2, 64) and not out.any() and not found.any()
        out, found = store.get_batch([])
        assert out.shape == (0, 64) and found.shape == (0,)

    def test_gather_allocates_for_the_batch_not_for_the_store(self, tmp_path):
        """``take`` on the mapped matrix would first copy all of it (it wants
        an aligned array and an ``.npz`` member is not): the peak must scale
        with ``len(keys) * dim`` whatever the store holds."""
        keys = list(range(0, 200, 3)) + ["ghost"]
        budget = 6 * len(keys) * 64 * 8              # a few batch-sized arrays
        for n_rows in (1_000, 16_000):               # 0.5 MB and 8 MB stores
            store = self.mapped(tmp_path, n_rows)
            store.get_batch(keys)                    # fault the pages in
            tracemalloc.start()
            try:
                store.get_batch(keys)
                __, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < budget, (n_rows, peak, budget)


# -- the vectorised cache against the per-key loop it replaces -----------------


class ReferenceLRU:
    """``LRUCache`` as a verbatim per-key loop over an ``OrderedDict``."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.data: OrderedDict = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def get_many(self, keys):
        rows, mask = [], []
        for key in keys:
            if key in self.data:
                self.data.move_to_end(key)
                self.hits += 1
                rows.append(self.data[key])
            else:
                self.misses += 1
            mask.append(key in self.data)
        return rows, mask

    def put_many(self, keys, vectors):
        for key, vector in zip(keys, vectors):
            if key in self.data:
                self.data.move_to_end(key)
            elif len(self.data) >= self.capacity:
                self.data.popitem(last=False)
                self.evictions += 1
            self.data[key] = np.array(vector)


cache_keys = st.integers(0, 9)
cache_ops = st.lists(
    st.tuples(st.sampled_from(["get", "put"]),
              st.lists(cache_keys, min_size=0, max_size=12)),
    min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 6), ops=cache_ops)
def test_lru_cache_matches_per_key_reference(capacity, ops):
    """Batches larger than the cache, a key evicted and re-inserted inside
    one batch, duplicate keys in one batch (the last vector wins the slot):
    contents, recency order and tallies equal the loop after every call."""
    cache, ref = LRUCache(capacity), ReferenceLRU(capacity)
    stamp = 0.0
    for op, keys in ops:
        if op == "get":
            hits, mask = cache.get_many(keys)
            ref_rows, ref_mask = ref.get_many(keys)
            assert mask.tolist() == ref_mask
            assert hits.shape[0] == len(ref_rows)
            if ref_rows:
                np.testing.assert_array_equal(hits, np.stack(ref_rows))
        else:
            vectors = stamp + np.arange(len(keys) * DIM,
                                        dtype=np.float64).reshape(-1, DIM)
            stamp += 100.0
            cache.put_many(keys, vectors)
            ref.put_many(keys, vectors)
        assert list(cache._slots) == list(ref.data)          # recency order
        assert len(set(cache._slots.values())) == len(cache)  # slots distinct
        for key, slot in cache._slots.items():
            np.testing.assert_array_equal(cache._matrix[slot], ref.data[key])
        assert (cache.hits, cache.misses, cache.evictions) == \
            (ref.hits, ref.misses, ref.evictions)


def test_repeated_rows_in_one_scatter_keep_the_last_value():
    """NumPy documents no order for repeated indices in a fancy assignment;
    ``_RowTable.write`` (so ``EmbeddingStore.put_many``) and
    ``LRUCache.put_many`` rely on the order it has — input order."""
    for n_rows in (2, 64, 1024):
        rows = np.tile(np.arange(n_rows), 3)
        values = np.arange(rows.size * 8, dtype=np.float64).reshape(-1, 8)
        target = np.zeros((n_rows, 8))
        target[rows] = values
        np.testing.assert_array_equal(target, values[-n_rows:])
    store = EmbeddingStore(dim=1)
    store.put_many(["a", "b", "a", "a"], np.array([[1.0], [2.0], [3.0], [4.0]]))
    np.testing.assert_array_equal(store.get_many(["a", "b"]), [[4.0], [2.0]])


def test_cache_put_many_rejects_a_ragged_batch_before_touching_state():
    cache = LRUCache(capacity=2)
    cache.put("a", np.zeros(3))
    with pytest.raises(ValueError):
        cache.put_many(["b", "c"], np.zeros((2, 5)))
    with pytest.raises(ValueError):
        cache.put_many(["b", "c"], np.zeros((1, 3)))
    assert list(cache._slots) == ["a"] and cache.evictions == 0


# -- the stale tier against a dict of copies -----------------------------------


served_batches = st.lists(
    st.tuples(st.lists(st.integers(0, 11), min_size=1, max_size=8),
              st.lists(st.integers(0, 7), min_size=0, max_size=3),
              st.booleans()),
    min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(batches=served_batches)
def test_stale_tier_equals_a_dict_of_served_copies(batches):
    """Any interleaving of served batches, store refreshes and outages: the
    stale tier holds, per key, a copy of the version last served."""
    store = make_store(range(8))                     # keys 8..11 are unknown
    chaos = ChaosStore(store)
    proxy = ServingProxy(chaos, cache_capacity=3, resilience=resilience())
    model: dict[int, np.ndarray] = {}
    version = 0.0
    for keys, refreshed, outage in batches:
        for key in refreshed:                        # writes beside reads
            version += 1.0
            store.put(key, np.full(DIM, version))
        chaos.schedule.failure_rate = 1.0 if outage else 0.0
        matrix, sources = proxy.lookup_batch(keys)
        for key, row, source in zip(keys, matrix, sources):
            if source in ("store", "stale"):
                model[key] = row.copy()
            elif source == "cache":
                np.testing.assert_array_equal(row, model[key])
            else:
                assert source == "default" and key not in model
        matrix[:] = np.nan                           # the result pins nothing
        stale = proxy._stale
        assert set(stale._index) == set(model)
        rows, found = stale.read(list(model))
        assert found.all()
        if model:
            np.testing.assert_array_equal(rows, np.stack(list(model.values())))
