"""Look-alike stack: store, cache, serving, recall, A/B harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lookalike import (ABTestReport, EmbeddingStore, LookalikeSystem,
                             LRUCache, OnlineABTest, ServingProxy,
                             UploaderBehaviorSimulator)


class TestEmbeddingStore:
    def test_put_get(self):
        store = EmbeddingStore(dim=3)
        store.put("u1", np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(store.get("u1"), [1, 2, 3])
        assert store.get("missing") is None

    def test_dim_validation(self):
        store = EmbeddingStore(dim=3)
        with pytest.raises(ValueError):
            store.put("u1", np.zeros(4))
        with pytest.raises(ValueError):
            EmbeddingStore(dim=0)

    def test_put_many_and_get_many(self):
        store = EmbeddingStore(dim=2)
        store.put_many(["a", "b"], np.arange(4).reshape(2, 2))
        out = store.get_many(["b", "a"])
        np.testing.assert_allclose(out, [[2, 3], [0, 1]])

    def test_get_many_missing_raises(self):
        store = EmbeddingStore(dim=2)
        with pytest.raises(KeyError):
            store.get_many(["nope"])

    def test_as_matrix_alignment(self):
        store = EmbeddingStore(dim=2)
        store.put("x", np.array([1.0, 1.0]))
        store.put("y", np.array([2.0, 2.0]))
        keys, matrix = store.as_matrix()
        for key, row in zip(keys, matrix):
            np.testing.assert_allclose(store.get(key), row)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.zeros(1))
        cache.get("a")           # refresh a
        cache.put("c", np.zeros(1))  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_hit_rate(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.get("a")
        cache.get("miss")
        assert cache.hit_rate == 0.5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_update_existing_key_keeps_size(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.put("a", np.ones(1))
        assert len(cache) == 1
        np.testing.assert_allclose(cache.get("a"), 1.0)

    def test_hit_miss_accounting_under_eviction(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.zeros(1))
        cache.put("c", np.zeros(1))       # evicts a
        assert cache.evictions == 1
        assert cache.get("a") is None     # miss: evicted
        assert cache.get("b") is not None
        assert cache.get("c") is not None
        cache.put("d", np.zeros(1))       # evicts b (a's miss refreshed nothing)
        assert cache.get("b") is None
        assert cache.evictions == 2
        assert (cache.hits, cache.misses) == (2, 2)
        assert cache.hit_rate == 0.5

    def test_eviction_churn_accounting(self):
        cache = LRUCache(capacity=4)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 16, size=500)
        expected_hits = expected_misses = 0
        for key in keys:
            if cache.get(int(key)) is None:
                expected_misses += 1
                cache.put(int(key), np.zeros(1))
            else:
                expected_hits += 1
        assert cache.hits == expected_hits
        assert cache.misses == expected_misses
        assert len(cache) == 4
        assert cache.evictions == expected_misses - 4
        assert cache.hit_rate == expected_hits / (expected_hits + expected_misses)

    def test_empty_cache_hit_rate_zero(self):
        assert LRUCache(capacity=1).hit_rate == 0.0


class TestServingProxy:
    def test_cache_then_store_lookup(self):
        store = EmbeddingStore(dim=2)
        store.put("u", np.ones(2))
        proxy = ServingProxy(store, cache_capacity=4)
        a = proxy.get_embedding("u")   # miss -> store
        b = proxy.get_embedding("u")   # hit
        np.testing.assert_allclose(a, b)
        assert proxy.cache.hits == 1 and proxy.cache.misses == 1

    def test_infer_fallback(self):
        store = EmbeddingStore(dim=2)
        proxy = ServingProxy(store, cache_capacity=4,
                             infer_fn=lambda uid: np.full(2, 7.0))
        out = proxy.get_embedding("fresh")
        np.testing.assert_allclose(out, 7.0)
        assert proxy.inferences == 1
        assert store.get("fresh") is not None  # written back

    def test_missing_without_inference(self):
        proxy = ServingProxy(EmbeddingStore(dim=2))
        assert proxy.get_embedding("nope") is None
        with pytest.raises(KeyError):
            proxy.get_embeddings_batch(["nope"])

    def test_batch_lookup(self):
        store = EmbeddingStore(dim=2)
        store.put_many(["a", "b"], np.arange(4).reshape(2, 2))
        proxy = ServingProxy(store)
        out = proxy.get_embeddings_batch(["a", "b"])
        assert out.shape == (2, 2)


class TestLookalikeSystem:
    def make_system(self):
        rng = np.random.default_rng(0)
        # two well-separated blobs of users
        emb = np.concatenate([rng.normal(0, 0.1, size=(20, 4)),
                              rng.normal(5, 0.1, size=(20, 4))])
        return LookalikeSystem(emb)

    def test_account_embedding_is_mean(self):
        system = self.make_system()
        ids = np.array([0, 1, 2])
        np.testing.assert_allclose(system.account_embedding(ids),
                                   system.user_embeddings[ids].mean(axis=0))

    def test_empty_followers_rejected(self):
        with pytest.raises(ValueError):
            self.make_system().account_embedding(np.empty(0, dtype=np.int64))

    def test_recall_prefers_same_blob(self):
        system = self.make_system()
        accounts = system.build_accounts([np.arange(0, 10), np.arange(20, 30)])
        recalled = system.recall_accounts(np.array([0, 25]), k=1)
        assert recalled[0, 0] == 0   # blob-0 user -> blob-0 account
        assert recalled[1, 0] == 1

    def test_recall_requires_accounts(self):
        with pytest.raises(RuntimeError):
            self.make_system().recall_accounts(np.array([0]), k=1)

    def test_recall_k_validation(self):
        system = self.make_system()
        system.build_accounts([np.arange(3)])
        with pytest.raises(ValueError):
            system.recall_accounts(np.array([0]), k=5)

    def test_recall_sorted_by_distance(self):
        system = self.make_system()
        accounts = system.build_accounts([np.arange(0, 5), np.arange(20, 25),
                                          np.arange(5, 10)])
        recalled = system.recall_accounts(np.array([1]), k=3)[0]
        d = np.linalg.norm(system.user_embeddings[1] - accounts[recalled], axis=1)
        assert np.all(np.diff(d) >= 0)

    def test_expand_audience_same_blob(self):
        system = self.make_system()
        expanded = system.expand_audience(np.arange(0, 5), k=10)
        assert np.all(expanded < 20)          # all from blob 0
        assert not np.any(np.isin(expanded, np.arange(0, 5)))  # seeds excluded

    def test_expand_audience_include_seeds(self):
        system = self.make_system()
        expanded = system.expand_audience(np.arange(0, 5), k=10,
                                          exclude_seeds=False)
        assert np.any(np.isin(expanded, np.arange(0, 5)))


class TestABHarness:
    @pytest.fixture(scope="class")
    def simulator(self):
        rng = np.random.default_rng(0)
        theta = rng.dirichlet(np.full(4, 0.2), size=300)
        return UploaderBehaviorSimulator(theta, n_accounts=20,
                                         followers_per_account=10, seed=0)

    def test_profiles_normalised(self, simulator):
        np.testing.assert_allclose(simulator.account_profiles.sum(axis=1), 1.0)

    def test_affinity_range(self, simulator):
        aff = simulator.affinity(np.arange(10), np.zeros(10, dtype=np.int64))
        assert np.all(aff >= 0) and np.all(aff <= 1)

    def test_impressions_metrics_keys(self, simulator):
        recalled = np.zeros((50, 3), dtype=np.int64)
        out = simulator.simulate_impressions(np.arange(50), recalled, rng=0)
        assert set(out) == {"#Following Click", "#Like", "Avg. Like",
                            "#Share", "#Share", "Avg. Share"}

    def test_better_targeting_gets_more_clicks(self, simulator):
        """Recommending each user's true best accounts beats random ones."""
        rng = np.random.default_rng(1)
        users = np.arange(300)
        aff = simulator.theta @ simulator.account_profiles.T
        best = np.argsort(-aff, axis=1)[:, :3]
        random_rec = rng.integers(0, 20, size=(300, 3))
        good = simulator.simulate_impressions(users, best, rng=2)
        bad = simulator.simulate_impressions(users, random_rec, rng=2)
        assert good["#Following Click"] > bad["#Following Click"]

    def test_ab_report_relative_change(self):
        report = ABTestReport(
            control={"#Following Click": 100.0, "#Like": 10.0, "Avg. Like": 1.0,
                     "#Share": 4.0, "Avg. Share": 1.0},
            treatment={"#Following Click": 110.0, "#Like": 11.0, "Avg. Like": 1.1,
                       "#Share": 5.0, "Avg. Share": 1.2})
        rel = report.relative_change
        np.testing.assert_allclose(rel["#Following Click"], 0.10)
        np.testing.assert_allclose(rel["#Share"], 0.25)
        assert "Change" in str(report)

    def test_ab_run_arms_disjoint_and_equal(self, simulator):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(300, 8))
        ab = OnlineABTest(simulator, k=3, seed=0)
        report = ab.run(emb, emb)
        # identical embeddings with per-arm seeds: metrics close but present
        assert report.control["#Following Click"] > 0
        assert report.treatment["#Following Click"] > 0

    def test_arm_shapes_must_match(self, simulator):
        ab = OnlineABTest(simulator, k=3)
        with pytest.raises(ValueError):
            ab.run(np.zeros((300, 8)), np.zeros((200, 8)))

    def test_oracle_embeddings_beat_random(self, simulator):
        """Arms differ only in embedding quality: θ itself must win."""
        rng = np.random.default_rng(3)
        random_emb = rng.normal(size=(300, 4))
        oracle_emb = simulator.theta.copy()
        ab = OnlineABTest(simulator, k=3, seed=1)
        report = ab.run(random_emb, oracle_emb)
        assert report.relative_change["#Following Click"] > 0
