"""IVF index, chunked exact scan, and quant/index wiring in LookalikeSystem."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lookalike import IVFIndex, LookalikeSystem, exact_top_k
from repro.lookalike.quant import kmeans


def clustered_vectors(n_clusters=5, per_cluster=60, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 5.0, size=(n_clusters, dim))
    points = np.concatenate([
        center + rng.normal(0, 0.3, size=(per_cluster, dim))
        for center in centers])
    return points


class TestExactTopK:
    def test_matches_naive_argsort(self):
        points = clustered_vectors()
        queries = points[[3, 77, 150]]
        got = exact_top_k(points, queries, k=10)
        for row, query in zip(got, queries):
            d2 = np.sum((points - query) ** 2, axis=1)
            # naive lexicographic (distance, index) selection
            order = np.lexsort((np.arange(len(points)), d2))[:10]
            np.testing.assert_array_equal(row, order)

    def test_chunked_is_bit_identical_to_unchunked(self):
        """The regression the ~32MB cap must never reintroduce: chunk size
        cannot change the result, even through distance ties."""
        rng = np.random.default_rng(1)
        # quantized coordinates force many exact distance ties
        points = rng.integers(0, 3, size=(500, 4)).astype(np.float64)
        queries = rng.integers(0, 3, size=(7, 4)).astype(np.float64)
        full = exact_top_k(points, queries, k=50, chunk_bytes=1 << 30)
        for chunk_bytes in (1, 2048, 10_000, 1 << 20):
            chunked = exact_top_k(points, queries, k=50,
                                  chunk_bytes=chunk_bytes)
            np.testing.assert_array_equal(chunked, full)

    def test_k_larger_than_n(self):
        points = clustered_vectors(n_clusters=2, per_cluster=5)
        got = exact_top_k(points, points[:2], k=100)
        assert got.shape == (2, 10)

    def test_validation(self):
        points = clustered_vectors()
        with pytest.raises(ValueError):
            exact_top_k(points, points[:1], k=0)
        with pytest.raises(ValueError):
            exact_top_k(np.zeros((0, 4)), np.zeros((1, 4)), k=1)


class TestIVFIndex:
    @pytest.mark.parametrize("fallback", [True, False])
    def test_k_larger_than_n_returns_every_row(self, fallback):
        points = clustered_vectors(n_clusters=1, per_cluster=5)
        exact = exact_top_k(points, points[:2], k=10)
        assert exact.shape == (2, 5)
        index = IVFIndex(dim=points.shape[1], n_lists=2, nprobe=2,
                         seed=0).fit(points)
        got = index.query_batch(points[:2], k=10, fallback_to_exact=fallback)
        assert [row.shape for row in got] == [(5,), (5,)]
        np.testing.assert_array_equal(np.stack(got), exact)

    def test_validation(self):
        with pytest.raises(ValueError):
            IVFIndex(dim=0)
        with pytest.raises(ValueError):
            IVFIndex(dim=4, n_lists=8, nprobe=9)

    def test_query_before_fit(self):
        with pytest.raises(RuntimeError):
            IVFIndex(dim=4).query(np.zeros(4), 1)

    def test_exhaustive_probe_equals_exact_scan(self):
        points = clustered_vectors()
        index = IVFIndex(dim=points.shape[1], n_lists=16, nprobe=16,
                         seed=0).fit(points)
        queries = points[[0, 123, 299]] + 0.05
        exact = exact_top_k(points, queries, k=20)
        for query, truth in zip(queries, exact):
            np.testing.assert_array_equal(index.query(query, k=20), truth)

    def test_batch_matches_scalar(self):
        points = clustered_vectors()
        index = IVFIndex(dim=points.shape[1], n_lists=16, nprobe=4,
                         seed=0).fit(points)
        queries = points[[5, 60, 200]] + 0.1
        batch = index.query_batch(queries, k=15)
        for row, query in zip(batch, queries):
            np.testing.assert_array_equal(row, index.query(query, k=15))

    def test_self_query_returns_self_first(self):
        points = clustered_vectors()
        index = IVFIndex(dim=points.shape[1], n_lists=16, nprobe=2,
                         seed=0).fit(points)
        for i in (0, 100, 250):
            assert index.query(points[i], k=1)[0] == i

    def test_high_recall_on_clustered_data(self):
        points = clustered_vectors()
        index = IVFIndex(dim=points.shape[1], n_lists=16, nprobe=8,
                         seed=0).fit(points)
        queries = points[::25] + 0.05
        assert index.recall_at_k(queries, k=10) >= 0.95

    def test_fallback_to_exact_toggle(self):
        points = clustered_vectors(n_clusters=8)
        index = IVFIndex(dim=points.shape[1], n_lists=8, nprobe=1,
                         seed=0).fit(points)
        far = np.full(points.shape[1], 50.0)
        with_fallback = index.query(far, k=200, fallback_to_exact=True)
        assert with_fallback.size == 200
        without = index.query(far, k=200, fallback_to_exact=False)
        assert without.size <= with_fallback.size


def naive_query(index, vectors, query, k, fallback_to_exact):
    """The contract, spelled out: the union of the probed lists' row ids,
    direct-form distances, lexicographic ``(distance, row id)`` min-k."""
    cand = index.candidates(query)
    if cand.size < k and fallback_to_exact:
        cand = np.arange(vectors.shape[0])
    d2 = np.sum((vectors[cand] - query) ** 2, axis=1)
    return cand[np.lexsort((cand, d2))[:k]]


@st.composite
def integer_cases(draw):
    """Small-integer coordinates, duplicates included: every distance is
    exact in float64 whichever way it is computed, so ties are real ties
    and the expected order is unambiguous."""
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 4))
    n_queries = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    # some queries sit on indexed points, and the batch's probes overlap
    queries = rng.integers(-3, 4, size=(n_queries, dim)).astype(np.float64)
    n_lists = draw(st.integers(1, 12))          # may exceed n
    nprobe = draw(st.integers(1, n_lists))
    k = draw(st.integers(1, n + 5))             # may exceed Σ candidates and n
    return vectors, queries, n_lists, nprobe, k, seed


class TestListMajorQuery:
    @settings(max_examples=150, deadline=None)
    @given(integer_cases(), st.booleans())
    def test_matches_naive_reference(self, case, fallback):
        vectors, queries, n_lists, nprobe, k, seed = case
        index = IVFIndex(vectors.shape[1], n_lists=n_lists, nprobe=nprobe,
                         seed=seed).fit(vectors)
        batch = index.query_batch(queries, k, fallback_to_exact=fallback)
        assert len(batch) == len(queries)
        for query, got in zip(queries, batch):
            want = naive_query(index, vectors, query, k, fallback)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64
            # scalar is a batch of one
            np.testing.assert_array_equal(
                index.query(query, k, fallback_to_exact=fallback), want)
        if nprobe == n_lists:
            np.testing.assert_array_equal(
                np.stack(batch), exact_top_k(vectors, queries, k))

    def test_empty_lists_and_all_ties(self):
        # Ten copies of one point: k-means leaves lists 1..3 empty and every
        # distance ties, so the answer is the lowest row ids in order.
        vectors = np.zeros((10, 2))
        index = IVFIndex(2, n_lists=4, nprobe=4, seed=0).fit(vectors)
        assert (np.diff(index._boundaries) == 0).sum() == 3
        for found in index.query_batch(np.ones((3, 2)), k=4):
            np.testing.assert_array_equal(found, [0, 1, 2, 3])

    def test_gaussian_matches_wherever_the_gaps_are_resolvable(self):
        # GEMM-form and direct-form distances differ in the last bits; ids
        # must agree wherever no two of the first k+1 are that close.
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(2000, 16))
        queries = rng.normal(size=(32, 16))
        k = 10
        index = IVFIndex(16, n_lists=16, nprobe=4, seed=3).fit(vectors)
        batch = index.query_batch(queries, k)
        compared = 0
        for query, got in zip(queries, batch):
            cand = index.candidates(query)
            d2 = np.sort(np.sum((vectors[cand] - query) ** 2, axis=1))
            if np.diff(d2[:k + 1]).min() > 1e-9:
                compared += 1
                np.testing.assert_array_equal(
                    got, naive_query(index, vectors, query, k, True))
        assert compared >= 30

    def test_fallback_scans_everything_in_row_id_order(self):
        points = clustered_vectors(n_clusters=8)
        index = IVFIndex(points.shape[1], n_lists=8, nprobe=1,
                         seed=0).fit(points)
        queries = points[[0, 100, 400]]
        k = 200                                  # > any single list
        found = index.query_batch(queries, k)
        np.testing.assert_array_equal(np.stack(found),
                                      exact_top_k(points, queries, k))
        short = index.query_batch(queries, k, fallback_to_exact=False)
        for query, got in zip(queries, short):
            assert got.size == index.candidates(query).size < k


class TestListContiguousStorage:
    def test_invariants_after_fit(self):
        points = clustered_vectors()
        index = IVFIndex(points.shape[1], n_lists=16, nprobe=4,
                         seed=0).fit(points)
        n = points.shape[0]
        np.testing.assert_array_equal(np.sort(index._order), np.arange(n))
        np.testing.assert_array_equal(index._vectors, points[index._order])
        np.testing.assert_array_equal(
            index._norms, (points[index._order] ** 2).sum(axis=1))
        bounds = index._boundaries
        assert bounds[0] == 0 and bounds[-1] == n
        assert bounds.shape == (17,) and (np.diff(bounds) >= 0).all()
        # each list holds exactly the rows nearest its centroid
        d2 = ((points[:, None, :] - index._centroids[None]) ** 2).sum(axis=2)
        cells = np.repeat(np.arange(16), np.diff(bounds))
        np.testing.assert_allclose(
            d2[index._order, cells], d2.min(axis=1)[index._order])
        assert index.size == n

    @pytest.mark.parametrize("n_lists", [16, 300])     # uint8 and uint16 sorts
    def test_lists_are_the_stable_sort_of_the_assignment(self, n_lists):
        points = clustered_vectors(n_clusters=8, per_cluster=100)
        index = IVFIndex(points.shape[1], n_lists=n_lists, nprobe=4,
                         seed=3).fit(points)
        __, assign = kmeans(points, n_lists, seed=3,
                            n_iters=index.train_iters)
        order = np.argsort(assign, kind="stable")
        np.testing.assert_array_equal(index._order, order)
        np.testing.assert_array_equal(
            index._boundaries,
            np.searchsorted(assign[order], np.arange(n_lists + 1)))

    def test_readonly_memmap_is_neither_mutated_nor_retained(self, tmp_path):
        points = clustered_vectors()
        path = tmp_path / "vectors.bin"
        points.tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r",
                           shape=points.shape)
        index = IVFIndex(points.shape[1], n_lists=16, nprobe=16,
                         seed=0).fit(mapped)
        for value in vars(index).values():
            if isinstance(value, np.ndarray):
                assert not np.shares_memory(value, mapped)
        np.testing.assert_array_equal(np.fromfile(path).reshape(points.shape),
                                      points)
        del mapped                               # the index needs no file
        queries = points[[0, 123, 299]] + 0.05
        np.testing.assert_array_equal(np.stack(index.query_batch(queries, 20)),
                                      exact_top_k(points, queries, 20))

    def test_query_batch_never_builds_a_q_by_n_matrix(self):
        rng = np.random.default_rng(0)
        n, dim, n_queries, n_lists = 20_000, 16, 64, 64
        vectors = rng.normal(size=(n, dim))
        queries = rng.normal(size=(n_queries, dim))
        index = IVFIndex(dim, n_lists=n_lists, nprobe=2, seed=0).fit(vectors)
        total = sum(c.size for c in index.candidates_batch(queries))
        index.query_batch(queries, 10)           # warm caches and imports
        tracemalloc.start()
        try:
            index.query_batch(queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # (distance, row id) buffers and their temporaries, plus the
        # (q, n_lists) probe matrices — far below the exact scan's q * n * 8.
        assert peak < 3 * 16 * total + 64 * n_queries * n_lists
        assert 3 * 16 * total + 64 * n_queries * n_lists < n_queries * n * 8 / 2

    def test_query_batch_memory_on_a_skewed_index(self):
        # 8,000 identical rows make one list of 8,000: the query sitting on
        # them has a pool ~20x everyone else's, so padding every query to
        # the widest pool would cost several times the candidates' bytes.
        rng = np.random.default_rng(0)
        n, dim, n_queries, n_lists = 20_000, 16, 64, 64
        vectors = rng.normal(size=(n, dim))
        vectors[:8000] = vectors[0]
        queries = rng.normal(size=(n_queries, dim))
        queries[0] = vectors[0]
        index = IVFIndex(dim, n_lists=n_lists, nprobe=2, seed=0).fit(vectors)
        assert np.diff(index._boundaries).max() >= 8000
        sizes = [c.size for c in index.candidates_batch(queries)]
        total = sum(sizes)
        assert max(sizes) > 10 * total / n_queries
        index.query_batch(queries, 10)           # warm caches and imports
        tracemalloc.start()
        try:
            index.query_batch(queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * total + 64 * n_queries * n_lists


class TestLookalikeSystemQuantIndex:
    @pytest.fixture(scope="class")
    def embeddings(self):
        return clustered_vectors(n_clusters=4, per_cluster=100)

    def test_default_config_is_exact_float(self, embeddings):
        system = LookalikeSystem(embeddings)
        np.testing.assert_array_equal(system.online_embeddings, embeddings)
        assert system.serving_bytes == embeddings.nbytes

    @pytest.mark.parametrize("quant", ["int8", "pq"])
    @pytest.mark.parametrize("index", [None, "ivf"])
    def test_grid_overlaps_exact(self, embeddings, quant, index):
        exact = LookalikeSystem(embeddings)
        system = LookalikeSystem(embeddings, quant=quant, index=index, seed=0)
        seeds = np.arange(5)
        want = exact.expand_audience(seeds, k=50)
        got = system.expand_audience(seeds, k=50)
        overlap = np.isin(got, want).mean()
        assert overlap >= 0.9, (quant, index, overlap)

    @pytest.mark.parametrize("quant", ["int8", "pq"])
    def test_quantized_serving_bytes_shrink(self, quant):
        # Large enough that the PQ codebooks (a fixed ~32KB) amortise away.
        rng = np.random.default_rng(0)
        embeddings = rng.normal(size=(5000, 16))
        system = LookalikeSystem(embeddings, quant=quant)
        assert system.serving_bytes <= embeddings.nbytes / 4

    def test_invalid_options_raise(self, embeddings):
        with pytest.raises(ValueError):
            LookalikeSystem(embeddings, quant="fp4")
        with pytest.raises(ValueError):
            LookalikeSystem(embeddings, index="kdtree")
