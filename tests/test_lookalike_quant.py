"""Quantized embedding stores: int8 / PQ codecs and the codec store.

The store behaviour shared with the float store (duplicate and absent keys,
snapshots, copy-on-write, the archive format) is pinned for every codec in
``tests/test_store_contract.py``; what is here is about quantization.
"""

from __future__ import annotations

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lookalike import (Int8Quantizer, PQQuantizer,
                             QuantizedEmbeddingStore, exact_top_k, quant)
from repro.lookalike.quant import kmeans
from repro.lookalike.store import EmbeddingStore
from repro.utils.rng import new_rng


def clustered(n=400, dim=16, seed=0, n_clusters=5, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(n_clusters, dim))
    assign = rng.integers(0, n_clusters, size=n)
    return centers[assign] + spread * rng.normal(size=(n, dim))


def pairwise_d2(points, centroids):
    """The whole-matrix distance formula the blocked kernel replaced,
    verbatim: the reference every nearest-centroid answer must equal."""
    return ((points ** 2).sum(axis=1)[:, None]
            - 2.0 * points @ centroids.T
            + (centroids ** 2).sum(axis=1)[None, :])


def pq_quantize_pairwise(quantizer, matrix):
    """``PQQuantizer.quantize`` as it was before the blocked kernel,
    verbatim."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    codes = np.empty((matrix.shape[0], quantizer.code_width), dtype=np.uint8)
    sub_codes = codes
    if quantizer.n_coarse:
        cells = np.argmin(
            pairwise_d2(matrix, quantizer.coarse_centroids), axis=1)
        codes[:, 0] = cells
        matrix = matrix - quantizer.coarse_centroids[cells]
        sub_codes = codes[:, 1:]
    subs = quantizer._split(matrix)
    for m in range(quantizer.n_subvectors):
        sub_codes[:, m] = np.argmin(
            pairwise_d2(subs[:, m, :], quantizer.codebooks[m]), axis=1)
    return codes


def kmeans_add_at(data, k, seed=0, n_iters=20):
    """The Lloyd's loop as it was before the CSR cluster sums and the hoisted
    constants, verbatim — the reference :func:`kmeans` must equal bit for
    bit — plus two counters so the tests can tell which branches ran."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    rng = new_rng(seed)
    centroids = data[np.sort(rng.choice(n, size=k, replace=False))].copy()
    assign = np.argmin(pairwise_d2(data, centroids), axis=1)
    iters = reseeded = 0
    for __ in range(n_iters):
        iters += 1
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, data)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        updated = centroids.copy()
        updated[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            reseeded += empty.size
            d2 = ((data - updated[assign]) ** 2).sum(axis=1)
            far = np.argsort(-d2, kind="stable")[:empty.size]
            updated[empty] = data[far]
        if np.array_equal(updated, centroids):
            break
        centroids = updated
        assign = np.argmin(pairwise_d2(data, centroids), axis=1)
    return centroids, assign, iters, reseeded


class TestKMeans:
    @pytest.mark.parametrize("shape,k,n_iters", [
        ((2048, 64), 64, 15),      # the publish_kd coarse quantizer
        ((300, 16), 64, 20),       # few points per cluster
        ((400, 16), 5, 50),        # converges early
        ((37, 3), 37, 4),          # k == n
        ((5000, 64), 128, 15),     # 20 kernel blocks, the last overlapping
    ])
    def test_bit_identical_to_the_add_at_loop(self, shape, k, n_iters):
        data = clustered(n=shape[0], dim=shape[1], seed=shape[0])
        want_c, want_a, iters, __ = kmeans_add_at(data, k, seed=5,
                                                  n_iters=n_iters)
        got_c, got_a = kmeans(data, k, seed=5, n_iters=n_iters)
        np.testing.assert_array_equal(got_c, want_c)
        np.testing.assert_array_equal(got_a, want_a)
        if shape == (400, 16):
            assert iters < n_iters      # the early exit was exercised

    def test_bit_identical_through_empty_cluster_reseeding(self):
        # Many duplicate points: clusters empty out and are re-seeded.
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, size=(200, 3)).astype(np.float64)
        data[:5] += rng.normal(size=(5, 3))
        want_c, want_a, __, reseeded = kmeans_add_at(data, 24, seed=1)
        assert reseeded > 0, "no cluster emptied; the case is vacuous"
        got_c, got_a = kmeans(data, 24, seed=1)
        np.testing.assert_array_equal(got_c, want_c)
        np.testing.assert_array_equal(got_a, want_a)

    def test_deterministic_per_seed(self):
        data = clustered()
        a, _ = kmeans(data, 8, seed=3)
        b, _ = kmeans(data, 8, seed=3)
        c, _ = kmeans(data, 8, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_assignment_is_nearest_centroid(self):
        data = clustered()
        centroids, assign = kmeans(data, 6, seed=0)
        d2 = (np.sum(data ** 2, axis=1)[:, None]
              + np.sum(centroids ** 2, axis=1)[None, :]
              - 2.0 * data @ centroids.T)
        np.testing.assert_array_equal(assign, np.argmin(d2, axis=1))

    def test_k_larger_than_unique_points(self):
        data = np.zeros((4, 3))
        data[0] = 1.0
        centroids, assign = kmeans(data, 4, seed=0)
        assert centroids.shape == (4, 3)
        assert assign.shape == (4,)

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 3)), 2)
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 3)), 6)

    def test_scratch_does_not_grow_with_n_times_k(self):
        k, dim = 128, 8
        peaks = {}
        for n in (4_000, 16_000):
            data = clustered(n=n, dim=dim, seed=1)
            kmeans(data, k, seed=0, n_iters=2)       # warm imports and caches
            tracemalloc.start()
            try:
                kmeans(data, k, seed=0, n_iters=2)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Per extra row: a few n-vectors (norms, assignments, the member
        # sort) — not a row of an (n, k) distance matrix, 8·k = 1 KB here.
        per_row = (peaks[16_000] - peaks[4_000]) / 12_000
        assert per_row < 8 * dim + 64, peaks
        assert peaks[4_000] < 4_000 * (8 * dim + 64) + 4 * quant._BLOCK_BYTES


#: Ways a caller's ``(n, dim)`` points can sit in memory.
_LAYOUTS = {
    "contiguous": lambda sample, n, dim: sample((n, dim)),
    "sub-space": lambda sample, n, dim: sample((n, dim + 3))[:, 2:2 + dim],
    "every other row": lambda sample, n, dim: sample((2 * n, dim))[::2],
    "every other column": lambda sample, n, dim: sample((n, 2 * dim))[:, ::2],
    "column-major": lambda sample, n, dim: np.asfortranarray(sample((n, dim))),
}


def _nearest_case(draw, rows):
    """A ``(points, centroids)`` pair whose row count is chosen relative to
    a block of ``rows`` rows."""
    n = draw(st.one_of(
        st.sampled_from(sorted({1, max(1, rows - 1), rows, rows + 1})),
        st.builds(lambda blocks, tail: blocks * rows + tail,
                  st.integers(2, 4), st.integers(1, max(1, rows - 1)))),
        label="n")
    k = draw(st.sampled_from([1, 2, 7, 40]), label="k")
    dim = draw(st.integers(1, 9), label="dim")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16), label="seed"))
    if draw(st.booleans(), label="small integers"):
        # exact arithmetic: every tie is a real tie
        sample = lambda shape: rng.integers(-2, 3, size=shape).astype(float)
    else:
        sample = lambda shape: rng.normal(0.0, 3.0, size=shape)
    layout = draw(st.sampled_from(list(_LAYOUTS)), label="layout")
    return _LAYOUTS[layout](sample, n, dim), sample((k, dim))


class TestNearest:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_the_one_shot_argmin(self, data):
        rows = data.draw(st.integers(1, 6), label="block rows")
        points, centroids = _nearest_case(data.draw, rows)
        want = np.argmin(pairwise_d2(points, centroids), axis=1)
        with mock.patch.object(quant, "_BLOCK_BYTES",
                               rows * 8 * centroids.shape[0]):
            got = quant._nearest(points, centroids,
                                 (points ** 2).sum(axis=1))
        np.testing.assert_array_equal(got, want)
        if np.array_equal(points, np.round(points)):
            # exact distances: ties go to the lower centroid index
            exact = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            np.testing.assert_array_equal(got, np.argmin(exact, axis=1))

    @pytest.mark.skipif(
        os.environ.get("OPENBLAS_NUM_THREADS") != "1",
        reason="a multi-threaded GEMM's rounding depends on how BLAS splits "
               "it over threads, so the whole-matrix reference is not unique")
    @pytest.mark.parametrize("k", [64, 128, 300])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2, 700])
    @pytest.mark.parametrize("layout", ["contiguous", "sub-space",
                                        "column-major"])
    def test_real_block_size_at_dim_64(self, k, extra, layout):
        # At d = 64 BLAS's small-product kernels round differently from the
        # large GEMM.  The centroids are one vector about an ulp apart, so
        # rounding decides the argmins and a short tail block would show.
        rows = quant._BLOCK_BYTES // (8 * k)
        rng = np.random.default_rng(k + extra)
        points = _LAYOUTS[layout](lambda shape: rng.normal(size=shape),
                                  rows + extra, 64)
        centroids = rng.normal(size=64) * (1.0 + 3e-16 * rng.normal(size=(k, 64)))
        np.testing.assert_array_equal(
            quant._nearest(points, centroids, (points ** 2).sum(axis=1)),
            np.argmin(pairwise_d2(points, centroids), axis=1))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_centroids_too_wide_for_two_rows(self, n):
        # At the real block size one row of distances fills a block.
        rng = np.random.default_rng(n)
        k = quant._BLOCK_BYTES // 8
        points, centroids = rng.normal(size=(n, 64)), rng.normal(size=(k, 64))
        np.testing.assert_array_equal(
            quant._nearest(points, centroids, (points ** 2).sum(axis=1)),
            np.argmin(pairwise_d2(points, centroids), axis=1))


class TestInt8Quantizer:
    def test_round_trip_error_within_bound(self):
        data = clustered()
        quantizer = Int8Quantizer(data.shape[1]).fit(data)
        err = np.abs(quantizer.dequantize(quantizer.quantize(data)) - data)
        assert np.all(err <= quantizer.bound() + 1e-12)

    def test_codes_are_uint8(self):
        data = clustered(n=50)
        quantizer = Int8Quantizer(data.shape[1]).fit(data)
        codes = quantizer.quantize(data)
        assert codes.dtype == np.uint8
        assert codes.shape == (50, data.shape[1])

    def test_constant_zero_dim_survives(self):
        data = clustered(n=60, dim=4)
        data[:, 2] = 0.0
        quantizer = Int8Quantizer(4).fit(data)
        out = quantizer.dequantize(quantizer.quantize(data))
        np.testing.assert_array_equal(out[:, 2], 0.0)

    def test_state_round_trip(self):
        data = clustered(n=80, dim=8)
        quantizer = Int8Quantizer(8).fit(data)
        clone = Int8Quantizer.from_state(8, quantizer.state())
        np.testing.assert_array_equal(clone.quantize(data),
                                      quantizer.quantize(data))

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            Int8Quantizer(4).quantize(np.zeros((2, 4)))


class TestPQQuantizer:
    def test_deterministic_codebooks_per_seed(self):
        data = clustered(dim=16)
        a = PQQuantizer(16, n_subvectors=4, n_centroids=16, seed=7).fit(data)
        b = PQQuantizer(16, n_subvectors=4, n_centroids=16, seed=7).fit(data)
        np.testing.assert_array_equal(a.codebooks, b.codebooks)
        np.testing.assert_array_equal(a.quantize(data), b.quantize(data))

    def test_round_trip_error_within_train_bound(self):
        data = clustered(dim=16)
        quantizer = PQQuantizer(16, n_subvectors=4, n_centroids=32,
                                seed=0).fit(data)
        recon = quantizer.dequantize(quantizer.quantize(data))
        err = np.sqrt(np.sum((recon - data) ** 2, axis=1))
        assert np.all(err <= quantizer.bound() + 1e-9)

    def test_residual_mode_tightens_reconstruction(self):
        data = clustered(n=600, dim=16, spread=0.6)
        plain = PQQuantizer(16, n_subvectors=4, n_centroids=16,
                            seed=0).fit(data)
        residual = PQQuantizer(16, n_subvectors=4, n_centroids=16, seed=0,
                               n_coarse=8).fit(data)
        assert residual.code_width == plain.code_width + 1
        err_plain = np.sqrt(np.sum(
            (plain.dequantize(plain.quantize(data)) - data) ** 2, axis=1))
        err_res = np.sqrt(np.sum(
            (residual.dequantize(residual.quantize(data)) - data) ** 2,
            axis=1))
        assert err_res.mean() <= err_plain.mean()

    def test_state_round_trip_preserves_residual_mode(self):
        data = clustered(dim=8)
        quantizer = PQQuantizer(8, n_subvectors=2, n_centroids=16, seed=0,
                                n_coarse=4).fit(data)
        clone = PQQuantizer.from_state(8, quantizer.state())
        assert clone.n_coarse == 4
        np.testing.assert_array_equal(clone.quantize(data),
                                      quantizer.quantize(data))

    @pytest.mark.parametrize("n_coarse", [0, 16])
    def test_bit_identical_to_the_pairwise_path(self, n_coarse):
        # 3000 rows at k = 256 are 24 kernel blocks, the last overlapping.
        data = clustered(n=3000, dim=16, spread=0.6)
        quantizer = PQQuantizer(16, n_subvectors=4, n_centroids=256, seed=0,
                                n_iters=5, n_coarse=n_coarse).fit(data)
        np.testing.assert_array_equal(quantizer.quantize(data),
                                      pq_quantize_pairwise(quantizer, data))
        for rows in (np.asfortranarray(data), data[:1], data[:0]):
            np.testing.assert_array_equal(quantizer.quantize(rows),
                                          pq_quantize_pairwise(quantizer, rows))
        np.testing.assert_array_equal(quantizer.quantize(data[7]),
                                      pq_quantize_pairwise(quantizer, data[7])[0])
        if not n_coarse:
            # codebooks trained on strided sub-space views
            for m in range(4):
                want, *__ = kmeans_add_at(data[:, 4 * m:4 * m + 4], 256,
                                          seed=m, n_iters=5)
                np.testing.assert_array_equal(quantizer.codebooks[m], want)

    def test_validation(self):
        with pytest.raises(ValueError):
            PQQuantizer(7, n_subvectors=4)  # dim not divisible
        with pytest.raises(ValueError):
            PQQuantizer(8, n_subvectors=4, n_centroids=300)


class TestQuantizedEmbeddingStore:
    @pytest.fixture(params=["int8", "pq"])
    def mode(self, request):
        return request.param

    def make_store(self, mode, data):
        kwargs = {"n_subvectors": 4, "n_centroids": 16} if mode == "pq" else {}
        store = QuantizedEmbeddingStore(data.shape[1], mode=mode, **kwargs)
        store.put_many([f"u{i}" for i in range(len(data))], data)
        return store

    def test_round_trip_all_keys(self, mode):
        data = clustered(n=200, dim=8)
        store = self.make_store(mode, data)
        assert len(store) == 200
        got = store.get_many([f"u{i}" for i in range(200)])
        if mode == "int8":
            assert np.all(np.abs(got - data) <= store.dequant_bound() + 1e-12)
        else:
            err = np.sqrt(np.sum((got - data) ** 2, axis=1))
            assert np.all(err <= store.dequant_bound() + 1e-9)

    def test_memory_reduction(self, mode):
        data = clustered(n=500, dim=16)
        store = self.make_store(mode, data)
        floor = 4.0 if mode == "int8" else 8.0
        assert data.nbytes / store.nbytes >= floor
        assert store.bytes_saved == data.nbytes - store.nbytes

    def test_from_store(self, mode):
        data = clustered(n=50, dim=8)
        exact = EmbeddingStore(8)
        exact.put_many([f"u{i}" for i in range(50)], data)
        quant = QuantizedEmbeddingStore.from_store(
            exact, mode=mode,
            **({"n_subvectors": 4, "n_centroids": 16} if mode == "pq" else {}))
        assert sorted(quant.keys()) == sorted(exact.keys())

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            QuantizedEmbeddingStore(8, mode="fp4")

    def test_is_the_float_store_with_a_codec(self):
        assert issubclass(QuantizedEmbeddingStore, EmbeddingStore)
        core = {"rows_for", "write", "read", "get", "get_many", "get_batch",
                "keys", "as_matrix", "save_snapshot", "load", "is_mapped"}
        assert not core & set(vars(QuantizedEmbeddingStore))

    def test_load_rebuilds_the_saved_pq_layout(self, tmp_path):
        # dim 12 with 4 sub-vectors: the default 8 does not divide it
        data = clustered(n=60, dim=12)
        store = QuantizedEmbeddingStore(12, mode="pq", n_subvectors=4,
                                        n_centroids=16, n_coarse=3)
        store.put_many(range(60), data)
        store.save_snapshot(tmp_path / "snap.npz")
        loaded = QuantizedEmbeddingStore.load(tmp_path / "snap.npz")
        assert loaded.quantizer.n_subvectors == 4
        assert loaded.quantizer.n_coarse == 3
        np.testing.assert_array_equal(loaded.as_matrix()[1],
                                      store.as_matrix()[1])


def mixture(rng, n, dim, n_clusters=32, spread=0.35):
    """Gaussian-mixture rows, the shape real user embeddings take."""
    centers = rng.normal(size=(n_clusters, dim))
    assign = rng.integers(0, n_clusters, size=n)
    return centers[assign] + rng.normal(scale=spread, size=(n, dim))


class TestServingFloors:
    """What the quantized serving tier promises at dim 64: the memory cut
    against the float64 matrix and the recall@100 an exact scan over the
    dequantized rows keeps against the float64 ground truth.  Both are
    deterministic given the seed and the corpus size.  The PQ floors are for
    the residual-coded configuration."""

    K = 100
    PQ = {"n_subvectors": 32, "n_coarse": 64}

    def store_and_recall(self, n, mode, **kwargs):
        rng = np.random.default_rng(0)
        matrix = mixture(rng, n, 64)
        queries = mixture(rng, 50, 64)
        store = QuantizedEmbeddingStore(64, mode=mode, seed=0, **kwargs)
        store.put_many(np.arange(n), matrix)
        truth = exact_top_k(matrix, queries, self.K)
        served = exact_top_k(store.as_matrix()[1], queries, self.K)
        recall = np.mean([np.isin(t, s).mean() for t, s in zip(truth, served)])
        return matrix.nbytes / store.nbytes, recall

    def test_int8_memory_and_recall(self):
        reduction, recall = self.store_and_recall(8_000, "int8")
        assert reduction >= 4.0
        assert recall >= 0.95

    def test_residual_pq_recall(self):
        __, recall = self.store_and_recall(2_000, "pq", **self.PQ)
        assert recall >= 0.85

    @pytest.mark.slow
    def test_residual_pq_memory(self):
        # The codebooks are a fixed cost; 8k rows amortise them past 8x.
        reduction, recall = self.store_and_recall(8_000, "pq", **self.PQ)
        assert reduction >= 8.0
        assert recall >= 0.85
