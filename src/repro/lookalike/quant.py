"""Quantized embedding storage: int8 scalar and product quantization (PQ).

At deployment scale the embedding table dominates serving memory: 1M users of
dim-64 float64 embeddings is ~512MB before a single request is served.  The
FastVAE line of work (Chen et al., *Fast Variational AutoEncoder with
Inverted Multi-Index for Collaborative Filtering*) shows codebook structure
tames both the memory and the retrieval cost.  This module is the memory
half: :class:`QuantizedEmbeddingStore` keeps **uint8 code matrices** plus a
small per-store codebook instead of float64 rows —

* ``mode="int8"`` — symmetric per-dimension scalar quantization.  One uint8
  code per dimension (8x smaller than float64); the dequantization error of
  any vector inside the trained range is bounded per dimension by half the
  quantization step (:meth:`Int8Quantizer.bound`).
* ``mode="pq"`` — product quantization: the vector is split into
  ``n_subvectors`` contiguous sub-vectors and each is replaced by the index
  of its nearest centroid in a per-subspace codebook trained with a seeded
  Lloyd's loop (:func:`kmeans`).  One uint8 code per *sub-vector* (64x
  smaller for dim-64 with 8 subvectors); the training-set round-trip error
  is recorded as :attr:`PQQuantizer.train_bound`.

The store is a subclass of :class:`~repro.lookalike.store.EmbeddingStore`
that adds a codec and nothing else: the key index, row growth, batch reads
(``get``/``get_many``/``get_batch``/``rows_for``/``as_matrix``) and the
snapshot format (``save_snapshot``/``load(mmap=True)`` with copy-on-write on
the first ``put``) are the float store's, run over a uint8 code matrix.  It
drops into the :class:`~repro.lookalike.serving.ServingProxy` resilience
chain and the batched serving fast path unchanged.  Reads dequantize on the
fly (serving sees plain float64 rows); the exact float store remains the
oracle-pinned reference (``repro check``: ``lookalike.quant.dequant_bound``
and ``serve.quantized_proxy_vs_exact``).

All quantizer training is **deterministic per seed**: the same training
matrix and seed produce bit-identical scales, codebooks and codes.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro.lookalike.store import EmbeddingStore
from repro.obs import runtime as obs
from repro.utils.rng import new_rng

__all__ = ["kmeans", "Int8Quantizer", "PQQuantizer", "QuantizedEmbeddingStore"]

#: Bytes of the ``(rows, k)`` distance block :func:`_nearest` scores at a
#: time: the optimum of the sweep in docs/PERFORMANCE.md — a constant, not a
#: knob.
_BLOCK_BYTES = 256 * 1024


def _nearest(points: np.ndarray, centroids: np.ndarray,
             p_norm: np.ndarray) -> np.ndarray:
    """Row index of each point's nearest centroid, ties to the lower index.

    ``p_norm`` is ``(points ** 2).sum(axis=1)``.  The distances
    ``‖p‖² − 2p·cᵀ + ‖c‖²`` are scored ``_BLOCK_BYTES`` of rows at a time in
    one scratch buffer, never as an ``(n, k)`` matrix.  Each row sees the
    same operations in the same order as the whole-matrix formula (doubling
    the centroids instead of the points is exact), so with single-threaded
    BLAS the result is bit-identical to its ``argmin``.  (A multi-threaded
    GEMM rounds by how it is split over threads, blocked or not.)

    Every block has the same row count, at least two: BLAS rounds a small
    product differently (OpenBLAS takes GEMV for one row and a small-matrix
    kernel below ~1200 outputs), so a short ragged tail would not match the
    whole-matrix GEMM.  The last block overlaps its predecessor instead.
    """
    n, k = points.shape[0], centroids.shape[0]
    rows = min(max(n, 1), max(2, _BLOCK_BYTES // (8 * k)))
    c2t = (2.0 * centroids).T
    c_norm = (centroids ** 2).sum(axis=1)
    block = np.empty((rows, k))
    assign = np.empty(n, dtype=np.intp)
    for start in range(0, n, rows):
        lo = min(start, n - rows)
        np.matmul(points[lo:lo + rows], c2t, out=block)
        np.subtract(p_norm[lo:lo + rows, None], block, out=block)
        block += c_norm
        np.argmin(block, axis=1, out=assign[lo:lo + rows])
    return assign


def _cell_order(assign: np.ndarray, k: int) -> np.ndarray:
    """Stable argsort of cell ids in ``[0, k)``.

    Sorted as the narrowest integer dtype that holds ``k - 1``: a stable
    permutation is unique, so the dtype changes only the sort's speed.
    """
    return np.argsort(assign.astype(np.min_scalar_type(k - 1)), kind="stable")


def kmeans(data: np.ndarray, k: int, seed: int | np.random.Generator = 0,
           n_iters: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd's loop: ``(centroids, assignments)``.

    Deterministic per ``(data, k, seed, n_iters)``: initial centroids are a
    seeded no-replacement draw, assignment ties break toward the lower
    centroid index (``argmin``), and an emptied cluster is re-seeded to the
    point currently farthest from its centroid (stable ``argsort``, so the
    choice is reproducible).  Stops early on convergence.
    """
    # Contiguous once: SciPy would copy a strided view (a PQ sub-space) on
    # every ``members @ data``.
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"kmeans needs a non-empty (n, d) matrix, got {data.shape}")
    n = data.shape[0]
    if not 0 < k <= n:
        raise ValueError(f"k must be in [1, {n}]: {k}")
    from scipy.sparse import csr_array
    rng = new_rng(seed)
    centroids = data[np.sort(rng.choice(n, size=k, replace=False))].copy()
    p_norm = (data ** 2).sum(axis=1)
    ones = np.ones(n)
    assign = _nearest(data, centroids, p_norm)
    for __ in range(n_iters):
        counts = np.bincount(assign, minlength=k)
        # Cluster sums as one CSR product: row c lists c's members ascending,
        # and each is accumulated in that order from 0.0 — bit for bit what
        # ``np.add.at(sums, assign, data)`` computes.
        members = csr_array(
            (ones, _cell_order(assign, k),
             np.concatenate([[0], np.cumsum(counts)])), shape=(k, n))
        sums = members @ data
        filled = counts > 0
        updated = centroids.copy()
        updated[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            # Re-seed each emptied cluster to a point far from its centroid.
            d2 = ((data - updated[assign]) ** 2).sum(axis=1)
            far = np.argsort(-d2, kind="stable")[:empty.size]
            updated[empty] = data[far]
        if np.array_equal(updated, centroids):
            break
        centroids = updated
        assign = _nearest(data, centroids, p_norm)
    return centroids, assign


class Int8Quantizer:
    """Symmetric per-dimension scalar quantization to uint8 codes.

    :meth:`fit` records one positive scale per dimension
    (``max|x_d| / 127``); :meth:`quantize` rounds ``x / scale`` to the
    nearest integer in ``[-127, 127]`` and stores it offset by +128 as
    uint8.  For any value inside the trained range the round-trip error is
    at most ``scale / 2`` per dimension (:meth:`bound`); values outside the
    range clip to the range edge.
    """

    mode = "int8"

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive: {dim}")
        self.dim = dim
        self.scale: np.ndarray | None = None

    @property
    def trained(self) -> bool:
        return self.scale is not None

    @property
    def code_width(self) -> int:
        """uint8 codes per vector (one per dimension)."""
        return self.dim

    def fit(self, matrix: np.ndarray) -> "Int8Quantizer":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) matrix, got {matrix.shape}")
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit a quantizer on an empty matrix")
        maxabs = np.abs(matrix).max(axis=0)
        self.scale = np.where(maxabs > 0.0, maxabs / 127.0, 1.0)
        return self

    def _require_trained(self) -> None:
        if not self.trained:
            raise RuntimeError("quantizer is untrained; call fit() first")

    def quantize(self, matrix: np.ndarray) -> np.ndarray:
        self._require_trained()
        matrix = np.asarray(matrix, dtype=np.float64)
        codes = np.rint(matrix / self.scale)
        np.clip(codes, -127.0, 127.0, out=codes)
        return (codes + 128.0).astype(np.uint8)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        self._require_trained()
        return (codes.astype(np.float64) - 128.0) * self.scale

    def bound(self) -> np.ndarray:
        """Per-dimension round-trip error bound for in-range values."""
        self._require_trained()
        return 0.5 * self.scale

    # -- persistence -----------------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        self._require_trained()
        return {"scale": self.scale}

    @classmethod
    def from_state(cls, dim: int, state) -> "Int8Quantizer":
        quantizer = cls(dim)
        quantizer.scale = np.asarray(state["scale"], dtype=np.float64)
        return quantizer

    @property
    def nbytes(self) -> int:
        return 0 if self.scale is None else int(self.scale.nbytes)


class PQQuantizer:
    """Product quantization: per-subspace codebooks from seeded k-means.

    The ``dim`` dimensions are split into ``n_subvectors`` contiguous
    sub-vectors; each sub-vector is replaced by the uint8 index of its
    nearest centroid in that subspace's codebook (``n_centroids <= 256``
    centroids trained with :func:`kmeans`).  Dequantization concatenates
    the assigned centroids, so the round-trip error is the distance to the
    nearest centroid — for the training set it is recorded at fit time as
    :attr:`train_bound` (max L2 round-trip error over training rows).

    With ``n_coarse > 0`` the quantizer uses **residual coding** (the
    IVFPQ/inverted-multi-index layout): a coarse k-means assigns each
    vector to one of ``n_coarse`` centroids, and the sub-vector codebooks
    encode the *residual* from that centroid.  One extra uint8 per vector
    (the coarse cell id) buys a much finer effective resolution — residual
    magnitudes are a fraction of the raw coordinates, so the same 256
    centroids per subspace cover them far more densely.
    """

    mode = "pq"

    def __init__(self, dim: int, n_subvectors: int = 8,
                 n_centroids: int = 256, seed: int = 0,
                 n_iters: int = 20, n_coarse: int = 0) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive: {dim}")
        if n_subvectors <= 0 or dim % n_subvectors != 0:
            raise ValueError(
                f"n_subvectors must divide dim: dim={dim}, "
                f"n_subvectors={n_subvectors}")
        if not 1 <= n_centroids <= 256:
            raise ValueError(
                f"n_centroids must be in [1, 256] for uint8 codes: {n_centroids}")
        if not 0 <= n_coarse <= 256:
            raise ValueError(
                f"n_coarse must be in [0, 256] for uint8 cell ids: {n_coarse}")
        self.dim = dim
        self.n_subvectors = n_subvectors
        self.n_centroids = n_centroids
        self.seed = seed
        self.n_iters = n_iters
        self.n_coarse = n_coarse
        self.sub_dim = dim // n_subvectors
        #: ``(n_subvectors, k, sub_dim)`` trained centroids.
        self.codebooks: np.ndarray | None = None
        #: ``(n_coarse, dim)`` coarse centroids in residual mode.
        self.coarse_centroids: np.ndarray | None = None
        #: Max L2 round-trip error over the training rows (codebook
        #: distortion); the bound the property tests pin.
        self.train_bound: float | None = None

    @property
    def trained(self) -> bool:
        return self.codebooks is not None

    @property
    def code_width(self) -> int:
        """uint8 codes per vector: one per sub-vector, plus the coarse
        cell id in residual mode."""
        return self.n_subvectors + (1 if self.n_coarse else 0)

    def _require_trained(self) -> None:
        if not self.trained:
            raise RuntimeError("quantizer is untrained; call fit() first")

    def _split(self, matrix: np.ndarray) -> np.ndarray:
        """View ``(n, dim)`` as ``(n, n_subvectors, sub_dim)``."""
        return matrix.reshape(matrix.shape[0], self.n_subvectors, self.sub_dim)

    def fit(self, matrix: np.ndarray) -> "PQQuantizer":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) matrix, got {matrix.shape}")
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit a quantizer on an empty matrix")
        residuals = matrix
        if self.n_coarse:
            # Coarse seed sits past every subspace seed (self.seed + m), so
            # the whole training run stays a pure function of (matrix, seed).
            self.coarse_centroids, assign = kmeans(
                matrix, min(self.n_coarse, matrix.shape[0]),
                seed=self.seed + self.n_subvectors, n_iters=self.n_iters)
            residuals = matrix - self.coarse_centroids[assign]
        k = min(self.n_centroids, matrix.shape[0])
        subs = self._split(residuals)
        codebooks = np.empty((self.n_subvectors, k, self.sub_dim))
        for m in range(self.n_subvectors):
            # One derived seed per subspace keeps the whole training run a
            # pure function of (matrix, seed).
            codebooks[m], __ = kmeans(subs[:, m, :], k, seed=self.seed + m,
                                      n_iters=self.n_iters)
        self.codebooks = codebooks
        err = np.linalg.norm(matrix - self.dequantize(self.quantize(matrix)),
                             axis=1)
        self.train_bound = float(err.max())
        return self

    def quantize(self, matrix: np.ndarray) -> np.ndarray:
        self._require_trained()
        matrix = np.asarray(matrix, dtype=np.float64)
        single = matrix.ndim == 1
        matrix = np.atleast_2d(matrix)
        codes = np.empty((matrix.shape[0], self.code_width), dtype=np.uint8)
        sub_codes = codes
        if self.n_coarse:
            cells = _nearest(matrix, self.coarse_centroids,
                             (matrix ** 2).sum(axis=1))
            codes[:, 0] = cells
            matrix = matrix - self.coarse_centroids[cells]
            sub_codes = codes[:, 1:]
        subs = self._split(matrix)
        for m in range(self.n_subvectors):
            sub_codes[:, m] = _nearest(subs[:, m, :], self.codebooks[m],
                                       (subs[:, m, :] ** 2).sum(axis=1))
        return codes[0] if single else codes

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        self._require_trained()
        codes = np.atleast_2d(codes)
        sub_codes = codes[:, 1:] if self.n_coarse else codes
        parts = [self.codebooks[m][sub_codes[:, m].astype(np.int64)]
                 for m in range(self.n_subvectors)]
        out = np.concatenate(parts, axis=1)
        if self.n_coarse:
            out += self.coarse_centroids[codes[:, 0].astype(np.int64)]
        return out

    def bound(self) -> float:
        """Training-set round-trip L2 error bound (codebook distortion)."""
        self._require_trained()
        return self.train_bound

    # -- persistence -----------------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        self._require_trained()
        payload = {"codebooks": self.codebooks,
                   "train_bound": np.asarray(self.train_bound)}
        if self.n_coarse:
            payload["coarse_centroids"] = self.coarse_centroids
        return payload

    @classmethod
    def from_state(cls, dim: int, state) -> "PQQuantizer":
        codebooks = np.asarray(state["codebooks"], dtype=np.float64)
        coarse = (np.asarray(state["coarse_centroids"], dtype=np.float64)
                  if "coarse_centroids" in state else None)
        quantizer = cls(dim, n_subvectors=codebooks.shape[0],
                        n_centroids=codebooks.shape[1],
                        n_coarse=0 if coarse is None else coarse.shape[0])
        quantizer.codebooks = codebooks
        quantizer.coarse_centroids = coarse
        quantizer.train_bound = float(np.asarray(state["train_bound"]))
        return quantizer

    @property
    def nbytes(self) -> int:
        if self.codebooks is None:
            return 0
        total = int(self.codebooks.nbytes)
        if self.coarse_centroids is not None:
            total += int(self.coarse_centroids.nbytes)
        return total


_QUANTIZERS = {"int8": Int8Quantizer, "pq": PQQuantizer}


class QuantizedEmbeddingStore(EmbeddingStore):
    """:class:`~repro.lookalike.store.EmbeddingStore` whose rows are uint8 codes.

    The store core — key index, append-only rows, copy-on-write over an
    adopted mmap, the batch reads and the snapshot format — is the float
    store's; this class is its codec.  Every write quantizes through the
    store's codebook and every read dequantizes (callers see float64 rows of
    the right ``dim``).  The archive holds the codes as ``codes`` plus the
    ``mode`` and the ``quantizer_*`` state.

    The quantizer trains **once**: explicitly via :meth:`fit_quantizer`
    (or :meth:`from_store`), or implicitly on the first ``put_many`` batch.
    Later writes reuse the frozen codebook — re-training would silently
    re-interpret every stored code.  Training is deterministic per seed.

    Memory accounting: :attr:`nbytes` is codes + codebook;
    :attr:`bytes_saved` is the cut versus a float64 matrix of the same
    shape, also published as the ``quant.bytes_saved`` gauge on every write.
    """

    _ROWS = "codes"

    def __init__(self, dim: int, mode: str = "int8", *,
                 n_subvectors: int = 8, n_centroids: int = 256,
                 seed: int = 0, train_iters: int = 20,
                 n_coarse: int = 0) -> None:
        super().__init__(dim)
        if mode not in _QUANTIZERS:
            raise ValueError(
                f"unknown quantization mode '{mode}'; "
                f"available: {sorted(_QUANTIZERS)}")
        if mode == "int8":
            quantizer: Int8Quantizer | PQQuantizer = Int8Quantizer(dim)
        else:
            quantizer = PQQuantizer(dim, n_subvectors=n_subvectors,
                                    n_centroids=n_centroids, seed=seed,
                                    n_iters=train_iters, n_coarse=n_coarse)
        self._use(quantizer)

    def _use(self, quantizer: Int8Quantizer | PQQuantizer) -> None:
        """Make ``quantizer`` the codec of this (still empty) store."""
        self.mode = quantizer.mode
        self._quantizer = quantizer
        self._matrix = np.empty((0, quantizer.code_width), dtype=np.uint8)

    @classmethod
    def from_store(cls, store, mode: str = "int8",
                   **kwargs) -> "QuantizedEmbeddingStore":
        """Quantize an existing store's full matrix (codebook trained on it)."""
        keys, matrix = store.as_matrix()
        quantized = cls(store.dim, mode=mode, **kwargs)
        quantized.put_many(keys, matrix)
        return quantized

    @property
    def quantizer(self) -> Int8Quantizer | PQQuantizer:
        return self._quantizer

    @property
    def trained(self) -> bool:
        return self._quantizer.trained

    def fit_quantizer(self, matrix: np.ndarray) -> "QuantizedEmbeddingStore":
        """Train the codebook on ``matrix`` (store must still be empty)."""
        if self._quantizer.trained:
            raise RuntimeError("quantizer is already trained; codes stored "
                               "under the old codebook would be reinterpreted")
        if len(self._index):
            raise RuntimeError("store already holds rows; train the "
                               "quantizer before the first write")
        self._quantizer.fit(matrix)
        return self

    def dequant_bound(self) -> np.ndarray | float:
        """Round-trip error bound: per-dimension (int8) or L2 (pq)."""
        return self._quantizer.bound()

    # -- the codec -------------------------------------------------------------

    def _encode(self, matrix: np.ndarray) -> np.ndarray:
        if not self._quantizer.trained:
            # Train-on-first-write: the first batch is the codebook's
            # training set (the bulk-load path quantizes the whole snapshot).
            self._quantizer.fit(matrix)
        return self._quantizer.quantize(matrix)

    def _decode(self, rows: np.ndarray) -> np.ndarray:
        return self._quantizer.dequantize(rows)

    def put_many(self, keys: Iterable[Hashable], matrix: np.ndarray) -> None:
        super().put_many(keys, matrix)
        obs.gauge_set("quant.bytes_saved", self.bytes_saved, mode=self.mode)

    def as_codes(self) -> tuple[list[Hashable], np.ndarray]:
        """``(keys, code_matrix)`` — the live uint8 codes, zero-copy view."""
        return list(self._index), self._matrix[:len(self._index)]

    # -- memory accounting -------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes held: live code rows plus the codebook."""
        return (len(self._index) * self._matrix.shape[1]
                + self._quantizer.nbytes)

    @property
    def bytes_saved(self) -> int:
        """Memory cut versus a float64 matrix of the same logical shape."""
        return len(self._index) * self.dim * 8 - self.nbytes

    # -- persistence -----------------------------------------------------------

    def _archive(self) -> tuple[dict, dict]:
        members = {f"quantizer_{name}": value
                   for name, value in self._quantizer.state().items()}
        return {"dim": self.dim, "mode": self.mode}, members

    @classmethod
    def _from_archive(cls, meta: dict,
                      arrays: dict) -> "QuantizedEmbeddingStore":
        dim, prefix = int(meta["dim"]), "quantizer_"
        state = {name[len(prefix):]: value for name, value in arrays.items()
                 if name.startswith(prefix)}
        store = cls(dim)
        store._use(_QUANTIZERS[meta["mode"]].from_state(dim, state))
        return store
