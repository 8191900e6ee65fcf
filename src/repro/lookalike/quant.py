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

The store duck-types :class:`~repro.lookalike.store.EmbeddingStore` —
``get``/``put``/``get_many``/``put_many``/``get_batch``/``rows_for``/
``as_matrix``/``save_snapshot``/``load(mmap=True)`` — so it drops into the
:class:`~repro.lookalike.serving.ServingProxy` resilience chain and the
batched serving fast path unchanged.  Reads dequantize on the fly (serving
sees plain float64 rows); the exact float store remains the oracle-pinned
reference (``repro check``: ``lookalike.quant.dequant_bound`` and
``serve.quantized_proxy_vs_exact``).

Snapshots follow the PR-5 cold-start pattern: :meth:`save_snapshot` writes
the uint8 code matrix uncompressed so :meth:`QuantizedEmbeddingStore.load`
can adopt it as a read-only ``np.memmap``
(:func:`~repro.utils.fileio.mmap_npz_member`), with copy-on-write on the
first ``put``.

All quantizer training is **deterministic per seed**: the same training
matrix and seed produce bit-identical scales, codebooks and codes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_array

from repro.obs import runtime as obs
from repro.utils.rng import new_rng

__all__ = ["kmeans", "Int8Quantizer", "PQQuantizer", "QuantizedEmbeddingStore"]


def _pairwise_d2(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared L2 distances, shape ``(n_points, n_centroids)``."""
    return ((points ** 2).sum(axis=1)[:, None]
            - 2.0 * points @ centroids.T
            + (centroids ** 2).sum(axis=1)[None, :])


def kmeans(data: np.ndarray, k: int, seed: int | np.random.Generator = 0,
           n_iters: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd's loop: ``(centroids, assignments)``.

    Deterministic per ``(data, k, seed, n_iters)``: initial centroids are a
    seeded no-replacement draw, assignment ties break toward the lower
    centroid index (``argmin``), and an emptied cluster is re-seeded to the
    point currently farthest from its centroid (stable ``argsort``, so the
    choice is reproducible).  Stops early on convergence.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"kmeans needs a non-empty (n, d) matrix, got {data.shape}")
    n = data.shape[0]
    if not 0 < k <= n:
        raise ValueError(f"k must be in [1, {n}]: {k}")
    rng = new_rng(seed)
    centroids = data[np.sort(rng.choice(n, size=k, replace=False))].copy()
    # _pairwise_d2 with its per-iteration constants hoisted out of the loop.
    p_norm = (data ** 2).sum(axis=1)[:, None]
    data2 = 2.0 * data
    ones = np.ones(n)

    def nearest(centroids: np.ndarray) -> np.ndarray:
        return np.argmin((p_norm - data2 @ centroids.T)
                         + (centroids ** 2).sum(axis=1)[None, :], axis=1)

    assign = nearest(centroids)
    for __ in range(n_iters):
        counts = np.bincount(assign, minlength=k)
        # Cluster sums as one CSR product: row c lists c's members ascending,
        # and each is accumulated in that order from 0.0 — bit for bit what
        # ``np.add.at(sums, assign, data)`` computes.
        members = csr_array(
            (ones, np.argsort(assign, kind="stable"),
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
        assign = nearest(centroids)
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
            cells = np.argmin(
                _pairwise_d2(matrix, self.coarse_centroids), axis=1)
            codes[:, 0] = cells
            matrix = matrix - self.coarse_centroids[cells]
            sub_codes = codes[:, 1:]
        subs = self._split(matrix)
        for m in range(self.n_subvectors):
            sub_codes[:, m] = np.argmin(
                _pairwise_d2(subs[:, m, :], self.codebooks[m]), axis=1)
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


class QuantizedEmbeddingStore:
    """Key → vector store holding uint8 codes instead of float64 rows.

    Duck-types :class:`~repro.lookalike.store.EmbeddingStore`: the same
    read/write/persistence surface, with every read dequantizing on the fly
    (callers see float64 rows of the right ``dim``) and every write
    quantizing through the store's codebook.  Rows are append-only, exactly
    like the float store, so :meth:`rows_for` indices stay valid.

    The quantizer trains **once**: explicitly via :meth:`fit_quantizer`
    (or :meth:`from_store`), or implicitly on the first ``put_many`` batch.
    Later writes reuse the frozen codebook — re-training would silently
    re-interpret every stored code.  Training is deterministic per seed.

    Memory accounting: :attr:`nbytes` is codes + codebook;
    :attr:`bytes_saved` is the cut versus a float64 matrix of the same
    shape, also published as the ``quant.bytes_saved`` gauge.
    """

    def __init__(self, dim: int, mode: str = "int8", *,
                 n_subvectors: int = 8, n_centroids: int = 256,
                 seed: int = 0, train_iters: int = 20,
                 n_coarse: int = 0) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive: {dim}")
        if mode not in _QUANTIZERS:
            raise ValueError(
                f"unknown quantization mode '{mode}'; "
                f"available: {sorted(_QUANTIZERS)}")
        self.dim = dim
        self.mode = mode
        if mode == "int8":
            self._quantizer: Int8Quantizer | PQQuantizer = Int8Quantizer(dim)
        else:
            self._quantizer = PQQuantizer(dim, n_subvectors=n_subvectors,
                                          n_centroids=n_centroids, seed=seed,
                                          n_iters=train_iters,
                                          n_coarse=n_coarse)
        self._index: dict[Hashable, int] = {}
        self._codes = np.empty((0, self._quantizer.code_width), dtype=np.uint8)
        self._readonly = False

    @classmethod
    def from_store(cls, store, mode: str = "int8",
                   **kwargs) -> "QuantizedEmbeddingStore":
        """Quantize an existing store's full matrix (codebook trained on it)."""
        keys, matrix = store.as_matrix()
        quantized = cls(store.dim, mode=mode, **kwargs)
        quantized.put_many(keys, matrix)
        return quantized

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._index)

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

    # -- writes ----------------------------------------------------------------

    def _writable_rows(self, extra: int) -> None:
        """Private, grown code matrix with room for ``extra`` new rows."""
        needed = len(self._index) + extra
        if self._readonly:
            grown = np.empty((max(needed, len(self._index)),
                              self._codes.shape[1]), dtype=np.uint8)
            grown[:len(self._index)] = self._codes[:len(self._index)]
            self._codes = grown
            self._readonly = False
        if needed > self._codes.shape[0]:
            capacity = max(needed, 2 * self._codes.shape[0], 8)
            grown = np.empty((capacity, self._codes.shape[1]), dtype=np.uint8)
            grown[:len(self._index)] = self._codes[:len(self._index)]
            self._codes = grown

    def put(self, key: Hashable, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector shape {vector.shape} != ({self.dim},)")
        self.put_many([key], vector[None, :])

    def put_many(self, keys: Iterable[Hashable], matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        keys = list(keys)
        if matrix.shape != (len(keys), self.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} != ({len(keys)}, {self.dim})")
        if not self._quantizer.trained:
            if not keys:
                return
            # Train-on-first-write: the first batch is the codebook's
            # training set (the bulk-load path quantizes the whole snapshot).
            self._quantizer.fit(matrix)
        codes = self._quantizer.quantize(matrix)
        new = sum(1 for key in keys if key not in self._index)
        self._writable_rows(new)
        index = self._index
        next_row = len(index)
        rows = np.empty(len(keys), dtype=np.int64)
        for pos, key in enumerate(keys):
            row = index.get(key)
            if row is None:
                row = index[key] = next_row
                next_row += 1
            rows[pos] = row
        # Last-wins duplicate semantics, same as EmbeddingStore.put_many.
        self._codes[rows] = codes
        obs.gauge_set("quant.bytes_saved", self.bytes_saved, mode=self.mode)

    # -- reads -----------------------------------------------------------------

    def get(self, key: Hashable) -> np.ndarray | None:
        row = self._index.get(key)
        if row is None:
            return None
        return self._quantizer.dequantize(self._codes[row][None, :])[0]

    def rows_for(self, keys: Sequence[Hashable]) -> np.ndarray:
        """Row index per key (``-1`` for keys not in the store)."""
        index = self._index
        rows = np.empty(len(keys), dtype=np.int64)
        for pos, key in enumerate(keys):
            rows[pos] = index.get(key, -1)
        return rows

    def get_many(self, keys: Iterable[Hashable]) -> np.ndarray:
        """Stack dequantized vectors for ``keys``; raises on a missing key."""
        keys = list(keys)
        rows = self.rows_for(keys)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            key = keys[int(missing[0])]
            raise KeyError(f"no embedding stored for key {key!r}")
        if not len(keys):
            return np.empty((0, self.dim), dtype=np.float64)
        return self._quantizer.dequantize(self._codes[rows])

    def get_batch(self,
                  keys: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
        """``(matrix, found_mask)`` — zero rows for absent keys, no raise."""
        rows = self.rows_for(keys)
        found = rows >= 0
        out = np.zeros((len(keys), self.dim), dtype=np.float64)
        hit = np.flatnonzero(found)
        if hit.size:
            out[hit] = self._quantizer.dequantize(self._codes[rows[hit]])
        return out, found

    def keys(self) -> list[Hashable]:
        return list(self._index)

    def as_matrix(self) -> tuple[list[Hashable], np.ndarray]:
        """``(keys, dequantized_matrix)`` with aligned ordering.

        Unlike ``EmbeddingStore.as_matrix`` the matrix is **materialised**
        (dequantized), not a view — writing through it changes nothing.
        """
        n = len(self._index)
        if n == 0:
            return [], np.empty((0, self.dim), dtype=np.float64)
        return list(self._index), self._quantizer.dequantize(self._codes[:n])

    def as_codes(self) -> tuple[list[Hashable], np.ndarray]:
        """``(keys, code_matrix)`` — the live uint8 codes, zero-copy view."""
        return list(self._index), self._codes[:len(self._index)]

    # -- memory accounting -------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes held: live code rows plus the codebook."""
        return (len(self._index) * self._codes.shape[1]
                + self._quantizer.nbytes)

    @property
    def bytes_saved(self) -> int:
        """Memory cut versus a float64 matrix of the same logical shape."""
        return len(self._index) * self.dim * 8 - self.nbytes

    # -- persistence -----------------------------------------------------------

    def _payload(self) -> dict:
        keys, codes = self.as_codes()
        payload = {"keys": np.asarray(keys, dtype=object),
                   "codes": np.ascontiguousarray(codes),
                   "dim": self.dim, "mode": self.mode}
        for name, value in self._quantizer.state().items():
            payload[f"quantizer_{name}"] = value
        return payload

    def save(self, path: str | Path) -> None:
        np.savez_compressed(path, **self._payload())

    def save_snapshot(self, path: str | Path) -> None:
        """Uncompressed snapshot; :meth:`load` can memory-map the codes."""
        np.savez(path, **self._payload())

    @classmethod
    def load(cls, path: str | Path,
             mmap: bool = False) -> "QuantizedEmbeddingStore":
        """Load a saved store; ``mmap=True`` adopts the codes zero-copy.

        Mapping only works for :meth:`save_snapshot` archives; otherwise —
        or when mapping fails — the codes load eagerly.  A mapped store is
        read-only until the first write, which materialises a private copy
        (copy-on-write, the PR-5 cold-start pattern).
        """
        from repro.utils.fileio import mmap_npz_member

        mapped = mmap_npz_member(path, "codes") if mmap else None
        with np.load(path, allow_pickle=True) as payload:
            mode = str(payload["mode"])
            dim = int(payload["dim"])
            store = cls(dim, mode=mode)
            prefix = "quantizer_"
            state = {name[len(prefix):]: payload[name]
                     for name in payload.files if name.startswith(prefix)}
            store._quantizer = _QUANTIZERS[mode].from_state(dim, state)
            keys = list(payload["keys"])
            width = store._quantizer.code_width
            if mapped is not None and mapped.shape == (len(keys), width):
                store._index = {key: row for row, key in enumerate(keys)}
                store._codes = mapped
                store._readonly = True
            else:
                codes = np.asarray(payload["codes"], dtype=np.uint8)
                store._index = {key: row for row, key in enumerate(keys)}
                store._codes = codes.copy()
        obs.gauge_set("quant.bytes_saved", store.bytes_saved, mode=mode)
        return store

    @property
    def is_mapped(self) -> bool:
        """True while the codes are still the adopted read-only mmap."""
        return self._readonly
