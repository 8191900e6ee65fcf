"""Approximate nearest-neighbour recall: an inverted-file (IVF) index.

The paper's look-alike system recalls accounts by L2 similarity over
billion-scale embedding sets; exact scans do not serve at that scale, so
production deployments put an ANN index in the online module.
:class:`IVFIndex` follows the FastVAE / inverted-multi-index tradition: a
seeded k-means partitions the rows into ``n_lists`` cells and
:meth:`~IVFIndex.fit` stores the vectors *list-contiguous*, so a probed cell
is a slice of one matrix.  A query batch is answered list-major: one
coarse-assignment matmul, then one small GEMM per probed cell scoring all of
that cell's queries at once.

Distances are computed in GEMM form, ``‖v‖² − 2·q·v + ‖q‖²``, by the index
and by the ground truth (:func:`exact_top_k`) alike; both select with the
same lexicographic ``(distance, row id)`` rule (``_lex_top_k``), the row id
deciding only between equal computed distances.  The GEMM form rounds
differently from ``sum((v − q)²)`` in the last bits, and BLAS may round a
small block differently from a large one, so two rows whose true distances
differ by less than that rounding can swap; wherever the arithmetic is exact
(e.g. small-integer coordinates) IVF with ``nprobe == n_lists`` equals the
exact scan id for id, ties included (the
``lookalike.ivf.exhaustive_vs_exact`` oracle pins the Gaussian case).

Recall evaluation (``recall_at_k``) compares against :func:`exact_top_k`,
which chunks the exact-scan matmul to a fixed memory budget so the ground
truth never allocates an ``(n_queries, n)`` distance matrix at million-row
scale.
"""

from __future__ import annotations

import numpy as np

from repro.obs import runtime as obs

__all__ = ["IVFIndex", "exact_top_k"]

_SCAN_CHUNK_BYTES = 32 * 2 ** 20


def _lex_top_k(d: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the lexicographic ``(d, ids)`` min-``k`` of a 1-D pool,
    best first (all of them, sorted, when the pool holds fewer than ``k``).

    One ``argpartition`` finds the ``k`` smallest distances; ``ids`` (unique
    within the pool) are consulted only among equal distances — to order the
    selection and, when the ``k``-th distance also occurs outside the
    partition, to keep its lowest ids.
    """
    if k >= d.shape[0]:
        sel = np.arange(d.shape[0])
    else:
        sel = np.argpartition(d, k - 1)[:k]
        d_sel = d[sel]
        kth = d_sel.max()
        if np.count_nonzero(d == kth) > np.count_nonzero(d_sel == kth):
            below = sel[d_sel < kth]
            tied = np.flatnonzero(d == kth)
            tied = tied[np.argsort(ids[tied])[:k - below.shape[0]]]
            sel = np.concatenate([below, tied])
    return sel[np.lexsort((ids[sel], d[sel]))]


def _scan_top_k(vectors: np.ndarray, ids: np.ndarray, queries: np.ndarray,
                k: int, chunk_bytes: int = _SCAN_CHUNK_BYTES) -> np.ndarray:
    """Exact top-``min(k, n)`` of ``ids`` per query, scanning ``vectors``
    (row ``r`` is the vector of ``ids[r]``) in chunks of ``chunk_bytes``."""
    n = vectors.shape[0]
    n_queries = queries.shape[0]
    k = min(k, n)
    # A (n_queries, rows) float64 chunk of distances costs 8 * q bytes/row.
    rows_per_chunk = max(1, int(chunk_bytes // (8 * max(1, n_queries))))
    q_norm = (queries ** 2).sum(axis=1)[:, None]
    best_d = np.empty((n_queries, 0), dtype=np.float64)
    best_i = np.empty((n_queries, 0), dtype=np.int64)
    for start in range(0, n, rows_per_chunk):
        chunk = vectors[start:start + rows_per_chunk]
        chunk_ids = ids[start:start + rows_per_chunk]
        d2 = ((chunk ** 2).sum(axis=1)[None, :]
              - 2.0 * queries @ chunk.T + q_norm)
        width = min(k, best_d.shape[1] + chunk.shape[0])
        next_d = np.empty((n_queries, width), dtype=np.float64)
        next_i = np.empty((n_queries, width), dtype=np.int64)
        for q in range(n_queries):
            # Running best-k ∪ chunk: the min-k of a union is the min-k of
            # the parts' min-ks, so chunking cannot change the selection.
            pool_d = np.concatenate([best_d[q], d2[q]])
            pool_i = np.concatenate([best_i[q], chunk_ids])
            top = _lex_top_k(pool_d, pool_i, k)
            next_d[q] = pool_d[top]
            next_i[q] = pool_i[top]
        best_d, best_i = next_d, next_i
    return best_i


def exact_top_k(vectors: np.ndarray, queries: np.ndarray, k: int,
                chunk_bytes: int = _SCAN_CHUNK_BYTES) -> np.ndarray:
    """Exact top-``k`` row indices per query, shape ``(n_queries, min(k, n))``
    for ``n`` rows: a ``k`` above ``n`` returns every row, ranked.

    The distance matrix is computed in row chunks capped at ``chunk_bytes``
    of float64 (default 32MB), merging a running best-``k`` pool between
    chunks, so peak memory is independent of the index size.  Selection is
    by lexicographic ``(distance, row_index)`` order — the unique minimum
    of the computed distances — which makes the result invariant to the
    chunk size: one giant chunk and many small ones return identical
    indices (the regression test in ``tests/test_lookalike_ivf.py`` pins
    this).
    """
    if k <= 0:
        raise ValueError(f"k must be positive: {k}")
    vectors = np.asarray(vectors, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if vectors.shape[0] == 0:
        raise ValueError("cannot scan an empty vector set")
    return _scan_top_k(vectors, np.arange(vectors.shape[0], dtype=np.int64),
                       queries, k, chunk_bytes)


class IVFIndex:
    """Inverted-file index: k-means coarse quantizer + list-contiguous rows.

    :meth:`fit` partitions the rows into ``n_lists`` cells with a seeded
    Lloyd's loop (:func:`repro.lookalike.quant.kmeans`) and copies the
    vectors once into cell order: cell ``c`` is the slice
    ``[_boundaries[c], _boundaries[c + 1])`` of the stored matrix, and
    ``_order`` maps a stored position back to the caller's row id.  The
    index owns that one matrix and keeps no reference to the caller's.

    :meth:`query_batch` assigns every query to its ``nprobe`` nearest
    centroids in one matmul, groups the ``(query, cell)`` pairs by cell and
    scores each probed cell against all of its queries with one GEMM
    (``‖v‖² − 2·Q_c·V_cᵀ + ‖q‖²``).  A query's answer is the lexicographic
    ``(distance, row id)`` min-``k`` over the members of its probed cells —
    the rule :func:`exact_top_k` applies to the whole set, so
    ``nprobe == n_lists`` reproduces the exact scan wherever the computed
    distances agree (see the module docstring on GEMM-form rounding).

    Parameters
    ----------
    dim:
        Vector dimensionality.
    n_lists:
        Coarse cells (k-means centroids).  More lists → smaller cells →
        fewer candidates per probe.
    nprobe:
        Cells probed per query.  More probes → higher recall, more work.
    seed:
        Seed for the coarse k-means.
    train_iters:
        Lloyd iterations for the coarse quantizer.
    """

    def __init__(self, dim: int, n_lists: int = 64, nprobe: int = 8,
                 seed: int = 0, train_iters: int = 15) -> None:
        if dim <= 0 or n_lists <= 0 or train_iters <= 0:
            raise ValueError("dim, n_lists and train_iters must be positive")
        if not 1 <= nprobe <= n_lists:
            raise ValueError(f"nprobe must be in [1, {n_lists}]: {nprobe}")
        self.dim = dim
        self.n_lists = n_lists
        self.nprobe = nprobe
        self.seed = seed
        self.train_iters = train_iters
        self._centroids: np.ndarray | None = None
        #: Row id of each stored position; cell ``c`` owns the positions
        #: ``_boundaries[c]:_boundaries[c + 1]`` of ``_order``, ``_vectors``
        #: (``== vectors[_order]``) and ``_norms`` (their squared norms).
        self._order: np.ndarray | None = None
        self._boundaries: np.ndarray | None = None
        self._vectors: np.ndarray | None = None
        self._norms: np.ndarray | None = None

    def fit(self, vectors: np.ndarray) -> "IVFIndex":
        """Index ``vectors`` (``(n, dim)``); replaces any previous contents."""
        from repro.lookalike.quant import _cell_order, kmeans

        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected (n, {self.dim}) vectors, got {vectors.shape}")
        n = vectors.shape[0]
        if n == 0:
            raise ValueError("cannot index an empty vector set")
        n_lists = min(self.n_lists, n)
        self._centroids, assign = kmeans(vectors, n_lists, seed=self.seed,
                                         n_iters=self.train_iters)
        order = _cell_order(assign, n_lists)
        self._order = order
        self._boundaries = np.searchsorted(
            assign[order], np.arange(n_lists + 1, dtype=np.int64))
        self._vectors = vectors[order]
        self._norms = (self._vectors ** 2).sum(axis=1)
        obs.gauge_set("ivf.size", n)
        obs.gauge_set("ivf.lists", n_lists)
        return self

    @property
    def size(self) -> int:
        return 0 if self._vectors is None else self._vectors.shape[0]

    # -- candidate generation --------------------------------------------------

    def _probe_lists(self, queries: np.ndarray) -> np.ndarray:
        """The ``nprobe`` nearest cells per query, shape ``(q, nprobe)``.

        Stable argsort over centroid distances, so probe order (and hence
        every downstream candidate set) is deterministic under ties.
        """
        if self._vectors is None:
            raise RuntimeError("index is empty; call fit() first")
        centroids = self._centroids
        nprobe = min(self.nprobe, centroids.shape[0])
        d2 = ((centroids ** 2).sum(axis=1)[None, :]
              - 2.0 * queries @ centroids.T
              + (queries ** 2).sum(axis=1)[:, None])
        probes = np.argsort(d2, axis=1, kind="stable")[:, :nprobe]
        obs.count("ivf.probes", int(probes.size))
        return probes

    def candidates(self, query: np.ndarray) -> np.ndarray:
        """Members of the query's ``nprobe`` nearest cells, sorted."""
        return self.candidates_batch(np.atleast_2d(query))[0]

    def candidates_batch(self, queries: np.ndarray) -> list[np.ndarray]:
        """Per-query candidate row ids, ascending; for inspection — the
        query path scores cells in place and never builds these lists."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        probes = self._probe_lists(queries)
        return [np.sort(np.concatenate(
                    [self._order[self._boundaries[c]:self._boundaries[c + 1]]
                     for c in row]))
                for row in probes]

    # -- top-k queries ---------------------------------------------------------

    def query(self, query: np.ndarray, k: int,
              fallback_to_exact: bool = True) -> np.ndarray:
        """Approximate top-``k`` nearest rows by L2 distance: a
        :meth:`query_batch` of one."""
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        return self.query_batch(query, k, fallback_to_exact)[0]

    def query_batch(self, queries: np.ndarray, k: int,
                    fallback_to_exact: bool = True) -> list[np.ndarray]:
        """Per-query top-``k`` row id arrays, nearest first.

        When a query's probed cells hold fewer than ``k`` members and
        ``fallback_to_exact`` is set, that query scans all rows instead
        (guaranteed results beat silent truncation in serving).  A row holds
        at most ``min(k, n)`` ids for ``n`` indexed rows, fewer without the
        fallback when its probed cells hold fewer.
        """
        if k <= 0:
            raise ValueError(f"k must be positive: {k}")
        with obs.latency("ivf.query_batch_seconds"), obs.span("ivf.query_batch"):
            queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
            probes = self._probe_lists(queries)
            nprobe = probes.shape[1]
            bounds = self._boundaries
            # Ragged (distance, row id) buffer, query-major: pair (q, j) owns
            # sizes[q, j] slots from starts[q * nprobe + j], so query q owns
            # the run query_bounds[q]:query_bounds[q + 1].
            pair_cell = probes.ravel()
            sizes = bounds[pair_cell + 1] - bounds[pair_cell]
            ends = np.cumsum(sizes)
            starts = ends - sizes
            query_bounds = np.concatenate([[0], ends[nprobe - 1::nprobe]])
            counts = np.diff(query_bounds)
            obs.observe_many("ivf.candidates", counts)
            dist = np.empty(query_bounds[-1], dtype=np.float64)
            ids = np.empty(query_bounds[-1], dtype=np.int64)

            neg2q = -2.0 * queries
            q_norm = (queries ** 2).sum(axis=1)
            by_cell = np.argsort(pair_cell, kind="stable")
            cell_bounds = np.searchsorted(
                pair_cell[by_cell], np.arange(bounds.shape[0]))
            for cell in np.flatnonzero(np.diff(cell_bounds)):
                lo, hi = bounds[cell], bounds[cell + 1]
                pairs = by_cell[cell_bounds[cell]:cell_bounds[cell + 1]]
                rows = pairs // nprobe
                block = neg2q[rows] @ self._vectors[lo:hi].T
                block += self._norms[lo:hi]
                block += q_norm[rows, None]
                slots = starts[pairs][:, None] + np.arange(hi - lo)
                dist[slots] = block
                ids[slots] = self._order[lo:hi]

            results = []
            for q in range(queries.shape[0]):
                d_q = dist[query_bounds[q]:query_bounds[q + 1]]
                ids_q = ids[query_bounds[q]:query_bounds[q + 1]]
                results.append(ids_q[_lex_top_k(d_q, ids_q, k)])
            short = np.flatnonzero(counts < k) if fallback_to_exact else ()
            if len(short):
                obs.count("ivf.exact_fallbacks", len(short))
                exact = _scan_top_k(self._vectors, self._order,
                                    queries[short], k)
                for q, row in zip(short, exact):
                    results[q] = row
            return results

    def recall_at_k(self, queries: np.ndarray, k: int) -> float:
        """Fraction of exact top-``k`` neighbours the index retrieves.

        Ground truth is the chunked exact scan (:func:`exact_top_k`'s) over
        the stored matrix, reported in caller row ids.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        approx = self.query_batch(queries, k, fallback_to_exact=False)
        exact = _scan_top_k(self._vectors, self._order, queries, k)
        hits = sum(np.isin(row, got).sum() for row, got in zip(exact, approx))
        return hits / exact.size
