"""Approximate nearest-neighbour recall: random-hyperplane LSH and IVF.

The paper's look-alike system recalls accounts by L2 similarity over
billion-scale embedding sets; exact scans do not serve at that scale, so
production deployments put an ANN index in the online module.  Two
self-contained indexes live here:

* :class:`LSHIndex` — signed-random-projection (SimHash) with multi-table
  probing: vectors hashing to the same bucket in any table become
  candidates, and only candidates are scored exactly.
* :class:`IVFIndex` — inverted file in the FastVAE / inverted-multi-index
  tradition: a seeded k-means partitions the rows into ``n_lists`` cells
  and :meth:`~IVFIndex.fit` stores the vectors *list-contiguous*, so a
  probed cell is a slice of one matrix.  A query batch is answered
  list-major: one coarse-assignment matmul, then one small GEMM per probed
  cell scoring all of that cell's queries at once.

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
from repro.utils.rng import new_rng

__all__ = ["LSHIndex", "IVFIndex", "exact_top_k"]

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
    """Exact top-``k`` row indices per query, shape ``(n_queries, k)``.

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


def _recall_against_exact(approx: list[np.ndarray],
                          exact: np.ndarray, k: int) -> float:
    """Fraction of exact top-``k`` ids present in the approximate results."""
    hits = sum(np.isin(exact[q], approx[q]).sum()
               for q in range(exact.shape[0]))
    return hits / (exact.shape[1] * exact.shape[0])


class LSHIndex:
    """Multi-table signed-random-projection index over row vectors.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    n_tables:
        Independent hash tables (union of candidates across tables).
    n_bits:
        Hyperplanes per table; bucket count is ``2**n_bits`` per table.
    seed:
        Seed for the hyperplane draws.
    """

    def __init__(self, dim: int, n_tables: int = 8, n_bits: int = 12,
                 seed: int | np.random.Generator | None = 0) -> None:
        if dim <= 0 or n_tables <= 0 or n_bits <= 0:
            raise ValueError("dim, n_tables and n_bits must be positive")
        if n_bits > 62:
            raise ValueError(f"n_bits too large for integer bucket keys: {n_bits}")
        rng = new_rng(seed)
        self.dim = dim
        self.n_tables = n_tables
        self.n_bits = n_bits
        self._planes = rng.normal(size=(n_tables, n_bits, dim))
        #: Per-table posting lists: ``_sorted_keys[t]`` ascending bucket keys,
        #: ``_order[t]`` the row index stored at each posting-list slot.
        self._sorted_keys: np.ndarray | None = None
        self._order: np.ndarray | None = None
        self._vectors: np.ndarray | None = None

    def _bucket_keys(self, vectors: np.ndarray) -> np.ndarray:
        """Bucket key of each vector in each table, shape ``(n, n_tables)``."""
        bits = np.einsum("tbd,nd->ntb", self._planes, vectors) > 0
        powers = 1 << np.arange(self.n_bits, dtype=np.int64)
        return (bits * powers).sum(axis=2)

    def fit(self, vectors: np.ndarray) -> "LSHIndex":
        """Index ``vectors`` (``(n, dim)``); replaces any previous contents."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) vectors, got {vectors.shape}")
        self._vectors = vectors
        keys = self._bucket_keys(vectors)                       # (n, n_tables)
        order = np.argsort(keys, axis=0, kind="stable")         # (n, n_tables)
        self._order = np.ascontiguousarray(order.T)             # (n_tables, n)
        self._sorted_keys = np.ascontiguousarray(
            np.take_along_axis(keys, order, axis=0).T)          # (n_tables, n)
        obs.gauge_set("lsh.size", vectors.shape[0])
        return self

    @property
    def size(self) -> int:
        return 0 if self._vectors is None else self._vectors.shape[0]

    # -- candidate generation --------------------------------------------------

    def candidates(self, query: np.ndarray) -> np.ndarray:
        """Union of the query's bucket members across tables, sorted unique."""
        return self.candidates_batch(np.atleast_2d(query))[0]

    def candidates_batch(self, queries: np.ndarray) -> list[np.ndarray]:
        """Per-query candidate row indices; one hashing matmul for all.

        Every query's candidate set is sorted unique, so candidate order is
        deterministic and identical between the scalar and batch paths.
        """
        if self._vectors is None:
            raise RuntimeError("index is empty; call fit() first")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        qkeys = self._bucket_keys(queries)                      # (q, n_tables)
        # Vectorised bucket probes: per table, the posting-list range of
        # every query's bucket in one searchsorted pair.
        lo = np.empty_like(qkeys)
        hi = np.empty_like(qkeys)
        for table in range(self.n_tables):
            sorted_keys = self._sorted_keys[table]
            lo[:, table] = np.searchsorted(sorted_keys, qkeys[:, table], "left")
            hi[:, table] = np.searchsorted(sorted_keys, qkeys[:, table], "right")

        n_queries = queries.shape[0]
        size = self.size
        if n_queries == 1:
            # Single query (the scalar path): direct concat + unique beats
            # the ragged machinery below.
            slices = [self._order[t, lo[0, t]:hi[0, t]]
                      for t in range(self.n_tables)]
            merged = np.concatenate(slices) if slices else \
                np.empty(0, dtype=np.int64)
            return [np.unique(merged)]
        # Gather every (query, table) posting-list slice in one ragged
        # arange: slice (q, t) covers order.ravel()[t*size + lo : t*size + hi].
        starts = (lo + np.arange(self.n_tables, dtype=np.int64) * size).ravel()
        lengths = (hi - lo).ravel()
        total = int(lengths.sum())
        if total == 0:
            return [np.empty(0, dtype=np.int64) for __ in range(n_queries)]
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        flat_pos = (np.repeat(starts - offsets, lengths)
                    + np.arange(total, dtype=np.int64))
        candidates = self._order.ravel()[flat_pos]
        # Per-query sorted unique via one global sort of (query, candidate)
        # composite keys — identical output to per-query ``np.unique``.
        per_query_counts = lengths.reshape(n_queries, self.n_tables).sum(axis=1)
        owners = np.repeat(np.arange(n_queries, dtype=np.int64),
                           per_query_counts)
        composite = owners * size + candidates
        composite.sort()
        keep = np.empty(total, dtype=bool)
        keep[0] = True
        np.not_equal(composite[1:], composite[:-1], out=keep[1:])
        composite = composite[keep]
        owners = composite // size
        candidates = composite - owners * size
        bounds = np.searchsorted(owners, np.arange(n_queries + 1))
        return [candidates[bounds[q]:bounds[q + 1]]
                for q in range(n_queries)]

    # -- top-k queries ---------------------------------------------------------

    @staticmethod
    def _top_k(candidate_idx: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
        """Shared top-``k`` selection so scalar and batch tie-break alike."""
        if candidate_idx.size == 0:
            return np.empty(0, dtype=np.int64)
        top = min(k, candidate_idx.size)
        best = np.argpartition(d2, top - 1)[:top]
        order = np.argsort(d2[best])
        return candidate_idx[best[order]]

    def query(self, query: np.ndarray, k: int,
              fallback_to_exact: bool = True) -> np.ndarray:
        """Approximate top-``k`` nearest rows by L2 distance.

        When the candidate set is smaller than ``k`` and
        ``fallback_to_exact`` is set, the query falls back to an exact scan
        (guaranteed results beat silent truncation in serving).
        """
        if k <= 0:
            raise ValueError(f"k must be positive: {k}")
        with obs.latency("lsh.query_seconds"), obs.span("lsh.query"):
            query = np.asarray(query, dtype=np.float64).ravel()
            candidate_idx = self.candidates(query)
            obs.observe("lsh.candidates", candidate_idx.size)
            if candidate_idx.size < k and fallback_to_exact:
                candidate_idx = np.arange(self.size)
                obs.count("lsh.exact_fallbacks")
            vectors = self._vectors[candidate_idx]
            d2 = np.sum((vectors - query) ** 2, axis=1)
            return self._top_k(candidate_idx, d2, k)

    def query_batch(self, queries: np.ndarray, k: int,
                    fallback_to_exact: bool = True) -> list[np.ndarray]:
        """Batched :meth:`query`: per-query top-``k`` row index arrays.

        All queries are hashed in one matmul and every table probed with one
        ``searchsorted`` pair for the whole batch; rescoring then runs per
        query over its (small, cache-resident) candidate set with exactly the
        scalar path's expression, so per-query results are bit-identical to
        looped :meth:`query` calls.  (A single flat rescore over all
        ``(query, candidate)`` pairs was measured *slower* here: the
        many-megabyte gather and repeat temporaries fall out of cache,
        while per-query chunks stay in L2 — see docs/PERFORMANCE.md.)
        """
        if k <= 0:
            raise ValueError(f"k must be positive: {k}")
        with obs.latency("lsh.query_batch_seconds"), obs.span("lsh.query_batch"):
            queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
            per_query = self.candidates_batch(queries)
            fallbacks = 0
            if fallback_to_exact:
                everything = None
                for q, candidate_idx in enumerate(per_query):
                    if candidate_idx.size < k:
                        if everything is None:
                            everything = np.arange(self.size)
                        per_query[q] = everything
                        fallbacks += 1
            obs.observe_many("lsh.candidates",
                             [candidate_idx.size
                              for candidate_idx in per_query])
            if fallbacks:
                obs.count("lsh.exact_fallbacks", fallbacks)
            vectors = self._vectors
            results = []
            for q in range(queries.shape[0]):
                candidate_idx = per_query[q]
                # Same rescoring expression as the scalar path, bit for bit.
                d2 = np.sum((vectors[candidate_idx] - queries[q]) ** 2,
                            axis=1)
                results.append(self._top_k(candidate_idx, d2, k))
            return results

    def recall_at_k(self, queries: np.ndarray, k: int) -> float:
        """Fraction of exact top-``k`` neighbours the index retrieves.

        One batched approximate pass plus one chunked exact scan
        (:func:`exact_top_k`) — peak ground-truth memory stays bounded
        instead of allocating an ``(n_queries, n)`` distance matrix.
        """
        if self._vectors is None:
            raise RuntimeError("index is empty; call fit() first")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        approx = self.query_batch(queries, k, fallback_to_exact=False)
        exact = exact_top_k(self._vectors, queries, k)
        return _recall_against_exact(approx, exact, k)


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
        from repro.lookalike.quant import kmeans

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
        order = np.argsort(assign, kind="stable")
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
        (guaranteed results beat silent truncation in serving).
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
        return _recall_against_exact(approx, exact, k)
