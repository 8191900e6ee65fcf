"""Approximate nearest-neighbour recall: an inverted-file (IVF) index.

The paper's look-alike system recalls accounts by L2 similarity over
billion-scale embedding sets; exact scans do not serve at that scale, so
production deployments put an ANN index in the online module.
:class:`IVFIndex` follows the FastVAE / inverted-multi-index tradition: a
seeded k-means partitions the rows into ``n_lists`` cells and
:meth:`~IVFIndex.fit` stores the vectors *list-contiguous*, so a probed cell
is a slice of one matrix.  A query batch is answered list-major: one
coarse-assignment matmul, then one small GEMM per probed cell scoring all of
that cell's queries at once, written as contiguous runs into query-major
rows of distances.

Distances are computed in GEMM form, ``‖v‖² − 2·q·v + ‖q‖²``, by the index
and by the ground truth (:func:`exact_top_k`) alike; both select with the
same batched lexicographic ``(distance, row id)`` rule
(``_lex_top_k_rows``), the row id deciding only between equal computed
distances.  The GEMM form rounds differently from ``sum((v − q)²)`` in the
last bits, and BLAS may round a small block differently from a large one, so
two rows whose true distances differ by less than that rounding can swap;
wherever the arithmetic is exact (e.g. small-integer coordinates) IVF with
``nprobe == n_lists`` equals the exact scan id for id, ties included (the
``lookalike.ivf.exhaustive_vs_exact`` oracle pins the Gaussian case).
"""

from __future__ import annotations

import numpy as np

from repro.obs import runtime as obs

__all__ = ["IVFIndex", "exact_top_k"]

_SCAN_CHUNK_BYTES = 32 * 2 ** 20
_SELECT_BLOCK = 2 ** 15


def _lex_top_k_rows(d: np.ndarray, k: int,
                    ids_at) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic ``(distance, row id)`` min-``k`` of each row of ``d``
    ``(m, W)``, best first: distances and row ids, each ``(m, min(k, W))``.

    ``ids_at(rows, cols)`` maps slots of ``d`` to row ids, unique among a
    row's real slots; it is asked only for the selected slots, and for the
    slots at or below a row's ``k``-th distance where that distance also
    occurs outside the selection.  A row may end in ``+inf`` padding whose
    ids are arbitrary: padding ranks after every real slot.
    """
    m, width = d.shape
    rows = np.arange(m)[:, None]
    if k < width:
        # argpartition a block of rows at a time, so that its index array
        # stays near _SELECT_BLOCK entries (m == 0 runs one empty block)
        step = max(1, _SELECT_BLOCK // width)
        part = np.concatenate([
            np.argpartition(d[i:i + step], k, axis=1)[:, :k + 1]
            for i in range(0, max(m, 1), step)])
        sel = np.sort(part[:, :k], axis=1)      # ids_at looks up in order
        outside = d[rows[:, 0], part[:, k]]     # the (k+1)-th smallest
    else:
        sel = np.broadcast_to(np.arange(width), d.shape)
    d_sel, ids = d[rows, sel], ids_at(rows, sel)
    order = np.argsort(d_sel, axis=1)
    ranked = d_sel[rows, order]
    tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    order[tied] = np.lexsort((ids[tied], d_sel[tied]), axis=-1)
    d_sel, ids = d_sel[rows, order], ids[rows, order]
    # A k-th distance that also occurs outside the selection keeps the
    # lowest ids among every slot at or below it.
    for r in np.flatnonzero(outside == d_sel[:, -1]) if k < width else ():
        pool = np.flatnonzero(d[r] <= d_sel[r, -1])
        pool_ids = ids_at(r, pool)
        top = np.lexsort((pool_ids, d[r, pool]))[:k]
        d_sel[r], ids[r] = d[r, pool[top]], pool_ids[top]
    return d_sel, ids


def _scan_top_k(vectors: np.ndarray, ids: np.ndarray, queries: np.ndarray,
                k: int, chunk_bytes: int = _SCAN_CHUNK_BYTES) -> np.ndarray:
    """Exact top-``min(k, n)`` of ``ids`` per query, scanning ``vectors``
    (row ``r`` is the vector of ``ids[r]``) in chunks of ``chunk_bytes``."""
    n = vectors.shape[0]
    k = min(k, n)
    # A (n_queries, rows) float64 chunk of distances costs 8 * q bytes/row.
    rows_per_chunk = max(1, int(chunk_bytes // (8 * max(1, len(queries)))))
    q_norm = (queries ** 2).sum(axis=1)[:, None]
    best_d = best_i = None
    for start in range(0, n, rows_per_chunk):
        chunk = vectors[start:start + rows_per_chunk]
        chunk_ids = ids[start:start + rows_per_chunk]
        d2 = ((chunk ** 2).sum(axis=1)[None, :]
              - 2.0 * queries @ chunk.T + q_norm)
        top_d, top_i = _lex_top_k_rows(d2, k, lambda r, c: chunk_ids[c])
        if best_i is not None:
            # Running best-k ∪ chunk best-k: the min-k of a union is the
            # min-k of the parts' min-ks, so chunking cannot change it.
            pool_i = np.concatenate([best_i, top_i], axis=1)
            top_d, top_i = _lex_top_k_rows(
                np.concatenate([best_d, top_d], axis=1), k,
                lambda r, c: pool_i[r, c])
        best_d, best_i = top_d, top_i
    return best_i


def exact_top_k(vectors: np.ndarray, queries: np.ndarray, k: int,
                chunk_bytes: int = _SCAN_CHUNK_BYTES) -> np.ndarray:
    """Exact top-``k`` row indices per query, shape ``(n_queries, min(k, n))``
    for ``n`` rows: a ``k`` above ``n`` returns every row, ranked.

    Distances are computed in row chunks of at most ``chunk_bytes`` of
    float64 (default 32MB), merging a running best-``k`` between chunks, so
    peak memory is independent of the index size.  The lexicographic
    ``(distance, row index)`` order makes the result independent of the
    chunk size, ties included.
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

    A query's answer is the lexicographic ``(distance, row id)`` min-``k``
    over the members of its probed cells — the rule :func:`exact_top_k`
    applies to the whole set, so ``nprobe == n_lists`` reproduces the exact
    scan wherever the computed distances agree (see the module docstring).

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

        The lexicographic ``(distance, cell)`` min-``nprobe`` — a stable
        argsort's first ``nprobe`` — so probe order (and hence every
        downstream candidate set) is deterministic under ties.
        """
        if self._vectors is None:
            raise RuntimeError("index is empty; call fit() first")
        centroids = self._centroids
        nprobe = min(self.nprobe, centroids.shape[0])
        d2 = ((centroids ** 2).sum(axis=1)[None, :]
              - 2.0 * queries @ centroids.T
              + (queries ** 2).sum(axis=1)[:, None])
        probes = _lex_top_k_rows(d2, nprobe, lambda r, c: c)[1]
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

        Three spans under ``ivf.query_batch``: ``ivf.probe`` finds each
        query's ``nprobe`` nearest cells and lays out one ``+inf``-padded row
        of distances per query, in groups of similar pool width;
        ``ivf.score`` runs one GEMM per probed cell for all of its queries,
        adds ``‖v‖²``, writes each query's run into its row, then adds
        ``‖q‖²`` per row; ``ivf.select`` takes every group's min-``k`` at
        once (``_lex_top_k_rows``), looking up ids of selected slots only.

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
            with obs.span("ivf.probe"):
                probes = self._probe_lists(queries)
                bounds = self._boundaries
                sizes = bounds[probes + 1] - bounds[probes]
                counts = sizes.sum(axis=1)
                obs.observe_many("ivf.candidates", counts)
                # One +inf-padded matrix per group of queries whose pools
                # share a power-of-two width; pair (q, j) owns the run of
                # sizes[q, j] slots from starts[q, j], and a widest-cell
                # tail gives every slot a full window.
                group = np.frexp(counts - 1)[1]
                base, shapes, filled = np.empty_like(counts), [], 0
                for key in np.unique(group):
                    members = np.flatnonzero(group == key)
                    width = counts[members].max()
                    base[members] = filled + width * np.arange(members.size)
                    shapes.append((members, width))
                    filled += width * members.size
                widest = np.diff(bounds).max()
                dist = np.full(filled + widest, np.inf)
                groups = [(members, dist[base[members[0]]:][:members.size * w]
                           .reshape(members.size, w)) for members, w in shapes]
                starts = base[:, None] + np.cumsum(sizes, axis=1) - sizes
                # slot s lies in the last non-empty run starting at or before
                # s; a padding slot maps to some row id, never read
                by_start = np.argsort(starts[sizes > 0])
                run_starts = starts[sizes > 0][by_start]
                shift = (bounds[probes] - starts)[sizes > 0][by_start]

                def ids_at(slots: np.ndarray) -> np.ndarray:
                    run = np.searchsorted(run_starts, slots, "right") - 1
                    return self._order[np.minimum(slots + shift[run],
                                                  self.size - 1)]

            with obs.span("ivf.score"):
                windows = np.lib.stride_tricks.sliding_window_view(
                    dist, widest, writeable=True)
                neg2q = -2.0 * queries
                pair_cell = probes.ravel()
                by_cell = np.argsort(pair_cell, kind="stable")
                pair_query = by_cell // probes.shape[1]
                pair_start = starts.ravel()[by_cell]
                cell_bounds = np.searchsorted(
                    pair_cell[by_cell], np.arange(bounds.shape[0]))
                for cell in np.flatnonzero(np.diff(cell_bounds)):
                    lo, hi = bounds[cell], bounds[cell + 1]
                    pairs = slice(cell_bounds[cell], cell_bounds[cell + 1])
                    block = neg2q[pair_query[pairs]] @ self._vectors[lo:hi].T
                    block += self._norms[lo:hi]
                    windows[pair_start[pairs], :hi - lo] = block
                q_norm = (queries ** 2).sum(axis=1)
                for members, d in groups:
                    d += q_norm[members, None]

            with obs.span("ivf.select"):
                out = np.empty((len(queries), min(k, self.size)), np.int64)
                for members, d in groups:
                    row_base = base[members]
                    ids = _lex_top_k_rows(
                        d, k, lambda r, c: ids_at(row_base[r] + c))[1]
                    out[members, :ids.shape[1]] = ids
                # a short pool keeps its own ids, without the padding
                lengths = np.minimum(counts, out.shape[1])
                short = np.flatnonzero(counts < k) if fallback_to_exact else ()
                if len(short):
                    obs.count("ivf.exact_fallbacks", len(short))
                    out[short] = _scan_top_k(self._vectors, self._order,
                                             queries[short], k)
                    lengths[short] = out.shape[1]
            return [row[:n] for row, n in zip(out, lengths)]

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
