"""Compact CSR storage for sparse multi-hot user rows.

The user feature matrix ``U`` of the paper is extremely sparse
(``N̄ ≪ J``); each field is stored as a CSR block: ``indptr`` (row extents),
``indices`` (per-field feature ids) and optional ``weights``.  The class is
intentionally small — just what the dataset, models, and evaluators need —
with an escape hatch to :mod:`scipy.sparse` for the matrix-factorisation
baselines.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A read-only CSR matrix of non-negative feature weights.

    Parameters
    ----------
    indptr:
        ``(n_rows + 1,)`` int64; row ``i`` spans ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``(nnz,)`` int64 column (feature) ids, each in ``[0, n_cols)``.
    weights:
        ``(nnz,)`` float64 weights; ``None`` means implicit all-ones.
    n_cols:
        Number of columns (the field vocabulary size ``J_k``).
    """

    __slots__ = ("indptr", "indices", "weights", "n_cols")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray | None, n_cols: int) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = None if weights is None else np.asarray(weights, dtype=np.float64)
        self.n_cols = int(n_cols)
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length n_rows+1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n_cols):
            raise ValueError("column indices out of range")
        if self.weights is not None and self.weights.shape != self.indices.shape:
            raise ValueError("weights must align with indices")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]], n_cols: int,
                  weights: Sequence[Iterable[float]] | None = None) -> "CSRMatrix":
        """Build from per-row iterables of feature ids (and optional weights)."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        chunks: list[np.ndarray] = []
        weight_chunks: list[np.ndarray] = []
        for i, row in enumerate(rows):
            ids = np.asarray(list(row), dtype=np.int64)
            chunks.append(ids)
            indptr[i + 1] = indptr[i] + ids.size
            if weights is not None:
                w = np.asarray(list(weights[i]), dtype=np.float64)
                if w.size != ids.size:
                    raise ValueError(f"row {i}: {w.size} weights for {ids.size} ids")
                weight_chunks.append(w)
        indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        w_all = np.concatenate(weight_chunks) if weights is not None and weight_chunks \
            else (None if weights is None else np.empty(0))
        return cls(indptr, indices, w_all, n_cols)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CSRMatrix":
        return cls(np.zeros(n_rows + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64), None, n_cols)

    # -- introspection ---------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return self.indices.size

    def row_nnz(self) -> np.ndarray:
        """Number of stored features per row (``N_i^k`` in the paper)."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, weights)`` for row ``i`` (weights default to ones)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        ids = self.indices[lo:hi]
        w = np.ones(ids.size) if self.weights is None else self.weights[lo:hi]
        return ids, w

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    # -- transforms ------------------------------------------------------------

    def take_rows(self, row_idx: np.ndarray) -> "CSRMatrix":
        """Return a new CSR containing only ``row_idx`` (in the given order)."""
        row_idx = np.asarray(row_idx, dtype=np.int64)
        counts = self.indptr[row_idx + 1] - self.indptr[row_idx]
        new_indptr = np.zeros(row_idx.size + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        gather = _span_gather(self.indptr[row_idx], counts)
        indices = self.indices[gather]
        weights = None if self.weights is None else self.weights[gather]
        return CSRMatrix(new_indptr, indices, weights, self.n_cols)

    def binarize(self) -> "CSRMatrix":
        """Drop weights, keeping the multi-hot structure only."""
        return CSRMatrix(self.indptr, self.indices, None, self.n_cols)

    def to_dense(self, binary: bool = False) -> np.ndarray:
        """Materialise as a dense ``(n_rows, n_cols)`` array. Eval-scale only."""
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        vals = np.ones(self.nnz) if (binary or self.weights is None) else self.weights
        np.add.at(out, (rows, self.indices), vals)
        if binary:
            out = (out > 0).astype(np.float64)
        return out

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (for SVD/LDA baselines)."""
        from scipy import sparse

        data = np.ones(self.nnz) if self.weights is None else self.weights
        return sparse.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                                 shape=self.shape)

    def column_counts(self) -> np.ndarray:
        """Per-feature occurrence counts across all rows (popularity)."""
        return np.bincount(self.indices, minlength=self.n_cols).astype(np.int64)


def _span_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i]+counts[i])`` for every span."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # classic vectorised multi-range trick
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    nonzero = counts > 0
    first_pos = np.concatenate(([0], ends[:-1]))[nonzero]
    out[first_pos] = starts[nonzero]
    out[first_pos[1:]] -= (starts[nonzero][:-1] + counts[nonzero][:-1] - 1)
    return np.cumsum(out)
