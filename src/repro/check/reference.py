"""The dense reference chain the batched-softmax kernel is checked against.

Product code scores CSR targets with one task per field
(:func:`repro.nn.functional.sampled_softmax_nll`).  The composition it
replaced — dense ``(B, C)`` targets through ``rows → matmul → take →
log_softmax → mul → sum → neg → mul`` in autograd — lives here for the
oracles, gradcheck cases and tests that hold the kernel to it within
:func:`chain_tolerance`.  No product code calls it.
"""

from __future__ import annotations

import numpy as np

from repro.data.sparse import CSRMatrix
from repro.nn import functional as F
from repro.nn.tensor import Tensor

__all__ = ["dense_targets", "csr_from_dense", "logits_for_rows",
           "softmax_nll_chain", "chain_tolerance"]


def dense_targets(field_batch, columns: np.ndarray) -> np.ndarray:
    """A ``FieldBatch``'s counts over the sorted ``columns`` as a dense
    float64 ``(B, len(columns))`` array; features outside are dropped."""
    columns = np.asarray(columns, dtype=np.int64)
    indices = field_batch.indices
    out = np.zeros((field_batch.n_users, columns.size))
    if columns.size == 0:
        return out
    pos = np.minimum(np.searchsorted(columns, indices), columns.size - 1)
    inside = columns[pos] == indices
    vals = (np.ones(indices.size) if field_batch.weights is None
            else field_batch.weights)
    np.add.at(out, (field_batch.segment_ids()[inside], pos[inside]),
              vals[inside])
    return out


def csr_from_dense(dense: np.ndarray) -> CSRMatrix:
    """The non-zero entries of a dense ``(B, C)`` target matrix as CSR."""
    rows, cols = np.nonzero(dense)
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:])
    return CSRMatrix(indptr, cols, dense[rows, cols], dense.shape[1])


def logits_for_rows(head, trunk: Tensor, rows: np.ndarray) -> Tensor:
    """A ``FieldOutputHead``'s ``trunk @ W[rows].T + b[rows]`` (grown to
    fit ``rows``)."""
    head.ensure_capacity(int(rows.max()) + 1 if rows.size else 0)
    return trunk @ F.rows(head.weight, rows).T + F.take(head.bias, rows)


def softmax_nll_chain(h: Tensor, weight: Tensor, bias: Tensor,
                      rows: np.ndarray, targets: np.ndarray,
                      scale: float = 1.0) -> Tensor:
    """One field's ``-(targets * log_softmax(h @ W[rows].T + b[rows])).sum()
    * scale``, the dense ``(B, C)`` targets cast to the logits dtype."""
    logits = h @ F.rows(weight, rows).T + F.take(bias, rows)
    dense = Tensor(np.asarray(targets, dtype=logits.data.dtype))
    return -(dense * F.log_softmax(logits, axis=-1)).sum() * scale


def chain_tolerance(dtype) -> float:
    """rtol (and atol relative to the largest value) of kernel-vs-chain
    comparisons: the same terms summed in other orders, a few hundred ulps
    of ``dtype`` at most on the sizes the checks use."""
    return 512 * float(np.finfo(dtype).eps)
