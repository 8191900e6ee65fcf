"""Functional operations on :class:`~repro.nn.tensor.Tensor`.

Besides the usual activations this module implements the three operations the
paper's efficiency section (§IV-C) relies on:

* :func:`rows` / :func:`take` — gather rows (or scalar entries) of a
  parameter.  For row-sparse parameters the backward pass records
  ``(rows, grad_rows)`` pairs instead of a dense gradient, so the update cost
  is proportional to the gathered rows only.  Together with
  :class:`repro.hashing.DynamicHashTable` this is the "dynamic hash table"
  encoder input layer.
* :func:`embedding_bag` — per-bag sum of embedding rows as one CSR × dense
  product, i.e. the first encoder layer computed directly from sparse feature
  ids (cost ``O(N̄·D)`` instead of ``O(J·D)``, in arithmetic and in memory).
* :func:`sampled_softmax_nll` — the decoder's *batched softmax*,
  ``log_softmax(h @ W[cand].T + b[cand])`` over the batch's candidate
  feature set only (cost ``O(N̄_b·D)``), scored at the observed entries of
  CSR targets; one independent task per field.

Every op follows the static-kernel protocol of :mod:`repro.nn.tensor`
(``forward(args, *parent_arrays)`` / ``backward(grad, parents, saved,
args)``).  All ops are dtype-preserving: float32 inputs produce float32 outputs (the dropout
mask and sampled-softmax targets are cast to the operand dtype instead of
silently promoting to float64).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.nn.parallel import defer, run_tasks
from repro.nn.tensor import (Parameter, Tensor, _dispatch, as_tensor,
                             coalesce_rows, stable_sigmoid)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

__all__ = [
    "relu", "tanh", "sigmoid", "exp", "log", "softplus",
    # embedding_bag_data (raw-array forward shared with embedding_bag) is
    # deliberately not in __all__: the gradcheck coverage sweep requires a
    # case for every export, and the helper has no gradient of its own.
    "rows", "take", "embedding_bag", "sampled_softmax_nll",
    "softmax", "log_softmax", "dropout", "concat", "stack_rows",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    return as_tensor(x).relu()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    return as_tensor(x).sigmoid()


def exp(x: Tensor) -> Tensor:
    return as_tensor(x).exp()


def log(x: Tensor) -> Tensor:
    return as_tensor(x).log()


class OpSoftplus:
    name = "softplus"

    @staticmethod
    def forward(args, a):
        return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a))), None

    @staticmethod
    def backward(grad, parents, saved, args):
        p = parents[0]
        p._accumulate(grad * stable_sigmoid(p.data))


def softplus(x: Tensor) -> Tensor:
    """``log(1 + e^x)`` computed stably as ``max(x,0) + log1p(e^-|x|)``."""
    x = as_tensor(x)
    return _dispatch(OpSoftplus, (x,), None, x.data)


def _scatter_grad(weight: Tensor, index: np.ndarray, grad_rows: np.ndarray,
                  assume_unique: bool = False) -> None:
    """Route a gather-op gradient to ``weight``.

    Parameters take the coalesced path (sparse part or reusable dense
    workspace, see :meth:`Parameter.scatter_add_grad`); plain tensors fall
    back to a freshly allocated dense scatter.  ``assume_unique`` promises
    ``index`` is duplicate-free, skipping the coalesce (see
    :meth:`Parameter.add_sparse_grad`).
    """
    if isinstance(weight, Parameter):
        weight.scatter_add_grad(index, grad_rows, assume_unique=assume_unique)
        return
    if assume_unique:
        unique, summed = index, grad_rows
    else:
        unique, summed = coalesce_rows(index, grad_rows)
    full = np.zeros_like(weight.data)
    full[unique] += summed
    weight._accumulate(full)


class OpRows:
    name = "rows"

    @staticmethod
    def forward(args, w):
        return w[args], None

    @staticmethod
    def backward(grad, parents, saved, args):
        _scatter_grad(parents[0], args, grad)


def rows(weight: Tensor, index: np.ndarray) -> Tensor:
    """Gather ``weight[index]`` (rows of a 2-D tensor).

    For row-sparse parameters the gradient is recorded as a sparse part; for
    everything else duplicate indices are coalesced with a segment sum and
    scattered into the parameter's reusable gradient workspace.
    """
    index = np.asarray(index, dtype=np.int64)
    return _dispatch(OpRows, (weight,), index, weight.data)


def take(weight: Tensor, index: np.ndarray) -> Tensor:
    """Gather entries of a 1-D tensor (e.g. per-feature biases)."""
    index = np.asarray(index, dtype=np.int64)
    if weight.data.ndim != 1:
        raise ValueError("take() expects a 1-D tensor; use rows() for matrices")
    return _dispatch(OpRows, (weight,), index, weight.data)


def embedding_bag_data(weight_data: np.ndarray, indices: np.ndarray,
                       offsets: np.ndarray,
                       per_index_weights: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, csr_array]:
    """Raw-array forward of :func:`embedding_bag`: ``(out, bags)``.

    ``bags`` is the CSR matrix ``A`` of shape ``(B, capacity)`` holding bag
    ``i``'s per-index weights in row ``i``, and ``out = A @ W``: SciPy walks
    each bag and accumulates its weighted rows straight into the ``(B, D)``
    output — ``O(nnz + B·D)`` scratch, no ``(nnz, D)`` gather.

    The one implementation of the forward: the autograd :func:`embedding_bag`
    wraps it (keeping ``A`` for its backward) and inference-mode callers
    (``HashedEmbeddingBag.forward_arrays``) call it on a plain weight matrix,
    so the two paths are bit-identical by construction.
    """
    indices = np.asarray(indices, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 1:
        raise ValueError("offsets must be a 1-D array of length B+1")
    if offsets[0] != 0 or offsets[-1] != indices.size:
        raise ValueError("offsets must start at 0 and end at len(indices)")
    if (np.diff(offsets) < 0).any():
        raise ValueError("offsets must be non-decreasing")
    # SciPy ravel()s the dense operand: a non-contiguous weight would be
    # copied whole (capacity × D) on every call, so it is refused instead.
    if weight_data.ndim != 2 or not weight_data.flags.c_contiguous:
        raise ValueError("embedding_bag needs a C-contiguous 2-D weight")
    capacity = weight_data.shape[0]
    # The compiled kernel does not bounds-check the row ids it is handed.
    if indices.size and (indices.min() < 0 or indices.max() >= capacity):
        raise IndexError(f"embedding row ids outside [0, {capacity})")
    if per_index_weights is None:
        values = np.ones(indices.size, dtype=weight_data.dtype)
    else:
        values = np.asarray(per_index_weights, dtype=weight_data.dtype)
    from scipy.sparse import csr_array
    bags = csr_array((values, indices, offsets),
                     shape=(offsets.size - 1, capacity))
    return bags @ weight_data, bags


class OpEmbeddingBag:
    name = "embedding_bag"

    @staticmethod
    def forward(args, w):
        return embedding_bag_data(w, *args)

    @staticmethod
    def backward(grad, parents, saved, args):
        # dW[u] = A_uᵀ @ grad with A's columns remapped onto the touched rows
        # u: a scatter-add of each bag's grad row into (U, D), already
        # coalesced, ascending and duplicate-free.
        from scipy.sparse import csr_array
        touched, columns = np.unique(saved.indices, return_inverse=True)
        local = csr_array((saved.data, columns, saved.indptr),
                          shape=(saved.shape[0], touched.size))
        _scatter_grad(parents[0], touched.astype(np.int64, copy=False),
                      local.T @ grad, assume_unique=True)


def embedding_bag(weight: Tensor, indices: np.ndarray, offsets: np.ndarray,
                  per_index_weights: np.ndarray | None = None) -> Tensor:
    """Segment-sum of embedding rows: the sparse first encoder layer.

    Parameters
    ----------
    weight:
        ``(capacity, D)`` embedding matrix (typically a sparse
        :class:`Parameter` backed by a dynamic hash table); C-contiguous.
    indices:
        Flat ``int64`` array of row ids for all bags, concatenated.
    offsets:
        ``(B + 1,)`` array; bag ``i`` covers ``indices[offsets[i]:offsets[i+1]]``.
        Empty bags are allowed and produce a zero row.
    per_index_weights:
        Optional multiplicative weight per index (feature weights/counts).

    Returns
    -------
    Tensor of shape ``(B, D)`` where row ``i`` is the (weighted) sum of the
    gathered embedding rows of bag ``i``.  The gradient reaches ``weight`` as
    one row-sparse part whose rows are strictly ascending and unique.
    """
    return _dispatch(OpEmbeddingBag, (weight,),
                     (indices, offsets, per_index_weights), weight.data)


def _field_nll(h, w, b, cand, targets, scale):
    """One field's forward task: ``(nll, saved)``.  NumPy only — it may run
    on the field worker (see :mod:`repro.nn.parallel`)."""
    n_rows, n_cols = h.shape[0], cand.size
    w_rows = w[cand]
    logits = h @ w_rows.T
    logits += b[cand]
    logits -= logits.max(axis=-1, keepdims=True)
    # Row-major flat positions of the observed entries: the forward is a
    # gather of log-probabilities there, the backward a scatter.
    rows = np.repeat(np.arange(n_rows), np.diff(targets.indptr))
    flat = rows * n_cols + targets.indices
    vals = (np.ones(flat.size, logits.dtype) if targets.weights is None
            else targets.weights.astype(logits.dtype, copy=False))
    log_probs = logits.reshape(-1)[flat]
    probs = np.exp(logits, out=logits)
    total = probs.sum(axis=-1)
    probs /= total[:, None]
    log_probs -= np.log(total)[rows]
    nll = -(vals * log_probs).sum() * scale
    return nll, (w_rows, probs, rows, flat, vals)


def _field_grads(coef, saved, need_h):
    """One field's backward task: ``(dh, glogits)``, ``dh`` ``None`` if
    nobody needs it.  NumPy only; consumes ``saved``."""
    w_rows, glogits, rows, flat, vals = saved
    g = vals * coef
    rowsum = np.bincount(rows, weights=g, minlength=glogits.shape[0])
    # glogits = scatter(g) - softmax * rowsum(g), built in the softmax
    # buffer the forward kept: no second exp, no dense target matrix.
    glogits *= -rowsum.astype(glogits.dtype)[:, None]
    np.add.at(glogits.reshape(-1), flat, g)
    return glogits @ w_rows if need_h else None, glogits


def _head_grads(glogits, h_data, need_w, need_b):
    """One field's head task: ``(dW[cand], db[cand])``, ``None`` for a
    gradient nobody needs.  NumPy only."""
    return (glogits.T @ h_data if need_w else None,
            glogits.sum(axis=0) if need_b else None)


class OpSampledSoftmaxNLL:
    name = "sampled_softmax_nll"

    @staticmethod
    def forward(args, h, *heads):
        cands, targets, scale = args
        tasks = [partial(_field_nll, h, heads[2 * k], heads[2 * k + 1],
                         cand, target, scale)
                 for k, (cand, target) in enumerate(zip(cands, targets))]
        done = run_tasks(tasks, [cand.size for cand in cands])
        return np.array([nll for nll, __ in done]), [s for __, s in done]

    @staticmethod
    def backward(grad, parents, saved, args):
        cands, __, scale = args
        h, heads = parents[0], parents[1:]
        tasks = [partial(_field_grads, -(grad[k] * scale), saved[k],
                         h.requires_grad) for k in range(len(cands))]
        grads = run_tasks(tasks, [cand.size for cand in cands])
        # Back on the calling thread, in field order: the same sums in the
        # same order whichever thread computed each field.  Candidate rows
        # are unique, so the coalescing sort + segment sum is skipped.
        for k, (dh, glogits) in enumerate(grads):
            if dh is not None:
                h._accumulate(dh)
            pair = heads[2 * k:2 * k + 2]
            task = partial(_head_grads, glogits, h.data,
                           *(p.requires_grad for p in pair))
            # Only the trunk needs dh now: sparse heads' products run on the
            # worker until Adam reaches the heads and reads their parts.
            if all(getattr(p, "sparse", False) for p in pair) \
                    and (join := defer(task)):
                for i in (0, 1):
                    if pair[i].requires_grad:
                        pair[i].add_pending_grad(
                            lambda c=cands[k], j=join, i=i: (c, j()[i]))
                continue
            for p, g in zip(pair, task()):
                if g is not None:
                    _scatter_grad(p, cands[k], g, assume_unique=True)


def sampled_softmax_nll(h: Tensor, weights: Sequence[Tensor],
                        biases: Sequence[Tensor],
                        candidate_rows: Sequence[np.ndarray],
                        targets: Sequence, scale: float = 1.0) -> Tensor:
    """Batched-softmax reconstruction NLLs of one or more fields: ``(F,)``.

    Field ``k`` scores its CSR ``targets`` under the softmax of
    ``h @ weights[k][cand].T + biases[k][cand]`` over its candidates (Eq. 1):
    ``nll[k] = -scale * sum(x * log_probs[i, j])`` over the observed entries
    ``(i, j, x)`` only, Mult-VAE's multinomial likelihood.  Each field is one
    forward task, one backward task (``glogits = scatter(coef·x) −
    softmax·rowsum(coef·x)`` and ``dh``) and one head task (``dW``, ``db``);
    inside ``Trainer.fit`` they may run on two threads, a sparse head's task
    until its parts are read (:mod:`repro.nn.parallel`), with bit-identical
    results.  The dense chain of :mod:`repro.check.reference` agrees to a
    dtype-scaled tolerance.

    ``h`` is the ``(B, D)`` trunk output shared by every field.  Per field:
    the head's ``(J, D)`` weight and ``(J,)`` bias (dense or row-sparse
    :class:`Parameter`), ``(C,)`` unique candidate row ids, and a ``(B, C)``
    CSR block with ``indptr``, ``indices``, ``weights`` (``None``: ones) and
    ``n_cols`` — the :class:`~repro.data.sparse.CSRMatrix` that
    :meth:`~repro.data.dataset.FieldBatch.csr_targets` builds.  ``scale``
    multiplies every field's NLL (e.g. ``1 / B``).
    """
    h = as_tensor(h)
    cands = [np.asarray(rows, dtype=np.int64) for rows in candidate_rows]
    targets = list(targets)
    if not 0 < len(cands) == len(weights) == len(biases) == len(targets):
        raise ValueError("need one weight, bias, candidate set and target "
                         "block per field, and at least one field")
    for cand, block in zip(cands, targets):
        if block.indptr.size != h.data.shape[0] + 1 or block.n_cols != cand.size:
            raise ValueError(
                f"targets of shape ({block.indptr.size - 1}, {block.n_cols}) "
                f"do not match {h.data.shape[0]} rows x {cand.size} candidates")
    heads = tuple(p for pair in zip(weights, biases) for p in pair)
    return _dispatch(OpSampledSoftmaxNLL, (h,) + heads,
                     (cands, targets, scale), h.data,
                     *(p.data for p in heads))


class OpSoftmax:
    name = "softmax"

    @staticmethod
    def forward(args, a):
        shifted = a - a.max(axis=args, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=args, keepdims=True)
        return out, out

    @staticmethod
    def backward(grad, parents, saved, args):
        dot = (grad * saved).sum(axis=args, keepdims=True)
        parents[0]._accumulate(saved * (grad - dot))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (differentiable, numerically stable)."""
    x = as_tensor(x)
    return _dispatch(OpSoftmax, (x,), axis, x.data)


class OpLogSoftmax:
    name = "log_softmax"

    @staticmethod
    def forward(args, a):
        shifted = a - a.max(axis=args, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=args, keepdims=True))
        out = shifted - logsumexp
        return out, out

    @staticmethod
    def backward(grad, parents, saved, args):
        soft = np.exp(saved)
        parents[0]._accumulate(
            grad - soft * grad.sum(axis=args, keepdims=True))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (differentiable, numerically stable)."""
    x = as_tensor(x)
    return _dispatch(OpLogSoftmax, (x,), axis, x.data)


class OpDropout:
    name = "dropout"

    @staticmethod
    def forward(args, a):
        p, rng = args
        # The uniform draw stays float64 (the generator's native stream, so
        # float32 and float64 models drop the same features), but the mask is
        # materialised in the input dtype: no silent promotion of the output.
        keep = rng.random(a.shape) >= p
        mask = keep.astype(a.dtype)
        mask /= (1.0 - p)
        return a * mask, mask

    @staticmethod
    def backward(grad, parents, saved, args):
        parents[0]._accumulate(grad * saved)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale kept by ``1/(1-p)``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1): {p}")
    x = as_tensor(x)
    if not training or p == 0.0:
        return x
    return _dispatch(OpDropout, (x,), (p, rng), x.data)


class OpConcat:
    name = "concat"

    @staticmethod
    def forward(args, *arrs):
        axis, splits = args
        return np.concatenate(arrs, axis=axis), None

    @staticmethod
    def backward(grad, parents, saved, args):
        axis, splits = args
        pieces = np.split(grad, splits, axis=axis)
        for t, piece in zip(parents, pieces):
            if t.requires_grad:
                t._accumulate(piece)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = tuple(as_tensor(t) for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _dispatch(OpConcat, tensors, (axis, splits),
                     *(t.data for t in tensors))


class OpStackRows:
    name = "stack_rows"

    @staticmethod
    def forward(args, *arrs):
        return np.stack(arrs, axis=0), None

    @staticmethod
    def backward(grad, parents, saved, args):
        for i, t in enumerate(parents):
            if t.requires_grad:
                t._accumulate(grad[i])


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors into a 2-D tensor (axis 0)."""
    tensors = tuple(as_tensor(t) for t in tensors)
    return _dispatch(OpStackRows, tensors, None, *(t.data for t in tensors))
