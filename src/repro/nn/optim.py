"""The optimizer: Adam with dense and row-sparse update paths.

``Adam`` understands the row-sparse gradients recorded by
:func:`repro.nn.functional.rows` / ``embedding_bag`` / ``take`` on sparse
parameters: instead of materialising a full-vocabulary gradient, only the
rows touched in the current step are updated.  This is the optimizer-side
half of the paper's complexity reduction (§IV-C) — the per-step cost becomes
proportional to the number of *observed* features, not to ``J``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.tensor import Parameter, coalesce_rows

__all__ = ["Adam", "BETA1", "BETA2", "EPS", "adam_step_size",
           "adam_update_rows"]

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults);
#: the sharded trainer's shard owners use them too.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

#: Bytes per gathered block of ``adam_update_rows`` (64 rows of 256 float32,
#: the training default): the optimum of the float32 sweep in
#: docs/PERFORMANCE.md — a constant, not a knob.
_BLOCK_BYTES = 64 * 1024


def _coalesce(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Merge sparse gradient parts into unique rows with summed gradients.

    Individual parts are duplicate-free by construction —
    ``Parameter.add_sparse_grad`` coalesces on entry unless the caller
    promised uniqueness — so a single part is consumed as-is (rows may be
    unsorted, which the row-wise optimizer updates don't care about) and
    only multi-part gradients need the cross-part coalesce.
    """
    if len(parts) == 1:
        return parts[0]
    rows = np.concatenate([r for r, __ in parts])
    grads = np.concatenate([g for __, g in parts])
    return coalesce_rows(rows, grads)


def adam_step_size(lr: float, beta1: float, beta2: float, t: int):
    """Bias-corrected step ``lr·√(1-β2ᵗ)/(1-β1ᵗ)`` of Adam's ``t``-th update."""
    return lr * np.sqrt(1.0 - beta2 ** t) / (1.0 - beta1 ** t)


def adam_update_rows(value: np.ndarray, m: np.ndarray, v: np.ndarray,
                     rows: np.ndarray, grads: np.ndarray, step_size: float,
                     beta1: float, beta2: float, eps: float) -> None:
    """Row-sparse Adam on raw state arrays, one cache-sized block at a time.

    Updates ``value[rows]``, ``m[rows]``, ``v[rows]`` in place from the
    duplicate-free ``(rows, grads)``.  The update is memory-bound: done over
    all rows at once it streams a dozen ``[R, D]`` passes through DRAM;
    walking ``rows`` in ``_BLOCK_BYTES`` blocks keeps the chain in L1/L2 with
    three block-sized scratch buffers, and since every row sees the same
    operations in the same order the result is bit-identical.  Called by
    :class:`Adam` and by the sharded trainer's shard owners (on slab views).
    """
    if grads.dtype != value.dtype:
        raise TypeError(f"gradient is {grads.dtype} but the parameter is "
                        f"{value.dtype}: some op upstream promoted it")
    # np.take's bounds-checking mode buffers every output: check once here.
    if rows.size and (rows.min() < 0 or rows.max() >= value.shape[0]):
        raise IndexError(f"row ids outside [0, {value.shape[0]})")
    block = max(1, min(rows.size, _BLOCK_BYTES // max(1, value[:1].nbytes)))
    m_buf, v_buf, w_buf = (np.empty((block,) + value.shape[1:], value.dtype)
                           for __ in range(3))
    for lo in range(0, rows.size, block):
        idx = rows[lo:lo + block]
        g = grads[lo:lo + block]
        k = idx.size
        m_rows = np.take(m, idx, axis=0, out=m_buf[:k], mode="clip")
        m_rows *= beta1
        m_rows += np.multiply(g, 1.0 - beta1, out=w_buf[:k])
        sq = np.multiply(g, g, out=w_buf[:k])  # grads stays caller-visible
        sq *= (1.0 - beta2)
        v_rows = np.take(v, idx, axis=0, out=v_buf[:k], mode="clip")
        v_rows *= beta2
        v_rows += sq
        m[idx] = m_rows
        v[idx] = v_rows
        denom = np.sqrt(v_rows, out=v_rows)
        denom += eps
        update = np.multiply(m_rows, step_size, out=m_rows)
        update /= denom
        w_rows = np.take(value, idx, axis=0, out=w_buf[:k], mode="clip")
        w_rows -= update
        value[idx] = w_rows


class Adam:
    """Adam (Kingma & Ba, 2015) with a lazy row-sparse path.

    For sparse gradient parts only the first/second-moment rows that were
    touched are updated (the behaviour of torch.optim.SparseAdam); bias
    correction uses the global step count.  ``BETA1``, ``BETA2`` and ``EPS``
    are fixed; only ``lr`` is set.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        for p in self.params:
            if not isinstance(p, Parameter):
                raise TypeError(f"optimizer parameters must be Parameter, got {type(p)!r}")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.lr = lr
        self.t = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _state(self, p: Parameter) -> tuple[np.ndarray, np.ndarray]:
        key = id(p)
        if key not in self._m:
            self._m[key] = np.zeros_like(p.data)
            self._v[key] = np.zeros_like(p.data)
        m, v = self._m[key], self._v[key]
        if m.shape != p.data.shape:  # dynamic hash table grew the parameter
            grown_m = np.zeros_like(p.data)
            grown_m[tuple(slice(0, s) for s in m.shape)] = m
            grown_v = np.zeros_like(p.data)
            grown_v[tuple(slice(0, s) for s in v.shape)] = v
            self._m[key], self._v[key] = grown_m, grown_v
            m, v = grown_m, grown_v
        return m, v

    def step(self) -> None:
        self.t += 1
        step_size = adam_step_size(self.lr, BETA1, BETA2, self.t)
        for p in self.params:
            if p.sparse_grad_parts:
                rows, grads = _coalesce(p.sparse_grad_parts)
                m, v = self._state(p)
                adam_update_rows(p.data, m, v, rows, grads, step_size,
                                 BETA1, BETA2, EPS)
            if p.grad is not None:
                grad = p.grad
                if grad.dtype != p.data.dtype:  # in-place ops would down-cast
                    raise TypeError(f"gradient of {p.name} is {grad.dtype} but "
                                    f"the parameter is {p.data.dtype}")
                m, v = self._state(p)
                m *= BETA1
                m += (1.0 - BETA1) * grad
                v *= BETA2
                v += (1.0 - BETA2) * grad ** 2
                p.data -= step_size * m / (np.sqrt(v) + EPS)

    # -- checkpoint support ----------------------------------------------------
    #
    # State is addressed by *parameter position* (the param list is fixed at
    # construction), so checkpoints stay valid as long as the model is
    # rebuilt with the same architecture — the contract resume already
    # requires for the parameters themselves.

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Step count and moments as flat arrays (see ``load_state_arrays``)."""
        out: dict[str, np.ndarray] = {"t": np.asarray(self.t, dtype=np.int64)}
        for i, p in enumerate(self.params):
            if id(p) in self._m:
                out[f"m/{i}"] = self._m[id(p)].copy()
                out[f"v/{i}"] = self._v[id(p)].copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`state_arrays` (exact shapes)."""
        self.t = int(arrays.get("t", 0))
        self._m.clear()
        self._v.clear()
        for i, p in enumerate(self.params):
            m = arrays.get(f"m/{i}")
            if m is not None:
                self._m[id(p)] = np.array(m, copy=True)
                self._v[id(p)] = np.array(arrays[f"v/{i}"], copy=True)
