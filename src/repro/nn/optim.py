"""Optimizers with dense and row-sparse update paths.

``Adam`` and ``SGD`` understand the row-sparse gradients recorded by
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

__all__ = ["Optimizer", "SGD", "Adam", "adam_step_size", "adam_update_rows"]

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


class Optimizer:
    """Base class holding the parameter list and shared bookkeeping."""

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        for p in self.params:
            if not isinstance(p, Parameter):
                raise TypeError(f"optimizer parameters must be Parameter, got {type(p)!r}")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- checkpoint support ----------------------------------------------------
    #
    # Optimizer state is addressed by *parameter position* (the param list is
    # fixed at construction), so checkpoints stay valid as long as the model
    # is rebuilt with the same architecture — the contract resume already
    # requires for the parameters themselves.

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Internal state as flat arrays (see ``load_state_arrays``)."""
        return {}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`state_arrays` (exact shapes)."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum.

    Momentum is only applied on the dense path; sparse parts fall back to
    plain SGD per touched row (momentum on sparse rows is ill-defined without
    decaying stale rows).
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        for p in self.params:
            if p.sparse_grad_parts:
                rows, grads = _coalesce(p.sparse_grad_parts)
                if self.weight_decay:
                    grads = grads + self.weight_decay * p.data[rows]
                p.data[rows] -= self.lr * grads
            if p.grad is not None:
                grad = p.grad
                if self.weight_decay:
                    grad = grad + self.weight_decay * p.data
                if self.momentum:
                    vel = self._velocity.get(id(p))
                    vel = self.momentum * vel + grad if vel is not None else grad.copy()
                    self._velocity[id(p)] = vel
                    grad = vel
                p.data -= self.lr * grad

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, p in enumerate(self.params):
            vel = self._velocity.get(id(p))
            if vel is not None:
                out[f"vel/{i}"] = vel.copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self._velocity.clear()
        for i, p in enumerate(self.params):
            vel = arrays.get(f"vel/{i}")
            if vel is not None:
                self._velocity[id(p)] = np.array(vel, copy=True)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with a lazy row-sparse path.

    For sparse gradient parts only the first/second-moment rows that were
    touched are updated (the behaviour of torch.optim.SparseAdam); bias
    correction uses the global step count.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must be in [0, 1): {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

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
        step_size = adam_step_size(self.lr, self.beta1, self.beta2, self.t)
        for p in self.params:
            if p.sparse_grad_parts:
                rows, grads = _coalesce(p.sparse_grad_parts)
                if self.weight_decay:
                    grads = grads + self.weight_decay * p.data[rows]
                m, v = self._state(p)
                adam_update_rows(p.data, m, v, rows, grads, step_size,
                                 self.beta1, self.beta2, self.eps)
            if p.grad is not None:
                grad = p.grad
                if grad.dtype != p.data.dtype:  # in-place ops would down-cast
                    raise TypeError(f"gradient of {p.name} is {grad.dtype} but "
                                    f"the parameter is {p.data.dtype}")
                if self.weight_decay:
                    grad = grad + self.weight_decay * p.data
                m, v = self._state(p)
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad ** 2
                p.data -= step_size * m / (np.sqrt(v) + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"t": np.asarray(self.t, dtype=np.int64)}
        for i, p in enumerate(self.params):
            if id(p) in self._m:
                out[f"m/{i}"] = self._m[id(p)].copy()
                out[f"v/{i}"] = self._v[id(p)].copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.t = int(arrays.get("t", 0))
        self._m.clear()
        self._v.clear()
        for i, p in enumerate(self.params):
            m = arrays.get(f"m/{i}")
            if m is not None:
                self._m[id(p)] = np.array(m, copy=True)
                self._v[id(p)] = np.array(arrays[f"v/{i}"], copy=True)
