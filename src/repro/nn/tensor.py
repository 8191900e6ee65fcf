"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the numerical substrate for every model in the library.  The
original paper implements the FVAE on TensorFlow; no deep-learning framework
is available in this environment, so we provide a compact but complete
autograd engine:

* :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations that
  produced it in a dynamic computation graph.
* :meth:`Tensor.backward` walks the graph in reverse topological order and
  accumulates gradients.
* :class:`Parameter` marks trainable leaves.  A parameter may be declared
  *row-sparse* (``sparse=True``), in which case gather-style operations record
  ``(rows, grad_rows)`` pairs instead of materialising a dense gradient.  This
  is the mechanism behind the paper's dynamic-hash-table embeddings and
  batched softmax: the cost of one optimizer step is proportional to the
  number of *touched* rows rather than the full feature vocabulary.

Every differentiable operation is expressed as an *op kernel*: a pair of
static methods ``forward(args, *parent_arrays)`` / ``backward(grad, parents,
saved, args)`` on a small op class.  :func:`_dispatch` runs the forward and
binds one backward closure per op call.

Only the operations needed by the models in this repository are implemented,
but each supports full NumPy broadcasting and is exercised by finite-difference
gradient checks in the test suite.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled", "as_tensor",
           "stable_sigmoid", "coalesce_rows"]


_GRAD_ENABLED = True


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid of a raw array.

    Computed from a single ``exp(-|x|)`` temporary: for ``x >= 0`` this is
    ``1 / (1 + e^-x)``, for ``x < 0`` it is ``e^x / (1 + e^x)`` — both branches
    share the same exponential, so no overflow and no boolean-mask fancy
    indexing.  Dtype-preserving: the Python scalar constants do not upcast
    float32 inputs under NEP 50.  Shared by :meth:`Tensor.sigmoid` and
    :func:`repro.nn.functional.softplus`'s backward pass.
    """
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def coalesce_rows(rows: np.ndarray, grads: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate row gradients: ``(rows, grads) -> (unique_rows, summed)``.

    The segment-sum formulation — stable sort, then ``np.add.reduceat`` over
    run starts — replaces the ``np.unique`` + ``np.add.at`` scatter, which is
    10–100× slower on duplicate-heavy index arrays because ``np.add.at``
    dispatches per element.  Rows come back sorted ascending; inputs that are
    already strictly increasing are returned as-is (no copy).
    """
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads)
    if rows.size <= 1:
        return rows, grads
    deltas = np.diff(rows)
    if np.all(deltas > 0):          # sorted and duplicate-free already
        return rows, grads
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    grads = grads[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    if starts.size == rows.size:    # unique after sorting: nothing to sum
        return rows, grads
    return rows[starts], np.add.reduceat(grads, starts, axis=0)


class no_grad:
    """Context manager that disables graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- op kernels ---------------------------------------------------------------
#
# Each op is a namespace class with two static methods:
#
#   forward(args, *parent_arrays) -> (out_data, saved)
#       ``args`` are the op's non-tensor arguments; ``saved`` carries
#       forward-pass values the backward needs (activation outputs, masks,
#       gathered rows).
#   backward(grad, parents, saved, args) -> None
#       Accumulates into ``parents[i].grad`` / sparse parts.  Reads parent
#       data *live* (``parents[i].data``), so dynamic-hash-table growth
#       between forward and backward is transparent.
#
# :func:`_dispatch` binds one closure per op call around these kernels.

class OpAdd:
    name = "add"

    @staticmethod
    def forward(args, a, b):
        out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                       np.result_type(a, b))
        np.add(a, b, out=out)
        return out, None

    @staticmethod
    def backward(grad, parents, saved, args):
        p0, p1 = parents
        if p0.requires_grad:
            p0._accumulate(_unbroadcast(grad, p0.data.shape))
        if p1.requires_grad:
            p1._accumulate(_unbroadcast(grad, p1.data.shape))


class OpNeg:
    name = "neg"

    @staticmethod
    def forward(args, a):
        out = np.empty(a.shape, a.dtype)
        np.negative(a, out=out)
        return out, None

    @staticmethod
    def backward(grad, parents, saved, args):
        parents[0]._accumulate(-grad)


class OpMul:
    name = "mul"

    @staticmethod
    def forward(args, a, b):
        out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                       np.result_type(a, b))
        np.multiply(a, b, out=out)
        return out, None

    @staticmethod
    def backward(grad, parents, saved, args):
        p0, p1 = parents
        if p0.requires_grad:
            p0._accumulate(_unbroadcast(grad * p1.data, p0.data.shape))
        if p1.requires_grad:
            p1._accumulate(_unbroadcast(grad * p0.data, p1.data.shape))


class OpDiv:
    name = "div"

    @staticmethod
    def forward(args, a, b):
        out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                       np.result_type(a, b))
        np.divide(a, b, out=out)
        return out, None

    @staticmethod
    def backward(grad, parents, saved, args):
        p0, p1 = parents
        if p0.requires_grad:
            p0._accumulate(_unbroadcast(grad / p1.data, p0.data.shape))
        if p1.requires_grad:
            p1._accumulate(_unbroadcast(-grad * p0.data / (p1.data ** 2),
                                        p1.data.shape))


class OpPow:
    name = "pow"

    @staticmethod
    def forward(args, a):
        return a ** args, None

    @staticmethod
    def backward(grad, parents, saved, args):
        p = parents[0]
        p._accumulate(grad * args * p.data ** (args - 1))


class OpMatmul:
    name = "matmul"

    @staticmethod
    def forward(args, a, b):
        return a @ b, None

    @staticmethod
    def backward(grad, parents, saved, args):
        p0, p1 = parents
        a, b = p0.data, p1.data
        if p0.requires_grad:
            if a.ndim == 1 and b.ndim == 1:      # dot -> scalar
                ga = grad * b
            elif b.ndim == 1:                     # matrix @ vector -> vector
                ga = np.outer(grad, b)
            else:                                 # (vector or matrix) @ matrix
                ga = grad @ b.T
            p0._accumulate(ga)
        if p1.requires_grad:
            if a.ndim == 1 and b.ndim == 1:
                gb = grad * a
            elif a.ndim == 1:
                gb = np.outer(a, grad)
            else:
                gb = a.T @ grad
            p1._accumulate(gb)


class OpReshape:
    name = "reshape"

    @staticmethod
    def forward(args, a):
        return a.reshape(args), None

    @staticmethod
    def backward(grad, parents, saved, args):
        p = parents[0]
        p._accumulate(grad.reshape(p.data.shape))


class OpTranspose:
    name = "T"

    @staticmethod
    def forward(args, a):
        return a.T, None

    @staticmethod
    def backward(grad, parents, saved, args):
        parents[0]._accumulate(grad.T)


class OpGetitem:
    name = "getitem"

    @staticmethod
    def forward(args, a):
        return a[args], None

    @staticmethod
    def backward(grad, parents, saved, args):
        p = parents[0]
        key = args
        if isinstance(p, Parameter) and not p.sparse \
                and isinstance(key, np.ndarray) \
                and np.issubdtype(key.dtype, np.integer) and key.ndim == 1:
            p.scatter_add_grad(key, grad)
            return
        full = np.zeros_like(p.data)
        np.add.at(full, key, grad)
        p._accumulate(full)


class OpSum:
    name = "sum"

    @staticmethod
    def forward(args, a):
        axis, keepdims = args
        return a.sum(axis=axis, keepdims=keepdims), None

    @staticmethod
    def backward(grad, parents, saved, args):
        axis, keepdims = args
        p = parents[0]
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        p._accumulate(np.broadcast_to(g, p.data.shape).copy())


class OpExp:
    name = "exp"

    @staticmethod
    def forward(args, a):
        out = np.empty(a.shape, a.dtype)
        np.exp(a, out=out)
        return out, out

    @staticmethod
    def backward(grad, parents, saved, args):
        parents[0]._accumulate(grad * saved)


class OpLog:
    name = "log"

    @staticmethod
    def forward(args, a):
        out = np.empty(a.shape, a.dtype)
        np.log(a, out=out)
        return out, None

    @staticmethod
    def backward(grad, parents, saved, args):
        p = parents[0]
        p._accumulate(grad / p.data)


class OpTanh:
    name = "tanh"

    @staticmethod
    def forward(args, a):
        out = np.empty(a.shape, a.dtype)
        np.tanh(a, out=out)
        return out, out

    @staticmethod
    def backward(grad, parents, saved, args):
        parents[0]._accumulate(grad * (1.0 - saved ** 2))


class OpSigmoid:
    name = "sigmoid"

    @staticmethod
    def forward(args, a):
        out = stable_sigmoid(a)
        return out, out

    @staticmethod
    def backward(grad, parents, saved, args):
        parents[0]._accumulate(grad * saved * (1.0 - saved))


class OpRelu:
    name = "relu"

    @staticmethod
    def forward(args, a):
        mask = a > 0
        return a * mask, mask

    @staticmethod
    def backward(grad, parents, saved, args):
        parents[0]._accumulate(grad * saved)


# -- dispatch -----------------------------------------------------------------

def _op_closure(op, parents, saved, args) -> Callable[[np.ndarray], None]:
    def backward(grad: np.ndarray) -> None:
        op.backward(grad, parents, saved, args)
    return backward


def _dispatch(op, parents: tuple, args, *pdata) -> "Tensor":
    """Run an op kernel and, when a gradient is needed, bind its backward.

    ``parents`` are the input Tensors, ``args`` the op's non-tensor arguments
    (index arrays, axes, exponents...), ``pdata`` the parents' arrays.  Builds
    exactly one closure per differentiable op call.
    """
    out_data, saved = op.forward(args, *pdata)
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward = _op_closure(op, parents, saved, args)
    return out


def _topo_order(root: "Tensor") -> list["Tensor"]:
    """Iterative DFS topological order of the graph below ``root``."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return topo


class Tensor:
    """A NumPy array plus the autograd bookkeeping to differentiate through it.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray`` (stored as float64 unless the
        input already has a floating dtype).
    requires_grad:
        Whether gradients should flow to this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    # Make ``ndarray <op> Tensor`` defer to our reflected operators instead
    # of numpy's sequence-iteration fallback, which would silently build an
    # object array of per-element getitem ops (wrong dtype and O(numel)
    # graph nodes).
    __array_priority__ = 100

    def __init__(self, data, requires_grad: bool = False, name: str | None = None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Build a non-leaf tensor from an ad-hoc closure (legacy/test hook).

        Library ops go through :func:`_dispatch` with static kernels; this
        remains for tests that monkeypatch ops with handwritten closures.
        """
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # -- gradient machinery ----------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        # Gradients are never mutated in place anywhere in the engine, so
        # storing the incoming array directly is safe; accumulation allocates.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar outputs; non-scalar outputs require
        an explicit seed gradient of matching shape.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() on a non-scalar tensor requires an explicit gradient")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}")

        topo = _topo_order(self)

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free intermediate gradients and graph references eagerly:
                # leaves (parameters / inputs) keep their grads.
                node._backward = None
                node._parents = ()
                node.grad = None if node is not self else node.grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, like=self.data.dtype)
        return _dispatch(OpAdd, (self, other), None, self.data, other.data)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _dispatch(OpNeg, (self,), None, self.data)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other, like=self.data.dtype))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, like=self.data.dtype) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, like=self.data.dtype)
        return _dispatch(OpMul, (self, other), None, self.data, other.data)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other, like=self.data.dtype)
        return _dispatch(OpDiv, (self, other), None, self.data, other.data)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other, like=self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log instead")
        return _dispatch(OpPow, (self,), exponent, self.data)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        if self.data.ndim > 2 or other.data.ndim > 2:
            raise ValueError("matmul supports 1-D and 2-D operands only")
        return _dispatch(OpMatmul, (self, other), None, self.data, other.data)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _dispatch(OpReshape, (self,), shape, self.data)

    @property
    def T(self) -> "Tensor":
        return _dispatch(OpTranspose, (self,), None, self.data)

    def __getitem__(self, key) -> "Tensor":
        return _dispatch(OpGetitem, (self,), key, self.data)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _dispatch(OpSum, (self,), (axis, keepdims), self.data)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self) -> "Tensor":
        return _dispatch(OpExp, (self,), None, self.data)

    def log(self) -> "Tensor":
        return _dispatch(OpLog, (self,), None, self.data)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        return _dispatch(OpTanh, (self,), None, self.data)

    def sigmoid(self) -> "Tensor":
        return _dispatch(OpSigmoid, (self,), None, self.data)

    def relu(self) -> "Tensor":
        return _dispatch(OpRelu, (self,), None, self.data)


class Parameter(Tensor):
    """A trainable leaf tensor.

    Parameters declared with ``sparse=True`` participate in row-gather
    operations (:func:`repro.nn.functional.rows`, ``embedding_bag``,
    ``sparse_logits``) by recording ``(rows, grad_rows)`` pairs in
    :attr:`sparse_grad_parts` instead of a dense gradient.  Optimizers in
    :mod:`repro.nn.optim` consume those parts with per-row updates, which is
    what makes training cost independent of the vocabulary size.

    A part may be pending on the field worker (:meth:`add_pending_grad`):
    reading :attr:`sparse_grad_parts` joins it in place, so every reader sees
    finished parts in recorded order; :meth:`zero_grad` drops it unjoined.
    """

    __slots__ = ("sparse", "_parts", "_grad_buffer")

    def __init__(self, data, name: str | None = None, sparse: bool = False) -> None:
        super().__init__(data, requires_grad=True, name=name)
        self.sparse = bool(sparse)
        self._parts: list = []
        self._grad_buffer: np.ndarray | None = None

    @property
    def sparse_grad_parts(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The recorded ``(rows, grad_rows)`` parts, pending ones joined."""
        parts = self._parts
        for i, part in enumerate(parts):
            if callable(part):
                parts[i] = part()
        return parts

    def add_pending_grad(self, join: Callable) -> None:
        """Record a part ``join()`` returns: duplicate-free ``(rows, grads)``."""
        self._parts.append(join)

    def add_sparse_grad(self, rows: np.ndarray, grad_rows: np.ndarray,
                        assume_unique: bool = False) -> None:
        """Record a row-sparse gradient contribution ``dL/dW[rows] += grad_rows``.

        Duplicate rows within the part are coalesced here (sort + segment
        sum), so the optimizer's sparse step sees each touched row exactly
        once per part.

        ``assume_unique=True`` is a caller promise that ``rows`` are already
        duplicate-free (e.g. a candidate feature set), letting the part be
        recorded as-is: row-wise optimizer updates are independent, so only
        the row → gradient pairing matters, not row order, and the sort +
        segment sum here would be pure overhead.
        """
        if assume_unique:
            self._parts.append((rows, grad_rows))
        else:
            self._parts.append(coalesce_rows(rows, grad_rows))

    @property
    def grad_buffer(self) -> np.ndarray:
        """Reusable zeroed dense-gradient workspace matching ``self.data``.

        Steady-state training reuses one buffer per parameter instead of
        allocating ``np.zeros_like(data)`` every backward pass; the buffer is
        recreated only when the parameter grows (dynamic hash tables).  Each
        access re-zeroes the buffer, so callers get scratch space ready for
        scatter-accumulation.
        """
        buf = self._grad_buffer
        if buf is None or buf.shape != self.data.shape \
                or buf.dtype != self.data.dtype:
            buf = np.zeros_like(self.data)
            self._grad_buffer = buf
        else:
            buf[...] = 0.0
        return buf

    def scatter_add_grad(self, index: np.ndarray, grad_rows: np.ndarray,
                         assume_unique: bool = False) -> None:
        """Accumulate a gather-op gradient ``dL/dW[index] += grad_rows``.

        Sparse parameters record a coalesced sparse part; dense parameters
        scatter into the reusable :attr:`grad_buffer` workspace (duplicate
        indices pre-summed by :func:`coalesce_rows`, so the scatter is a
        plain vectorised fancy-index add rather than ``np.add.at``).
        ``assume_unique`` as in :meth:`add_sparse_grad`.
        """
        if self.sparse:
            self.add_sparse_grad(index, grad_rows, assume_unique=assume_unique)
            return
        if assume_unique:
            rows, grads = index, grad_rows
        else:
            rows, grads = coalesce_rows(index, grad_rows)
        if self.grad is None:
            buf = self.grad_buffer
            buf[rows] += grads
            self.grad = buf
        elif self.grad is self._grad_buffer:
            # The workspace already holds this parameter's gradient: scatter
            # in place (nothing else can reference the buffer).
            self.grad[rows] += grads
        else:
            # Rare: a dense op already accumulated a foreign array; keep the
            # never-mutate-shared-grads invariant by adding a fresh scatter.
            full = np.zeros_like(self.data)
            full[rows] += grads
            self._accumulate(full)

    def zero_grad(self) -> None:
        self.grad = None
        self._parts = []

    def densify_grad(self) -> np.ndarray:
        """Materialise the full gradient (dense part + sparse parts).

        Used by gradient checks and by dense optimizers applied to sparse
        parameters; training loops should prefer the sparse path.
        """
        full = np.zeros_like(self.data) if self.grad is None else self.grad.copy()
        for rows, grad_rows in self.sparse_grad_parts:
            np.add.at(full, rows, grad_rows)
        return full

    def __repr__(self) -> str:
        tag = f" '{self.name}'" if self.name else ""
        sparse = ", sparse" if self.sparse else ""
        return f"Parameter{tag}(shape={self.shape}{sparse})"


def as_tensor(value, like=None) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one).

    ``like`` is a dtype hint honoured only by *dtype-free* operands — Python
    scalars and integer arrays adopt it instead of the float64 default, so
    float32 tensors survive arithmetic with literal constants without
    upcasting.  Operands that already carry a floating dtype keep it.
    """
    if isinstance(value, Tensor):
        return value
    if like is not None:
        if isinstance(value, (bool, int, float)):
            return Tensor(np.asarray(value, dtype=like))
        arr = np.asarray(value)
        if not np.issubdtype(arr.dtype, np.floating):
            return Tensor(arr.astype(like))
        return Tensor(arr)
    return Tensor(value)
