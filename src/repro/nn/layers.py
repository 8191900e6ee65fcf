"""Neural-network modules built on the autograd engine.

The :class:`Module` base class provides parameter registration, recursive
traversal, train/eval modes and a simple state-dict, mirroring the familiar
PyTorch API surface the paper's models need.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import new_rng

__all__ = ["Module", "Linear", "MLP", "Dropout"]

_ACTIVATIONS = {
    "relu": F.relu,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "identity": lambda x: x,
}


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training: bool = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module (for modules held in lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children (deduplicated)."""
        seen: set[int] = set()
        for __, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot all parameter values (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameter values from :meth:`state_dict`.

        Row-sparse parameters (dynamic hash-table embeddings) may have grown
        since the snapshot; the saved prefix is restored in that case.
        """
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name, value in state.items():
            if name not in params:
                continue
            param = params[name]
            if param.data.shape == value.shape:
                param.data[...] = value
            elif param.sparse and param.data.shape[1:] == value.shape[1:] \
                    and param.data.shape[0] >= value.shape[0]:
                param.data[: value.shape[0]] = value
            else:
                raise ValueError(
                    f"shape mismatch for '{name}': {param.data.shape} vs {value.shape}")

    @property
    def dtype(self) -> np.dtype:
        """The dtype the module computes in (that of its parameters)."""
        return next(self.parameters()).data.dtype

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place (float32 training mode).

        Gradients and optimizer state built before the cast become stale;
        call this before constructing the optimizer, as ``Trainer`` does for
        ``precision="float32"`` runs.
        """
        dtype = np.dtype(dtype)
        for param in self.parameters():
            if param.data.dtype != dtype:
                param.data = param.data.astype(dtype)
        return self

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-initialised weights."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng),
                                name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_arrays(self, x: np.ndarray) -> np.ndarray:
        """Raw-array affine map for inference mode; same op order as forward."""
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data  # in-place into the fresh matmul output
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class Dropout(Module):
    """Inverted dropout layer (active only in training mode)."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self._rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class MLP(Module):
    """Multilayer perceptron with a configurable activation.

    ``dims = [in, h1, ..., out]``.  The activation is applied after every
    layer except the last (unless ``activate_last=True``).
    """

    def __init__(self, dims: list[int], activation: str = "tanh",
                 activate_last: bool = False,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dimensions")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation '{activation}'; "
                             f"choose from {sorted(_ACTIVATIONS)}")
        rng = new_rng(rng)
        self.dims = list(dims)
        self.activation = activation
        self._layers: list[Linear] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = Linear(d_in, d_out, rng=rng)
            self.register_module(f"fc{i}", layer)
            self._layers.append(layer)
        self.activate_last = activate_last

    def forward(self, x: Tensor) -> Tensor:
        act = _ACTIVATIONS[self.activation]
        last = len(self._layers) - 1
        for i, layer in enumerate(self._layers):
            x = layer(x)
            if i < last or self.activate_last:
                x = act(x)
        return x

    def __repr__(self) -> str:
        return f"MLP(dims={self.dims}, activation='{self.activation}')"
