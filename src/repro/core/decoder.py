"""Field-aware decoder: shared trunk + per-field batched-softmax heads (§IV-A/C2).

Each field ``k`` gets an independent multinomial distribution
``π^k(z) ∝ exp(f_{θ^k}(z))`` (Eq. 1).  The MLP trunk is shared across fields;
only the output layer is per-field, implemented as a grow-able row matrix
aligned with the encoder's dynamic hash table so that logits can be computed
for an arbitrary *candidate subset* of features — the batched softmax.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.fields import FieldSchema
from repro.hashing import DynamicHashTable
from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Parameter, Tensor, no_grad
from repro.utils.rng import new_rng

__all__ = ["FieldOutputHead", "FieldAwareDecoder"]

_ACT = {"tanh": F.tanh, "relu": F.relu, "sigmoid": F.sigmoid}


class FieldOutputHead(Module):
    """Per-field output layer producing logits over a candidate feature set.

    Rows are keyed by the *same* dynamic hash table as the corresponding
    encoder embedding bag, so encoder and decoder agree on the id → row
    mapping and grow together.
    """

    def __init__(self, table: DynamicHashTable, trunk_dim: int,
                 capacity: int = 1024, init_std: float = 0.01,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        self.table = table
        self.trunk_dim = trunk_dim
        self.init_std = init_std
        self._rng = new_rng(rng)
        self.weight = Parameter(self._rng.normal(0.0, init_std, size=(capacity, trunk_dim)),
                                name="weight", sparse=True)
        self.bias = Parameter(np.zeros(capacity), name="bias", sparse=True)

    @property
    def capacity(self) -> int:
        return self.weight.data.shape[0]

    def ensure_capacity(self, needed: int) -> None:
        if needed <= self.capacity:
            return
        old_capacity = self.capacity
        self.weight.data = init.grow_rows(self.weight.data, needed,
                                          self._rng, self.init_std)
        grown_b = np.zeros(self.capacity, dtype=self.bias.data.dtype)
        grown_b[:old_capacity] = self.bias.data
        self.bias.data = grown_b

    def __repr__(self) -> str:
        return f"FieldOutputHead(trunk_dim={self.trunk_dim}, capacity={self.capacity})"


class FieldAwareDecoder(Module):
    """Generative network: ``z → shared trunk → per-field log-softmax``."""

    def __init__(self, schema: FieldSchema, latent_dim: int, hidden: list[int],
                 tables: dict[str, DynamicHashTable], activation: str = "tanh",
                 capacity: int = 1024,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if not hidden:
            raise ValueError("decoder needs at least one hidden layer")
        if activation not in _ACT:
            raise ValueError(f"unknown activation '{activation}'")
        rng = new_rng(rng)
        self.schema = schema
        self.activation = activation
        self.hidden_dims = list(hidden)

        self._trunk: list[Linear] = []
        dims = [latent_dim] + list(hidden)
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = Linear(d_in, d_out, rng=rng)
            self.register_module(f"fc{i}", layer)
            self._trunk.append(layer)

        self._heads: dict[str, FieldOutputHead] = {}
        for spec in schema:
            head = FieldOutputHead(tables[spec.name], hidden[-1],
                                   capacity=capacity, rng=rng)
            self.register_module(f"head_{spec.name}", head)
            self._heads[spec.name] = head

    def head(self, field: str) -> FieldOutputHead:
        return self._heads[field]

    def trunk(self, z: Tensor) -> Tensor:
        """Shared hidden representation ``f_{L_d}(…f_1(z))``."""
        act = _ACT[self.activation]
        h = z
        for layer in self._trunk:
            h = act(layer(h))
        return h

    def recon_nll(self, trunk: Tensor, fields: Sequence[str],
                  candidate_rows: Sequence[np.ndarray], targets: Sequence,
                  scale: float = 1.0) -> Tensor:
        """Per-field reconstruction NLLs ``(len(fields),)``: each field's CSR
        ``targets`` under its batched softmax over ``candidate_rows`` (see
        :func:`repro.nn.functional.sampled_softmax_nll`)."""
        heads = [self._heads[field] for field in fields]
        for head, rows in zip(heads, candidate_rows):
            head.ensure_capacity(int(rows.max()) + 1 if rows.size else 0)
        return F.sampled_softmax_nll(trunk, [head.weight for head in heads],
                                     [head.bias for head in heads],
                                     candidate_rows, targets, scale=scale)

    def full_scores(self, z_mu: np.ndarray, field: str,
                    chunk: int = 4096) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inference-time logits of *every known feature* of ``field``.

        Returns ``(feature_ids, rows, logits)`` where ``logits`` has shape
        ``(N, n_known)`` aligned with ``feature_ids``.  Computed without
        autograd in row chunks to bound memory.
        """
        head = self._heads[field]
        items = list(head.table.items())
        ids = np.asarray([k for k, __ in items], dtype=np.int64)
        rows = np.asarray([v for __, v in items], dtype=np.int64)
        with no_grad():
            trunk = self.trunk(Tensor(z_mu)).data
        logits = np.empty((trunk.shape[0], rows.size))
        for start in range(0, rows.size, chunk):
            sel = rows[start:start + chunk]
            logits[:, start:start + chunk] = trunk @ head.weight.data[sel].T \
                + head.bias.data[sel]
        return ids, rows, logits
