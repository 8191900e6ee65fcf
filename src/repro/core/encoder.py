"""Field-aware encoder with dynamic-hash-table embeddings (§IV-A, §IV-C1).

The first encoder layer is where the paper's input-side complexity reduction
happens: instead of a dense ``J × D`` weight matrix, every field owns a
:class:`~repro.hashing.DynamicHashTable` mapping raw feature ids to rows of a
grow-able embedding matrix.  A user's first-layer activation is the weighted
sum of the embedding rows of their observed features — ``O(N̄·D)`` work and,
because the gradient is row-sparse, an ``O(N̄·D)`` optimizer step as well.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import FieldBatch, UserBatch
from repro.data.fields import FieldSchema
from repro.hashing import DynamicHashTable
from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Parameter, Tensor, stable_sigmoid
from repro.obs import runtime as obs
from repro.utils.rng import new_rng

__all__ = ["HashedEmbeddingBag", "FieldAwareEncoder"]

_ACT = {"tanh": F.tanh, "relu": F.relu, "sigmoid": F.sigmoid}

#: Raw-array activations for the inference fast path.  Each entry computes
#: exactly what the matching Tensor op computes on ``.data`` so the two
#: forwards stay bit-identical — but applied *in place* where the ufunc
#: allows it, so callers must own the buffer they pass in (the inference
#: forward only ever passes freshly computed intermediates).
_ACT_DATA = {"tanh": lambda x: np.tanh(x, out=x),
             "relu": lambda x: np.multiply(x, x > 0, out=x),
             "sigmoid": stable_sigmoid}


class HashedEmbeddingBag(Module):
    """Grow-able embedding bag keyed by a dynamic hash table.

    ``forward`` maps a :class:`FieldBatch` to the per-user sum of embedding
    rows.  Feature ids never seen before are inserted into the table (and the
    embedding matrix grown) while the module is in training mode; in eval
    mode unknown ids are dropped, which is the serving-time behaviour.
    """

    def __init__(self, dim: int, capacity: int = 1024, init_std: float = 0.01,
                 rng: np.random.Generator | int | None = None,
                 name: str | None = None) -> None:
        super().__init__()
        self.dim = dim
        self.init_std = init_std
        self._rng = new_rng(rng)
        self.table = DynamicHashTable(name=name)
        self.weight = Parameter(self._rng.normal(0.0, init_std, size=(capacity, dim)),
                                name="weight", sparse=True)

    @property
    def capacity(self) -> int:
        return self.weight.data.shape[0]

    @property
    def n_features(self) -> int:
        """Distinct feature ids seen so far."""
        return self.table.size

    def _ensure_capacity(self, needed: int) -> None:
        if needed > self.capacity:
            self.weight.data = init.grow_rows(self.weight.data, needed,
                                              self._rng, self.init_std)

    def lookup(self, feature_ids: np.ndarray, grow: bool) -> np.ndarray:
        """Map raw feature ids to embedding rows; unknown ids are -1 unless growing."""
        if grow and not self.table.frozen:
            rows = self.table.lookup_ids(feature_ids)
            self._ensure_capacity(self.table.size)
        else:
            rows = self.table.rows_for_ids(feature_ids)
        return rows

    def _known_bags(self, batch_field: FieldBatch,
                    per_index_weights: np.ndarray | None, grow: bool,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Kernel operands ``(rows, offsets, weights)`` of one field: ids the
        table does not know (and may not insert) are dropped and the bag
        offsets rebuilt around the survivors."""
        rows = self.lookup(batch_field.indices, grow=grow)
        known = rows >= 0
        if known.all():
            return rows, batch_field.offsets, per_index_weights
        counts = np.bincount(batch_field.segment_ids()[known],
                             minlength=batch_field.n_users)
        offsets = np.zeros(batch_field.n_users + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        weights = None if per_index_weights is None else per_index_weights[known]
        return rows[known], offsets, weights

    def forward(self, batch_field: FieldBatch,
                per_index_weights: np.ndarray | None = None) -> Tensor:
        """Per-user weighted sum of embedding rows, shape ``(B, dim)``."""
        return F.embedding_bag(self.weight, *self._known_bags(
            batch_field, per_index_weights, grow=self.training))

    def forward_arrays(self, batch_field: FieldBatch,
                       per_index_weights: np.ndarray | None = None,
                       ) -> np.ndarray:
        """Inference-mode forward: plain arrays, no Tensor or closure.

        Eval semantics — the table never grows and unknown ids are dropped.
        Shares :func:`repro.nn.functional.embedding_bag_data` with the
        autograd forward, so the two are bit-identical by construction.
        """
        out, __ = F.embedding_bag_data(self.weight.data, *self._known_bags(
            batch_field, per_index_weights, grow=False))
        return out

    def feature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Return parallel arrays ``(feature_ids, rows)`` of the known vocabulary."""
        items = list(self.table.items())
        if not items:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ids = np.asarray([k for k, __ in items], dtype=np.int64)
        rows = np.asarray([v for __, v in items], dtype=np.int64)
        return ids, rows

    def __repr__(self) -> str:
        return (f"HashedEmbeddingBag(dim={self.dim}, features={self.n_features}, "
                f"capacity={self.capacity})")


def _prepare_weights(batch_field: FieldBatch, mode: str) -> np.ndarray | None:
    """Turn raw multi-hot weights into encoder input weights.

    ``binary``: all ones. ``log1p``: log(1 + w). ``l2``: log1p then per-user
    L2 normalisation within the field (the Mult-VAE convention).
    """
    if mode == "binary":
        return None
    raw = (np.ones(batch_field.indices.size) if batch_field.weights is None
           else batch_field.weights)
    w = np.log1p(raw)
    if mode == "log1p":
        return w
    user_of = batch_field.segment_ids()
    sq_sums = np.bincount(user_of, weights=w ** 2,
                          minlength=batch_field.n_users)
    norms = np.sqrt(sq_sums[user_of])
    return w / np.maximum(norms, 1e-12)


class FieldAwareEncoder(Module):
    """Inference network ``g_φ(u) = [μ(u), σ(u)]`` (Eq. 6).

    The first layer aggregates all fields' embedding bags into one hidden
    vector (per the paper, summing embedding outputs is equivalent to the
    dense first layer); subsequent dense layers produce the posterior mean
    and log-variance.
    """

    def __init__(self, schema: FieldSchema, hidden: list[int], latent_dim: int,
                 activation: str = "tanh", input_weighting: str = "l2",
                 capacity: int = 1024, dropout: float = 0.0,
                 feature_dropout: float = 0.0,
                 rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if not hidden:
            raise ValueError("encoder needs at least one hidden layer")
        if activation not in _ACT:
            raise ValueError(f"unknown activation '{activation}'")
        if not 0.0 <= feature_dropout < 1.0:
            raise ValueError(f"feature_dropout must be in [0, 1): {feature_dropout}")
        rng = new_rng(rng)
        self.feature_dropout = feature_dropout
        self._feature_rng = new_rng(rng)
        self.schema = schema
        self.activation = activation
        self.input_weighting = input_weighting
        self.hidden_dims = list(hidden)
        self.latent_dim = latent_dim

        self._bags: dict[str, HashedEmbeddingBag] = {}
        for spec in schema:
            bag = HashedEmbeddingBag(hidden[0], capacity=capacity, rng=rng,
                                     name=spec.name)
            self.register_module(f"bag_{spec.name}", bag)
            self._bags[spec.name] = bag
        self.first_bias = Parameter(np.zeros(hidden[0]), name="first_bias")
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

        self._dense: list[Linear] = []
        for i, (d_in, d_out) in enumerate(zip(hidden[:-1], hidden[1:])):
            layer = Linear(d_in, d_out, rng=rng)
            self.register_module(f"fc{i}", layer)
            self._dense.append(layer)
        self.mu_head = Linear(hidden[-1], latent_dim, rng=rng)
        self.logvar_head = Linear(hidden[-1], latent_dim, rng=rng)

    def bag(self, field: str) -> HashedEmbeddingBag:
        return self._bags[field]

    def _drop_features(self, fb: FieldBatch, weights: np.ndarray | None,
                       ) -> tuple[FieldBatch, np.ndarray | None]:
        """Denoising corruption: drop observed features, rescale the kept ones.

        This is the sparse-input analogue of Mult-DAE/Mult-VAE's input-layer
        dropout [8]: at fold-in time whole chunks of the profile are missing,
        so training on randomly thinned profiles is what makes the posterior
        robust to partial inputs.
        """
        p = self.feature_dropout
        keep = self._feature_rng.random(fb.indices.size) >= p
        user_of = fb.segment_ids()
        new_counts = np.bincount(user_of[keep], minlength=fb.n_users)
        offsets = np.zeros(fb.n_users + 1, dtype=np.int64)
        np.cumsum(new_counts, out=offsets[1:])
        if weights is not None:
            kept_weights = weights[keep] / (1.0 - p)
        else:  # binary inputs still need the inverted-dropout rescale
            kept_weights = np.full(int(keep.sum()), 1.0 / (1.0 - p))
        new_fb = FieldBatch(indices=fb.indices[keep], offsets=offsets,
                            weights=None if fb.weights is None
                            else fb.weights[keep],
                            vocab_size=fb.vocab_size)
        return new_fb, kept_weights

    def forward(self, batch: UserBatch) -> tuple[Tensor, Tensor]:
        """Return posterior ``(mu, logvar)`` for a batch of users.

        Fields present in the encoder schema but absent from the batch (or
        emptied for fold-in) simply contribute nothing to the first layer.
        """
        act = _ACT[self.activation]
        first: Tensor | None = None
        for name, bag in self._bags.items():
            if name not in batch.fields:
                continue
            fb = batch.fields[name]
            if fb.indices.size == 0:
                continue
            weights = _prepare_weights(fb, self.input_weighting)
            if self.training and self.feature_dropout > 0.0:
                # Register every observed id first: the decoder's candidate
                # set must cover features even when the corruption drops them
                # from this step's encoder input.
                bag.lookup(fb.indices, grow=True)
                fb, weights = self._drop_features(fb, weights)
                if fb.indices.size == 0:
                    continue
            contribution = bag(fb, weights)
            first = contribution if first is None else first + contribution
        if first is None:
            # every field empty: encode from bias alone
            zeros = np.zeros((batch.n_users, self.hidden_dims[0]),
                             dtype=self.first_bias.data.dtype)
            first = Tensor(zeros)
        h = act(first + self.first_bias)
        if self.dropout is not None:
            h = self.dropout(h)
        for layer in self._dense:
            h = act(layer(h))
        return self.mu_head(h), self.logvar_head(h)

    def forward_arrays(self, batch: UserBatch) -> tuple[np.ndarray, np.ndarray]:
        """Inference forward: eval-mode :meth:`forward` on plain arrays.

        Skips autograd Tensor wrapping and backward-closure capture entirely;
        training-only branches (feature corruption, hidden dropout) are
        identity in eval mode and therefore absent.  Bit-identical to the
        eval Tensor forward — guarded by the
        ``core.encoder.inference_vs_autograd`` differential oracle.
        """
        with obs.span("encoder.infer"):
            return self._forward_arrays(batch)

    def _forward_arrays(self,
                        batch: UserBatch) -> tuple[np.ndarray, np.ndarray]:
        act = _ACT_DATA[self.activation]
        first: np.ndarray | None = None
        for name, bag in self._bags.items():
            if name not in batch.fields:
                continue
            fb = batch.fields[name]
            if fb.indices.size == 0:
                continue
            weights = _prepare_weights(fb, self.input_weighting)
            contribution = bag.forward_arrays(fb, weights)
            if first is None:
                first = contribution  # fresh buffer: safe to accumulate into
            else:
                first += contribution
        if first is None:
            first = np.zeros((batch.n_users, self.hidden_dims[0]),
                             dtype=self.first_bias.data.dtype)
        first += self.first_bias.data
        h = act(first)
        for layer in self._dense:
            h = act(layer.forward_arrays(h))
        return (self.mu_head.forward_arrays(h),
                self.logvar_head.forward_arrays(h))
