"""Multi-field user dataset: the feature matrix ``U`` of the paper.

A :class:`MultiFieldDataset` stores one CSR block per field, keyed by a shared
:class:`~repro.data.fields.FieldSchema`.  It provides the access patterns all
models and tasks need: batch iteration over sparse rows, user subsetting,
field projection (for fold-in tag prediction), splitting, and the summary
statistics reported in Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.data.fields import FieldSchema, FieldSpec
from repro.data.sparse import CSRMatrix
from repro.utils.rng import new_rng

__all__ = ["FieldBatch", "UserBatch", "MultiFieldDataset", "DatasetStats"]


@dataclass
class FieldBatch:
    """Sparse rows of one field for a batch of users.

    ``indices`` is the flat concatenation of per-user feature ids; user ``i``
    of the batch owns ``indices[offsets[i]:offsets[i+1]]``.

    The derived arrays every forward pass needs — the user-id-per-index
    segment array and the sorted unique feature set — are deterministic per
    batch, so they are computed lazily once and cached (the encoder's input
    weighting, candidate selection, and ``csr_targets`` all reuse them
    instead of rebuilding ``np.repeat``/``np.unique`` results each call).
    """

    indices: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray | None
    vocab_size: int
    _segment: np.ndarray | None = field(default=None, repr=False, compare=False)
    _unique: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    @property
    def n_users(self) -> int:
        return self.offsets.size - 1

    def counts(self) -> np.ndarray:
        """Features per user in this batch (``N_i^k``)."""
        return np.diff(self.offsets)

    def segment_ids(self) -> np.ndarray:
        """Batch-user index owning each flat index (cached ``np.repeat``)."""
        if self._segment is None or self._segment.size != self.indices.size:
            self._segment = np.repeat(np.arange(self.n_users), self.counts())
        return self._segment

    def unique_with_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``np.unique(indices, return_counts=True)``."""
        if self._unique is None:
            self._unique = np.unique(self.indices, return_counts=True)
        return self._unique

    def unique_features(self) -> np.ndarray:
        """Sorted distinct feature ids present in the batch.

        This is the candidate set of the *batched softmax* (§IV-C2).
        """
        return self.unique_with_counts()[0]

    def csr_targets(self, columns: np.ndarray,
                    binarize: bool = False) -> CSRMatrix:
        """Reconstruction targets over the sorted ``columns``: a
        ``(B, len(columns))`` CSR block.

        Entry ``(i, j)`` sums user ``i``'s weights (occurrences when
        unweighted) of feature ``columns[j]``; ``binarize`` maps each sum to
        ``1.0`` if positive and ``0.0`` otherwise.  Every ``(i, j)`` appears
        once, columns ascending within a row.  Features outside ``columns``
        are dropped — the batched softmax with feature sampling, where
        removed candidates do not contribute to the multinomial likelihood.
        """
        columns = np.asarray(columns, dtype=np.int64)
        n_cols = columns.size
        if n_cols == 0:
            return CSRMatrix.empty(self.n_users, 0)
        pos = np.minimum(np.searchsorted(columns, self.indices), n_cols - 1)
        inside = columns[pos] == self.indices
        keys, which = np.unique(self.segment_ids()[inside] * n_cols
                                + pos[inside], return_inverse=True)
        weights = None if self.weights is None else self.weights[inside]
        # bincount sums duplicates in occurrence order, in float64
        values = np.bincount(which, weights=weights,
                             minlength=keys.size).astype(np.float64,
                                                         copy=False)
        if binarize:
            values = (values > 0).astype(np.float64)
        indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n_cols, minlength=self.n_users),
                  out=indptr[1:])
        return CSRMatrix(indptr, keys % n_cols, values, n_cols)


@dataclass
class UserBatch:
    """A batch of users with one :class:`FieldBatch` per field."""

    user_ids: np.ndarray
    fields: dict[str, FieldBatch]

    @property
    def n_users(self) -> int:
        return self.user_ids.size

    def __getitem__(self, field: str) -> FieldBatch:
        return self.fields[field]


@dataclass(frozen=True)
class DatasetStats:
    """The Table I summary row for a dataset."""

    n_users: int
    n_fields: int
    avg_features: float           # N̄: mean observed features per user
    total_vocab: int              # J = Σ J_k
    per_field_vocab: dict[str, int]
    per_field_avg: dict[str, float]

    def __str__(self) -> str:
        return (f"users={self.n_users:,} fields={self.n_fields} "
                f"N̄={self.avg_features:.2f} J={self.total_vocab:,}")


class MultiFieldDataset:
    """Sparse multi-field user feature matrix.

    Parameters
    ----------
    schema:
        Field schema; ``fields[name].n_cols`` must equal the spec vocab size.
    fields:
        Mapping ``field name -> CSRMatrix`` with a common row count.
    """

    def __init__(self, schema: FieldSchema, fields: Mapping[str, CSRMatrix]) -> None:
        missing = [name for name in schema.names if name not in fields]
        if missing:
            raise ValueError(f"missing CSR blocks for fields: {missing}")
        n_rows = {name: fields[name].n_rows for name in schema.names}
        if len(set(n_rows.values())) != 1:
            raise ValueError(f"inconsistent user counts across fields: {n_rows}")
        for spec in schema:
            if fields[spec.name].n_cols != spec.vocab_size:
                raise ValueError(
                    f"field '{spec.name}': CSR has {fields[spec.name].n_cols} columns, "
                    f"schema says {spec.vocab_size}")
        self.schema = schema
        self._fields: dict[str, CSRMatrix] = {name: fields[name] for name in schema.names}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_user_lists(cls, schema: FieldSchema,
                        rows: Mapping[str, Sequence[Sequence[int]]],
                        weights: Mapping[str, Sequence[Sequence[float]]] | None = None,
                        ) -> "MultiFieldDataset":
        """Build from per-field lists of per-user feature-id lists."""
        blocks = {}
        for spec in schema:
            w = None if weights is None or spec.name not in weights else weights[spec.name]
            blocks[spec.name] = CSRMatrix.from_rows(rows[spec.name], spec.vocab_size, w)
        return cls(schema, blocks)

    # -- introspection ----------------------------------------------------------

    @property
    def n_users(self) -> int:
        return self._fields[self.schema.names[0]].n_rows

    @property
    def field_names(self) -> list[str]:
        return self.schema.names

    def field(self, name: str) -> CSRMatrix:
        try:
            return self._fields[name]
        except KeyError:
            raise KeyError(f"unknown field '{name}'; have {self.field_names}") from None

    def __len__(self) -> int:
        return self.n_users

    def __repr__(self) -> str:
        return f"MultiFieldDataset(users={self.n_users}, fields={self.field_names})"

    def stats(self) -> DatasetStats:
        per_field_vocab = {s.name: s.vocab_size for s in self.schema}
        per_field_avg = {name: (csr.nnz / max(csr.n_rows, 1))
                         for name, csr in self._fields.items()}
        total_nnz = sum(csr.nnz for csr in self._fields.values())
        return DatasetStats(
            n_users=self.n_users,
            n_fields=len(self.schema),
            avg_features=total_nnz / max(self.n_users, 1),
            total_vocab=self.schema.total_vocab,
            per_field_vocab=per_field_vocab,
            per_field_avg=per_field_avg,
        )

    def feature_popularity(self, field: str) -> np.ndarray:
        """Occurrence count of every feature in ``field`` (power-law shaped)."""
        return self.field(field).column_counts()

    # -- batching ----------------------------------------------------------------

    def batch(self, user_idx: np.ndarray) -> UserBatch:
        """Materialise a :class:`UserBatch` for the given user indices."""
        user_idx = np.asarray(user_idx, dtype=np.int64)
        fields = {}
        for name, csr in self._fields.items():
            sub = csr.take_rows(user_idx)
            fields[name] = FieldBatch(indices=sub.indices, offsets=sub.indptr,
                                      weights=sub.weights, vocab_size=sub.n_cols)
        return UserBatch(user_ids=user_idx, fields=fields)

    def iter_batches(self, batch_size: int, shuffle: bool = True,
                     rng: np.random.Generator | int | None = None,
                     ) -> Iterator[UserBatch]:
        """Yield batches covering every user once (the inner loop of Alg. 1)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        order = np.arange(self.n_users)
        if shuffle:
            new_rng(rng).shuffle(order)
        for start in range(0, self.n_users, batch_size):
            yield self.batch(order[start:start + batch_size])

    # -- restructuring -------------------------------------------------------------

    def subset(self, user_idx: np.ndarray) -> "MultiFieldDataset":
        """Dataset restricted to (and reordered by) ``user_idx``."""
        user_idx = np.asarray(user_idx, dtype=np.int64)
        return MultiFieldDataset(
            self.schema,
            {name: csr.take_rows(user_idx) for name, csr in self._fields.items()})

    def project_fields(self, names: Sequence[str]) -> "MultiFieldDataset":
        """Keep only ``names`` — e.g. drop ``tag`` for fold-in prediction."""
        return MultiFieldDataset(self.schema.subset(names),
                                 {n: self._fields[n] for n in names})

    def blank_fields(self, names: Sequence[str]) -> "MultiFieldDataset":
        """Keep the schema but empty out the rows of ``names``.

        Unlike :meth:`project_fields` the field still exists (models keep
        their shapes); its rows just contain no features.  This is the fold-in
        encoding used at tag-prediction time.
        """
        blocks = dict(self._fields)
        for name in names:
            spec: FieldSpec = self.schema[name]
            blocks[name] = CSRMatrix.empty(self.n_users, spec.vocab_size)
        return MultiFieldDataset(self.schema, blocks)

    def split(self, fractions: Sequence[float],
              rng: np.random.Generator | int | None = None,
              ) -> list["MultiFieldDataset"]:
        """Random disjoint user splits with the given fractions (sum ≤ 1)."""
        if any(f <= 0 for f in fractions):
            raise ValueError(f"fractions must be positive: {fractions}")
        if sum(fractions) > 1.0 + 1e-9:
            raise ValueError(f"fractions sum to more than 1: {fractions}")
        order = np.arange(self.n_users)
        new_rng(rng).shuffle(order)
        out = []
        start = 0
        for frac in fractions:
            count = int(round(frac * self.n_users))
            out.append(self.subset(order[start:start + count]))
            start += count
        return out

    def to_dense(self, binary: bool = True) -> np.ndarray:
        """Concatenate all fields into a dense ``(N, J)`` matrix (eval scale)."""
        return np.concatenate(
            [self._fields[name].to_dense(binary=binary) for name in self.field_names],
            axis=1)

    def to_scipy(self, binary: bool = True):
        """Concatenate all fields into one ``scipy.sparse.csr_matrix``."""
        from scipy import sparse

        blocks = []
        for name in self.field_names:
            mat = self._fields[name].to_scipy()
            if binary:
                mat.data = np.ones_like(mat.data)
            blocks.append(mat)
        return sparse.hstack(blocks, format="csr")
