"""Look-alike recall: average-pooled account embeddings + L2 similarity (§V-F).

The paper's uploader recommendation works in three steps: (1) learn user
representations, (2) build each uploader-account's embedding by average
pooling the embeddings of the users who follow it, (3) recall candidate
accounts for a user by L2 similarity.  :class:`LookalikeSystem` implements
exactly that pipeline over an embedding matrix, plus classic seed-audience
expansion.

At deployment scale the online module neither stores float64 rows nor scans
them exhaustively; the constructor therefore accepts a quantization mode
(``quant="int8"``/``"pq"`` — the online matrix becomes a
:class:`~repro.lookalike.quant.QuantizedEmbeddingStore` and every online
read sees dequantized rows) and an ANN index (``index="ivf"`` —
:meth:`expand_audience` probes the index instead of scanning).  The default
(``quant="none"``, ``index=None``) is the exact path, unchanged bit for
bit; it stays the oracle reference the approximate configurations are
measured against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LookalikeSystem"]

_QUANT_MODES = ("none", "int8", "pq")
_INDEX_KINDS = (None, "none", "ivf")


class LookalikeSystem:
    """Audience expansion / account recall over a user embedding matrix.

    Parameters
    ----------
    user_embeddings:
        ``(N, D)`` matrix; row ``i`` is user ``i``'s representation.
    quant:
        ``"none"`` (exact float64 matrix), ``"int8"`` or ``"pq"``: the
        online side reads through a
        :class:`~repro.lookalike.quant.QuantizedEmbeddingStore` trained on
        the matrix (4–64x memory cut; see :attr:`serving_bytes`).
    index:
        ``None``/``"none"`` (exact scan) or ``"ivf"``: ANN index used by
        :meth:`expand_audience`, built over the online matrix (the
        dequantized rows when the system is quantized).
    seed:
        Seed for codebook training and index construction.
    index_params:
        Extra keyword arguments for the index constructor (e.g.
        ``{"n_lists": 128, "nprobe": 16}``).
    """

    def __init__(self, user_embeddings: np.ndarray, *,
                 quant: str = "none", index: str | None = None,
                 seed: int = 0, index_params: dict | None = None) -> None:
        user_embeddings = np.asarray(user_embeddings, dtype=np.float64)
        if user_embeddings.ndim != 2:
            raise ValueError("user_embeddings must be a 2-D (N, D) matrix")
        if quant not in _QUANT_MODES:
            raise ValueError(f"quant must be one of {_QUANT_MODES}: {quant!r}")
        if index not in _INDEX_KINDS:
            raise ValueError(f"index must be one of {_INDEX_KINDS}: {index!r}")
        self.user_embeddings = user_embeddings
        self.quant = quant
        self.index_kind = None if index in (None, "none") else index
        self._account_embeddings: np.ndarray | None = None
        self.store = None
        self.index = None
        if quant != "none":
            from repro.lookalike.quant import QuantizedEmbeddingStore

            store = QuantizedEmbeddingStore(user_embeddings.shape[1],
                                            mode=quant, seed=seed)
            store.put_many(np.arange(user_embeddings.shape[0]),
                           user_embeddings)
            self.store = store
            # Online reads see what serving would serve: dequantized rows.
            self._online = store.as_matrix()[1]
        else:
            self._online = user_embeddings
        if self.index_kind == "ivf":
            from repro.lookalike.ann import IVFIndex

            params = dict(index_params or {})
            params.setdefault("seed", seed)
            self.index = IVFIndex(self.dim, **params).fit(self._online)

    @property
    def online_embeddings(self) -> np.ndarray:
        """The matrix the online side ranks against (dequantized if
        quantized; the exact matrix otherwise)."""
        return self._online

    @property
    def serving_bytes(self) -> int:
        """Online-side embedding memory: code bytes when quantized, float64
        matrix bytes otherwise."""
        if self.store is not None:
            return self.store.nbytes
        return int(self.user_embeddings.nbytes)

    @property
    def n_users(self) -> int:
        return self.user_embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.user_embeddings.shape[1]

    # -- account construction ----------------------------------------------------

    def account_embedding(self, follower_ids: np.ndarray) -> np.ndarray:
        """Average pooling over the account's followers (the paper's rule)."""
        follower_ids = np.asarray(follower_ids, dtype=np.int64)
        if follower_ids.size == 0:
            raise ValueError("an account needs at least one follower to embed")
        return self.user_embeddings[follower_ids].mean(axis=0)

    def build_accounts(self, follower_lists: list[np.ndarray]) -> np.ndarray:
        """Stack account embeddings for a list of follower-id arrays.

        Vectorised as one gather over the concatenated follower ids plus
        segment sums (``np.add.reduceat``) — one pass whatever the number of
        accounts.  Segment sums accumulate left-to-right like the per-account
        ``mean``, so results match the per-account loop to float64
        round-off (allclose, not necessarily bit-identical, for accounts
        large enough that ``mean`` switches to pairwise summation).
        """
        lengths = np.array([np.asarray(f).size for f in follower_lists],
                           dtype=np.int64)
        if not lengths.size or (lengths == 0).any():
            raise ValueError("an account needs at least one follower to embed")
        flat = np.concatenate(
            [np.asarray(f, dtype=np.int64).ravel() for f in follower_lists])
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        sums = np.add.reduceat(self.user_embeddings[flat], offsets, axis=0)
        self._account_embeddings = sums / lengths[:, None]
        return self._account_embeddings

    # -- recall --------------------------------------------------------------------

    def recall_accounts(self, user_ids: np.ndarray, k: int,
                        account_embeddings: np.ndarray | None = None) -> np.ndarray:
        """Top-``k`` accounts per user by (negative) L2 distance.

        Returns an ``(len(user_ids), k)`` array of account indices, best first.
        """
        accounts = account_embeddings if account_embeddings is not None \
            else self._account_embeddings
        if accounts is None:
            raise RuntimeError("call build_accounts() first or pass account_embeddings")
        if not 0 < k <= accounts.shape[0]:
            raise ValueError(f"k must be in [1, {accounts.shape[0]}]: {k}")
        users = self.user_embeddings[np.asarray(user_ids, dtype=np.int64)]
        d2 = (np.sum(users ** 2, axis=1, keepdims=True)
              - 2.0 * users @ accounts.T
              + np.sum(accounts ** 2, axis=1))
        top = np.argpartition(d2, k - 1, axis=1)[:, :k]
        order = np.take_along_axis(d2, top, axis=1).argsort(axis=1)
        return np.take_along_axis(top, order, axis=1)

    def expand_audience(self, seed_user_ids: np.ndarray, k: int,
                        exclude_seeds: bool = True) -> np.ndarray:
        """Classic look-alike: find the ``k`` users most similar to a seed set.

        The seed set is average-pooled into one query vector and users are
        ranked by L2 distance to it.
        """
        seed_user_ids = np.asarray(seed_user_ids, dtype=np.int64)
        if seed_user_ids.size == 0:
            raise ValueError("an account needs at least one follower to embed")
        query = self._online[seed_user_ids].mean(axis=0)
        limit = min(k, self.n_users - (seed_user_ids.size if exclude_seeds else 0))
        if limit <= 0:
            return np.empty(0, dtype=np.int64)
        if self.index is not None:
            # Over-fetch so dropping the seeds still leaves ``limit`` results.
            want = limit + (np.unique(seed_user_ids).size if exclude_seeds else 0)
            ranked = self.index.query(query, min(want, self.n_users))
            if exclude_seeds:
                ranked = ranked[~np.isin(ranked, seed_user_ids)]
            return ranked[:limit]
        d2 = np.sum((self._online - query) ** 2, axis=1)
        if exclude_seeds:
            d2[seed_user_ids] = np.inf
        top = np.argpartition(d2, limit - 1)[:limit]
        return top[np.argsort(d2[top])]
