"""Model-serving proxy: cache → store → model fallback (§IV-D online module).

With a :class:`ServingResilience` attached the lookup path degrades instead
of failing: store reads are retried with backoff under a circuit breaker, and
when the store stays down the proxy falls back through a stale last-known-good
snapshot, on-the-fly inference, and finally a field-prior default embedding —
every request gets *some* vector, with the source visible in telemetry.

Two overload-safety behaviours ride the same chain:

* **Deadline short-circuit** — when the request's
  :class:`~repro.resilience.guards.Deadline` (propagated by the batcher via
  :func:`~repro.resilience.guards.deadline_scope`) is already expired, the
  store read is skipped entirely and the lookup goes straight to the
  degraded tiers (stale → infer → prior); retries and backoff respect the
  remaining budget while it lasts.
* **Corruption detection** — rows coming back from the store are validated
  (right dimension, finite values); a corrupt row is *never* served, cached,
  or snapshotted — it is routed down the same fallback chain and tallied
  under the ``corrupt`` source counter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Hashable

import numpy as np

from repro.lookalike.store import EmbeddingStore, LRUCache, _RowTable
from repro.obs import runtime as obs
from repro.resilience.guards import (CircuitBreaker, CircuitOpenError,
                                     DeadlineExceeded, RetryPolicy,
                                     current_deadline)

__all__ = ["ServingProxy", "ServingResilience"]

#: Errors treated as "the store is unavailable" rather than "the user is
#: unknown".  ``StoreUnavailableError`` is a ``ConnectionError`` subclass.
_STORE_ERRORS = (ConnectionError, TimeoutError, OSError)

#: Where a row came from, in chain order.  Inside the chain a source is its
#: index here; everything below ``_DEFAULT`` was served by a real tier.
_SOURCES = np.array(["cache", "store", "stale", "inferred", "default", "miss"],
                    dtype=object)
_CACHE, _STORE, _STALE, _INFERRED, _DEFAULT, _MISS = range(len(_SOURCES))


@dataclass
class ServingResilience:
    """Degradation policy for :class:`ServingProxy` store lookups.

    Attributes
    ----------
    retry:
        Retry-with-backoff policy for store reads.  Retries transient store
        errors only; a :class:`CircuitOpenError` fails over immediately.
    breaker:
        Circuit breaker guarding each read attempt.  While open, lookups
        skip the store and go straight to the fallback chain.
    default_embedding:
        Last-resort vector served when every fallback comes up empty
        (``None`` → zeros).  Use :meth:`from_store_prior` to serve the
        field-prior (mean stored embedding) instead — the serving-side
        equivalent of predicting the prior for an unseen user.
    """

    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=3, backoff_seconds=0.01, max_backoff_seconds=0.25,
        retry_on=_STORE_ERRORS))
    breaker: CircuitBreaker | None = field(default_factory=lambda: CircuitBreaker(
        failure_threshold=5, reset_seconds=5.0, name="serving-store"))
    default_embedding: np.ndarray | None = None

    @classmethod
    def from_store_prior(cls, store: EmbeddingStore,
                         **kwargs) -> "ServingResilience":
        """Build a policy whose default embedding is the store's mean vector."""
        __, matrix = store.as_matrix()
        prior = matrix.mean(axis=0) if len(matrix) else np.zeros(store.dim)
        return cls(default_embedding=prior, **kwargs)

    def default_for(self, dim: int) -> np.ndarray:
        if self.default_embedding is not None:
            return np.asarray(self.default_embedding, dtype=np.float64)
        return np.zeros(dim)


class ServingProxy:
    """Serves user embeddings with a cache in front of the offline store.

    Lookup order mirrors the paper's online module: high-performance cache
    first, bulk store second, and — when a model and featurizer are attached —
    on-the-fly inference for users missing from both (freshly active users).

    Passing ``resilience=ServingResilience(...)`` arms the degradation chain:
    ``cache → store (retry + breaker) → stale snapshot → inference →
    default embedding``.  The stale tier keeps a *copy* of the version last
    served of every embedding that came from the store or from inference, as
    rows of one growable matrix behind its own key → row map (memory = rows
    ever served × dim × 8 B; it holds no view of a result, of the cache or of
    the store), so a store outage degrades freshness rather than
    availability.  In resilient mode :meth:`get_embedding` never returns
    ``None``.

    With a telemetry session installed every lookup lands in the
    ``serving.lookup_seconds`` latency histogram and a ``serving.lookups``
    counter labelled by where the embedding came from (``cache``/``store``/
    ``stale``/``inferred``/``default``/``miss``); store failures count into
    ``serving.store_errors``.  The same per-source tallies are kept on
    :attr:`source_counts` for offline inspection.
    """

    def __init__(self, store: EmbeddingStore, cache_capacity: int = 10000,
                 infer_fn: Callable[[Hashable], np.ndarray | None] | None = None,
                 resilience: ServingResilience | None = None) -> None:
        self.store = store
        self.cache = LRUCache(cache_capacity, name="serving")
        self._infer_fn = infer_fn
        self.resilience = resilience
        self.inferences = 0
        self.store_errors = 0
        self.corruptions = 0     # corrupt store rows detected and rerouted
        self.deadline_skips = 0  # store reads skipped on an expired deadline
        self.source_counts: Counter[str] = Counter()
        self._stale = _RowTable(store.dim)

    # -- lookup chain ----------------------------------------------------------

    def _store_get_batch(self,
                         keys: list[Hashable]) -> tuple[np.ndarray, np.ndarray]:
        """One guarded batch store read: ``(matrix, found_mask)``.

        The whole batch is one read from the retry/breaker's point of view —
        a failure anywhere fails the batch (and counts once against the
        breaker), success resolves every present key in one gather.
        """
        def read() -> tuple[np.ndarray, np.ndarray]:
            return self.store.get_batch(keys)

        res = self.resilience
        if res is None:
            return read()

        def attempt() -> tuple[np.ndarray, np.ndarray]:
            if res.breaker is not None:
                return res.breaker.call(read)
            return read()

        return res.retry.call(attempt, name="store.get_batch")

    def _note_corrupt(self, n: int) -> None:
        """Tally corrupt store rows (never served — rerouted to fallbacks)."""
        self.corruptions += n
        self.source_counts["corrupt"] += n
        obs.count("serving.corrupt_rows", n)
        obs.event("store.corrupt", rows=n)

    def _note_deadline_skip(self, exc: BaseException) -> None:
        """Tally a store read short-circuited/abandoned on deadline expiry."""
        self.deadline_skips += 1
        obs.count("serving.deadline_skips")
        obs.event("deadline.short_circuit", error=type(exc).__name__)

    def lookup(self, user_id: Hashable) -> tuple[np.ndarray | None, str]:
        """Return ``(embedding, source)``: :meth:`lookup_batch` of one key.

        ``source`` is one of ``cache``/``store``/``stale``/``inferred``/
        ``default``/``miss`` (``miss`` — with a ``None`` embedding — only
        when no resilience policy is attached).
        """
        matrix, codes = self._resolve([user_id], "serving.lookup_seconds")
        code = codes[0]
        return (None if code == _MISS else matrix[0]), _SOURCES[code]

    def lookup_batch(self, user_ids) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(matrix, sources)`` aligned with ``user_ids``.

        The whole degradation chain runs on key *groups* instead of single
        keys: one cache probe, one guarded store gather, one stale sweep for
        the outage case, then inference and defaults for the remainder.
        Metrics are aggregated — one ``serving.lookups`` update per source
        seen, one cache counter update per probe.  ``matrix`` is a fresh
        writable float64 array that aliases no tier.

        Duplicate keys that miss the cache are resolved once and every
        occurrence shares the result (one coherent read); because the whole
        batch resolves together, each occurrence reports the same source,
        where a loop of :meth:`lookup` would label the second occurrence a
        fresh ``cache`` hit.
        """
        matrix, codes = self._resolve(list(user_ids),
                                      "serving.batch_lookup_seconds")
        return matrix, _SOURCES[codes]

    def _resolve(self, user_ids: list[Hashable],
                 metric: str) -> tuple[np.ndarray, np.ndarray]:
        """Run the chain under the ``metric`` histogram and tally the sources.

        Sources travel as integer codes (indices into ``_SOURCES``); callers
        turn them into the public strings, or not at all.
        """
        with obs.latency(metric):
            out, codes = self._chain(user_ids)
            counts = np.bincount(codes, minlength=len(_SOURCES)).tolist()
            for source, amount in zip(_SOURCES, counts):
                if amount:
                    obs.count("serving.lookups", amount, source=source)
                    self.source_counts[source] += amount
        return out, codes

    def _chain(self, user_ids: list[Hashable]) -> tuple[np.ndarray, np.ndarray]:
        """The chain itself: ``(matrix, source_codes)`` aligned with input.

        Per-key work is dict lookups only (cache probe, miss dedupe, each
        tier's own key → row map); every tier moves its vectors in one gather
        or one scatter.
        """
        dim = self.store.dim
        n = len(user_ids)
        out = np.empty((n, dim), dtype=np.float64)
        codes = np.zeros(n, dtype=np.intp)      # _CACHE unless a miss below

        # 1. cache: one probe over the raw positions, one scatter of the
        # hits — the steady-state fast path ends here
        with obs.span("proxy.cache"):
            hit_matrix, hit = self.cache.get_many(user_ids)
        if len(hit_matrix):
            out[hit] = hit_matrix
        if len(hit_matrix) == n:
            return out, codes
        miss_rows = np.flatnonzero(~hit)

        # Dedupe the *misses* only (warm traffic has few): each unique key
        # resolves once and every occurrence shares the row.
        first: dict[Hashable, int] = {}
        back = [first.setdefault(user_ids[pos], len(first))
                for pos in miss_rows.tolist()]
        uniq = list(first)
        rcode = np.full(len(uniq), _STORE, dtype=np.intp)
        absent = sweep = np.empty(0, dtype=np.intp)
        res = None

        # 2. store: one guarded gather for the whole group; an outage (or an
        # expired request deadline) fails the group as a unit and every row
        # goes to the stale sweep
        try:
            with obs.span("proxy.store"):
                got, found = self._store_get_batch(uniq)
        except DeadlineExceeded as exc:
            self._note_deadline_skip(exc)
            sweep = np.arange(len(uniq))
        except (CircuitOpenError,) + _STORE_ERRORS as exc:
            self.store_errors += 1
            obs.count("serving.store_errors")
            obs.event("store.outage", error=type(exc).__name__)
            sweep = np.arange(len(uniq))
        else:
            got = np.asarray(got)
            absent = np.flatnonzero(~found)
            if got.ndim != 2 or got.shape[1] != dim:
                sweep = np.flatnonzero(found)   # wrong-dim payload: unusable
            else:
                # own copy: the tiers below write their rows into it
                res = np.array(got, dtype=np.float64)
                if not np.isfinite(res).all():
                    bad = ~np.isfinite(res).all(axis=1)
                    res[bad] = 0.0
                    sweep = np.flatnonzero(bad & found)
            if sweep.size:
                self._note_corrupt(int(sweep.size))
        if res is None:
            res = np.zeros((len(uniq), dim), dtype=np.float64)

        # 3. stale snapshot for the rows the store failed on or corrupted
        pending = absent
        if sweep.size:
            vectors, has = self._stale.read(
                [uniq[row] for row in sweep.tolist()])
            res[sweep[has]] = vectors[has]
            rcode[sweep[has]] = _STALE
            pending = np.sort(np.concatenate([absent, sweep[~has]]))

        # 4. inference for the remainder, with one batched write-back
        if pending.size and self._infer_fn is not None:
            with obs.span("proxy.infer"):
                still, wb_keys, wb_rows = [], [], []
                for row in pending.tolist():
                    vec = self._infer_fn(uniq[row])
                    if vec is None:
                        still.append(row)
                        continue
                    self.inferences += 1
                    res[row] = vec
                    wb_keys.append(uniq[row])
                    wb_rows.append(row)
                if wb_rows:
                    rcode[wb_rows] = _INFERRED
                    try:
                        self.store.put_many(wb_keys, res[wb_rows])
                    except _STORE_ERRORS:
                        pass  # store write-back is best-effort
                pending = np.asarray(still, dtype=np.intp)

        # 5. defaults (resilient) or misses (legacy)
        if pending.size:
            if self.resilience is None:
                rcode[pending] = _MISS
            else:
                res[pending] = self.resilience.default_for(dim)
                rcode[pending] = _DEFAULT

        # 6. whatever a real tier served is cached and — as the last version
        # *served*, a copy — snapshotted (a row that came from the snapshot
        # is rewritten with itself); defaults and misses are neither
        served = rcode < _DEFAULT
        if served.all():
            keys, vectors = uniq, res
        else:
            keys, vectors = list(compress(uniq, served.tolist())), res[served]
        if keys:
            self.cache.put_many(keys, vectors)
            if self.resilience is not None:
                self._stale.write(keys, vectors)

        if len(uniq) < len(back):
            back = np.fromiter(back, np.intp, len(back))
            res, rcode = res[back], rcode[back]
        out[miss_rows] = res
        codes[miss_rows] = rcode
        return out, codes

    # -- public API ------------------------------------------------------------

    def get_embedding(self, user_id: Hashable) -> np.ndarray | None:
        """Return the user's embedding, or ``None`` when it cannot be produced.

        With a resilience policy attached this never returns ``None`` — the
        degradation chain bottoms out at the default embedding.
        """
        return self.lookup(user_id)[0]

    def get_embeddings_batch(self, user_ids,
                             default: np.ndarray | None = None) -> np.ndarray:
        """Batch lookup in one chain pass; missing users raise
        :class:`KeyError` (serving requires coverage).

        ``default`` substitutes a row for unresolvable users instead of
        raising — the misses stay visible in the per-source metrics (and in
        :meth:`get_embeddings_masked_batch`'s mask).  Irrelevant in resilient
        mode, where every lookup resolves.
        """
        user_ids = list(user_ids)
        matrix, codes = self._resolve(user_ids, "serving.batch_lookup_seconds")
        miss = codes == _MISS
        if miss.any():
            if default is None:
                uid = user_ids[int(np.argmax(miss))]
                raise KeyError(f"no embedding available for user {uid!r}")
            matrix[miss] = np.asarray(default, dtype=np.float64)
        return matrix

    def get_embeddings_masked_batch(
            self, user_ids) -> tuple[np.ndarray, np.ndarray]:
        """Batch lookup returning ``(matrix, resolved_mask)``.

        ``False`` marks rows the chain could not genuinely resolve (legacy
        misses — zero-filled — and resilient default rows), so downstream
        ranking can weight or drop them explicitly instead of crashing.
        """
        matrix, codes = self._resolve(list(user_ids),
                                      "serving.batch_lookup_seconds")
        return matrix, codes < _DEFAULT

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate
