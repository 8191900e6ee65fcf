"""Metrics registry: counters, gauges, and histograms keyed by name + labels.

The registry is the passive half of :mod:`repro.obs` — a dictionary of typed
instruments that instrumented code updates through the module-level helpers in
:mod:`repro.obs.runtime`.  Three instrument types cover the telemetry the
paper's efficiency analysis needs (Table V, Figs 6/9/10):

* :class:`Counter` — monotonically increasing totals (batches seen, cache
  hits, hash-table grow events).
* :class:`Gauge` — last-written value (table size, load factor, current lr).
* :class:`LogHistogram` — log-bucket distribution sketch with exact
  ``count``/``sum``/``min``/``max`` and bucket-resolution percentiles
  (serving latency p50/p95/p99, candidate-set sizes).  Every
  ``obs.observe`` / ``obs.observe_many`` / ``obs.latency`` lands here.

Everything here is plain numpy + stdlib, and every instrument is a
deterministic function of what it was fed.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

import numpy as np

__all__ = ["Counter", "Gauge", "LogHistogram", "MetricsRegistry"]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object] | None) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, labels={dict(self.labels)}, value={self.value})"


class Gauge:
    """Last-written value (plus the number of writes, for determinism checks)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = float("nan")
        self.writes = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.writes += 1

    def snapshot(self) -> dict:
        return {"type": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value,
                "writes": self.writes}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, labels={dict(self.labels)}, value={self.value})"


class LogHistogram:
    """Log-bucketed (HDR-style) histogram: O(1) observe, mergeable, and
    accurate high percentiles at millions of observations.

    Positive values land in geometric buckets ``[growth**i, growth**(i+1))``
    keyed by integer ``i`` (a dict, so only occupied buckets cost memory);
    zero/negative values get their own underflow bucket.  A reported
    percentile is the *upper bound* of the bucket containing that rank,
    clamped to the exact observed ``max`` — so it can overshoot the true
    quantile by at most one bucket's relative width (``growth - 1``, 10%)
    and never undershoots by more than that.  There is no sampling error:
    every observation is counted, which is what makes p99/p999 trustworthy
    at millions of observations.  ``count``/``sum``/``min``/``max`` (and so
    ``mean``) are exact.  Every histogram shares one ``growth``, so any two
    merge by adding bucket counts (shard-per-thread, merge on snapshot).
    A non-finite observation is rejected before any state changes.
    """

    kind = "loghist"
    growth = 1.1
    _log_growth = math.log(growth)

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._counts: dict[int, int] = {}       # bucket index -> count
        self._pending: list[np.ndarray] = []    # observe_many, unbucketed
        self._pending_size = 0
        self.zeros = 0          # observations <= 0 (their own bucket)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def _non_finite(self, value: float) -> ValueError:
        return ValueError(f"histogram {self.name!r} observed a non-finite "
                          f"value: {value}")

    def bucket_upper(self, index: int) -> float:
        """Exclusive upper bound of bucket ``index``."""
        return self.growth ** (index + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise self._non_finite(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = math.floor(math.log(value) / self._log_growth)
        self._counts[index] = self._counts.get(index, 0) + 1

    def observe_many(self, values) -> None:
        """Vectorised bulk observe (the same buckets as looping).  The exact
        stats update at once; the logarithms wait for the next read of the
        buckets, or until 64k values are pending."""
        values = np.array(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        low, high = float(values.min()), float(values.max())  # nan-propagating
        if not (math.isfinite(low) and math.isfinite(high)):
            raise self._non_finite(float(values[~np.isfinite(values)][0]))
        self.count += int(values.size)
        self.sum += float(values.sum())
        self.min = min(self.min, low)
        self.max = max(self.max, high)
        if low <= 0.0:
            positive = values[values > 0.0]
            self.zeros += values.size - positive.size
            values = positive
        self._pending.append(values)
        self._pending_size += values.size
        if self._pending_size >= 1 << 16:
            self._fold()

    def _fold(self) -> dict[int, int]:
        """Bucket the pending ``observe_many`` values; index -> count."""
        if self._pending:
            pending, self._pending, self._pending_size = self._pending, [], 0
            values = np.concatenate(pending)
            indices = np.floor(np.log(values)
                               / self._log_growth).astype(np.int64)
            first = int(indices.min()) if indices.size else 0
            for index, n in enumerate(np.bincount(indices - first).tolist(),
                                      first):
                if n:
                    self._counts[index] = self._counts.get(index, 0) + n
        return self._counts

    _buckets = property(_fold)

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other``'s observations into this histogram."""
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        self.zeros += other.zeros
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def percentile(self, q: float | list[float]) -> float | np.ndarray:
        """Bucket-resolution percentile(s); ``nan`` before any observation."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        if not self.count:
            out = np.full(qs.size, float("nan"))
            return float(out[0]) if np.ndim(q) == 0 else out
        ranks = np.ceil(qs / 100.0 * self.count).clip(1, self.count)
        indices = sorted(self._buckets)
        out = np.empty(qs.size)
        for pos, rank in enumerate(ranks):
            if rank <= self.zeros:
                out[pos] = min(0.0, self.max)
                continue
            remaining = rank - self.zeros
            value = self.max
            for index in indices:
                remaining -= self._buckets[index]
                if remaining <= 0:
                    value = min(self.bucket_upper(index), self.max)
                    break
            out[pos] = max(value, self.min)
        return float(out[0]) if np.ndim(q) == 0 else out

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs over occupied buckets.

        The underflow bucket surfaces as ``(0.0, zeros)``; this is exactly
        the shape a Prometheus ``_bucket`` series wants (``le`` + cumulative
        count, with the implicit ``+Inf`` bucket equal to ``count``).
        """
        out: list[tuple[float, int]] = []
        running = 0
        if self.zeros:
            running = self.zeros
            out.append((0.0, running))
        for index in sorted(self._buckets):
            running += self._buckets[index]
            out.append((self.bucket_upper(index), running))
        return out

    def snapshot(self) -> dict:
        p50, p95, p99, p999 = (self.percentile([50, 95, 99, 99.9])
                               if self.count else (float("nan"),) * 4)
        return {"type": self.kind, "name": self.name,
                "labels": dict(self.labels), "count": self.count,
                "sum": self.sum, "mean": self.mean,
                "min": self.min if self.count else float("nan"),
                "max": self.max if self.count else float("nan"),
                "p50": float(p50), "p95": float(p95), "p99": float(p99),
                "p999": float(p999), "growth": self.growth,
                "buckets": [[le, n] for le, n in self.buckets()]}

    def __repr__(self) -> str:
        return (f"LogHistogram({self.name!r}, labels={dict(self.labels)}, "
                f"count={self.count}, buckets={len(self._buckets)})")


class MetricsRegistry:
    """Instrument store keyed by ``(name, sorted labels)``.

    ``counter`` / ``gauge`` / ``log_histogram`` are get-or-create: the first
    call for a key fixes its type, and asking for the same key as a different
    type raises (a name cannot be both a counter and a gauge).
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], object] = {}
        self._fast: dict[tuple, object] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator:
        """Instruments in deterministic (name, labels) order."""
        return iter(sorted(self._instruments.values(),
                           key=lambda m: (m.name, m.labels)))

    def _get_or_create(self, cls, name: str,
                       labels: Mapping[str, object] | None):
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} with labels {dict(key[1])} is a "
                            f"{inst.kind}, not a {cls.kind}")
        return inst

    def _fast_get(self, cls, name: str, labels: Mapping[str, object]):
        """Memoized :meth:`_get_or_create` for the instrumented hot path.

        Keyed by the raw ``labels.items()`` tuple — unsorted, values left
        unconverted — so repeat calls from the same call site cost one dict
        probe instead of a ``_label_key`` sort.  Distinct insertion orders
        for the same labels just create extra aliases to one instrument.
        """
        key = (cls.kind, name, tuple(labels.items()))
        try:
            inst = self._fast.get(key)
        except TypeError:  # unhashable label value: skip the memo
            return self._get_or_create(cls, name, labels)
        if inst is None:
            inst = self._get_or_create(cls, name, labels)
            self._fast[key] = inst
        return inst

    def counter(self, name: str, labels: Mapping[str, object] | None = None,
                ) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, labels: Mapping[str, object] | None = None,
              ) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def log_histogram(self, name: str,
                      labels: Mapping[str, object] | None = None,
                      ) -> LogHistogram:
        return self._get_or_create(LogHistogram, name, labels)

    def get(self, name: str, labels: Mapping[str, object] | None = None):
        """Fetch an existing instrument or ``None`` (never creates)."""
        return self._instruments.get((name, _label_key(labels)))

    def snapshot(self) -> list[dict]:
        """All instruments as plain dicts, deterministically ordered."""
        return [inst.snapshot() for inst in self]

    def reset(self) -> None:
        self._instruments.clear()
        self._fast.clear()
