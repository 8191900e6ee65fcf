"""Serving-side fault schedules: scripted chaos on a virtual clock.

:class:`~repro.resilience.faults.FaultSchedule` kills *training* workers
at chosen steps; this module is its serving-side counterpart.  A
:class:`ServingFaultSchedule` scripts *when* the embedding store misbehaves —
outage windows, latency spikes, slow-store stragglers, corrupted-row
windows — on the replay's virtual timeline, plus seeded background failure
and corruption rates between windows.

:class:`ChaosStore` applies the schedule.  It wraps a real
:class:`~repro.lookalike.store.EmbeddingStore` and models *service time* by
advancing a shared :class:`~repro.utils.timer.ManualClock` on every read:
the base cost plus per-key cost, scaled by any active slow-store window and
stretched by any active latency spike.  Because the same clock drives the
request deadlines, retry backoff, breaker cooldowns, and the SLO engine,
a chaos replay is completely deterministic given the seed — no threads, no
wall clock, no flaky asserts.  It is also the repo's one store-fault
injector: tests and ``scripts/resilience_smoke.py`` wrap a store in it with
background rates only, or force one-shot faults with
:meth:`ChaosStore.fail_next` / :meth:`ChaosStore.corrupt_next`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.obs import runtime as obs
from repro.resilience.faults import StoreUnavailableError
from repro.utils.rng import new_rng
from repro.utils.timer import ManualClock

__all__ = ["OUTAGE", "LATENCY_SPIKE", "SLOW_STORE", "CORRUPT", "CHAOS_KINDS",
           "BASE_READ_SECONDS", "PER_KEY_READ_SECONDS", "ChaosWindow",
           "ServingFaultSchedule", "ChaosStore"]

#: Every store read inside the window raises :class:`StoreUnavailableError`.
OUTAGE = "outage"
#: ``magnitude`` extra seconds added to every read inside the window.
LATENCY_SPIKE = "latency_spike"
#: Service time multiplied by ``magnitude`` inside the window (stragglers).
SLOW_STORE = "slow_store"
#: Rows corrupted (NaN) with probability ``magnitude`` inside the window.
CORRUPT = "corrupt"

CHAOS_KINDS = (OUTAGE, LATENCY_SPIKE, SLOW_STORE, CORRUPT)

#: Modelled service time of one store read: a fixed cost plus one per key.
BASE_READ_SECONDS = 5e-4
PER_KEY_READ_SECONDS = 2e-5


@dataclass(frozen=True)
class ChaosWindow:
    """One scripted fault interval ``[start, end)`` on the virtual timeline."""

    kind: str
    start: float
    end: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; expected one of {CHAOS_KINDS}")
        if not np.isfinite([self.start, self.end, self.magnitude]).all():
            raise ValueError(f"window bounds and magnitude must be finite: "
                             f"{self.start}..{self.end} x{self.magnitude}")
        if self.end < self.start:
            raise ValueError(f"window ends before it starts: "
                             f"{self.start}..{self.end}")
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be non-negative: {self.magnitude}")

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass
class ServingFaultSchedule:
    """Scripted store faults plus seeded background noise for one replay.

    Attributes
    ----------
    windows:
        Scripted :class:`ChaosWindow` intervals.  Windows of the same kind
        may overlap: slow-store factors multiply, latency spikes add, and
        the max corruption probability wins.
    failure_rate:
        Background probability that any single read (outside outage
        windows) raises :class:`StoreUnavailableError` — the "20% store
        failure" of the chaos gate.
    corruption_rate:
        Background per-row corruption probability outside corrupt windows.
    """

    windows: list[ChaosWindow] = field(default_factory=list)
    failure_rate: float = 0.0
    corruption_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("failure_rate", "corruption_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability: {rate}")
        self.windows = sorted(self.windows, key=lambda w: (w.start, w.end))

    def of(self, kind: str) -> list[ChaosWindow]:
        return [w for w in self.windows if w.kind == kind]

    def active(self, kind: str, t: float) -> list[ChaosWindow]:
        return [w for w in self.windows if w.kind == kind and w.active(t)]

    def in_outage(self, t: float) -> bool:
        return bool(self.active(OUTAGE, t))

    def slowdown(self, t: float) -> float:
        """Service-time multiplier at ``t`` (slow-store windows compound)."""
        factor = 1.0
        for window in self.active(SLOW_STORE, t):
            factor *= window.magnitude
        return factor

    def extra_latency(self, t: float) -> float:
        """Additive latency (seconds) at ``t`` from active spike windows."""
        return sum(w.magnitude for w in self.active(LATENCY_SPIKE, t))

    def corruption_at(self, t: float) -> float:
        """Per-row corruption probability at ``t``."""
        window_rate = max((w.magnitude for w in self.active(CORRUPT, t)),
                         default=0.0)
        return max(self.corruption_rate, window_rate)

    def describe(self) -> list[str]:
        lines = [f"{w.kind} [{w.start:g}s, {w.end:g}s) x{w.magnitude:g}"
                 for w in self.windows]
        if self.failure_rate:
            lines.append(f"background failure rate {self.failure_rate:.0%}")
        if self.corruption_rate:
            lines.append(f"background corruption rate {self.corruption_rate:.1%}")
        return lines or ["no faults"]


class ChaosStore:
    """Store front that bills virtual service time and applies the schedule.

    Duck-types :class:`~repro.lookalike.store.EmbeddingStore` reads/writes.
    Every read first checks the schedule at the *current* virtual time, then
    advances the clock by the modelled service cost::

        (BASE_READ_SECONDS + PER_KEY_READ_SECONDS * n_keys) * slowdown(t)
            + extra_latency(t)

    and only then rolls background failure / corruption.  Outage windows
    fail fast (no service time billed) — the retries and breaker above
    see an immediately-unavailable dependency, exactly like a refused
    connection.

    :meth:`fail_next` and :meth:`corrupt_next` force one-shot faults on the
    next reads for deterministic tests; a forced fault draws nothing from
    the RNG, so the seeded faults after it are unchanged.  Without a
    ``clock`` the store bills a private :class:`ManualClock` nobody reads.
    """

    def __init__(self, store, schedule: ServingFaultSchedule | None = None,
                 clock=None, rng: np.random.Generator | int | None = 0,
                 ) -> None:
        self.store = store
        self.schedule = schedule or ServingFaultSchedule()
        self.clock = clock if clock is not None else ManualClock()
        self._rng = new_rng(rng)
        self._forced_failures = 0
        self._forced_corruptions = 0
        self.reads = 0
        self.injected_failures = 0
        self.injected_corruptions = 0  # corrupted rows handed out
        self.outage_rejections = 0

    # -- store surface ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.store.dim

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, user_id: Hashable) -> bool:
        return user_id in self.store

    def keys(self):
        return self.store.keys()

    def as_matrix(self):
        return self.store.as_matrix()

    def put(self, user_id: Hashable, vector) -> None:
        self.store.put(user_id, vector)

    def put_many(self, ids: Sequence[Hashable], matrix) -> None:
        self.store.put_many(ids, matrix)

    # -- chaos-modelled reads --------------------------------------------------

    def fail_next(self, n: int = 1) -> None:
        """Force the next ``n`` reads to fail (no RNG draw)."""
        self._forced_failures += n

    def corrupt_next(self, n: int = 1) -> None:
        """Force the next ``n`` reads to NaN every row they find."""
        self._forced_corruptions += n

    def _enter_read(self, n_keys: int) -> float:
        """Apply the schedule for one read; returns the fault time ``t``."""
        self.reads += 1
        t = self.clock()
        if self.schedule.in_outage(t):
            self.outage_rejections += 1
            obs.count("chaos.outage_rejections")
            raise StoreUnavailableError(
                f"store outage window active at t={t:.3f}s")
        cost = ((BASE_READ_SECONDS + PER_KEY_READ_SECONDS * n_keys)
                * self.schedule.slowdown(t) + self.schedule.extra_latency(t))
        self.clock.advance(cost)
        rate = self.schedule.failure_rate
        if self._forced_failures > 0:
            self._forced_failures -= 1
        elif not (rate and self._rng.random() < rate):
            return t
        self.injected_failures += 1
        obs.count("chaos.injected_failures")
        raise StoreUnavailableError(f"injected store failure at t={t:.3f}s")

    def _corrupt_rows(self, matrix: np.ndarray, found: np.ndarray,
                      t: float) -> np.ndarray:
        if self._forced_corruptions > 0:
            self._forced_corruptions -= 1
            mask = found
        else:
            rate = self.schedule.corruption_at(t)
            if rate <= 0.0 or not found.any():
                return matrix
            mask = found & (self._rng.random(len(matrix)) < rate)
        if mask.any():
            matrix = matrix.copy()
            matrix[mask] = np.nan
            self.injected_corruptions += int(mask.sum())
            obs.count("chaos.injected_corruptions", int(mask.sum()))
        return matrix

    def get(self, user_id: Hashable):
        matrix, found = self.get_batch([user_id])
        return matrix[0] if found[0] else None

    def get_batch(self, ids: Sequence[Hashable]):
        """One schedule check and one failure roll for the whole batch — a
        batch read is one RPC."""
        t = self._enter_read(len(ids))
        matrix, found = self.store.get_batch(ids)
        return self._corrupt_rows(matrix, found, t), found
