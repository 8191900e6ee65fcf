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
wall clock, no flaky asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.obs import runtime as obs
from repro.resilience.faults import StoreUnavailableError
from repro.utils.rng import new_rng

__all__ = ["OUTAGE", "LATENCY_SPIKE", "SLOW_STORE", "CORRUPT", "CHAOS_KINDS",
           "ChaosWindow", "ServingFaultSchedule", "ChaosStore"]

#: Every store read inside the window raises :class:`StoreUnavailableError`.
OUTAGE = "outage"
#: ``magnitude`` extra seconds added to every read inside the window.
LATENCY_SPIKE = "latency_spike"
#: Service time multiplied by ``magnitude`` inside the window (stragglers).
SLOW_STORE = "slow_store"
#: Rows corrupted (NaN) with probability ``magnitude`` inside the window.
CORRUPT = "corrupt"

CHAOS_KINDS = (OUTAGE, LATENCY_SPIKE, SLOW_STORE, CORRUPT)


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
    advances the shared clock by the modelled service cost::

        (base_seconds + per_key_seconds * n_keys) * slowdown(t) + extra_latency(t)

    and only then rolls background failure / corruption.  Outage windows
    fail fast (no service time billed) — the retries and breaker above
    see an immediately-unavailable dependency, exactly like a refused
    connection.
    """

    def __init__(self, store, schedule: ServingFaultSchedule, clock,
                 base_seconds: float = 5e-4, per_key_seconds: float = 2e-5,
                 rng: np.random.Generator | int | None = 0) -> None:
        self.store = store
        self.schedule = schedule
        self.clock = clock
        self.base_seconds = base_seconds
        self.per_key_seconds = per_key_seconds
        self._rng = new_rng(rng)
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

    def _enter_read(self, n_keys: int) -> float:
        """Apply the schedule for one read; returns the fault time ``t``."""
        self.reads += 1
        t = self.clock()
        if self.schedule.in_outage(t):
            self.outage_rejections += 1
            obs.count("chaos.outage_rejections")
            raise StoreUnavailableError(
                f"store outage window active at t={t:.3f}s")
        cost = ((self.base_seconds + self.per_key_seconds * n_keys)
                * self.schedule.slowdown(t) + self.schedule.extra_latency(t))
        self.clock.advance(cost)
        if self.schedule.failure_rate and \
                self._rng.random() < self.schedule.failure_rate:
            self.injected_failures += 1
            obs.count("chaos.injected_failures")
            raise StoreUnavailableError(
                f"injected store failure at t={t:.3f}s")
        return t

    def _corrupt_rows(self, matrix: np.ndarray, found: np.ndarray,
                      t: float) -> np.ndarray:
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
        t = self._enter_read(1)
        vec = self.store.get(user_id)
        if vec is not None:
            rate = self.schedule.corruption_at(t)
            if rate > 0.0 and self._rng.random() < rate:
                vec = np.full_like(np.atleast_1d(vec), np.nan)
                self.injected_corruptions += 1
                obs.count("chaos.injected_corruptions")
        return vec

    def get_batch(self, ids: Sequence[Hashable]):
        t = self._enter_read(len(ids))
        matrix, found = self.store.get_batch(ids)
        return self._corrupt_rows(matrix, found, t), found
