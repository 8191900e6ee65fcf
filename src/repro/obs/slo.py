"""Declarative SLO engine: objectives, rolling windows, error-budget burn.

An :class:`Objective` states what "good" means — ``p99 latency <= 50ms``,
``availability >= 99.9%`` — and both kinds reduce to the same arithmetic:
a **good-event fraction** over a rolling window (a request is *good* for a
latency objective when it succeeded within the threshold; ``pN <= X`` is
exactly "at least N% of requests are good").  From that single reduction
fall out the three numbers an operator actually watches:

* ``good_fraction`` vs ``target`` → the pass/fail verdict;
* ``error budget`` — the fraction of the window's allowed bad events still
  unspent (1.0 = untouched, 0.0 = exactly exhausted, negative = violated);
* ``burn rate`` — how fast the budget is being consumed (1.0 = burning at
  exactly the sustainable rate; 14.4 is the classic page-now threshold).

The engine's clock is injectable, so a scripted latency timeline drives a
deterministic verdict in tests; ``python -m repro slo`` feeds it from a
seeded serving replay or a recorded timeline file.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.viz.tables import format_table

__all__ = ["Objective", "SLOStatus", "SLOEngine", "latency_slo",
           "availability_slo", "parse_objective"]


@dataclass(frozen=True)
class Objective:
    """One service-level objective over a rolling window.

    ``kind`` is ``"latency"`` (good = ok and ``latency <= threshold``) or
    ``"availability"`` (good = ok).  ``target`` is the required good
    fraction — 0.99 for a p99 latency bound, 0.999 for three nines.
    """

    name: str
    kind: str
    target: float
    threshold_seconds: float | None = None
    window_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown objective kind: {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1): {self.target}")
        # ``not x > 0`` rejects NaN too; ``inf`` is an all-time window
        if self.kind == "latency" and (self.threshold_seconds is None
                                       or not self.threshold_seconds > 0):
            raise ValueError("latency objectives need threshold_seconds > 0")
        if not self.window_seconds > 0:
            raise ValueError(f"window must be positive: {self.window_seconds}")

    def describe(self) -> str:
        if self.kind == "latency":
            quantile = 100.0 * self.target
            q = f"{quantile:g}".rstrip("0").rstrip(".")
            return (f"p{q} latency <= "
                    f"{self.threshold_seconds * 1e3:g}ms")
        return f"availability >= {self.target * 100:g}%"


def latency_slo(name: str, threshold_ms: float, quantile: float = 99.0,
                window_seconds: float = 300.0) -> Objective:
    """``pN latency <= X ms``: at least N% of requests within the bound."""
    return Objective(name=name, kind="latency", target=quantile / 100.0,
                     threshold_seconds=threshold_ms / 1e3,
                     window_seconds=window_seconds)


def availability_slo(name: str, target_percent: float = 99.9,
                     window_seconds: float = 300.0) -> Objective:
    return Objective(name=name, kind="availability",
                     target=target_percent / 100.0,
                     window_seconds=window_seconds)


_LATENCY_RE = re.compile(
    r"^\s*p(?P<q>\d+(?:\.\d+)?)\s*(?:latency)?\s*<=\s*"
    r"(?P<v>\d+(?:\.\d+)?)\s*(?P<unit>ms|s|us)\s*$", re.IGNORECASE)
_AVAIL_RE = re.compile(
    r"^\s*availability\s*>=\s*(?P<v>\d+(?:\.\d+)?)\s*%\s*$", re.IGNORECASE)


def parse_objective(spec: str, name: str | None = None,
                    window_seconds: float = 300.0) -> Objective:
    """Parse a declarative spec: ``"p99 latency <= 50ms"`` or
    ``"availability >= 99.9%"``."""
    match = _LATENCY_RE.match(spec)
    if match:
        scale = {"us": 1e-3, "ms": 1.0, "s": 1e3}[match["unit"].lower()]
        return latency_slo(name or spec.strip(),
                           threshold_ms=float(match["v"]) * scale,
                           quantile=float(match["q"]),
                           window_seconds=window_seconds)
    match = _AVAIL_RE.match(spec)
    if match:
        return availability_slo(name or spec.strip(),
                                target_percent=float(match["v"]),
                                window_seconds=window_seconds)
    raise ValueError(
        f"cannot parse SLO spec {spec!r} (want 'pN latency <= Xms' "
        f"or 'availability >= X%')")


@dataclass(frozen=True)
class SLOStatus:
    """One objective's verdict at evaluation time."""

    objective: Objective
    total: int
    good: int
    passed: bool
    observed: float          # measured pN latency (s) or availability
    budget_remaining: float  # fraction of allowed-bad budget unspent
    burn_rate: float         # bad-rate / allowed-bad-rate (1.0 = sustainable)

    @property
    def bad(self) -> int:
        return self.total - self.good

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if self.objective.kind == "latency":
            seen = f"observed {self.observed * 1e3:.2f}ms"
        else:
            seen = f"observed {self.observed * 100:.3f}%"
        return (f"{verdict} {self.objective.name}: {self.objective.describe()}"
                f" — {seen}, budget {self.budget_remaining * 100:.1f}%, "
                f"burn {self.burn_rate:.2f}x over {self.total} requests")


class SLOEngine:
    """Evaluate a set of objectives over a rolling sample window.

    ``record(latency_seconds, ok)`` appends one request outcome stamped with
    the engine clock; ``evaluate()`` prunes each objective's window and
    returns one :class:`SLOStatus` per objective.  The clock is injectable
    (``ManualClock``), making verdicts on scripted timelines deterministic.
    """

    def __init__(self, objectives: Iterable[Objective],
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.objectives = list(objectives)
        if not self.objectives:
            raise ValueError("SLOEngine needs at least one objective")
        self.clock = clock
        self._max_window = max(o.window_seconds for o in self.objectives)
        self._samples: deque[tuple[float, float, bool]] = deque()
        self.recorded = 0
        # a caller may record from one thread and evaluate from another
        self._lock = threading.Lock()

    def record(self, latency_seconds: float, ok: bool = True,
               ts: float | None = None) -> None:
        ts = self.clock() if ts is None else ts
        with self._lock:
            self._samples.append((ts, float(latency_seconds), bool(ok)))
            self.recorded += 1
            self._prune(ts)

    def _prune(self, now: float) -> None:
        horizon = now - self._max_window
        samples = self._samples
        while samples and samples[0][0] < horizon:
            samples.popleft()

    def window(self, objective: Objective,
               now: float) -> list[tuple[float, float, bool]]:
        horizon = now - objective.window_seconds
        return [s for s in self._samples if s[0] >= horizon]

    def evaluate(self, now: float | None = None) -> list[SLOStatus]:
        now = self.clock() if now is None else now
        with self._lock:
            self._prune(now)
            windows = [self.window(objective, now)
                       for objective in self.objectives]
        return [self._evaluate_one(objective, samples)
                for objective, samples in zip(self.objectives, windows)]

    def _evaluate_one(self, objective: Objective,
                      samples: list[tuple[float, float, bool]]) -> SLOStatus:
        total = len(samples)
        if total == 0:
            # no traffic burns no budget
            return SLOStatus(objective, 0, 0, True, float("nan"), 1.0, 0.0)
        if objective.kind == "latency":
            good = sum(1 for __, lat, ok in samples
                       if ok and lat <= objective.threshold_seconds)
            latencies = np.array([lat for __, lat, ok in samples if ok])
            observed = (float(np.percentile(latencies,
                                            objective.target * 100.0))
                        if latencies.size else float("inf"))
        else:
            good = sum(1 for __, __l, ok in samples if ok)
            observed = good / total
        bad = total - good
        allowed = (1.0 - objective.target) * total
        budget_remaining = 1.0 - (bad / allowed) if allowed > 0 else \
            (1.0 if bad == 0 else float("-inf"))
        burn_rate = (bad / total) / (1.0 - objective.target)
        passed = good / total >= objective.target
        return SLOStatus(objective, total, good, passed, observed,
                         budget_remaining, burn_rate)

    def render(self, now: float | None = None) -> str:
        """Aligned verdict table (the body of ``python -m repro slo``)."""
        rows = []
        for status in self.evaluate(now):
            objective = status.objective
            # an empty window (or, for latency, one with no success) has
            # nothing to observe
            if not np.isfinite(status.observed):
                observed = "-"
            elif objective.kind == "latency":
                observed = f"{status.observed * 1e3:.2f}ms"
            else:
                observed = f"{status.observed * 100:.3f}%"
            rows.append([objective.name, objective.describe(),
                         "PASS" if status.passed else "FAIL", status.total,
                         status.bad, observed,
                         f"{status.budget_remaining * 100:.1f}%",
                         f"{status.burn_rate:.2f}x"])
        return format_table(
            ["objective", "definition", "verdict", "requests", "bad",
             "observed", "budget left", "burn"],
            rows, title="SLO verdicts")

    @property
    def all_passing(self) -> bool:
        return all(status.passed for status in self.evaluate())
