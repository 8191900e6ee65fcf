"""Wall-clock timing helpers used by the training loops and benchmarks.

All timing here goes through an injectable ``clock`` callable (defaulting to
``time.perf_counter``), so tests advance a :class:`ManualClock` by hand
instead of sleeping and asserting on real wall-clock — the single biggest
source of flakiness in timing tests.  The same convention is used by
:class:`repro.resilience.RetryPolicy` / ``CircuitBreaker`` and
:class:`repro.obs.TraceStore`, whose clock times every span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

__all__ = ["ManualClock", "Timer", "timed"]


class ManualClock:
    """Deterministic clock for tests: time moves only when told to.

    Callable like ``time.perf_counter`` (so it drops into any ``clock=``
    parameter) and usable as a ``sleep`` replacement — ``clock.sleep(dt)``
    advances the clock instead of blocking, which is what retry/breaker
    tests pass as their ``sleep=`` hook.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self.sleeps: list[float] = []  # every sleep duration requested

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> "ManualClock":
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards: {seconds}")
        self.now += seconds
        return self

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.advance(seconds)


class Timer:
    """Accumulating stopwatch.

    ``Timer`` measures wall-clock time across multiple start/stop cycles and
    exposes the running total via :attr:`elapsed`.  It is used by the trainer
    to attribute time to individual pipeline stages (sampling, forward,
    backward, update).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._start: float | None = None
        self.elapsed: float = 0.0
        self.laps: int = 0

    def start(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError("timer already running")
        self._start = self._clock()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("timer is not running")
        lap = self._clock() - self._start
        self.elapsed += lap
        self.laps += 1
        self._start = None
        return lap

    def reset(self) -> None:
        self._start = None
        self.elapsed = 0.0
        self.laps = 0

    @property
    def running(self) -> bool:
        return self._start is not None

    @property
    def current(self) -> float:
        """Accumulated time including the in-flight lap, without stopping."""
        if self._start is None:
            return self.elapsed
        return self.elapsed + (self._clock() - self._start)

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


@contextmanager
def timed(clock: Callable[[], float] = time.perf_counter):
    """Context manager yielding a callable that reports elapsed seconds.

    >>> with timed() as t:
    ...     _ = sum(range(10))
    >>> t() >= 0.0
    True
    """
    start = clock()
    yield lambda: clock() - start
