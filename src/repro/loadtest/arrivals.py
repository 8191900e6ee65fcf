"""Seeded traffic generators: heavy-tailed arrivals over skewed key sets.

The north star claims "heavy traffic from millions of users"; what makes
that claim *testable* is a reproducible model of what heavy traffic looks
like — not a constant request rate but bursts, hot keys, and cold-start
floods.  This module generates request traces as ``(timestamp, key)`` pairs
from two orthogonal pieces:

* an **arrival process** giving the request *times* — a homogeneous Poisson
  baseline (:func:`poisson_times`), a piecewise-rate variant for explicit
  burst windows (:func:`piecewise_poisson_times`), and an on/off modulated
  process for sustained bursty traffic (:func:`onoff_times`);
* a **key sampler** giving each request its *user id* — uniform
  (:class:`UniformKeys`), Zipf-like hot keys (:class:`ZipfKeys`), or a
  cold-start flood of never-seen ids (:class:`ColdStartKeys`).

Everything is driven by ``numpy`` Generators seeded by the caller: same
seed, same trace, same replay — the property every chaos-gate assertion in
CI leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.rng import new_rng

__all__ = ["Request", "poisson_times", "piecewise_poisson_times",
           "onoff_times", "UniformKeys", "ZipfKeys", "ColdStartKeys",
           "make_trace", "steady_trace", "bursty_trace", "hot_key_trace",
           "cold_start_trace", "SCENARIOS"]


@dataclass(frozen=True, order=True)
class Request:
    """One replayable request: arrives at ``ts`` asking for ``key``."""

    ts: float
    key: int


# -- arrival processes -----------------------------------------------------------

def poisson_times(rate: float, duration: float,
                  rng: np.random.Generator | int | None = 0) -> np.ndarray:
    """Homogeneous Poisson arrivals: exponential inter-arrival gaps."""
    return piecewise_poisson_times([(0.0, duration, rate)], rng)


def piecewise_poisson_times(segments: Sequence[tuple[float, float, float]],
                            rng: np.random.Generator | int | None = 0,
                            ) -> np.ndarray:
    """Poisson arrivals with a piecewise-constant rate.

    ``segments`` is ``[(start, end, rate), ...]``; each segment generates
    its own exponential-gap arrivals.  Overlapping segments superpose (their
    rates add), which is how a burst is usually written: a baseline segment
    for the whole run plus a high-rate segment over the burst window.
    """
    rng = new_rng(rng)
    times: list[float] = []
    for start, end, rate in segments:
        if not np.isfinite([start, end, rate]).all():
            # a NaN or infinite bound never ends the gap loop below
            raise ValueError(f"segment must be finite: ({start}, {end}, "
                             f"{rate})")
        if end < start:
            raise ValueError(f"segment ends before it starts: {start}..{end}")
        if rate < 0:
            raise ValueError(f"rate must be non-negative: {rate}")
        if rate == 0:
            continue
        t = float(start)
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= end:
                break
            times.append(t)
    return np.sort(np.asarray(times, dtype=np.float64))


def onoff_times(on_rate: float, off_rate: float, period: float, duty: float,
                duration: float,
                rng: np.random.Generator | int | None = 0) -> np.ndarray:
    """On/off modulated Poisson: bursts of ``on_rate`` for ``duty x period``
    seconds, then a lull at ``off_rate`` — the classic bursty-source model."""
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty must be in [0, 1]: {duty}")
    if period <= 0:
        raise ValueError(f"period must be positive: {period}")
    if not np.isfinite([period, duration]).all():
        raise ValueError(f"period and duration must be finite: {period}, "
                         f"{duration}")
    segments = []
    t = 0.0
    while t < duration:
        on_end = min(t + duty * period, duration)
        segments.append((t, on_end, on_rate))
        off_end = min(t + period, duration)
        if on_end < off_end:
            segments.append((on_end, off_end, off_rate))
        t = off_end
    return piecewise_poisson_times(segments, rng)


# -- key samplers ----------------------------------------------------------------

class UniformKeys:
    """Every known user equally likely."""

    def __init__(self, n_keys: int) -> None:
        if n_keys < 1:
            raise ValueError(f"n_keys must be >= 1: {n_keys}")
        self.n_keys = n_keys

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.n_keys, size=n)


class ZipfKeys:
    """Zipf-like hot keys: rank ``r`` drawn with weight ``1 / (r+1)^s``.

    With ``exponent`` around 1 a handful of users absorb most of the
    traffic — the cache-friendly *and* hot-spot-prone shape real serving
    sees.  Ranks map to keys via a seeded permutation so the hot set isn't
    always ``{0, 1, 2, ...}``.
    """

    def __init__(self, n_keys: int, exponent: float = 1.1,
                 permute_seed: int = 0) -> None:
        if n_keys < 1:
            raise ValueError(f"n_keys must be >= 1: {n_keys}")
        if exponent <= 0:
            raise ValueError(f"exponent must be positive: {exponent}")
        self.n_keys = n_keys
        self.exponent = exponent
        weights = 1.0 / np.power(np.arange(1, n_keys + 1), exponent)
        self._probs = weights / weights.sum()
        self._perm = new_rng(permute_seed).permutation(n_keys)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ranks = rng.choice(self.n_keys, size=n, p=self._probs)
        return self._perm[ranks]


class ColdStartKeys:
    """A flood of never-seen users: ids drawn from beyond the known range."""

    def __init__(self, first_unknown: int, width: int = 1 << 20) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1: {width}")
        self.first_unknown = first_unknown
        self.width = width

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.first_unknown + rng.integers(0, self.width, size=n)


# -- traces ----------------------------------------------------------------------

def make_trace(times: np.ndarray, sampler,
               rng: np.random.Generator | int | None = 0) -> list[Request]:
    """Zip arrival times with sampled keys into a replayable trace."""
    rng = new_rng(rng)
    keys = sampler.sample(len(times), rng)
    return [Request(float(ts), int(key)) for ts, key in zip(times, keys)]


def steady_trace(duration: float = 10.0, rate: float = 100.0,
                 n_keys: int = 512, seed: int = 0) -> list[Request]:
    """Poisson baseline over a uniform key set — the happy-path workload."""
    times = poisson_times(rate, duration, rng=seed)
    return make_trace(times, UniformKeys(n_keys), rng=seed + 1)


def bursty_trace(duration: float = 10.0, rate: float = 100.0,
                 burst_multiplier: float = 10.0, burst_start: float | None = None,
                 burst_seconds: float = 2.0, n_keys: int = 512,
                 seed: int = 0) -> list[Request]:
    """Poisson baseline plus one explicit ``burst_multiplier``x burst window."""
    if burst_start is None:
        burst_start = 0.3 * duration
    burst_end = min(burst_start + burst_seconds, duration)
    times = piecewise_poisson_times(
        [(0.0, duration, rate),
         (burst_start, burst_end, (burst_multiplier - 1.0) * rate)], rng=seed)
    return make_trace(times, ZipfKeys(n_keys, permute_seed=seed), rng=seed + 1)


def hot_key_trace(duration: float = 10.0, rate: float = 100.0,
                  n_keys: int = 512, exponent: float = 1.2,
                  seed: int = 0) -> list[Request]:
    """On/off bursty arrivals over a sharply Zipf key set."""
    times = onoff_times(on_rate=3.0 * rate, off_rate=0.3 * rate, period=2.0,
                        duty=0.3, duration=duration, rng=seed)
    return make_trace(times, ZipfKeys(n_keys, exponent=exponent,
                                      permute_seed=seed), rng=seed + 1)


def cold_start_trace(duration: float = 10.0, rate: float = 100.0,
                     n_keys: int = 512, flood_start: float | None = None,
                     flood_seconds: float = 3.0, flood_rate: float | None = None,
                     seed: int = 0) -> list[Request]:
    """Warm Zipf traffic plus a flood of never-seen users mid-run."""
    if flood_start is None:
        flood_start = 0.4 * duration
    if flood_rate is None:
        flood_rate = 4.0 * rate
    flood_end = min(flood_start + flood_seconds, duration)
    warm_times = poisson_times(rate, duration, rng=seed)
    warm = make_trace(warm_times, ZipfKeys(n_keys, permute_seed=seed),
                      rng=seed + 1)
    flood_times = piecewise_poisson_times(
        [(flood_start, flood_end, flood_rate)], rng=seed + 2)
    flood = make_trace(flood_times, ColdStartKeys(first_unknown=n_keys),
                       rng=seed + 3)
    return sorted(warm + flood)


#: Named workload shapes for ``python -m repro loadtest --scenario ...``.
SCENARIOS = {
    "steady": steady_trace,
    "burst": bursty_trace,
    "hot-keys": hot_key_trace,
    "cold-start": cold_start_trace,
}
