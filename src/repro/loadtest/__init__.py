"""Seeded load testing and serving-side chaos for the online module.

Three layers, all deterministic given a seed:

* :mod:`repro.loadtest.arrivals` — heavy-tailed traffic generators
  (Poisson baseline, explicit bursts, on/off sources, Zipf hot keys,
  cold-start floods) producing replayable ``(ts, key)`` traces;
* :mod:`repro.loadtest.chaos` — serving-side fault schedules (outage
  windows, latency spikes, slow-store stragglers, corrupted rows) applied
  by a :class:`ChaosStore` that bills virtual service time on a shared
  ``ManualClock`` — also the one seeded store-fault wrapper the serving
  tests use;
* :mod:`repro.loadtest.driver` — the single-threaded virtual-time replay
  driving ``MicroBatcher → ServingProxy → store`` and scoring the run
  against the SLO engine, including the CI chaos gate
  (:func:`run_chaos`).

Exposed on the CLI as ``python -m repro loadtest`` and ``repro chaos``.
"""

from repro.loadtest.arrivals import (ColdStartKeys, Request, SCENARIOS,
                                     UniformKeys, ZipfKeys, bursty_trace,
                                     cold_start_trace, hot_key_trace,
                                     make_trace, onoff_times,
                                     piecewise_poisson_times, poisson_times,
                                     steady_trace)
from repro.loadtest.chaos import (BASE_READ_SECONDS, CHAOS_KINDS, CORRUPT,
                                  LATENCY_SPIKE, OUTAGE, PER_KEY_READ_SECONDS,
                                  SLOW_STORE, ChaosStore, ChaosWindow,
                                  ServingFaultSchedule)
from repro.loadtest.driver import (LoadTestHarness, LoadTestResult,
                                   chaos_schedule, run_chaos, run_loadtest)

__all__ = [
    "Request", "SCENARIOS", "UniformKeys", "ZipfKeys", "ColdStartKeys",
    "poisson_times", "piecewise_poisson_times", "onoff_times", "make_trace",
    "steady_trace", "bursty_trace", "hot_key_trace", "cold_start_trace",
    "CHAOS_KINDS", "OUTAGE", "LATENCY_SPIKE", "SLOW_STORE", "CORRUPT",
    "BASE_READ_SECONDS", "PER_KEY_READ_SECONDS", "ChaosWindow",
    "ServingFaultSchedule", "ChaosStore",
    "LoadTestHarness", "LoadTestResult", "chaos_schedule", "run_loadtest",
    "run_chaos",
]
