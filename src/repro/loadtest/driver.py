"""Virtual-time replay: drive the serving stack through a traffic trace.

:class:`LoadTestHarness` assembles the full overload-safe serving stack —
``EmbeddingStore → ChaosStore → ServingProxy`` (retry + breaker + stale /
infer / prior fallbacks) ``→ MicroBatcher`` (bounded queue, adaptive
throttle, deadline propagation) — entirely on one shared
:class:`~repro.utils.timer.ManualClock`.  :meth:`LoadTestHarness.run`
replays a seeded :class:`~repro.loadtest.arrivals.Request` trace through it
single-threaded: the clock jumps to each arrival, the batcher's deadline is
polled, the request is submitted with its latency budget, and the chaos
store bills virtual service time as batches flush.  Request latency is
``resolve time − arrival time`` on that same clock.

Because *every* time source in the stack is the one ManualClock and every
random draw is seeded, a replay is bit-for-bit reproducible: same seed,
same shed decisions, same breaker trips, same SLO verdicts.  That is what
lets CI assert hard numbers (zero unhandled errors, shed rate ≤ 20%, p99
within SLO) on a chaos run instead of eyeballing noisy wall-clock plots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.lookalike.serving import (_STORE_ERRORS, ServingProxy,
                                     ServingResilience)
from repro.lookalike.store import EmbeddingStore
from repro.loadtest.arrivals import Request, SCENARIOS, bursty_trace
from repro.loadtest.chaos import (CORRUPT, LATENCY_SPIKE, OUTAGE, SLOW_STORE,
                                  ChaosStore, ChaosWindow,
                                  ServingFaultSchedule)
from repro.obs.slo import Objective, SLOEngine, SLOStatus, parse_objective
from repro.resilience.guards import (CircuitBreaker, Deadline, RetryPolicy)
from repro.serve.batcher import AdmissionError, MicroBatcher, ShutdownError
from repro.serve.overload import AdaptiveThrottle
from repro.utils.rng import new_rng
from repro.utils.timer import ManualClock
from repro.viz.tables import format_table

__all__ = ["LoadTestResult", "LoadTestHarness", "chaos_schedule",
           "run_loadtest", "run_chaos"]


@dataclass
class LoadTestResult:
    """Everything one replay produced, plus the chaos-gate verdict."""

    name: str
    requests: int
    resolved: int                    # handles resolved, any outcome
    completed: int
    shed: int
    shed_counts: Counter
    unhandled: int
    unhandled_kinds: Counter
    expired_flushed: int
    duration_seconds: float          # virtual span of the replay
    latencies: np.ndarray            # per completed request, seconds
    source_counts: Counter           # proxy: where embeddings came from
    statuses: list[SLOStatus]
    breaker_trips: int
    store_reads: int
    injected_failures: int
    injected_corruptions: int
    outage_rejections: int
    corruptions_detected: int
    deadline_skips: int
    shed_rate_limit: float = 0.2
    schedule_lines: list[str] = field(default_factory=list)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def slo_passed(self) -> bool:
        return all(s.passed for s in self.statuses)

    @property
    def passed(self) -> bool:
        """The chaos gate: at least one request replayed, no unhandled
        errors, every request resolved, bounded shed, SLOs green.

        Requests are counted by resolved handle, not as completed + shed: a
        request shed under ``policy="degrade"`` is answered by the fallback
        and so is both.  An empty replay proves nothing, so it fails.
        """
        return (self.requests > 0
                and self.unhandled == 0
                and self.resolved == self.requests
                and self.shed_rate <= self.shed_rate_limit
                and self.slo_passed)

    def quantile(self, q: float) -> float:
        if not len(self.latencies):
            return 0.0
        return float(np.percentile(self.latencies, q))

    def render(self) -> str:
        """Human-readable report: traffic, faults, outcomes, SLO verdicts."""
        n = self.requests or 1
        rows = [
            ("requests", self.requests, ""),
            ("duration", f"{self.duration_seconds:.2f}s virtual",
             f"{self.requests / max(self.duration_seconds, 1e-9):.0f} rps"),
            ("completed", self.completed, f"{self.completed / n:.1%}"),
            ("shed", self.shed,
             f"{self.shed_rate:.1%} (limit {self.shed_rate_limit:.0%})"),
            ("unhandled errors", self.unhandled,
             " ".join(f"{k}x{v}" for k, v in self.unhandled_kinds.items())),
            ("flushed past deadline", self.expired_flushed, ""),
            ("p50 / p99 latency",
             f"{self.quantile(50) * 1e3:.2f} / {self.quantile(99) * 1e3:.2f} ms",
             ""),
            ("store reads", self.store_reads,
             f"{self.injected_failures} failed, "
             f"{self.outage_rejections} outage-rejected"),
            ("corrupt rows", self.injected_corruptions,
             f"{self.corruptions_detected} detected by proxy"),
            ("deadline short-circuits", self.deadline_skips, ""),
            ("breaker trips", self.breaker_trips, ""),
        ]
        parts = [format_table(("metric", "value", "detail"), rows,
                              title=f"loadtest: {self.name}")]
        if self.schedule_lines:
            parts.append("fault schedule: " + "; ".join(self.schedule_lines))
        if self.shed_counts:
            parts.append("shed by cause: " + ", ".join(
                f"{cause}={count}" for cause, count
                in sorted(self.shed_counts.items())))
        if self.source_counts:
            total = sum(self.source_counts.values())
            parts.append("embedding sources: " + ", ".join(
                f"{src}={cnt} ({cnt / total:.1%})" for src, cnt
                in self.source_counts.most_common()))
        slo_rows = [(s.objective.name, s.objective.describe(),
                     "PASS" if s.passed else "FAIL",
                     f"{s.total} samples") for s in self.statuses]
        parts.append(format_table(("slo", "objective", "verdict", "window"),
                                  slo_rows, title="slo verdicts"))
        parts.append("chaos gate: " + (
            "PASS" if self.passed else
            "FAIL" if self.requests else "FAIL (no requests replayed)"))
        return "\n\n".join(parts)


class LoadTestHarness:
    """The overload-safe serving stack on one shared virtual clock.

    Parameters mirror the stack's own knobs; the defaults are sized so the
    acceptance chaos scenario (20% store failure, a 10x burst, one 2s
    outage window) passes its gate — they double as the reference tuning
    for the real serving configuration.
    """

    def __init__(self, n_users: int = 512, dim: int = 16, seed: int = 0,
                 schedule: ServingFaultSchedule | None = None,
                 objectives: tuple[str, ...] = ("p99 latency <= 50ms",
                                                "availability >= 99%"),
                 slo_window_seconds: float = 60.0,
                 deadline_budget_seconds: float | None = 0.05,
                 max_batch: int = 32, max_delay_seconds: float = 0.005,
                 max_queue: int = 256, policy: str = "reject",
                 throttle: AdaptiveThrottle | None | str = "auto",
                 cache_capacity: int = 256) -> None:
        self.clock = ManualClock()
        self.seed = seed
        self.deadline_budget_seconds = deadline_budget_seconds
        self.schedule = schedule or ServingFaultSchedule()

        rng = new_rng(seed)
        store = EmbeddingStore(dim)
        store.put_many(range(n_users), rng.normal(size=(n_users, dim)))
        self.store = ChaosStore(store, self.schedule, clock=self.clock,
                                rng=rng.integers(1 << 31))

        # short, clock-driven backoffs: three attempts fit inside the
        # request budget, and the breaker re-probes well within a window
        self.resilience = ServingResilience.from_store_prior(
            store,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.002,
                              multiplier=2.0, max_backoff_seconds=0.01,
                              retry_on=_STORE_ERRORS, clock=self.clock,
                              sleep=self.clock.sleep),
            breaker=CircuitBreaker(failure_threshold=8, reset_seconds=0.25,
                                   clock=self.clock, name="loadtest-store"))
        infer_rng = new_rng(seed + 1)
        infer_vectors: dict[int, np.ndarray] = {}

        def infer(user_id):
            # a deterministic stand-in for on-the-fly model inference:
            # resolves two out of three unknown users, same answer each time
            if user_id % 3 == 0:
                return None
            if user_id not in infer_vectors:
                infer_vectors[user_id] = infer_rng.normal(size=dim)
            return infer_vectors[user_id]

        self.proxy = ServingProxy(self.store, cache_capacity=cache_capacity,
                                  infer_fn=infer, resilience=self.resilience)

        self.objectives: list[Objective] = [
            parse_objective(spec, window_seconds=slo_window_seconds)
            for spec in objectives]
        self.engine = SLOEngine(self.objectives, clock=self.clock)

        if throttle == "auto":
            latency_objs = [o for o in self.objectives if o.kind == "latency"]
            throttle = (AdaptiveThrottle.from_objective(latency_objs[0])
                        if latency_objs else None)
        self.throttle = throttle
        self.batcher = MicroBatcher(
            self._flush, max_batch=max_batch,
            max_delay_seconds=max_delay_seconds, clock=self.clock,
            max_queue=max_queue, policy=policy,
            degrade_fn=lambda key: self.resilience.default_for(dim),
            throttle=throttle)

    def _flush(self, keys):
        return self.proxy.get_embeddings_batch(keys)

    # -- the replay ------------------------------------------------------------

    def run(self, events: list[Request],
            name: str = "replay", shed_rate_limit: float = 0.2,
            ) -> LoadTestResult:
        """Replay ``events`` (sorted by arrival time) and score the run."""
        events = sorted(events)
        clock = self.clock
        outstanding: list[tuple[Request, object]] = []
        resolved: list[tuple[Request, object, float]] = []

        def settle() -> None:
            # stamp newly-resolved handles with the current virtual time;
            # outstanding stays small (bounded by queue depth) so this scan
            # is cheap even on long traces
            still = []
            for item in outstanding:
                if item[1].done:
                    resolved.append((*item, clock()))
                else:
                    still.append(item)
            outstanding[:] = still

        def advance_to(target: float) -> None:
            # honour the batcher's flush timer in virtual time: if the
            # current batch's delay deadline falls before ``target``, jump
            # the clock there and flush — the replay's stand-in for the
            # timer thread a real serving loop would have
            while True:
                flush_at = self.batcher.deadline
                if flush_at is None or flush_at >= target:
                    break
                if clock() < flush_at:
                    clock.advance(flush_at - clock())
                self.batcher.poll()
                settle()
            if clock() < target:
                clock.advance(target - clock())

        for req in events:
            advance_to(req.ts)
            deadline = (Deadline(self.deadline_budget_seconds, clock=clock)
                        if self.deadline_budget_seconds is not None else None)
            handle = self.batcher.submit(req.key, deadline=deadline)
            outstanding.append((req, handle))
            settle()
        final_flush = self.batcher.deadline
        if final_flush is not None:  # let the last batch age out naturally
            advance_to(final_flush)
            self.batcher.poll()
        self.batcher.close(drain=True)
        settle()
        if outstanding:  # close() resolves everything, one way or the other
            raise RuntimeError(
                f"{len(outstanding)} handles still pending after close")

        return self._score(events, resolved, name, shed_rate_limit)

    def _score(self, events, resolved, name, shed_rate_limit) -> LoadTestResult:
        latencies: list[float] = []
        unhandled_kinds: Counter[str] = Counter()
        for req, handle, ts in resolved:
            err = handle._error
            if err is None:
                # admitted and answered (possibly via a degraded tier); the
                # SLO window scores admitted requests only
                latency = max(ts - req.ts, 0.0)
                latencies.append(latency)
                self.engine.record(latency, ok=True, ts=ts)
            elif isinstance(err, (AdmissionError, ShutdownError)):
                pass  # shed — counted by the batcher, excluded from the SLO
            else:
                unhandled_kinds[type(err).__name__] += 1
                self.engine.record(max(ts - req.ts, 0.0), ok=False, ts=ts)

        duration = (events[-1].ts - events[0].ts) if len(events) > 1 else 0.0
        breaker = self.resilience.breaker
        return LoadTestResult(
            name=name,
            requests=self.batcher.submitted,
            resolved=len(resolved),
            completed=len(latencies),
            shed=self.batcher.shed,
            shed_counts=Counter(self.batcher.shed_counts),
            unhandled=sum(unhandled_kinds.values()),
            unhandled_kinds=unhandled_kinds,
            expired_flushed=self.batcher.expired_flushed,
            duration_seconds=duration,
            latencies=np.asarray(latencies, dtype=np.float64),
            source_counts=Counter(self.proxy.source_counts),
            statuses=self.engine.evaluate(),
            breaker_trips=breaker.trips if breaker is not None else 0,
            store_reads=self.store.reads,
            injected_failures=self.store.injected_failures,
            injected_corruptions=self.store.injected_corruptions,
            outage_rejections=self.store.outage_rejections,
            corruptions_detected=self.proxy.corruptions,
            deadline_skips=self.proxy.deadline_skips,
            shed_rate_limit=shed_rate_limit,
            schedule_lines=self.schedule.describe(),
        )


# -- canned scenarios ------------------------------------------------------------

def chaos_schedule(duration: float = 30.0,
                   failure_rate: float = 0.2,
                   outage_start: float | None = None,
                   outage_seconds: float = 2.0) -> ServingFaultSchedule:
    """The acceptance fault script: 20% background store failure, one
    ``outage_seconds`` hard outage, plus a slow-store window, a latency
    spike, and a corrupted-row window to exercise every degraded tier."""
    if outage_start is None:
        outage_start = 0.6 * duration
    return ServingFaultSchedule(
        windows=[
            ChaosWindow(OUTAGE, outage_start, outage_start + outage_seconds),
            ChaosWindow(SLOW_STORE, 0.15 * duration, 0.25 * duration,
                        magnitude=4.0),
            ChaosWindow(LATENCY_SPIKE, 0.45 * duration, 0.50 * duration,
                        magnitude=0.004),
            ChaosWindow(CORRUPT, 0.8 * duration, 0.85 * duration,
                        magnitude=0.3),
        ],
        failure_rate=failure_rate)


def run_loadtest(scenario: str = "steady", duration: float = 10.0,
                 rate: float = 100.0, seed: int = 0, n_users: int = 512,
                 schedule: ServingFaultSchedule | None = None,
                 shed_rate_limit: float = 0.2,
                 **harness_kwargs) -> LoadTestResult:
    """Generate a named scenario's trace and replay it through a fresh stack."""
    try:
        trace_fn = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"expected one of {sorted(SCENARIOS)}") from None
    events = trace_fn(duration=duration, rate=rate, n_keys=n_users, seed=seed)
    harness = LoadTestHarness(n_users=n_users, seed=seed, schedule=schedule,
                              **harness_kwargs)
    return harness.run(events, name=scenario, shed_rate_limit=shed_rate_limit)


def run_chaos(duration: float = 30.0, rate: float = 60.0,
              burst_multiplier: float = 10.0, burst_seconds: float = 2.0,
              failure_rate: float = 0.2, outage_seconds: float = 2.0,
              seed: int = 0, n_users: int = 512,
              shed_rate_limit: float = 0.2,
              **harness_kwargs) -> LoadTestResult:
    """The acceptance chaos run: bursty traffic against the fault script.

    This is the configuration the CI chaos gate replays — 20% store
    failure, one ``burst_multiplier``x burst, one hard outage window —
    asserting zero unhandled errors, shed rate within the limit, and green
    SLOs, deterministically for a given ``seed``.
    """
    events = bursty_trace(duration=duration, rate=rate,
                          burst_multiplier=burst_multiplier,
                          burst_seconds=burst_seconds, n_keys=n_users,
                          seed=seed)
    schedule = chaos_schedule(duration=duration, failure_rate=failure_rate,
                              outage_seconds=outage_seconds)
    harness = LoadTestHarness(n_users=n_users, seed=seed, schedule=schedule,
                              **harness_kwargs)
    return harness.run(events, name="chaos", shed_rate_limit=shed_rate_limit)
