"""Request micro-batching: coalesce scalar lookups into bounded batches.

Serving traffic arrives one key at a time, but every layer below
(:meth:`ServingProxy.get_embeddings_batch`, the columnar store, the
list-major IVF index) is fastest on whole batches.  :class:`MicroBatcher`
sits in between: requests queue up and the queue is flushed as one call to
``flush_fn`` when it reaches ``max_batch`` entries (size trigger) or the
oldest entry has waited ``max_delay_seconds`` (deadline trigger, checked on
every submit and on :meth:`MicroBatcher.poll`).

Overload safety (the difference between a slow dependency and an unbounded
pile-up) is layered on the same queue:

* **Admission control** — ``max_queue`` bounds the queue; an arrival that
  would overflow it is shed by ``policy``: ``reject`` fails the new handle
  with :class:`AdmissionError`, ``drop_oldest`` evicts the stalest queued
  request in its favour, ``degrade`` resolves the new request immediately
  from ``degrade_fn`` (e.g. the field-prior embedding) without touching the
  store path at all.
* **Adaptive shedding** — an optional
  :class:`~repro.serve.overload.AdaptiveThrottle` sheds arrivals when the
  observed sojourn tail or the predicted queue wait crosses the SLO-derived
  threshold, even before the queue is full.
* **Deadline propagation** — ``submit(key, deadline=...)`` carries a
  :class:`~repro.resilience.guards.Deadline` with the request; at flush
  time, already-expired requests are split off and flushed under their
  expired budget (the proxy short-circuits the store and serves the
  degraded tiers), while the live batch runs under the tightest admitted
  budget so retries/backoff below never outlive the caller.
* **Clean shutdown** — :meth:`close` stops admissions and either drains or
  fails the queue; pending handles resolve with :class:`ShutdownError`
  instead of hanging in ``.result()`` forever.  ``MicroBatcher`` is a
  context manager (drains on clean exit, fails pending on exceptions).

Cost is paid per flushed batch, not per request: a submit is one slotted
handle, one clock read and one pass under the queue lock; every handle waits
on the batcher's one :class:`threading.Condition`, notified once per completed
group; traces and gauges are touched only under a telemetry session.  The
clock is injectable (the repo-wide ``ManualClock`` pattern), so deadlines are
tested without sleeps.  Thread-safe: submits may come from many threads;
``flush_fn`` runs outside the lock.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Hashable, Sequence

from repro.obs import runtime as obs
from repro.resilience.guards import Deadline, deadline_scope

__all__ = ["MicroBatcher", "PendingResult", "AdmissionError", "ShutdownError"]

#: Admission policies for a full queue (or a throttle shed decision).
POLICIES = ("reject", "drop_oldest", "degrade")


class AdmissionError(RuntimeError):
    """The request was shed by admission control before reaching the store."""


class ShutdownError(RuntimeError):
    """The batcher was closed while (or before) the request was pending."""


class PendingResult:
    """Handle for one submitted key; resolves when its batch is flushed.

    Plain slots plus the owning batcher's condition: the batcher writes
    ``_value`` / ``_error``, then ``_done``, then notifies once per group.
    ``_span`` is the request's root trace span (opened at submit, closed at
    resolve/fail, by the batcher); ``_enqueued`` feeds the throttle.
    """

    __slots__ = ("key", "_resolved", "_done", "_value", "_error", "_span",
                 "_deadline", "_enqueued")

    def __init__(self, key: Hashable, resolved: threading.Condition,
                 deadline: Deadline | None, enqueued: float) -> None:
        self.key = key
        self._resolved = resolved
        self._done = False
        self._value = self._error = self._span = None
        self._deadline = deadline
        self._enqueued = enqueued  # submit time on the batcher's clock

    @property
    def done(self) -> bool:
        return self._done

    @property
    def shed(self) -> bool:
        """Was this request shed by admission control?"""
        return isinstance(self._error, AdmissionError)

    def result(self, timeout: float | None = None):
        """Block until the batch containing this key has been flushed.

        Re-raises the flush's exception if the batch failed.  With a
        ``timeout`` (seconds) an unresolved wait raises :class:`TimeoutError`
        instead of blocking forever.
        """
        if not self._done:
            with self._resolved:
                if not self._resolved.wait_for(lambda: self._done, timeout):
                    raise TimeoutError(
                        f"request for key {self.key!r} still pending")
        if self._error is not None:
            raise self._error
        return self._value


class MicroBatcher:
    """Coalesce single-key requests into size/deadline-bounded batches.

    Parameters
    ----------
    flush_fn:
        ``flush_fn(keys) -> sequence`` resolving one value per key, in
        order (e.g. ``proxy.get_embeddings_batch`` — a matrix's rows).
    max_batch:
        Flush as soon as the queue holds this many requests.
    max_delay_seconds:
        Flush when the oldest queued request has waited this long.  The
        deadline is armed by the first submit after a flush and checked on
        every later submit and on :meth:`poll`.
    clock:
        Monotonic time source; inject a ``ManualClock`` in tests.
    max_queue:
        Admission bound: arrivals beyond this queue depth are shed by
        ``policy``.  ``None`` (legacy default) leaves the queue unbounded.
    policy:
        What to shed when the queue is full or the throttle says stop:
        ``"reject"`` the new arrival, ``"drop_oldest"`` queued request, or
        ``"degrade"`` the new arrival to ``degrade_fn(key)`` immediately.
    degrade_fn:
        ``degrade_fn(key) -> value`` for the ``degrade`` policy — typically
        the serving prior, so a shed request still gets *some* embedding.
    throttle:
        Optional :class:`~repro.serve.overload.AdaptiveThrottle`; fed with
        per-request sojourns and per-flush service costs, consulted on every
        submit.
    """

    def __init__(self, flush_fn: Callable[[list[Hashable]], Sequence],
                 max_batch: int = 64, max_delay_seconds: float = 0.002,
                 clock: Callable[[], float] = time.monotonic, *,
                 max_queue: int | None = None, policy: str = "reject",
                 degrade_fn: Callable[[Hashable], object] | None = None,
                 throttle=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        if max_delay_seconds < 0:
            raise ValueError(
                f"max_delay_seconds must be >= 0: {max_delay_seconds}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1: {max_queue}")
        if policy not in POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; "
                             f"use one of {POLICIES}")
        if policy == "degrade" and degrade_fn is None:
            raise ValueError("policy='degrade' requires degrade_fn")
        self._flush_fn = flush_fn
        self.max_batch = max_batch
        self.max_delay_seconds = max_delay_seconds
        self.max_queue = max_queue
        self.policy = policy
        self.degrade_fn = degrade_fn
        self.throttle = throttle
        self._clock = clock
        self._lock = threading.Lock()
        self._resolved = threading.Condition()  # the one every handle waits on
        self._queue: list[PendingResult] = []
        self._deadline: float | None = None
        self._closed = False
        #: Flush tallies by trigger: ``size`` / ``deadline`` / ``manual`` /
        #: ``sync`` (a blocking :meth:`get` forcing its own batch out) /
        #: ``close`` (a draining shutdown).
        self.flush_reasons: Counter[str] = Counter()
        #: Shed tallies by cause: ``queue_full`` / ``throttle`` / ``closed``.
        self.shed_counts: Counter[str] = Counter()
        self.submitted = 0        # total submit() calls (incl. shed ones)
        self.expired_flushed = 0  # requests flushed after their deadline

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def shed(self) -> int:
        """Total requests shed by admission control (all causes)."""
        return sum(self.shed_counts.values())

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests shed so far."""
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def deadline(self) -> float | None:
        """Absolute flush deadline of the current batch (None when empty)."""
        with self._lock:
            return self._deadline

    # -- admission -------------------------------------------------------------

    def _complete(self, group: Sequence[PendingResult],
                  error: BaseException | None = None) -> None:
        """Finish a group (values already stored): flags, one wake-up, spans.

        The notify runs under the condition after every flag is set: a waiter
        sees its flag before parking or is parked before the notify.
        """
        for pending in group:
            pending._error = error
            pending._done = True
        with self._resolved:
            self._resolved.notify_all()
        if obs.enabled():
            for pending in group:
                obs.end_trace_span(pending._span, error=error)

    def _shed(self, pending: PendingResult, cause: str) -> None:
        """Resolve a shed request per the policy (never reaches the store)."""
        self.shed_counts[cause] += 1
        obs.count("serve.shed", policy=self.policy, cause=cause)
        error: BaseException | None = None
        if cause == "closed":
            error = ShutdownError(
                f"batcher closed; request {pending.key!r} refused")
        elif self.policy == "degrade":
            # degrade_fn is caller code and may itself fail; the handle must
            # still resolve (and its span end) — as a plain admission failure
            try:
                pending._value = self.degrade_fn(pending.key)
            except Exception as exc:
                error = AdmissionError(
                    f"request {pending.key!r} shed ({cause}, policy=degrade) "
                    f"and degrade_fn failed: {exc!r}")
                error.__cause__ = exc
        else:
            error = AdmissionError(f"request {pending.key!r} shed ({cause}, "
                                   f"policy={self.policy})")
        self._complete((pending,), error)

    def submit(self, key: Hashable,
               deadline: Deadline | None = None) -> PendingResult:
        """Queue one key; returns a handle that resolves at flush time.

        ``deadline`` is the request's remaining-budget carrier: it rides the
        handle into the flush, where the batch below runs under the tightest
        admitted budget and already-expired requests short-circuit to the
        degraded serving tiers.

        The handle *always* resolves: with the flushed value, with the
        flush's error, or — when admission control sheds the request — with
        :class:`AdmissionError` / the ``degrade_fn`` value /
        :class:`ShutdownError` after :meth:`close`.

        One clock read stamps the enqueue time and arms / tests the flush
        deadline.  Only while a telemetry session is installed does a submit
        open its own request trace: the batcher owns that root until the
        handle resolves or fails, so the queue wait, the shared flush and every
        proxy/store/index sub-span land inside it before the trace is finalized.
        """
        now = self._clock()
        pending = PendingResult(key, self._resolved, deadline, now)
        traced = obs.enabled()
        if traced:
            pending._span = obs.begin_request("serve.request", key=str(key))
        reason = victim = shed_cause = None
        with self._lock:
            self.submitted += 1
            queue = self._queue
            if self._closed:
                shed_cause = "closed"
            elif self.throttle is not None and \
                    self.throttle.should_shed(len(queue)):
                shed_cause = "throttle"
            elif self.max_queue is not None and len(queue) >= self.max_queue:
                shed_cause = "queue_full"
            # A throttle shed can fire at any queue depth (the sojourn-tail
            # signal is depth-independent); with nothing queued there is no
            # victim to evict, so the new arrival is shed instead.
            if shed_cause is not None and shed_cause != "closed" and \
                    self.policy == "drop_oldest" and queue:
                victim = queue.pop(0)
            if victim is not None or shed_cause is None:
                queue.append(pending)
                if len(queue) >= self.max_batch:
                    reason = "size"
                elif self._deadline is None:
                    self._deadline = now + self.max_delay_seconds
                elif now >= self._deadline:
                    reason = "deadline"
            depth = len(queue)
        if traced:
            obs.gauge_set("serve.queue_depth", depth)
        if victim is not None:
            self._shed(victim, shed_cause)
        elif shed_cause is not None:
            self._shed(pending, shed_cause)
        if reason is not None:
            self._flush(reason)
        return pending

    def poll(self) -> int:
        """Flush if the deadline has expired; returns flushed batch size.

        Call this from the serving loop's idle path so a lone request never
        waits past its deadline just because no later submit arrived.
        """
        with self._lock:
            expired = (self._deadline is not None
                       and self._clock() >= self._deadline)
        return self._flush("deadline") if expired else 0

    def flush(self) -> int:
        """Flush whatever is queued right now; returns the batch size."""
        return self._flush("manual")

    def get(self, key: Hashable, deadline: Deadline | None = None):
        """Blocking convenience lookup: submit, force a flush, return.

        If the submit itself triggered a size/deadline flush (or admission
        control resolved the request on the spot) the value is already
        there; otherwise the caller's own batch (plus anything queued with
        it) is flushed synchronously.
        """
        pending = self.submit(key, deadline=deadline)
        if not pending.done:
            self._flush("sync")
        return pending.result()

    def close(self, drain: bool = False) -> int:
        """Stop admissions; resolve the queue one way or the other.

        With ``drain=True`` the queued requests are flushed normally first;
        otherwise every pending handle fails with :class:`ShutdownError` —
        blocked ``.result()`` calls raise instead of hanging forever.  Later
        submits resolve immediately with :class:`ShutdownError`.  Idempotent;
        returns the number of requests drained or failed.
        """
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
        if drain:
            return self._flush("close")
        batch = self._take_queue()
        if batch:
            self._complete(
                batch, ShutdownError("batcher closed with requests pending"))
            obs.count("serve.shutdown_failed", len(batch))
        return len(batch)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # clean exit drains outstanding work; an in-flight exception must not
        # hang other threads on .result(), so their handles fail instead
        self.close(drain=exc_type is None)
        return False

    # -- flushing --------------------------------------------------------------

    def _take_queue(self) -> list[PendingResult]:
        with self._lock:
            batch = self._queue
            self._queue = []
            self._deadline = None
        obs.gauge_set("serve.queue_depth", 0.0)
        return batch

    def _flush(self, reason: str) -> int:
        batch = self._take_queue()
        if not batch:
            return 0
        self.flush_reasons[reason] += 1
        obs.count("serve.flushes", trigger=reason)
        obs.observe("serve.batch_size", len(batch))
        # Split off requests whose deadline already expired: they flush as
        # their own sub-batch under the expired budget, so the proxy below
        # short-circuits the store and serves the degraded tiers instead of
        # spending retries on callers that already gave up.
        live, lapsed = [], []
        for p in batch:
            expired = p._deadline is not None and p._deadline.expired
            (lapsed if expired else live).append(p)
        if lapsed:
            self.expired_flushed += len(lapsed)
            obs.count("serve.expired_requests", len(lapsed))
        try:
            if live:
                self._run_batch(live, reason)
        finally:   # an interrupt in the live flush must not strand these
            if lapsed:
                self._run_batch(lapsed, reason)
        return len(batch)

    def _run_batch(self, batch: list[PendingResult], reason: str) -> None:
        """One ``flush_fn`` call under the group's tightest admitted budget."""
        flush_span = token = None
        if obs.enabled():
            # Retroactive queue-wait spans (one per request, from its root's
            # start), then one fan-in flush span shared by the batch's traces;
            # activating it makes flush_fn's own spans/events its children.
            parents = [p._span for p in batch if p._span is not None]
            now = obs.trace_now()
            for span in parents:
                obs.record_span("batcher.wait", span, span.start, now)
            flush_span = obs.begin_fanin("batcher.flush", parents,
                                         trigger=reason, batch_size=len(batch))
            token = obs.activate_span(flush_span)
        scope = min((p._deadline for p in batch if p._deadline is not None),
                    key=lambda d: d.expires_at, default=None)
        keys = [pending.key for pending in batch]
        started = self._clock()
        error: BaseException | None = None
        try:
            with deadline_scope(scope):
                values = self._flush_fn(keys)
            # a generator has no length: nothing to pair the keys with
            count = len(values) if hasattr(values, "__len__") else "unsized"
            if count != len(batch):
                raise ValueError(
                    f"flush_fn returned {count} values for {len(batch)} keys")
            for pending, value in zip(batch, values):
                pending._value = value
        except BaseException as exc:
            error = exc
            if not isinstance(exc, Exception):
                raise   # Ctrl-C / SystemExit: fail the handles, then propagate
        finally:
            # the one exit: handles resolve, spans end, the throttle is fed
            obs.deactivate_span(token)
            obs.end_trace_span(flush_span, error=error)
            self._complete(batch, error)
            if self.throttle is not None:
                finished = self._clock()
                self.throttle.record_flush(finished - started, len(batch))
                for pending in batch:
                    self.throttle.record(finished - pending._enqueued)
