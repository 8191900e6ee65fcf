"""Live terminal serving dashboard — the backend of ``python -m repro top``.

Renders one text *frame* from a metrics-registry snapshot: QPS (computed
from counter deltas between frames), serving latency percentiles from the
log-bucket histograms, cache hit rate, the per-source lookup breakdown
(cache/store/stale/inferred/default/miss) with proportional bars, micro-
batcher flush triggers, circuit-breaker states, trace-store retention,
and — when an :class:`~repro.obs.slo.SLOEngine` is attached — the SLO verdict
table with error-budget burn.

Everything is derived from plain snapshot events, so the renderer is a pure
function over data the registry already exports; the :class:`Dashboard`
wrapper just remembers the previous frame's counters to turn totals into
rates.  No curses, no ANSI requirements — each frame is a plain string, so
it works over ssh, in CI logs, and in tests.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping

from repro.viz.tables import format_table

__all__ = ["Dashboard", "render_dashboard"]

_SOURCES = ("cache", "store", "stale", "inferred", "default", "miss")
_BREAKER_STATES = {0.0: "closed", 1.0: "half_open", 2.0: "open"}


def _index(events: Iterable[Mapping]) -> dict:
    by_key: dict[tuple, dict] = {}
    for ev in events:
        labels = tuple(sorted((ev.get("labels") or {}).items()))
        by_key[(ev.get("name"), labels)] = dict(ev)
    return by_key


def _get(index: Mapping, name: str, **labels):
    return index.get((name, tuple(sorted((str(k), str(v))
                                         for k, v in labels.items()))))


def _num(value, default=float("nan")) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}" if seconds == seconds else "       -"


def render_dashboard(events: Iterable[Mapping], qps: float | None = None,
                     slo_table: str | None = None,
                     trace_stats: Mapping | None = None,
                     title: str = "repro serving") -> str:
    """One dashboard frame from registry snapshot events (pure function)."""
    index = _index(events)
    lines: list[str] = []

    lookups = [(src, _num(ev["value"], 0.0)) for src in _SOURCES
               if (ev := _get(index, "serving.lookups", source=src))]
    total_lookups = sum(n for __, n in lookups)
    flushes = {trig: _num(ev["value"], 0.0)
               for trig in ("size", "deadline", "manual", "sync")
               if (ev := _get(index, "serve.flushes", trigger=trig))}

    header = f"== {title} =="
    if qps is not None:
        header += f"  QPS {qps:,.0f}"
    header += f"  requests {total_lookups:,.0f}"
    lines.append(header)

    # latency percentiles from the log-bucket latency histograms
    latency_rows = []
    for name, label in (("serving.lookup_seconds", "lookup (scalar)"),
                        ("serving.batch_lookup_seconds", "lookup (batch)"),
                        ("ivf.query_batch_seconds", "ivf query batch"),
                        ("serve.request_seconds", "request e2e")):
        ev = _get(index, name)
        if ev is None:
            continue
        latency_rows.append([label, int(_num(ev.get("count"), 0)),
                             _fmt_ms(_num(ev.get("p50"))),
                             _fmt_ms(_num(ev.get("p95"))),
                             _fmt_ms(_num(ev.get("p99"))),
                             _fmt_ms(_num(ev.get("max")))])
    if latency_rows:
        lines.append("")
        lines.append(format_table(
            ["latency (ms)", "count", "p50", "p95", "p99", "max"],
            latency_rows, title="Latency"))

    # cache hit rate
    hits_ev = _get(index, "cache.hits", cache="serving")
    miss_ev = _get(index, "cache.misses", cache="serving")
    if hits_ev or miss_ev:
        hits = _num(hits_ev["value"], 0.0) if hits_ev else 0.0
        misses = _num(miss_ev["value"], 0.0) if miss_ev else 0.0
        total = hits + misses
        rate = hits / total if total else 0.0
        lines.append("")
        lines.append(f"cache hit rate  {_bar(rate)}  {rate * 100:6.2f}%  "
                     f"({hits:,.0f} hits / {total:,.0f} probes)")

    # per-source breakdown
    if lookups:
        lines.append("")
        lines.append("lookups by source")
        for src, n in lookups:
            share = n / total_lookups if total_lookups else 0.0
            lines.append(f"  {src:<9} {_bar(share)} {share * 100:6.2f}%  "
                         f"{n:,.0f}")

    # micro-batcher
    if flushes:
        batch_ev = _get(index, "serve.batch_size")
        mean_batch = _num(batch_ev.get("mean")) if batch_ev else float("nan")
        parts = "  ".join(f"{trig}={int(n)}" for trig, n in flushes.items())
        lines.append("")
        lines.append(f"batcher flushes  {parts}  "
                     f"(mean batch {mean_batch:.1f})")

    # breaker states
    breakers = [(labels, ev) for (name, labels), ev in index.items()
                if name == "breaker.state"]
    if breakers:
        lines.append("")
        for labels, ev in sorted(breakers):
            name = dict(labels).get("breaker", "?")
            state = _BREAKER_STATES.get(_num(ev["value"]), "?")
            flag = " !" if state != "closed" else ""
            lines.append(f"breaker {name:<16} {state}{flag}")

    if trace_stats:
        lines.append("")
        lines.append(f"traces  kept={trace_stats.get('kept', 0)} "
                     f"errors={trace_stats.get('errors', 0)} "
                     f"finished={trace_stats.get('finished', 0)} "
                     f"open={trace_stats.get('open', 0)}")

    if slo_table:
        lines.append("")
        lines.append(slo_table)

    if len(lines) == 1:
        lines.append("(no serving metrics yet)")
    return "\n".join(lines)


class Dashboard:
    """Stateful frame renderer: turns counter totals into rates.

    Holds the previous frame's request total + timestamp so QPS is the
    *delta* rate over the refresh interval, not a lifetime average.
    """

    def __init__(self, telemetry, slo_engine=None,
                 clock: Callable[[], float] = time.monotonic,
                 title: str = "repro serving") -> None:
        self.telemetry = telemetry
        self.slo_engine = slo_engine
        self.clock = clock
        self.title = title
        self._last_total: float | None = None
        self._last_ts: float | None = None

    def _request_total(self, events) -> float:
        total = 0.0
        for ev in events:
            if ev.get("name") == "serving.lookups":
                total += _num(ev.get("value"), 0.0)
        return total

    def frame(self) -> str:
        events = self.telemetry.registry.snapshot()
        now = self.clock()
        total = self._request_total(events)
        qps = None
        if self._last_ts is not None and now > self._last_ts:
            qps = max(total - self._last_total, 0.0) / (now - self._last_ts)
        self._last_total, self._last_ts = total, now

        traces = self.telemetry.traces
        trace_stats = {"kept": len(traces.traces()),
                       "errors": len(traces.error_traces()),
                       "finished": traces.finished,
                       "open": traces.open_traces}
        slo_table = (self.slo_engine.render() if self.slo_engine is not None
                     else None)
        return render_dashboard(events, qps=qps, slo_table=slo_table,
                                trace_stats=trace_stats, title=self.title)
