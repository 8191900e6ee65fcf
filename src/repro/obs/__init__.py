"""``repro.obs`` — unified telemetry: metrics, traces, SLOs.

The observability layer behind the paper's efficiency analysis (Table V,
Figs 6/9/10) *and* its serving claim — per-request accounting, not just
aggregate epoch timers.  Instrumentation across ``core``/``hashing``/
``sampling``/``lookalike``/``serve`` is default-on but free until a session
is installed::

    from repro import obs

    with obs.session() as telemetry:
        model.fit(dataset, epochs=5)

    print(obs.render_report(telemetry))      # per-stage time tree + metrics
    telemetry.dump_jsonl("run.jsonl")        # replayable event log
    print(telemetry.to_prometheus())         # scrapeable text snapshot

Metrics are counters, gauges, and one histogram kind: ``observe``,
``observe_many`` and ``latency`` all feed a log-bucket ``LogHistogram``
(exact count/sum/min/max, percentiles to one 10% bucket).  Neither
``Telemetry()`` nor ``session()`` takes a sizing option.

Request-scoped tracing rides the same session: ``with obs.request("r"):``
opens a trace whose spans/events land in ``telemetry.traces`` (tail-sampled,
Chrome-exportable), and ``SLOEngine`` evaluates latency/availability
objectives over rolling windows.

``python -m repro report --input run.jsonl`` renders the same report from a
dump.  Because this package is imported from everywhere, it may only import
leaf modules (numpy/stdlib-only, e.g. ``repro.viz.tables``) — never
``core``/``hashing``/``sampling``/``lookalike``.
"""

from repro.obs.callbacks import TelemetryCallback, TrainerCallback
from repro.obs.context import ActiveSpan
from repro.obs.exporters import (JsonlWriter, dump_jsonl, events_to_prometheus,
                                 load_jsonl, to_prometheus)
from repro.obs.registry import Counter, Gauge, LogHistogram, MetricsRegistry
from repro.obs.report import render_events, render_report
from repro.obs.runtime import (Telemetry, begin_fanin, begin_request, count,
                               current, enabled, end_trace_span, event,
                               gauge_set, install, latency, observe,
                               observe_many, record_span, request, session,
                               span, trace_now, uninstall)
from repro.obs.slo import (Objective, SLOEngine, SLOStatus, availability_slo,
                           latency_slo, parse_objective)
from repro.obs.trace import SpanNode, SpanTracer
from repro.obs.tracestore import (SpanRecord, TraceRecord, TraceStore,
                                  dump_chrome, to_chrome, validate_chrome)

__all__ = [
    "Counter", "Gauge", "LogHistogram", "MetricsRegistry",
    "SpanNode", "SpanTracer",
    "ActiveSpan", "SpanRecord", "TraceRecord", "TraceStore",
    "to_chrome", "dump_chrome", "validate_chrome",
    "Telemetry", "install", "uninstall", "current", "enabled", "session",
    "count", "gauge_set", "observe", "observe_many", "span", "latency",
    "event", "request",
    "trace_now", "begin_request", "begin_fanin", "end_trace_span",
    "record_span",
    "Objective", "SLOEngine", "SLOStatus", "latency_slo", "availability_slo",
    "parse_objective",
    "JsonlWriter", "dump_jsonl", "load_jsonl", "to_prometheus",
    "events_to_prometheus",
    "render_events", "render_report",
    "TrainerCallback", "TelemetryCallback",
]
