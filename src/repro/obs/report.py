"""Human-readable telemetry reports, rendered via :mod:`repro.viz.tables`.

Turns a telemetry snapshot — a live :class:`~repro.obs.runtime.Telemetry`
session or events loaded from a JSONL dump — into the aligned text tables the
rest of the benchmark harness uses: a span time tree (with share-of-parent
percentages), counters, gauges, and histogram latency summaries.  This is the
backend of ``python -m repro report``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.viz.tables import format_table

__all__ = ["render_events", "render_report"]


def _as_float(value) -> float:
    """Undo the exporters' string encoding of non-finite floats."""
    return float(value) if not isinstance(value, bool) else float(value)


def _fmt_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _span_table(spans: list[dict]) -> str:
    """Span tree with per-node share of its parent's total."""
    totals = {s["path"]: _as_float(s["total"]) for s in spans}
    rows = []
    for s in spans:
        path = s["path"]
        depth = path.count("/")
        parent = path.rsplit("/", 1)[0] if depth else None
        parent_total = totals.get(parent, 0.0) if parent else None
        share = (100.0 * _as_float(s["total"]) / parent_total
                 if parent_total else float("nan"))
        rows.append(["  " * depth + s["name"], s["count"],
                     _as_float(s["total"]), _as_float(s["self_time"]),
                     _as_float(s["mean"]) * 1e3, share])
    return format_table(
        ["span", "count", "total s", "self s", "mean ms", "% parent"],
        rows, title="Span time tree")


def _counter_table(counters: list[dict]) -> str:
    rows = [[c["name"], _fmt_labels(c.get("labels", {})), _as_float(c["value"])]
            for c in counters]
    return format_table(["counter", "labels", "value"], rows,
                        title="Counters", float_fmt="{:.0f}")


def _gauge_table(gauges: list[dict]) -> str:
    rows = [[g["name"], _fmt_labels(g.get("labels", {})), _as_float(g["value"])]
            for g in gauges]
    return format_table(["gauge", "labels", "value"], rows, title="Gauges")


def _histogram_table(hists: list[dict]) -> str:
    rows = [[h["name"], _fmt_labels(h.get("labels", {})), h["count"],
             _as_float(h["mean"]), _as_float(h["p50"]), _as_float(h["p95"]),
             _as_float(h["p99"]), _as_float(h["max"])]
            for h in hists]
    return format_table(
        ["histogram", "labels", "count", "mean", "p50", "p95", "p99", "max"],
        rows, title="Histograms", float_fmt="{:.6g}")


def _field_worker_line(hists: list[dict]) -> str | None:
    """Training's wait for its field worker against the worker's busy time.

    Near 0 the two cores overlap; a ratio rising toward 1 means the worker
    thread got less than a core (a neighbour took the second vCPU).
    """
    by_name = {h["name"]: h for h in hists}
    if "trainer.field_worker.wait_ms" not in by_name:
        return None
    wait = _as_float(by_name["trainer.field_worker.wait_ms"]["sum"])
    busy = _as_float(by_name["trainer.field_worker.busy_ms"]["sum"])
    if not busy:
        return None
    return (f"field worker: caller waited {wait:.1f} ms for {busy:.1f} ms "
            f"of worker tasks (wait/busy = {wait / busy:.3f})")


def render_events(events: Iterable[Mapping]) -> str:
    """Render snapshot events (e.g. from ``load_jsonl``) as a text report."""
    by_type: dict[str, list[dict]] = {}
    for event in events:
        by_type.setdefault(event.get("type", "?"), []).append(dict(event))

    sections = []
    meta = by_type.get("meta")
    if meta:
        sections.append(f"run: {meta[0].get('run_id', '?')} "
                        f"({meta[0].get('events', '?')} events)")
    if by_type.get("span"):
        sections.append(_span_table(by_type["span"]))
    if by_type.get("counter"):
        sections.append(_counter_table(by_type["counter"]))
    if by_type.get("gauge"):
        sections.append(_gauge_table(by_type["gauge"]))
    hists = by_type.get("loghist")
    if hists:
        sections.append(_histogram_table(hists))
        line = _field_worker_line(hists)
        if line:
            sections.append(line)
    if not sections:
        return "no telemetry events"
    return "\n\n".join(sections)


def render_report(telemetry) -> str:
    """Render a live :class:`~repro.obs.runtime.Telemetry` session."""
    return render_events(telemetry.snapshot())
