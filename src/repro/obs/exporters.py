"""Telemetry exporters: JSONL event log and Prometheus-style text snapshot.

Two complementary output formats:

* **JSONL** — one JSON object per line, streamed (:class:`JsonlWriter`) or
  snapshot (:func:`dump_jsonl`).  Machine-friendly, replayable; this is what
  ``python -m repro report`` consumes.
* **Prometheus text** — the classic exposition format (counters, gauges, and
  histograms with cumulative ``_bucket`` lines), for scraping or eyeballing.

Only stdlib ``json`` is used; non-finite floats are serialised as strings
(``"nan"``/``"inf"``) so every emitted line is strict JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Iterable, Mapping

__all__ = ["JsonlWriter", "dump_jsonl", "load_jsonl", "to_prometheus",
           "events_to_prometheus"]


def _jsonable(value):
    """Strict-JSON-safe scalar: non-finite floats become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _clean(event: Mapping) -> dict:
    out = {}
    for key, value in event.items():
        if isinstance(value, Mapping):
            out[key] = _clean(value)
        else:
            out[key] = _jsonable(value)
    return out


class JsonlWriter:
    """Append-only JSONL event stream, one flushed line per :meth:`emit`."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None
        self.lines = 0

    def _handle(self) -> IO[str]:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def emit(self, event_type: str, **fields) -> dict:
        event = _clean({"type": event_type, **fields})
        fh = self._handle()
        fh.write(json.dumps(event, sort_keys=True) + "\n")
        fh.flush()
        self.lines += 1
        return event

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def dump_jsonl(telemetry, path: str | Path, run_id: str | None = None) -> int:
    """Write a telemetry session snapshot as JSONL; returns lines written."""
    events = telemetry.snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        if run_id is not None:
            fh.write(json.dumps(_clean({"type": "meta", "run_id": run_id,
                                        "events": len(events)}),
                                sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(_clean(event), sort_keys=True) + "\n")
    return len(events) + (1 if run_id is not None else 0)


def load_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL event file back into dicts (blank lines skipped)."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# -- Prometheus text format ----------------------------------------------------

def _prom_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name)


def _prom_escape(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: Mapping[str, str], extra: Mapping[str, str] | None = None,
                 ) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    body = ",".join(f'{_prom_name(k)}="{_prom_escape(v)}"'
                    for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if isinstance(value, str):      # "nan"/"inf" round-tripped through JSONL
        value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def events_to_prometheus(events: Iterable[Mapping]) -> str:
    """Render snapshot events as Prometheus exposition text.

    Log-bucket histograms render as Prometheus *histograms* — cumulative
    well-formed ``_bucket{le="..."}`` lines ending in ``le="+Inf"`` plus
    ``_sum`` and ``_count``.  Label values are escaped per the exposition
    format, and an empty event stream yields the empty string (no stray
    newline, no garbage).  Span and meta events are skipped — spans have no
    Prometheus analogue; use the report table for those.
    """
    lines: list[str] = []
    typed: dict[str, str] = {}
    for event in events:
        kind = event.get("type")
        if kind not in ("counter", "gauge", "loghist"):
            continue
        name = _prom_name(event["name"])
        labels = event.get("labels", {})
        if typed.setdefault(name, kind) != kind:
            raise ValueError(f"metric {name!r} appears as both "
                             f"{typed[name]} and {kind}")
        if kind == "counter":
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{_prom_labels(labels)} "
                         f"{_prom_value(event['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{_prom_labels(labels)} "
                         f"{_prom_value(event['value'])}")
        else:
            lines.append(f"# TYPE {name} histogram")
            for le, cum in event.get("buckets", []):
                lines.append(
                    f"{name}_bucket{_prom_labels(labels, {'le': _prom_value(le)})}"
                    f" {_prom_value(float(cum))}")
            lines.append(f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})}"
                         f" {_prom_value(float(event['count']))}")
            lines.append(f"{name}_sum{_prom_labels(labels)} "
                         f"{_prom_value(event['sum'])}")
            lines.append(f"{name}_count{_prom_labels(labels)} "
                         f"{_prom_value(float(event['count']))}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_prometheus(registry) -> str:
    """Prometheus text snapshot of a live registry."""
    return events_to_prometheus(registry.snapshot())
