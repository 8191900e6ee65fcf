"""repro.obs exporters and report rendering: JSONL, Prometheus, CLI."""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.obs import (JsonlWriter, Telemetry, dump_jsonl, events_to_prometheus,
                       load_jsonl, render_events, render_report, to_prometheus)
from repro.obs import runtime as obs


def make_session() -> Telemetry:
    telemetry = Telemetry()
    with obs.session(telemetry):
        obs.count("trainer.batches", 10)
        obs.count("cache.hits", 7, cache="serving")
        obs.gauge_set("hash_table.size", 123, table="tag")
        for v in range(100):
            obs.observe("serving.lookup_seconds", v / 1000.0)
        with obs.span("epoch"):
            with obs.span("forward"):
                pass
    return telemetry


class TestJsonlWriter:
    def test_emit_streams_strict_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlWriter(path) as writer:
            writer.emit("epoch", epoch=0, loss=1.5)
            writer.emit("epoch", epoch=1, loss=float("nan"))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2 and writer.lines == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "epoch" and parsed[0]["loss"] == 1.5
        assert parsed[1]["loss"] == "nan"  # strict JSON, no bare NaN

    def test_append_across_writers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlWriter(path) as w:
            w.emit("a")
        with JsonlWriter(path) as w:
            w.emit("b")
        assert [e["type"] for e in load_jsonl(path)] == ["a", "b"]


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        telemetry = make_session()
        path = tmp_path / "run.jsonl"
        written = dump_jsonl(telemetry, path, run_id="test-run")
        events = load_jsonl(path)
        assert len(events) == written
        assert events[0] == {"type": "meta", "run_id": "test-run",
                             "events": written - 1}
        types = {e["type"] for e in events}
        assert types == {"meta", "counter", "gauge", "loghist", "span"}
        for event in events:          # every line is a flat, strict-JSON object
            assert json.loads(json.dumps(event)) == event

    def test_non_finite_values_round_trip_as_strings(self, tmp_path):
        telemetry = Telemetry()
        telemetry.registry.gauge("g")           # never written → nan
        path = tmp_path / "run.jsonl"
        dump_jsonl(telemetry, path)
        (event,) = load_jsonl(path)
        assert event["value"] == "nan"
        assert math.isnan(float(event["value"]))

    def test_telemetry_dump_jsonl_method(self, tmp_path):
        telemetry = make_session()
        n = telemetry.dump_jsonl(tmp_path / "run.jsonl")
        assert n == len(load_jsonl(tmp_path / "run.jsonl"))


class TestPrometheus:
    def test_counter_gauge_histogram_lines(self):
        text = to_prometheus(make_session().registry)
        assert '# TYPE cache_hits counter' in text
        assert 'cache_hits{cache="serving"} 7.0' in text
        assert '# TYPE hash_table_size gauge' in text
        assert '# TYPE serving_lookup_seconds histogram' in text
        assert 'serving_lookup_seconds_bucket{le="+Inf"} 100.0' in text
        assert 'serving_lookup_seconds_count 100.0' in text
        assert " summary" not in text

    def test_from_loaded_events(self, tmp_path):
        telemetry = make_session()
        path = tmp_path / "run.jsonl"
        dump_jsonl(telemetry, path)
        assert events_to_prometheus(load_jsonl(path)) == \
            to_prometheus(telemetry.registry)

    def test_type_conflict_rejected(self):
        events = [{"type": "counter", "name": "m", "labels": {}, "value": 1.0},
                  {"type": "gauge", "name": "m", "labels": {}, "value": 1.0}]
        with pytest.raises(ValueError):
            events_to_prometheus(events)

    def test_empty(self):
        assert events_to_prometheus([]) == ""

    def test_label_values_are_escaped(self):
        events = [{"type": "counter", "name": "m", "value": 1.0,
                   "labels": {"path": 'C:\\tmp\n"x"'}}]
        text = events_to_prometheus(events)
        assert 'path="C:\\\\tmp\\n\\"x\\""' in text
        assert "\n\"x\"" not in text  # no raw newline inside a label value

    def test_loghist_renders_wellformed_buckets(self):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.latency("op_seconds", op="get"):
                pass
            hist = telemetry.registry.log_histogram("op_seconds",
                                                    {"op": "get"})
            hist.observe_many([0.001, 0.002, 0.002, 0.010])
        text = to_prometheus(telemetry.registry)
        assert "# TYPE op_seconds histogram" in text
        bucket_lines = [line for line in text.splitlines()
                        if line.startswith("op_seconds_bucket")]
        assert bucket_lines[-1].startswith('op_seconds_bucket{le="+Inf",'
                                           'op="get"}')
        # cumulative counts: non-decreasing, +Inf equals _count
        counts = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert f"op_seconds_count{{op=\"get\"}} {counts[-1]}" in text
        assert 'op_seconds_sum{op="get"}' in text
        # les parse as floats and ascend (the +Inf line aside)
        les = []
        for line in bucket_lines[:-1]:
            les.append(float(line.split('le="', 1)[1].split('"', 1)[0]))
        assert les == sorted(les)

    def test_loghist_round_trips_through_jsonl(self, tmp_path):
        telemetry = Telemetry()
        with obs.session(telemetry):
            with obs.latency("lat_seconds"):
                pass
        path = tmp_path / "run.jsonl"
        dump_jsonl(telemetry, path)
        assert events_to_prometheus(load_jsonl(path)) == \
            to_prometheus(telemetry.registry)
        report = render_events(load_jsonl(path)).splitlines()
        assert any(line.startswith("lat_seconds  ") for line in report)


class TestReportRendering:
    def test_render_report_sections(self):
        text = render_report(make_session())
        assert "Span time tree" in text
        assert "Counters" in text
        assert "Gauges" in text
        assert "Histograms" in text
        assert "serving.lookup_seconds" in text
        assert "forward" in text

    def test_render_events_from_dump(self, tmp_path):
        telemetry = make_session()
        path = tmp_path / "run.jsonl"
        dump_jsonl(telemetry, path, run_id="r1")
        text = render_events(load_jsonl(path))
        assert "run: r1" in text
        assert "cache.hits" in text

    def test_no_events(self):
        assert render_events([]) == "no telemetry events"


class TestCliReport:
    def test_report_command_renders_tables(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        dump_jsonl(make_session(), path, run_id="cli")
        assert main(["report", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Span time tree" in out and "run: cli" in out

    def test_report_command_prometheus(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        dump_jsonl(make_session(), path)
        assert main(["report", "--input", str(path),
                     "--format", "prometheus"]) == 0
        assert "# TYPE cache_hits counter" in capsys.readouterr().out

    def test_train_telemetry_then_report(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        events_path = tmp_path / "run.jsonl"
        assert main(["train", "--dataset", "sc", "--users", "120",
                     "--epochs", "1", "--batch-size", "64",
                     "--output", str(model_path),
                     "--telemetry", str(events_path)]) == 0
        events = load_jsonl(events_path)
        assert any(e["type"] == "span" and e["name"] == "forward"
                   for e in events)
        assert main(["report", "--input", str(events_path)]) == 0
        assert "forward" in capsys.readouterr().out
