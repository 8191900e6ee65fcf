"""Command-line interface: every command end to end at tiny scale."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])


class TestStats:
    def test_prints_table1_row(self):
        code, text = run_cli("stats", "--dataset", "sc", "--users", "200")
        assert code == 0
        assert "SC-like" in text
        assert "tag" in text

    @pytest.mark.parametrize("dataset", ["kd", "qb"])
    def test_other_presets(self, dataset):
        code, text = run_cli("stats", "--dataset", dataset, "--users", "150")
        assert code == 0
        assert "fields=4" in text


class TestTrainEvaluateEmbed:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.npz"
        code, text = run_cli(
            "train", "--dataset", "sc", "--users", "300", "--epochs", "2",
            "--latent-dim", "8", "--batch-size", "128",
            "--output", str(path))
        assert code == 0
        assert "model saved" in text
        return path

    def test_evaluate_tags(self, model_path):
        code, text = run_cli("evaluate", "--dataset", "sc", "--users", "300",
                             "--model", str(model_path))
        assert code == 0
        assert "AUC=" in text

    def test_evaluate_reconstruction(self, model_path):
        code, text = run_cli("evaluate", "--dataset", "sc", "--users", "300",
                             "--model", str(model_path),
                             "--task", "reconstruction")
        assert code == 0
        assert "reconstruction overall" in text

    def test_embed(self, model_path, tmp_path):
        out_path = tmp_path / "emb.npz"
        code, text = run_cli("embed", "--dataset", "sc", "--users", "300",
                             "--model", str(model_path),
                             "--output", str(out_path))
        assert code == 0
        with np.load(out_path) as payload:
            assert payload["embeddings"].shape == (300, 8)
            assert payload["topics"].shape == (300,)


class TestTrainResume:
    def test_resume_at_another_batch_size_exits_two(self, tmp_path, capsys):
        from repro.core import FVAE, FVAEConfig
        from repro.data import get_dataset

        # The model `repro train --latent-dim 8` builds, stopped after its
        # first batch of 16 (max_seconds=0) with a mid-epoch checkpoint.
        data = get_dataset("sc", n_users=64, seed=0).dataset
        config = FVAEConfig(latent_dim=8, encoder_hidden=[32],
                            decoder_hidden=[32], beta=0.2, seed=0)
        FVAE(data.schema, config).fit(data, epochs=1, batch_size=16, lr=2e-3,
                                      max_seconds=0, checkpointer=tmp_path)
        out_path = tmp_path / "model.npz"
        code, text = run_cli(
            "train", "--users", "64", "--epochs", "1", "--latent-dim", "8",
            "--batch-size", "32", "--checkpoint-dir", str(tmp_path),
            "--resume", "--output", str(out_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "batch size 16" in err and "batch size 32" in err
        assert text == ""
        assert not out_path.exists()


class TestDatasetSchemaMismatch:
    """A model trained on one preset, run against another (the default sc)."""

    @pytest.fixture(scope="class")
    def kd_model(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli_kd") / "kd.npz"
        code, __ = run_cli(
            "train", "--dataset", "kd", "--users", "200", "--epochs", "1",
            "--latent-dim", "8", "--batch-size", "128", "--output", str(path))
        assert code == 0
        return path

    def test_embed_exits_nonzero_and_writes_nothing(self, kd_model, tmp_path,
                                                    capsys):
        out_path = tmp_path / "emb.npz"
        code, text = run_cli("embed", "--users", "200", "--model",
                             str(kd_model), "--output", str(out_path))
        assert code == 2
        assert "embed: dataset schema" in capsys.readouterr().err
        assert "wrote" not in text
        assert not out_path.exists()

    @pytest.mark.parametrize("task", ["tags", "reconstruction"])
    def test_evaluate_exits_nonzero(self, kd_model, capsys, task):
        code, text = run_cli("evaluate", "--users", "200", "--model",
                             str(kd_model), "--task", task)
        assert code == 2
        err = capsys.readouterr().err
        assert "evaluate: dataset schema" in err
        assert "does not match the model's schema" in err
        assert text == ""


class TestBenchmark:
    def test_benchmark_prints_speedup(self):
        code, text = run_cli("benchmark", "--dataset", "sc",
                             "--users", "300", "--epochs", "1")
        assert code == 0
        assert "Speedup" in text


class TestObservabilityCommands:
    def test_trace_summary(self):
        code, text = run_cli("trace", "--requests", "60", "--seed", "3")
        assert code == 0
        assert text.startswith("trace: 60 requests over ")
        assert "60 traces finished" in text
        assert "[slowest]" in text
        assert "serve.request" in text

    def test_trace_chrome_export_is_schema_valid(self, tmp_path):
        import json

        from repro.obs import validate_chrome

        out_path = tmp_path / "trace.json"
        code, text = run_cli("trace", "--requests", "60",
                             "--export", "chrome", "--out", str(out_path))
        assert code == 0 and "written to" in text
        doc = json.loads(out_path.read_text())
        assert validate_chrome(doc) == []
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_chrome_requires_out(self, capsys):
        code, __ = run_cli("trace", "--export", "chrome")
        assert code == 2
        assert "requires --out" in capsys.readouterr().err

    def test_slo_live_passes_with_loose_objectives(self):
        code, text = run_cli("slo", "--requests", "60",
                             "--objective", "availability >= 50%",
                             "--objective", "p99 latency <= 10s")
        assert code == 0
        assert "SLO verdicts" in text and "PASS" in text

    def test_slo_replay_is_deterministic(self):
        argv = ("slo", "--requests", "200", "--failure-rate", "0.2",
                "--seed", "3")
        first, second = run_cli(*argv), run_cli(*argv)
        assert first == second
        assert " 200 " in first[1]   # every request lands in the window

    @pytest.mark.parametrize("command", ["trace", "slo"])
    @pytest.mark.parametrize("requests", ["0", "-5"])
    def test_requests_below_one_exits_two(self, command, requests, capsys):
        code, text = run_cli(command, "--requests", requests)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: --requests must be at least 1")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["trace", "slo"])
    @pytest.mark.parametrize("rate", ["2", "-0.5", "nan"])
    def test_bad_failure_rate_exits_two(self, command, rate, capsys):
        code, text = run_cli(command, "--failure-rate", rate)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: failure_rate must be a probability")
        assert len(err.strip().splitlines()) == 1

    def test_trace_negative_limit_exits_two(self, capsys):
        # a negative slice bound would drop traces from the end silently
        code, text = run_cli("trace", "--limit", "-1", "--requests", "20")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("trace: --limit must be >= 0")
        assert len(err.strip().splitlines()) == 1

    def test_trace_zero_limit_prints_the_summary_only(self):
        code, text = run_cli("trace", "--limit", "0", "--requests", "20")
        assert code == 0
        assert "20 traces finished" in text and "[slowest]" not in text

    @pytest.mark.parametrize("command", ["loadtest", "chaos"])
    @pytest.mark.parametrize("limit", ["nan", "-0.1", "1.5"])
    def test_bad_shed_limit_exits_two(self, command, limit, capsys):
        code, text = run_cli(command, "--shed-limit", limit)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: --shed-limit must be a fraction")
        assert len(err.strip().splitlines()) == 1

    def test_slo_timeline_fail_exits_one(self, tmp_path):
        import json

        path = tmp_path / "timeline.jsonl"
        rows = [{"ts": float(i), "latency_ms": 500.0, "ok": i % 2 == 0}
                for i in range(20)]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, text = run_cli("slo", "--timeline", str(path),
                             "--objective", "availability >= 99.9%")
        assert code == 1
        assert "FAIL" in text

    def test_slo_bad_objective_exits_two(self, capsys):
        code, __ = run_cli("slo", "--objective", "latency under 3 parsecs")
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_slo_missing_timeline_exits_two(self, tmp_path, capsys):
        code, __ = run_cli("slo", "--timeline", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "no such timeline" in capsys.readouterr().err

    def test_slo_nan_window_exits_two(self, capsys):
        # a NaN window would prune every sample and PASS over 0 requests
        code, text = run_cli("slo", "--window", "nan", "--requests", "50")
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("slo: window must be")

    def test_replay_runs_on_one_thread_that_cprofile_sees(self):
        # the stdlib profiler covers the serving replay: every call runs on
        # the thread that called ``main``, none on a thread it started
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        code = profiler.runcall(main, ["loadtest", "--duration", "2"],
                                out=io.StringIO())
        stats = pstats.Stats(profiler).stats

        def calls(module, name):   # ncalls of each matching function
            return [v[1] for (path, __, func), v in stats.items()
                    if path.endswith(module)
                    and func.rsplit(".", 1)[-1] == name]

        assert code == 0
        assert calls("serving.py", "_chain")[0] > 0
        assert calls("threading.py", "start") == []


class TestReportFailureModes:
    def test_missing_input_fails_gracefully(self, tmp_path, capsys):
        code, __ = run_cli("report", "--input", str(tmp_path / "nope.jsonl"))
        assert code == 2
        err = capsys.readouterr().err
        assert "no such telemetry dump" in err
        assert len(err.strip().splitlines()) == 1   # one line, no traceback

    def test_empty_input_fails_gracefully(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, __ = run_cli("report", "--input", str(path))
        assert code == 2
        assert "contains no telemetry events" in capsys.readouterr().err

    def test_truncated_jsonl_fails_gracefully(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"type": "counter", "name": "x", "labels": {}, '
                        '"value": 1.0}\n{"type": "coun')
        code, __ = run_cli("report", "--input", str(path))
        assert code == 2
        assert "not valid JSONL" in capsys.readouterr().err


class TestLookalikeCommand:
    def test_exact_default(self):
        code, text = run_cli("lookalike", "--users", "400", "--dim", "8",
                             "--seeds", "10", "--k", "20")
        assert code == 0
        assert "index=none quant=none" in text
        assert "recall vs exact scan 1.000" in text

    @pytest.mark.parametrize("index,quant", [("ivf", "int8"),
                                             ("ivf", "pq"),
                                             ("none", "pq")])
    def test_index_quant_combos(self, index, quant):
        code, text = run_cli("lookalike", "--users", "600", "--dim", "8",
                             "--index", index, "--quant", quant,
                             "--seeds", "10", "--k", "20")
        assert code == 0
        assert f"index={index} quant={quant}" in text
        assert "smaller than" in text

    def test_telemetry_dump_renders(self, tmp_path):
        path = tmp_path / "look.jsonl"
        code, text = run_cli("lookalike", "--users", "500", "--dim", "8",
                             "--index", "ivf", "--quant", "int8",
                             "--telemetry", str(path))
        assert code == 0
        assert path.exists()
        code, text = run_cli("report", "--input", str(path))
        assert code == 0
        assert "ivf.probes" in text
        assert "quant.bytes_saved" in text

    def test_rejects_unknown_index(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lookalike", "--index", "kdtree"])

    def test_lsh_index_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lookalike", "--index=lsh"])

    def test_bench_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--suite", "ann"])
