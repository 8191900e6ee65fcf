"""repro.check.golden: digest comparison, committed baselines, mutation test."""

from __future__ import annotations

import json

import pytest

from repro.check import golden as g
from repro.perf.pipeline import SyncLoader


class TestCompare:
    def test_identical_digests_match(self):
        digest = {"a": 1, "b": [1.0, 2.0], "c": {"d": "x"}}
        assert g.compare_run_digest(digest, dict(digest)) == []

    def test_float_within_tolerance_matches(self):
        golden = {"loss": 1.0}
        assert g.compare_run_digest(golden, {"loss": 1.0 + 5e-5}) == []
        problems = g.compare_run_digest(golden, {"loss": 1.001})
        assert len(problems) == 1 and "rtol" in problems[0]

    def test_int_entries_are_exact(self):
        assert g.compare_run_digest({"size": 100}, {"size": 101}) != []

    def test_missing_and_extra_keys_reported(self):
        problems = g.compare_run_digest({"a": 1.0}, {"b": 1.0})
        assert any("missing" in p for p in problems)
        assert any("not present in golden" in p for p in problems)

    def test_curve_length_change_reported(self):
        problems = g.compare_run_digest({"curve": [1.0, 2.0]},
                                        {"curve": [1.0]})
        assert len(problems) == 1 and "length" in problems[0]


class TestCommittedGoldens:
    """The committed baselines under benchmarks/golden/ must match a fresh run."""

    def test_golden_files_exist_and_carry_policy(self):
        run = g.load_golden(g.RUN_GOLDEN)
        assert set(run) >= {"policy", "quick", "full"}
        assert run["policy"]["rtol"] == g.RUN_RTOL
        datasets = g.load_golden(g.DATASET_GOLDEN)
        assert set(datasets["datasets"]) == {"sc", "kd", "qb"}

    def test_quick_check_passes(self):
        assert g.check_golden(quick=True) == []

    def test_missing_golden_file_errors_helpfully(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="update-golden"):
            g.load_golden(g.RUN_GOLDEN, directory=tmp_path)

    @pytest.mark.golden
    def test_full_check_passes(self):
        assert g.check_golden(quick=False) == []


class TestUpdateFlow:
    def test_update_then_check_roundtrip(self, tmp_path):
        paths = g.update_golden(directory=tmp_path)
        assert all(p.exists() for p in paths)
        assert g.check_golden(quick=True, directory=tmp_path) == []
        # Files are deterministic JSON: regeneration is byte-identical
        first = paths[0].read_text()
        g.update_golden(directory=tmp_path)
        assert paths[0].read_text() == first

    def test_written_json_is_sorted_and_loadable(self, tmp_path):
        run_path, __ = g.update_golden(directory=tmp_path)
        payload = json.loads(run_path.read_text())
        assert list(payload) == sorted(payload)


class TestMutationSmoke:
    """A deliberate loader reorder must be caught by the run digest."""

    def test_loader_reorder_is_caught(self, monkeypatch):
        epoch = SyncLoader.epoch

        def reversed_epoch(self, *args):
            # Deliberate pipeline bug: batches served in reverse epoch order.
            yield from reversed(list(epoch(self, *args)))

        monkeypatch.setattr(SyncLoader, "epoch", reversed_epoch)
        golden = g.load_golden(g.RUN_GOLDEN)
        actual = g.run_digest(quick=True)
        problems = g.compare_run_digest(golden["quick"], actual)
        assert problems, "golden digest failed to detect a reordered loader"

    def test_seed_change_is_caught(self):
        golden = g.load_golden(g.RUN_GOLDEN)
        actual = g.run_digest(quick=True, seed=1)
        problems = g.compare_run_digest(golden["quick"], actual)
        assert problems
