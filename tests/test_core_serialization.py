"""FVAE save/load round trips, including dynamic hash-table state."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig, load_fvae, save_fvae
from repro.resilience import CheckpointError
from repro.resilience.checkpoint import (FORMAT_VERSION, read_archive,
                                         write_archive)
from repro.utils.fileio import atomic_savez, digest_path_for


def train_small(schema, dataset, precision="float32"):
    config = FVAEConfig(latent_dim=6, encoder_hidden=[16], decoder_hidden=[16],
                        embedding_capacity=16, feature_dropout=0.0, seed=0)
    model = FVAE(schema, config)
    model.fit(dataset, epochs=3, batch_size=3, lr=2e-3, precision=precision)
    return model


@pytest.fixture()
def small_model(tiny_schema, tiny_dataset):
    return train_small(tiny_schema, tiny_dataset)


def write_version_one_archive(model, path):
    """A model file as ``save_fvae`` wrote it at format 1: compressed, with
    the hash-table keys as pickled ``dtype=object`` members beside their
    rows, and a digest sidecar."""
    arrays = {f"param/{name}": values
              for name, values in model.state_dict().items()}
    for spec in model.schema:
        items = list(model.encoder.bag(spec.name).table.items())
        arrays[f"table_keys/{spec.name}"] = np.asarray(
            [k for k, __ in items], dtype=object)
        arrays[f"table_rows/{spec.name}"] = np.asarray(
            [v for __, v in items], dtype=np.int64)
    meta = {"format_version": 1, "config": asdict(model.config),
            "schema": [{"name": s.name, "vocab_size": s.vocab_size,
                        "sample": s.sample, "alpha": s.alpha}
                       for s in model.schema],
            "step": model._step, "dtype": str(model.dtype)}
    arrays["meta"] = np.asarray(json.dumps(meta))
    np.savez_compressed(path, **arrays)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    digest_path_for(path).write_text(digest + "\n")


class TestSaveLoad:
    def test_embeddings_identical_after_round_trip(self, small_model,
                                                   tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        restored = load_fvae(path)
        np.testing.assert_allclose(restored.embed_users(tiny_dataset),
                                   small_model.embed_users(tiny_dataset))

    def test_training_precision_survives_the_round_trip(self, tiny_schema,
                                                        tiny_dataset,
                                                        tmp_path):
        for precision in ("float32", "float64"):
            model = train_small(tiny_schema, tiny_dataset, precision)
            path = tmp_path / f"model-{precision}.npz"
            save_fvae(model, path)
            restored = load_fvae(path)
            assert {p.data.dtype for p in restored.parameters()} \
                == {p.data.dtype for p in model.parameters()} \
                == {np.dtype(precision)}
            np.testing.assert_array_equal(restored.embed_users(tiny_dataset),
                                          model.embed_users(tiny_dataset))

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_version_one_archive_is_refused(self, tiny_schema, tiny_dataset,
                                            tmp_path, precision):
        model = train_small(tiny_schema, tiny_dataset, precision)
        path = tmp_path / "model.npz"
        write_version_one_archive(model, path)
        with pytest.raises(CheckpointError,
                           match=f"format 1; this build reads {FORMAT_VERSION}"):
            load_fvae(path)

    def test_round_trip_at_a_path_without_a_suffix(self, small_model,
                                                   tiny_dataset, tmp_path):
        path = tmp_path / "model"
        save_fvae(small_model, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["model", "model.sha256"]
        np.testing.assert_array_equal(load_fvae(path).embed_users(tiny_dataset),
                                      small_model.embed_users(tiny_dataset))

    def test_archive_has_no_object_members(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        with np.load(path) as payload:              # allow_pickle=False
            members = {name: payload[name] for name in payload.files}
        assert not any(value.dtype.hasobject for value in members.values())
        assert not any(name.startswith("table_rows/") for name in members)
        for spec in small_model.schema:
            table = small_model.encoder.bag(spec.name).table
            keys = members[f"table_keys/{spec.name}"]
            assert keys.dtype == np.int64
            assert keys.tolist() == [k for k, __ in table.items()]

    @staticmethod
    def _rewrite_config(path, **changes):
        archive = read_archive(path)
        meta = dict(archive.meta)
        meta["config"].update(changes)
        write_archive(path, archive.arrays, meta)

    @pytest.mark.parametrize("fused", [True, False])
    def test_archive_with_the_retired_fused_key_loads(self, small_model,
                                                      tiny_dataset, tmp_path,
                                                      fused):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        self._rewrite_config(path, fused=fused)   # every pre-removal archive
        restored = load_fvae(path)
        assert restored.config == small_model.config
        np.testing.assert_array_equal(restored.embed_users(tiny_dataset),
                                      small_model.embed_users(tiny_dataset))

    def test_unknown_config_key_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        self._rewrite_config(path, bogus=1)
        with pytest.raises(CheckpointError, match="bogus"):
            load_fvae(path)

    def test_scores_identical_after_round_trip(self, small_model,
                                               tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        restored = load_fvae(path)
        np.testing.assert_allclose(restored.score_field(tiny_dataset, "tag"),
                                   small_model.score_field(tiny_dataset, "tag"))

    def test_tables_restored(self, small_model, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        restored = load_fvae(path)
        for field in ("ch1", "ch2", "tag"):
            original = small_model.encoder.bag(field).table
            loaded = restored.encoder.bag(field).table
            assert loaded.size == original.size
            for key, row in original.items():
                assert loaded.rows_for([key])[0] == row

    def test_loaded_tables_frozen_by_default(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        restored = load_fvae(path)
        assert restored.encoder.bag("tag").table.frozen

    def test_unfrozen_load_allows_growth(self, small_model, tiny_dataset,
                                         tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        restored = load_fvae(path, freeze_tables=False)
        before = restored.encoder.bag("tag").n_features
        restored.fit(tiny_dataset, epochs=1, batch_size=3,
                     warm_start_bias=False)
        assert restored.encoder.bag("tag").n_features >= before

    def test_config_and_step_restored(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        restored = load_fvae(path)
        assert restored.config == small_model.config
        assert restored._step == small_model._step

    def test_bad_format_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.asarray(json.dumps({"format_version": 999})))
        with pytest.raises(CheckpointError, match="format 999"):
            load_fvae(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, not_meta=np.arange(3))
        with pytest.raises(CheckpointError, match="no 'meta' entry"):
            load_fvae(path)

    def test_missing_meta_keys_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.asarray(
            json.dumps({"format_version": FORMAT_VERSION})))
        with pytest.raises(CheckpointError, match="meta is missing 'config'"):
            load_fvae(path)

    def test_missing_arrays_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        with np.load(path) as payload:
            arrays = {k: payload[k] for k in payload.files
                      if not k.startswith("param/")}
        np.savez(tmp_path / "broken.npz", **arrays)
        with pytest.raises(CheckpointError, match="lacks arrays"):
            load_fvae(tmp_path / "broken.npz")

    def test_misfit_parameter_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        with np.load(path) as payload:
            arrays = {k: payload[k] for k in payload.files}
        arrays["param/encoder.mu_head.weight"] = \
            arrays["param/encoder.mu_head.weight"][:, :-1]
        atomic_savez(path, arrays)
        with pytest.raises(CheckpointError, match="mu_head.weight"):
            load_fvae(path)

    def test_save_is_atomic_with_digest(self, small_model, tmp_path):
        from repro.utils.fileio import verify_digest

        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        assert digest_path_for(path).exists()
        verify_digest(path)
        load_fvae(path)

    def test_verify_catches_corruption(self, small_model, tmp_path):
        path = tmp_path / "model.npz"
        save_fvae(small_model, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_fvae(path)


class TestWarmStartBias:
    def test_bias_matches_log_popularity(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                             decoder_hidden=[8],
                                             embedding_capacity=16, seed=0))
        model.initialize_from_dataset(tiny_dataset)
        counts = tiny_dataset.feature_popularity("tag")
        observed = np.flatnonzero(counts)
        bag = model.encoder.bag("tag")
        rows = bag.table.rows_for(observed.tolist())
        bias = model.decoder.head("tag").bias.data[rows]
        expected = np.log(counts[observed] / counts.sum())
        np.testing.assert_allclose(bias, expected)

    def test_warm_start_scores_follow_popularity(self, tiny_schema,
                                                 tiny_dataset):
        model = FVAE(tiny_schema, FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                             decoder_hidden=[8],
                                             embedding_capacity=16, seed=0))
        model.initialize_from_dataset(tiny_dataset)
        scores = model.score_field(tiny_dataset, "tag")
        counts = tiny_dataset.feature_popularity("tag")
        hot = int(np.argmax(counts))
        cold_candidates = np.flatnonzero(counts == 1)
        assert scores[:, hot].mean() > scores[:, cold_candidates].mean()

    def test_fit_without_warm_start(self, tiny_schema, tiny_dataset):
        model = FVAE(tiny_schema, FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                             decoder_hidden=[8],
                                             embedding_capacity=16, seed=0))
        model.fit(tiny_dataset, epochs=1, batch_size=3, warm_start_bias=False)
        # biases untouched by initialisation (may have moved by training, but
        # unseen rows stay exactly zero)
        head = model.decoder.head("tag")
        assert head.bias.data[head.capacity - 1] == 0.0
