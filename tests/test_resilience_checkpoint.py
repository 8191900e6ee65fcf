"""Crash-safe checkpointing: atomicity, corruption handling, exact resume."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig
from repro.resilience import Checkpoint, CheckpointError, Checkpointer
from repro.core import load_fvae
from repro.lookalike import EmbeddingStore
from repro.resilience.checkpoint import (FORMAT_VERSION,
                                         check_resume_batch_size,
                                         read_archive)
from repro.utils.fileio import (DigestMismatchError, atomic_savez,
                                digest_path_for, verify_digest)


def make_model(tiny_schema):
    return FVAE(tiny_schema, FVAEConfig(latent_dim=4, encoder_hidden=[8],
                                        decoder_hidden=[8], anneal_steps=5,
                                        embedding_capacity=16, seed=0))


class Kill(RuntimeError):
    """Stand-in for SIGKILL: raised from a callback to abort training."""


class KillAfterBatches:
    def __init__(self, n_batches: int) -> None:
        self.remaining = n_batches

    def __getattr__(self, name):
        if name.startswith("on_"):
            return lambda *a, **k: None
        raise AttributeError(name)

    def on_batch_end(self, *args, **kwargs):
        self.remaining -= 1
        if self.remaining <= 0:
            raise Kill()


class TestAtomicFileIO:
    def test_atomic_write_replaces_content(self, tmp_path):
        target = tmp_path / "arrays"
        atomic_savez(target, {"x": np.arange(4)})
        atomic_savez(target, {"x": np.arange(3)})
        with np.load(target) as payload:
            assert payload["x"].tolist() == [0, 1, 2]
        # no temp litter, and no ".npz" appended to the name given
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["arrays", "arrays.sha256"]

    def test_savez_writes_digest_sidecar(self, tmp_path):
        target = tmp_path / "arrays.npz"
        atomic_savez(target, {"x": np.arange(4)})
        assert digest_path_for(target).exists()
        verify_digest(target)  # does not raise

    def test_digest_detects_corruption(self, tmp_path):
        target = tmp_path / "arrays.npz"
        atomic_savez(target, {"x": np.arange(4)})
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(DigestMismatchError):
            verify_digest(target)


class MakesADirectory:
    """Unpickling this runs ``os.mkdir(marker)``: a visible side effect."""

    def __init__(self, marker) -> None:
        self.marker = str(marker)

    def __reduce__(self):
        return os.mkdir, (self.marker,)


class TestNoPickle:
    """An archive member that needs unpickling is refused, unrun — with or
    without a digest sidecar (a sidecar only proves the bytes unchanged)."""

    @staticmethod
    def pickled_archive(tmp_path):
        marker = tmp_path / "unpickled"
        evil = np.empty(1, dtype=object)
        evil[0] = MakesADirectory(marker)
        path = tmp_path / "ckpt-step0000000001.npz"
        meta = json.dumps({"format_version": FORMAT_VERSION, "step": 1,
                           "dim": 2})
        np.savez(path, meta=np.asarray(meta), keys=evil,
                 matrix=np.zeros((1, 2)), **{"table_keys/tag": evil})
        return path, marker

    def test_the_writer_refuses_an_object_member(self, tmp_path):
        target = tmp_path / "arrays.npz"
        with pytest.raises(ValueError, match="without pickling"):
            atomic_savez(target, {"x": np.arange(3),
                                  "keys": np.asarray([1, "a"], dtype=object)})
        assert list(tmp_path.iterdir()) == []   # nothing written, no litter

    def test_every_reader_refuses_a_pickled_member(self, tmp_path):
        path, marker = self.pickled_archive(tmp_path)
        readers = [read_archive, load_fvae, Checkpointer(tmp_path).load,
                   EmbeddingStore.load,
                   lambda p: EmbeddingStore.load(p, mmap=True)]
        for read in readers:
            with pytest.raises(CheckpointError, match="allow_pickle"):
                read(path)
        assert Checkpointer(tmp_path).latest() is None
        assert not marker.exists()

    def test_a_bare_npy_file_is_not_an_archive(self, tmp_path):
        path = tmp_path / "model.npz"
        with open(path, "wb") as handle:
            np.save(handle, np.arange(3))
        with pytest.raises(CheckpointError, match="not an .npz archive"):
            read_archive(path)


class TestCheckpointer:
    def _save(self, ck: Checkpointer, step: int) -> None:
        ck.save({"w": np.full(3, float(step))}, {"note": "t"}, step=step)

    def test_save_load_roundtrip(self, tmp_path):
        ck = Checkpointer(tmp_path)
        self._save(ck, 7)
        loaded = ck.load(ck.path_for(7))
        assert loaded.step == 7
        np.testing.assert_array_equal(loaded.arrays["w"], np.full(3, 7.0))
        assert loaded.meta["note"] == "t"

    def test_corrupt_checkpoint_raises(self, tmp_path):
        ck = Checkpointer(tmp_path)
        self._save(ck, 1)
        path = ck.path_for(1)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            ck.load(path)

    def test_latest_skips_corrupt(self, tmp_path):
        ck = Checkpointer(tmp_path)
        self._save(ck, 1)
        self._save(ck, 2)
        path = ck.path_for(2)
        path.write_bytes(b"garbage")
        latest = ck.latest()
        assert latest is not None and latest.step == 1

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_latest_skips_a_damaged_archive_without_a_digest(self, tmp_path,
                                                             damage):
        ck = Checkpointer(tmp_path)
        self._save(ck, 1)
        self._save(ck, 2)
        path = ck.path_for(2)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] if damage == "truncated"
                         else b"garbage")
        digest_path_for(path).unlink()
        with pytest.raises(CheckpointError, match="ckpt-step0000000002"):
            ck.load(path)
        latest = ck.latest()
        assert latest is not None and latest.step == 1

    def test_latest_none_when_empty(self, tmp_path):
        assert Checkpointer(tmp_path).latest() is None

    def test_retention_keeps_last_n(self, tmp_path):
        ck = Checkpointer(tmp_path, keep_last=2)
        for step in (1, 2, 3, 4):
            self._save(ck, step)
        steps = sorted(int(p.stem.split("step")[-1])
                       for p in ck.checkpoint_paths())
        assert steps == [3, 4]
        # digests of pruned checkpoints are gone too
        assert not digest_path_for(ck.path_for(1)).exists()

    def test_missing_file_raises(self, tmp_path):
        ck = Checkpointer(tmp_path)
        with pytest.raises(CheckpointError):
            ck.load(tmp_path / "ckpt-step0000000009.npz")


class TestTrainerResume:
    """The headline guarantee: kill + resume == uninterrupted, bit for bit."""

    def _run_uninterrupted(self, tiny_schema, tiny_dataset):
        model = make_model(tiny_schema)
        history = model.fit(tiny_dataset, epochs=3, batch_size=3,
                            rng=0).history
        return model, history

    @pytest.mark.parametrize("kill_after", [2, 5])
    def test_kill_and_resume_exact(self, tiny_schema, tiny_dataset, tmp_path,
                                   kill_after):
        ref_model, ref_history = self._run_uninterrupted(tiny_schema,
                                                         tiny_dataset)
        ref_state = {k: v.copy() for k, v in ref_model.state_dict().items()}

        ck = Checkpointer(tmp_path, keep_last=20)
        crashed = make_model(tiny_schema)
        with pytest.raises(Kill):
            crashed.fit(tiny_dataset, epochs=3, batch_size=3, rng=0,
                        checkpointer=ck, checkpoint_every=1,
                        callbacks=[KillAfterBatches(kill_after)])
        assert ck.latest() is not None

        resumed = make_model(tiny_schema)  # fresh process simulation
        history = resumed.fit(tiny_dataset, epochs=3, batch_size=3, rng=0,
                              checkpointer=ck, resume_from=True).history
        state = resumed.state_dict()
        assert set(state) == set(ref_state)
        for key in ref_state:
            np.testing.assert_array_equal(state[key], ref_state[key],
                                          err_msg=key)
        # history too: one record per epoch with identical losses
        assert len(history.epochs) == len(ref_history.epochs)
        for a, b in zip(ref_history.epochs, history.epochs):
            assert a.loss == b.loss and a.epoch == b.epoch

    def test_kill_and_resume_exact_ragged_batches(self, tiny_schema,
                                                  tiny_dataset, tmp_path):
        # 6 users / batch 4: each epoch ends on a ragged batch of 2, and the
        # kill lands mid-epoch, so resume has to restore the shuffle cursor
        # across a short batch as well as the full ones.
        ref_model = make_model(tiny_schema)
        ref_model.fit(tiny_dataset, epochs=3, batch_size=4, rng=0)
        ref_state = {k: v.copy() for k, v in ref_model.state_dict().items()}

        ck = Checkpointer(tmp_path, keep_last=20)
        crashed = make_model(tiny_schema)
        with pytest.raises(Kill):
            crashed.fit(tiny_dataset, epochs=3, batch_size=4, rng=0,
                        checkpointer=ck, checkpoint_every=1,
                        callbacks=[KillAfterBatches(3)])
        resumed = make_model(tiny_schema)
        resumed.fit(tiny_dataset, epochs=3, batch_size=4, rng=0,
                    checkpointer=ck, resume_from=True)
        state = resumed.state_dict()
        assert set(state) == set(ref_state)
        for key in ref_state:
            np.testing.assert_array_equal(state[key], ref_state[key],
                                          err_msg=key)

    def test_resume_loses_at_most_one_interval(self, tiny_schema,
                                               tiny_dataset, tmp_path):
        """Crash right before a checkpoint: resume replays < interval steps."""
        every = 2
        ck = Checkpointer(tmp_path, keep_last=20)
        crashed = make_model(tiny_schema)
        with pytest.raises(Kill):
            crashed.fit(tiny_dataset, epochs=3, batch_size=3, rng=0,
                        checkpointer=ck, checkpoint_every=every,
                        callbacks=[KillAfterBatches(5)])
        latest = ck.latest()
        assert latest is not None
        assert 5 - latest.step < every

    def test_resume_from_explicit_path(self, tiny_schema, tiny_dataset,
                                       tmp_path):
        ck = Checkpointer(tmp_path)
        model = make_model(tiny_schema)
        model.fit(tiny_dataset, epochs=2, batch_size=3, rng=0,
                  checkpointer=ck)
        latest = ck.latest()
        resumed = make_model(tiny_schema)
        history = resumed.fit(tiny_dataset, epochs=3, batch_size=3, rng=0,
                              resume_from=latest.path).history
        assert len(history.epochs) == 3

    def test_resume_true_without_checkpoints_starts_fresh(
            self, tiny_schema, tiny_dataset, tmp_path):
        model = make_model(tiny_schema)
        history = model.fit(tiny_dataset, epochs=2, batch_size=3, rng=0,
                            checkpointer=Checkpointer(tmp_path),
                            resume_from=True).history
        assert len(history.epochs) == 2

    def test_resume_rejects_optimizer_mismatch(self, tiny_schema,
                                               tiny_dataset, tmp_path):
        ck = Checkpointer(tmp_path)
        make_model(tiny_schema).fit(tiny_dataset, epochs=1, batch_size=3,
                                    rng=0, checkpointer=ck)
        latest = ck.latest()
        ck.save(dict(latest.arrays), dict(latest.meta, optimizer="SGD"),
                step=latest.step)
        with pytest.raises(CheckpointError, match="taken with SGD"):
            make_model(tiny_schema).fit(tiny_dataset, epochs=2, batch_size=3,
                                        rng=0, checkpointer=ck,
                                        resume_from=True)

    def test_resume_ignores_retired_early_stopping_keys(
            self, tiny_schema, tiny_dataset, tmp_path):
        ck = Checkpointer(tmp_path)
        make_model(tiny_schema).fit(tiny_dataset, epochs=1, batch_size=3,
                                    rng=0, checkpointer=ck)
        latest = ck.latest()
        ck.save(dict(latest.arrays),
                dict(latest.meta, best_metric=0.5, since_best=1),
                step=latest.step)
        history = make_model(tiny_schema).fit(
            tiny_dataset, epochs=2, batch_size=3, rng=0, checkpointer=ck,
            resume_from=True).history
        assert len(history.epochs) == 2

    def test_mid_epoch_resume_rejects_another_batch_size(
            self, tiny_schema, tiny_dataset, tmp_path):
        # max_seconds=0 stops after the first batch: 2 of 6 users seen.  At
        # batch size 4 the saved cursor (1) would start at user 4 and skip
        # users 2-3.
        ck = Checkpointer(tmp_path)
        make_model(tiny_schema).fit(tiny_dataset, epochs=1, batch_size=2,
                                    rng=0, max_seconds=0, checkpointer=ck)
        assert ck.latest().meta["cursor"] == 1
        with pytest.raises(CheckpointError,
                           match="batch size 2; .* at batch size 4"):
            make_model(tiny_schema).fit(tiny_dataset, epochs=1, batch_size=4,
                                        rng=0, checkpointer=ck,
                                        resume_from=True)
        history = make_model(tiny_schema).fit(
            tiny_dataset, epochs=1, batch_size=2, rng=0, checkpointer=ck,
            resume_from=True).history
        assert history.epochs[0].n_batches == 3

    @pytest.mark.parametrize("cursor, n_seen, batch_size, ok", [
        (0, 0, 7, True),      # epoch boundary: any size
        (2, 32, 16, True),    # two full batches of 16
        (2, 32, 32, False),   # would start at user 64
        (2, 32, 8, False),    # would replay users 16-31
        (3, 40, 16, True),    # whole epoch, ragged last batch
        (3, 40, 14, True),    # 14 also gives three batches: nothing left
        (3, 40, 13, False),   # four batches: the fourth would repeat users
    ])
    def test_batch_size_guard(self, cursor, n_seen, batch_size, ok):
        meta = {"cursor": cursor, "n_seen": n_seen}
        order = np.arange(40) if cursor else None
        if ok:
            check_resume_batch_size(meta, order, batch_size)
        else:
            with pytest.raises(CheckpointError, match=f"{batch_size} would"):
                check_resume_batch_size(meta, order, batch_size)

    @pytest.mark.parametrize("saved, resumed_at", [("float64", "float32"),
                                                   ("float32", "float64")])
    def test_resume_rejects_precision_mismatch(self, tiny_schema, tiny_dataset,
                                               tmp_path, saved, resumed_at):
        ck = Checkpointer(tmp_path)
        make_model(tiny_schema).fit(tiny_dataset, epochs=1, batch_size=3,
                                    rng=0, checkpointer=ck, precision=saved)
        with pytest.raises(CheckpointError, match=f"{saved}.*{resumed_at}"):
            make_model(tiny_schema).fit(tiny_dataset, epochs=2, batch_size=3,
                                        rng=0, checkpointer=ck,
                                        resume_from=True, precision=resumed_at)

    def test_resume_without_precision_keeps_the_saved_dtype(
            self, tiny_schema, tiny_dataset, tmp_path):
        ck = Checkpointer(tmp_path)
        make_model(tiny_schema).fit(tiny_dataset, epochs=1, batch_size=3,
                                    rng=0, checkpointer=ck, precision="float64")
        resumed = make_model(tiny_schema).astype(np.float32)
        resumed.fit(tiny_dataset, epochs=2, batch_size=3, rng=0,
                    checkpointer=ck, resume_from=True, precision=None)
        assert {p.data.dtype for p in resumed.parameters()} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_same_precision_resume_is_bit_exact(self, tiny_schema, tiny_dataset,
                                                tmp_path, precision):
        ref_model = make_model(tiny_schema)
        ref_model.fit(tiny_dataset, epochs=3, batch_size=3, rng=0,
                      precision=precision)
        ck = Checkpointer(tmp_path, keep_last=20)
        with pytest.raises(Kill):
            make_model(tiny_schema).fit(tiny_dataset, epochs=3, batch_size=3,
                                        rng=0, checkpointer=ck,
                                        checkpoint_every=1, precision=precision,
                                        callbacks=[KillAfterBatches(4)])
        resumed = make_model(tiny_schema)
        resumed.fit(tiny_dataset, epochs=3, batch_size=3, rng=0,
                    checkpointer=ck, resume_from=True, precision=precision)
        for key, value in ref_model.state_dict().items():
            assert resumed.state_dict()[key].dtype == np.dtype(precision)
            np.testing.assert_array_equal(resumed.state_dict()[key], value,
                                          err_msg=key)

    def test_checkpoint_arrays_cover_tables_and_rng(self, tiny_schema,
                                                    tiny_dataset, tmp_path):
        ck = Checkpointer(tmp_path)
        model = make_model(tiny_schema)
        model.fit(tiny_dataset, epochs=1, batch_size=3, rng=0,
                  checkpointer=ck)
        latest = ck.latest()
        assert any(k.startswith("table_keys/") for k in latest.arrays)
        assert any(k.startswith("param/") for k in latest.arrays)
        assert "rng" in latest.meta and latest.meta["rng"]
