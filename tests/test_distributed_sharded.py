"""The multiprocess harness pinning the real sharded parameter server.

Fast tier-1 tests cover the pure-python substrate: process-stable routing
(known answers plus properties), the shard layout directory, and the
extracted Adam sparse-row arithmetic.  The ``slow``-marked tests spin up
*real* worker processes and pin:

* one epoch on the sharded parameter server against the single-process
  ``Trainer.fit`` reference — bit-exact with one worker, 1e-12 (float
  summation order) with several;
* SIGKILL fault injection mid-epoch: checkpoint recovery replays to the
  bit-exact same final state as an uninterrupted sharded run, kills the
  survivors instead of waiting out a join, and reports to telemetry;
* zero orphan processes and zero leaked ``/dev/shm`` segments after every
  teardown (the ``shard_cluster`` fixture asserts both).
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import FVAE, FVAEConfig
from repro.core.trainer import Trainer
from repro.data import make_kd_like
from repro.distributed.sharded import ShardedTrainer, build_field_layout, shm
from repro.hashing import DynamicHashTable
from repro.hashing.stable import shard_of_ids, stable_hash_ids
from repro.nn.optim import Adam, adam_step_size, adam_update_rows
from repro.nn.tensor import Parameter
from repro.obs import runtime as obs
from repro.resilience import CheckpointError, Checkpointer
from repro.resilience.faults import FaultEvent, FaultSchedule


def small_model(seed=0, n_users=48):
    data = make_kd_like(n_users=n_users, seed=seed)
    config = FVAEConfig(latent_dim=8, encoder_hidden=[16], decoder_hidden=[16],
                        input_dropout=0.0, feature_dropout=0.0, seed=seed)
    model = FVAE(data.dataset.schema, config)
    model.initialize_from_dataset(data.dataset)
    return model, data.dataset


def ledger_fields(record):
    """Every field of an ``EpochRecord`` that does not measure time."""
    return (record.epoch, record.loss, record.recon, record.kl, record.beta,
            record.n_batches, record.interrupted)


def max_param_diff(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    return max((float(np.max(np.abs(np.asarray(sa[k]) - np.asarray(sb[k]))))
                for k in sa if np.asarray(sa[k]).size), default=0.0)


# -- routing (fast) ------------------------------------------------------------

def _splitmix64(x: int) -> int:
    """Reference splitmix64 output for state ``x`` (pure Python, mod 2^64)."""
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_stable_hash_ids_known_answers():
    # The published first splitmix64 output for seed 0.
    assert int(stable_hash_ids(np.array([0]))[0]) == 0xE220A8397B1DCDAF
    ids = [-1, 1, 2 ** 40, -2 ** 63, 2 ** 63 - 1]
    got = stable_hash_ids(np.asarray(ids, dtype=np.int64))
    assert [int(h) for h in got] == [_splitmix64(i % 2 ** 64) for i in ids]


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                min_size=1, max_size=50),
       st.integers(min_value=1, max_value=64))
def test_shard_of_ids_in_range_and_deterministic(ids, n_shards):
    arr = np.asarray(ids, dtype=np.int64)
    shards = shard_of_ids(arr, n_shards)
    assert ((0 <= shards) & (shards < n_shards)).all()
    assert np.array_equal(shards, shard_of_ids(arr.copy(), n_shards))


def test_bool_keys_rejected():
    with pytest.raises(TypeError):
        stable_hash_ids(np.array([True]))


@pytest.mark.parametrize("n_shards", [0, -3])
def test_non_positive_shard_count_rejected(n_shards):
    with pytest.raises(ValueError, match="n_shards"):
        shard_of_ids(np.array([1, 2]), n_shards)


# -- layout (fast) -------------------------------------------------------------

def test_field_layout_roundtrip_and_pull():
    table = DynamicHashTable()
    ids = np.asarray([5, 17, 3, 999, 42, 8, 1000, 7])
    table.lookup_ids(ids)
    layout = build_field_layout("f", table, n_shards=3)
    assert layout.n_rows == ids.size
    assert np.array_equal(np.sort(np.concatenate(
        [layout.rows_of_shard(s) for s in range(3)])), np.arange(ids.size))
    assert np.array_equal(layout.shard_of_row, shard_of_ids(ids, 3))

    full = np.arange(ids.size * 4, dtype=np.float64).reshape(ids.size, 4)
    slabs = [np.zeros((int(layout.counts[s]), 4)) for s in range(3)]
    layout.scatter(full, slabs)
    assert np.array_equal(layout.gather(slabs), full)

    dest = np.zeros_like(full)
    rows = np.asarray([6, 0, 3])
    layout.pull_rows(rows, slabs, dest)
    assert np.array_equal(dest[rows], full[rows])
    untouched = np.setdiff1d(np.arange(ids.size), rows)
    assert not dest[untouched].any()


def test_field_layout_rejects_non_dense_rows():
    # Duck-typed table whose rows skip 1..4: the layout must refuse it
    # (DynamicHashTable.load_items gives rows 0..n-1 by construction).
    with pytest.raises(ValueError, match="not dense"):
        build_field_layout("f", {10: 0, 20: 5}, n_shards=2)


# -- Adam sparse-row arithmetic (fast) -----------------------------------------

def test_adam_row_update_matches_optimizer():
    """What a shard owner runs on its slab — the shared kernel, fed the
    shared step size — is the optimizer's own sparse step, bit for bit."""
    for dtype in (np.float64, np.float32):
        _check_row_update_matches_optimizer(dtype)


def _check_row_update_matches_optimizer(dtype):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(12, 5)).astype(dtype)
    param = Parameter(data.copy(), sparse=True)
    opt = Adam([param], lr=0.01)

    value, m, v = data.copy(), np.zeros_like(data), np.zeros_like(data)
    for t in range(1, 4):
        rows = np.unique(rng.integers(0, 12, size=6))
        grads = rng.normal(size=(rows.size, 5)).astype(dtype)
        param.add_sparse_grad(rows, grads.copy(), assume_unique=True)
        opt.step()
        param.zero_grad()
        adam_update_rows(value, m, v, rows, grads.copy(),
                         adam_step_size(0.01, 0.9, 0.999, t),
                         0.9, 0.999, 1e-8)
        assert np.array_equal(value, param.data), f"diverged at t={t}"


# -- trainer validation (fast) -------------------------------------------------

def test_sharded_trainer_rejects_dropout():
    data = make_kd_like(n_users=8, seed=0)
    config = FVAEConfig(latent_dim=4, encoder_hidden=[8], decoder_hidden=[8],
                        input_dropout=0.2, seed=0)
    model = FVAE(data.dataset.schema, config)
    with pytest.raises(ValueError, match="dropout"):
        ShardedTrainer(model, n_workers=2)


def test_sharded_trainer_requires_registered_vocabulary():
    data = make_kd_like(n_users=16, seed=0)
    config = FVAEConfig(latent_dim=4, encoder_hidden=[8], decoder_hidden=[8],
                        input_dropout=0.0, feature_dropout=0.0, seed=0)
    model = FVAE(data.dataset.schema, config)  # no initialize_from_dataset
    trainer = ShardedTrainer(model, n_workers=2)
    with pytest.raises(ValueError, match="initialize_from_dataset"):
        trainer.fit(data.dataset, epochs=1, batch_size=8)


def test_fault_injection_requires_checkpointer():
    model, __ = small_model(n_users=8)
    schedule = FaultSchedule(n_steps=4, n_workers=2, events=[])
    with pytest.raises(ValueError, match="checkpointer"):
        ShardedTrainer(model, n_workers=2, fault_schedule=schedule)


# -- multiprocess: sharded training vs the reference ---------------------------

@pytest.mark.slow
def test_one_worker_is_bit_exact_vs_trainer(shard_cluster):
    # The sharded trainer runs at the model's dtype, so it is given the one
    # the reference ended up at — Trainer's default first, then float64.
    for kwargs, expected in (({}, np.float32),
                             ({"precision": "float64"}, np.float64)):
        ref_model, ref_data = small_model()
        ref_hist = Trainer(ref_model, lr=1e-3, **kwargs).fit(
            ref_data, epochs=2, batch_size=16, rng=0)
        assert ref_model.dtype == expected
        sh_model, sh_data = small_model()
        sh_hist = ShardedTrainer(sh_model.astype(ref_model.dtype),
                                 n_workers=1, lr=1e-3).fit(
            sh_data, epochs=2, batch_size=16, rng=0)

        assert [ledger_fields(r) for r in ref_hist.epochs] \
            == [ledger_fields(r) for r in sh_hist.epochs]
        assert max_param_diff(ref_model, sh_model) == 0.0


@pytest.mark.slow
def test_a_second_fit_continues_the_step_count(shard_cluster):
    # 48 users in batches of 16: three steps per one-epoch fit.  Both
    # trainers continue model._step, so the second fit's KL annealing
    # picks up where the first left off instead of restarting.
    steps, betas = {}, {}
    for name, make in (("trainer", lambda m: Trainer(m, lr=1e-3)),
                       ("sharded", lambda m: ShardedTrainer(
                           m.astype(np.float32), n_workers=1, lr=1e-3))):
        model, data = small_model()
        steps[name], betas[name] = [], []
        for __ in range(2):
            hist = make(model).fit(data, epochs=1, batch_size=16, rng=0)
            steps[name].append(model._step)
            betas[name].append(hist.epochs[0].beta)
    assert steps["trainer"] == steps["sharded"] == [3, 6]
    assert betas["trainer"] == betas["sharded"]
    assert betas["sharded"][1] == pytest.approx(0.0005)


@pytest.mark.slow
def test_sharded_matches_reference_to_summation_order(shard_cluster):
    # float64 on both sides: 1e-12 is a float64 summation-order bound.
    ref_model, ref_data = small_model()
    Trainer(ref_model, lr=1e-3, precision="float64").fit(
        ref_data, epochs=2, batch_size=16, rng=0)
    sh_model, sh_data = small_model()
    trainer = ShardedTrainer(sh_model, n_workers=3, lr=1e-3)
    trainer.fit(sh_data, epochs=2, batch_size=16, rng=0)

    assert max_param_diff(ref_model, sh_model) < 1e-12
    assert len(trainer.step_timings) == 2 * 3  # 48 users / batch 16, 2 epochs


@pytest.mark.slow
def test_sigkill_recovery_replays_bit_exactly(shard_cluster, tmp_path):
    clean_model, clean_data = small_model()
    clean_hist = ShardedTrainer(clean_model, n_workers=2, lr=1e-3,
                                checkpointer=tmp_path / "clean",
                                checkpoint_every=1).fit(
        clean_data, epochs=2, batch_size=16, rng=0)

    chaos_model, chaos_data = small_model()
    schedule = FaultSchedule(n_steps=6, n_workers=2, events=[
        FaultEvent(step=4, worker=1)])
    trainer = ShardedTrainer(chaos_model, n_workers=2, lr=1e-3,
                             checkpointer=tmp_path / "chaos",
                             checkpoint_every=1, fault_schedule=schedule,
                             recv_timeout=30.0)
    hist = trainer.fit(chaos_data, epochs=2, batch_size=16, rng=0)

    assert trainer.recoveries == 1
    assert len(hist.epochs) == 2
    assert max_param_diff(clean_model, chaos_model) == 0.0
    # The replayed epoch resumes the checkpoint's partial accumulators.
    assert [ledger_fields(r) for r in hist.epochs] \
        == [ledger_fields(r) for r in clean_hist.epochs]
    # The checkpoints carry the time trained, as Trainer's do.
    assert Checkpointer(tmp_path / "chaos").latest().meta["elapsed"] \
        == hist.total_time


@pytest.mark.slow
def test_kill_before_any_mid_epoch_checkpoint_recovers(shard_cluster,
                                                       tmp_path):
    # checkpoint_every=0: only the bootstrap checkpoint exists when worker 0
    # is killed at step 1 — recovery must replay the epoch from the start.
    clean_model, clean_data = small_model()
    ShardedTrainer(clean_model, n_workers=2, lr=1e-3).fit(
        clean_data, epochs=1, batch_size=16, rng=0)

    chaos_model, chaos_data = small_model()
    schedule = FaultSchedule(n_steps=3, n_workers=2, events=[
        FaultEvent(step=1, worker=0)])
    trainer = ShardedTrainer(chaos_model, n_workers=2, lr=1e-3,
                             checkpointer=tmp_path, fault_schedule=schedule,
                             recv_timeout=30.0)
    trainer.fit(chaos_data, epochs=1, batch_size=16, rng=0)

    assert trainer.recoveries == 1
    assert max_param_diff(clean_model, chaos_model) == 0.0


@pytest.mark.slow
def test_forced_stop_kills_survivors_without_a_join_stall(shard_cluster,
                                                          tmp_path,
                                                          monkeypatch):
    # A survivor of a crash never sees EOF on its pipe (it holds its own
    # copy of the driver's end), so a join without a kill waits out its
    # timeout: seconds per survivor, two survivors here.
    forced = []
    stop = ShardedTrainer._stop_workers

    def timed_stop(self, force=False):
        t0 = time.perf_counter()
        stop(self, force=force)
        if force:
            forced.append(time.perf_counter() - t0)

    monkeypatch.setattr(ShardedTrainer, "_stop_workers", timed_stop)
    clean_model, clean_data = small_model()
    ShardedTrainer(clean_model, n_workers=3, lr=1e-3).fit(
        clean_data, epochs=1, batch_size=16, rng=0)

    chaos_model, chaos_data = small_model()
    schedule = FaultSchedule(n_steps=3, n_workers=3,
                             events=[FaultEvent(step=1, worker=2)])
    trainer = ShardedTrainer(chaos_model, n_workers=3, lr=1e-3,
                             checkpointer=tmp_path, checkpoint_every=1,
                             fault_schedule=schedule, recv_timeout=30.0)
    trainer.fit(chaos_data, epochs=1, batch_size=16, rng=0)

    assert trainer.recoveries == 1
    assert len(forced) == 1 and forced[0] < 1.0, forced
    assert max_param_diff(clean_model, chaos_model) == 0.0


@pytest.mark.slow
def test_crashes_and_recoveries_reach_telemetry(shard_cluster, tmp_path):
    model, data = small_model()
    schedule = FaultSchedule(n_steps=3, n_workers=2, events=[
        FaultEvent(step=0, worker=1), FaultEvent(step=2, worker=0),
        FaultEvent(step=2, worker=1)])
    with obs.session() as telemetry:
        trainer = ShardedTrainer(model, n_workers=2, lr=1e-3,
                                 checkpointer=tmp_path, checkpoint_every=1,
                                 fault_schedule=schedule, recv_timeout=30.0)
        trainer.fit(data, epochs=1, batch_size=16, rng=0)

    # One SIGKILL per event; the two at step 2 cost one recovery.
    assert trainer.crashes == 3 and trainer.recoveries == 2
    assert telemetry.registry.get("faults.injected").value == 3
    recovery = telemetry.registry.get("distributed.sharded.recovery_seconds")
    assert recovery.count == 2 and recovery.sum > 0


@pytest.mark.slow
def test_recovery_rejects_a_checkpoint_of_another_batch_size(shard_cluster,
                                                              tmp_path):
    # A mid-epoch checkpoint taken at batch 16 (cursor 2: 32 of 48 users)
    # sits in the directory a batch-32 run recovers from.  Its cursor would
    # start the batch-32 epoch at user 64: nothing trained, users 32-47
    # skipped.
    first_model, data = small_model()
    first = Checkpointer(tmp_path / "first", keep_last=10)
    ShardedTrainer(first_model, n_workers=1, lr=1e-3, checkpointer=first,
                   checkpoint_every=1).fit(data, epochs=1, batch_size=16,
                                           rng=0)
    mid_epoch = first.load(first.path_for(2))
    assert (mid_epoch.meta["cursor"], mid_epoch.meta["n_seen"]) == (2, 32)
    shared = Checkpointer(tmp_path / "shared")
    shared.save(dict(mid_epoch.arrays), dict(mid_epoch.meta), step=2)

    model, __ = small_model()
    schedule = FaultSchedule(n_steps=2, n_workers=1, events=[
        FaultEvent(step=0, worker=0)])
    trainer = ShardedTrainer(model, n_workers=1, lr=1e-3, checkpointer=shared,
                             fault_schedule=schedule, recv_timeout=30.0)
    with pytest.raises(CheckpointError, match="batch size 16; .* 32"):
        trainer.fit(data, epochs=1, batch_size=32, rng=0)


# -- multiprocess: teardown ----------------------------------------------------

@pytest.mark.slow
def test_trainer_teardown_leaves_no_processes_or_segments(shard_cluster):
    model, data = small_model(n_users=16)
    before_procs = {p.pid for p in mp.active_children()}
    before_segs = shm.active_segments()
    ShardedTrainer(model, n_workers=2, lr=1e-3).fit(data, epochs=1,
                                                    batch_size=8, rng=0)
    assert {p.pid for p in mp.active_children()} <= before_procs
    assert shm.active_segments() <= before_segs
