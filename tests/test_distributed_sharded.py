"""The multiprocess harness pinning the real sharded PS + serving tier.

Fast tier-1 tests cover the pure-python substrate: process-stable routing
(property-based), the shard layout directory, and the extracted Adam
sparse-row arithmetic.  The ``slow``-marked tests spin up *real* worker and
shard-server processes and pin:

* one epoch on the sharded parameter server against the single-process
  ``Trainer.fit`` reference — bit-exact with one worker, 1e-12 (float
  summation order) with several;
* SIGKILL fault injection mid-epoch: checkpoint recovery replays to the
  bit-exact same final state as an uninterrupted sharded run, kills the
  survivors instead of waiting out a join, and reports to telemetry;
* the sharded embedding service against ``EmbeddingStore`` (bit-exact
  lookups under both fork and spawn), write-degradation when a shard server
  is killed, and lossless rebalancing;
* zero orphan processes and zero leaked ``/dev/shm`` segments after every
  teardown (the ``shard_cluster`` fixture asserts both).
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FVAE, FVAEConfig
from repro.core.trainer import Trainer
from repro.data import make_kd_like
from repro.distributed.sharded import (ShardedEmbeddingService, ShardedTrainer,
                                       build_field_layout, shm)
from repro.hashing import DynamicHashTable
from repro.hashing.stable import (assign_shards, rebalance_moves, shard_for,
                                  shard_of_ids, stable_hash, stable_hash_ids)
from repro.nn.optim import Adam, adam_step_size, adam_update_rows
from repro.nn.tensor import Parameter
from repro.obs import runtime as obs
from repro.resilience import (CheckpointError, Checkpointer,
                              StoreUnavailableError)
from repro.resilience.faults import FaultEvent, FaultSchedule


def small_model(seed=0, n_users=48):
    data = make_kd_like(n_users=n_users, seed=seed)
    config = FVAEConfig(latent_dim=8, encoder_hidden=[16], decoder_hidden=[16],
                        input_dropout=0.0, feature_dropout=0.0, seed=seed)
    model = FVAE(data.dataset.schema, config)
    model.initialize_from_dataset(data.dataset)
    return model, data.dataset


def max_param_diff(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    return max((float(np.max(np.abs(np.asarray(sa[k]) - np.asarray(sb[k]))))
                for k in sa if np.asarray(sa[k]).size), default=0.0)


# -- routing properties (fast) -------------------------------------------------

any_key = st.one_of(st.integers(min_value=-2**63, max_value=2**63 - 1),
                    st.text(max_size=20), st.binary(max_size=20))


@given(any_key, st.integers(min_value=1, max_value=64))
def test_shard_for_in_range_and_deterministic(key, n_shards):
    shard = shard_for(key, n_shards)
    assert 0 <= shard < n_shards
    assert shard == shard_for(key, n_shards)


@given(st.lists(st.integers(min_value=-2**40, max_value=2**40), max_size=50),
       st.integers(min_value=1, max_value=8))
def test_vectorized_routing_matches_scalar(ids, n_shards):
    arr = np.asarray(ids, dtype=np.int64)
    hashes = stable_hash_ids(arr) if arr.size else np.empty(0, np.uint64)
    assert [int(h) for h in hashes] == [stable_hash(i) for i in ids]
    shards = shard_of_ids(arr, n_shards) if arr.size else np.empty(0, np.int64)
    assert [int(s) for s in shards] == [shard_for(i, n_shards) for i in ids]


@given(st.lists(any_key, max_size=40, unique=True),
       st.integers(min_value=1, max_value=6))
def test_assign_shards_disjoint_cover(keys, n_shards):
    assignment = assign_shards(keys, n_shards)
    flattened = [k for shard_keys in assignment.values() for k in shard_keys]
    assert sorted(map(repr, flattened)) == sorted(map(repr, keys))
    for shard, shard_keys in assignment.items():
        assert all(shard_for(k, n_shards) == shard for k in shard_keys)


@given(st.lists(any_key, max_size=40, unique=True),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=50)
def test_rebalance_moves_is_a_lossless_partition(keys, old_n, new_n):
    stay, move = rebalance_moves(keys, old_n, new_n)
    assert sorted(map(repr, stay + move)) == sorted(map(repr, keys))
    for k in stay:
        assert shard_for(k, old_n) == shard_for(k, new_n)
    for k in move:
        assert shard_for(k, old_n) != shard_for(k, new_n)


def test_bool_keys_rejected():
    with pytest.raises(TypeError):
        stable_hash(True)


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
    # (DynamicHashTable.load_items validates density itself).
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

        assert [r.loss for r in ref_hist.epochs] \
            == [r.loss for r in sh_hist.epochs]
        assert max_param_diff(ref_model, sh_model) == 0.0


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
    ShardedTrainer(clean_model, n_workers=2, lr=1e-3,
                   checkpointer=tmp_path / "clean", checkpoint_every=1).fit(
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


# -- multiprocess: the sharded embedding service -------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_service_lookups_bit_exact_vs_store(shard_cluster, start_method):
    from repro.lookalike.store import EmbeddingStore

    rng = np.random.default_rng(5)
    keys = [f"user_{i}" for i in range(50)]
    matrix = rng.standard_normal((50, 12))
    ref = EmbeddingStore(dim=12)
    ref.put_many(keys, matrix)

    service = ShardedEmbeddingService(dim=12, n_shards=3,
                                      capacity_per_shard=64,
                                      start_method=start_method)
    shard_cluster(service)
    service.put_many(keys, matrix)

    probes = keys[::2] + ["ghost"]
    got, mask = service.get_batch(probes)
    want, want_mask = ref.get_batch(probes)
    assert np.array_equal(got, want)
    assert np.array_equal(mask, want_mask)
    assert np.array_equal(service.get_many(keys), ref.get_many(keys))
    assert service.keys() == ref.keys()
    assert np.array_equal(service.rows_for(probes), ref.rows_for(probes))
    assert np.array_equal(service.get("user_7"), matrix[7])
    assert service.get("ghost") is None
    assert len(service) == 50 and "user_0" in service


@pytest.mark.slow
def test_killed_shard_degrades_writes_but_not_reads(shard_cluster):
    rng = np.random.default_rng(6)
    keys = [f"user_{i}" for i in range(30)]
    matrix = rng.standard_normal((30, 8))
    service = ShardedEmbeddingService(dim=8, n_shards=2, capacity_per_shard=64)
    shard_cluster(service)
    service.put_many(keys, matrix)

    victim = service.shard_of(keys[0])
    service.kill_shard(victim)
    assert service.alive()[victim] is False

    got, mask = service.get_batch(keys)            # reads keep serving
    assert np.array_equal(got, matrix) and mask.all()
    with pytest.raises(StoreUnavailableError):     # writes degrade loudly
        service.put(keys[0], np.zeros(8))
    survivor_keys = [k for k in keys if service.shard_of(k) != victim]
    if survivor_keys:                              # other shards still accept
        service.put(survivor_keys[0], np.ones(8))
        assert np.array_equal(service.get(survivor_keys[0]), np.ones(8))


@pytest.mark.slow
def test_reshard_loses_no_rows(shard_cluster):
    rng = np.random.default_rng(7)
    keys = [f"user_{i}" for i in range(40)]
    matrix = rng.standard_normal((40, 8))
    service = ShardedEmbeddingService(dim=8, n_shards=2, capacity_per_shard=64)
    shard_cluster(service)
    service.put_many(keys, matrix)

    moves = service.reshard(5)
    assert service.n_shards == 5
    assert moves["stayed"] + moves["moved"] == len(keys)
    assert all(service.alive())
    got, mask = service.get_batch(keys)
    assert np.array_equal(got, matrix) and mask.all()


@pytest.mark.slow
def test_capacity_overflow_raises_store_unavailable(shard_cluster):
    service = ShardedEmbeddingService(dim=4, n_shards=1, capacity_per_shard=2)
    shard_cluster(service)
    service.put_many(["a", "b"], np.ones((2, 4)))
    with pytest.raises(StoreUnavailableError, match="full"):
        service.put("c", np.ones(4))
    assert all(service.alive())                    # overflow is an error, not a crash
    assert np.array_equal(service.get("a"), np.ones(4))


@pytest.mark.slow
def test_serving_tier_batches_scalar_lookups(shard_cluster):
    from repro.serve import ShardedServingTier

    rng = np.random.default_rng(8)
    keys = [f"user_{i}" for i in range(20)]
    matrix = rng.standard_normal((20, 8))
    service = ShardedEmbeddingService(dim=8, n_shards=2, capacity_per_shard=32)
    shard_cluster(service)
    service.put_many(keys, matrix)

    tier = ShardedServingTier(service, max_batch=4)
    shard_cluster(tier)
    assert np.array_equal(tier.get_embedding("user_3"), matrix[3])
    assert tier.get_embedding("ghost") is None
    pending = [tier.submit(k) for k in keys[:4]]   # fills max_batch: one flush
    for k, p in zip(keys[:4], pending):
        vec, ok = p.result()
        assert ok and np.array_equal(vec, matrix[int(k.split("_")[1])])
    got, mask = tier.get_embeddings_masked(keys + ["ghost"])
    assert np.array_equal(got[:-1], matrix) and mask[:-1].all() and not mask[-1]


@pytest.mark.slow
def test_trainer_teardown_leaves_no_processes_or_segments(shard_cluster):
    model, data = small_model(n_users=16)
    before_procs = {p.pid for p in mp.active_children()}
    before_segs = shm.active_segments()
    ShardedTrainer(model, n_workers=2, lr=1e-3).fit(data, epochs=1,
                                                    batch_size=8, rng=0)
    assert {p.pid for p in mp.active_children()} <= before_procs
    assert shm.active_segments() <= before_segs
