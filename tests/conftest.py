"""Shared fixtures: small synthetic datasets and a cheaply-trained FVAE.

Expensive artefacts are session-scoped so the suite stays fast; tests that
mutate models build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVAE, FVAEConfig
from repro.data import (FieldSchema, FieldSpec, MultiFieldDataset, make_sc_like)


@pytest.fixture(scope="session")
def tiny_schema() -> FieldSchema:
    return FieldSchema([
        FieldSpec("ch1", 8),
        FieldSpec("ch2", 20),
        FieldSpec("tag", 50, sample=True),
    ])


@pytest.fixture(scope="session")
def tiny_dataset(tiny_schema) -> MultiFieldDataset:
    """Hand-written 6-user dataset with deterministic contents."""
    rows = {
        "ch1": [[0, 1], [2], [0], [3, 4], [], [7]],
        "ch2": [[0, 5, 6], [1], [2, 3], [], [10, 11], [19]],
        "tag": [[0, 1, 2], [3, 4], [5], [6, 7, 8, 9], [10], [49, 48]],
    }
    weights = {
        "ch1": [[2.0, 1.0], [1.0], [3.0], [1.0, 1.0], [], [1.0]],
        "ch2": [[1.0, 1.0, 2.0], [1.0], [1.0, 4.0], [], [1.0, 1.0], [2.0]],
        "tag": [[1.0, 2.0, 1.0], [1.0, 1.0], [5.0], [1.0] * 4, [1.0], [1.0, 1.0]],
    }
    return MultiFieldDataset.from_user_lists(tiny_schema, rows, weights)


@pytest.fixture(scope="session")
def sc_small():
    """Small SC-like synthetic dataset with ground-truth topics."""
    return make_sc_like(n_users=600, seed=11)


@pytest.fixture(scope="session")
def sc_split(sc_small):
    train, test = sc_small.dataset.split([0.8, 0.2], rng=0)
    return train, test


@pytest.fixture(scope="session")
def trained_fvae(sc_split):
    """An FVAE trained well enough to beat the classic baselines."""
    train, __ = sc_split
    config = FVAEConfig(latent_dim=24, encoder_hidden=[128], decoder_hidden=[128],
                        beta=0.2, anneal_steps=150, sampling_rate=0.5,
                        input_dropout=0.1, seed=7)
    return FVAE(train.schema, config).fit(train, epochs=18, batch_size=200,
                                          lr=3e-3)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def freeze_clock():
    """A ManualClock at t=0: inject as ``clock=`` and advance by hand.

    Timing-sensitive tests must never sleep and assert on real wall-clock;
    every timed component (``Timer``, ``timed``, ``RetryPolicy``,
    ``CircuitBreaker``, and ``TraceStore``, whose clock times every span)
    accepts an injectable clock.
    """
    from repro.utils import ManualClock

    return ManualClock()


@pytest.fixture(autouse=True)
def _no_leaked_telemetry():
    """Guarantee no test leaves a process-wide telemetry session installed."""
    from repro.obs import runtime as obs

    yield
    obs.uninstall()


@pytest.fixture()
def shard_cluster():
    """Zero-leak teardown check for multiprocess sharded-trainer tests.

    After the test, the fixture *asserts* the multiprocess hygiene every
    sharded test must uphold:

    * no orphan child processes (``multiprocessing.active_children``);
    * no leaked ``/dev/shm`` segments carrying this repo's prefix.

    A hard deadline guards the teardown wait — a hung worker fails the
    test instead of hanging the suite (pytest-timeout is not available).
    """
    import multiprocessing as _mp
    import time as _time

    from repro.distributed.sharded import shm as _shm

    segments_before = _shm.active_segments()
    children_before = {p.pid for p in _mp.active_children()}

    yield

    deadline = _time.monotonic() + 30.0
    while _time.monotonic() < deadline:
        leftover = [p for p in _mp.active_children()
                    if p.pid not in children_before]
        if not leftover:
            break
        _time.sleep(0.05)
    else:  # pragma: no cover - only on leak
        for p in leftover:
            p.kill()
        raise AssertionError(f"orphan shard processes after teardown: "
                             f"{[p.pid for p in leftover]}")
    leaked = _shm.active_segments() - segments_before
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"
