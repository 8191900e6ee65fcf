"""Batch loader contract.

:class:`repro.perf.pipeline.SyncLoader` must yield exactly the batches
``dataset.batch(order[a:b])`` would, in order, from any starting batch —
which keeps training bit-exact across checkpoint resumes.  The
tests here pin that and the epoch's batch count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loaders import make_kd_like
from repro.perf.pipeline import SyncLoader, n_batches


@pytest.fixture(scope="module")
def kd_small():
    return make_kd_like(n_users=160, seed=3).dataset


def _assert_batches_equal(a, b):
    assert np.array_equal(a.user_ids, b.user_ids)
    assert set(a.fields) == set(b.fields)
    for name, fa in a.fields.items():
        fb = b.fields[name]
        assert np.array_equal(fa.indices, fb.indices)
        assert np.array_equal(fa.offsets, fb.offsets)
        assert np.array_equal(fa.weights, fb.weights)
        assert fa.vocab_size == fb.vocab_size


class TestLoaderEquivalence:
    def test_first_batch_resume_offset(self, kd_small):
        order = np.random.default_rng(0).permutation(kd_small.n_users)
        batches = list(SyncLoader().epoch(kd_small, order, batch_size=50,
                                          first_batch=2))
        assert len(batches) == 2  # batches 2 and 3 of ceil(160 / 50) = 4
        for got, start in zip(batches, (100, 150)):
            _assert_batches_equal(got, kd_small.batch(order[start:start + 50]))

    def test_empty_order(self, kd_small):
        empty = np.array([], dtype=np.int64)
        assert list(SyncLoader().epoch(kd_small, empty, 32)) == []


class TestNBatches:
    @pytest.mark.parametrize("n,bs,expected", [
        (6, 4, 2), (8, 4, 2), (3, 4, 1), (0, 4, 0)])
    def test_n_batches_is_ceil(self, n, bs, expected):
        assert n_batches(n, bs) == expected

    def test_sync_loader_keeps_ragged_last_batch(self, kd_small):
        batches = list(SyncLoader().epoch(kd_small, np.arange(6),
                                          batch_size=4))
        assert [b.n_users for b in batches] == [4, 2]

