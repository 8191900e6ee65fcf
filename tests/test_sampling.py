"""Feature-sampling strategies: sizes, distributions, candidate selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import FieldBatch
from repro.sampling import (FrequencySampler, UniformSampler, ZipfianSampler,
                            get_sampler, select_candidates)


def make_field_batch(rows: list[list[int]], vocab: int = 100) -> FieldBatch:
    indices = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows]) \
        if any(rows) else np.empty(0, dtype=np.int64)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return FieldBatch(indices=indices, offsets=offsets, weights=None,
                      vocab_size=vocab)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestSamplerContracts:
    @pytest.mark.parametrize("name", ["uniform", "frequency", "zipfian"])
    def test_sample_size_matches_rate(self, name, rng):
        sampler = get_sampler(name)
        candidates = np.arange(100)
        freqs = rng.integers(1, 50, size=100).astype(float)
        out = sampler.sample(candidates, freqs, 0.3, rng)
        assert out.size == 30
        assert np.all(np.isin(out, candidates))

    @pytest.mark.parametrize("name", ["uniform", "frequency", "zipfian"])
    def test_output_sorted_unique(self, name, rng):
        sampler = get_sampler(name)
        out = sampler.sample(np.arange(50), np.ones(50), 0.5, rng)
        assert np.all(np.diff(out) > 0)

    @pytest.mark.parametrize("name", ["uniform", "frequency", "zipfian"])
    def test_rate_one_keeps_everything(self, name, rng):
        sampler = get_sampler(name)
        candidates = np.arange(20)
        np.testing.assert_array_equal(
            sampler.sample(candidates, np.ones(20), 1.0, rng), candidates)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            UniformSampler().sample(np.arange(5), np.ones(5), 0.0, rng)
        with pytest.raises(ValueError):
            UniformSampler().sample(np.arange(5), np.ones(5), 1.5, rng)

    def test_at_least_one_kept(self, rng):
        out = UniformSampler().sample(np.arange(3), np.ones(3), 0.01, rng)
        assert out.size == 1

    def test_empty_candidates(self, rng):
        out = UniformSampler().sample(np.empty(0, dtype=np.int64),
                                      np.empty(0), 0.5, rng)
        assert out.size == 0

    def test_get_sampler_unknown(self):
        with pytest.raises(KeyError):
            get_sampler("gaussian")

    @given(st.integers(min_value=2, max_value=200),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_property_subset_size(self, n, rate):
        rng = np.random.default_rng(0)
        out = UniformSampler().sample(np.arange(n), np.ones(n), rate, rng)
        expected = n if rate >= 1.0 else max(1, int(round(rate * n)))
        assert out.size == expected
        assert np.unique(out).size == out.size


class TestDistributionalBehaviour:
    def test_frequency_prefers_frequent(self, rng):
        candidates = np.arange(100)
        freqs = np.ones(100)
        freqs[:10] = 100.0  # ten hot features
        hits = np.zeros(100)
        for __ in range(300):
            kept = FrequencySampler().sample(candidates, freqs, 0.2, rng)
            hits[kept] += 1
        assert hits[:10].mean() > 2 * hits[10:].mean()

    def test_zipfian_prefers_top_ranked(self, rng):
        candidates = np.arange(100)
        freqs = np.linspace(100, 1, 100)  # rank 0 is the most frequent
        hits = np.zeros(100)
        for __ in range(300):
            kept = ZipfianSampler().sample(candidates, freqs, 0.2, rng)
            hits[kept] += 1
        assert hits[:10].mean() > hits[-10:].mean()

    def test_uniform_ignores_frequency(self, rng):
        candidates = np.arange(100)
        freqs = np.ones(100)
        freqs[:10] = 1000.0
        hits = np.zeros(100)
        for __ in range(500):
            kept = UniformSampler().sample(candidates, freqs, 0.2, rng)
            hits[kept] += 1
        # hot features are *not* favoured
        assert abs(hits[:10].mean() - hits[10:].mean()) < 0.3 * hits.mean()


class TestSelectCandidates:
    def test_batched_softmax_restricts_to_batch(self):
        fb = make_field_batch([[5, 7], [7, 9]])
        np.testing.assert_array_equal(select_candidates(fb), [5, 7, 9])

    def test_rate_below_one_samples(self):
        fb = make_field_batch([[i] for i in range(50)])
        out = select_candidates(fb, rate=0.2, rng=0)
        assert out.size == 10
        assert np.all(np.isin(out, np.arange(50)))

    def test_empty_batch(self):
        fb = make_field_batch([[], []])
        assert select_candidates(fb).size == 0

    def test_custom_sampler_used(self):
        fb = make_field_batch([[i] for i in range(50)] + [[0]] * 50)
        # frequency sampling makes the repeated feature 0 near-certain to stay
        keeps = 0
        for seed in range(50):
            out = select_candidates(fb, rate=0.2, sampler=FrequencySampler(),
                                    rng=seed)
            keeps += 0 in out
        assert keeps > 45

