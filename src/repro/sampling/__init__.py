"""Batched-softmax candidate selection and feature-sampling strategies."""

from repro.sampling.strategies import (FeatureSampler, FrequencySampler,
                                       UniformSampler, ZipfianSampler,
                                       get_sampler, select_candidates)

__all__ = [
    "FeatureSampler", "UniformSampler", "FrequencySampler", "ZipfianSampler",
    "get_sampler", "select_candidates",
]
