"""Feature sampling strategies for the batched softmax (§IV-C2/C3, Fig 5).

The batched softmax first restricts the decoder's output space to the features
observed in the current batch (:func:`select_candidates` with ``rate=1``).
For super-sparse fields the paper samples that candidate set down further with
rate ``r``; three strategies are compared in Fig 5:

* **Uniform** — ignore in-batch frequency, keep each candidate with equal
  probability (the paper's proposal, and the best performer).
* **Frequency** — keep candidates proportionally to their in-batch frequency.
* **Zipfian** — rank candidates by decreasing frequency and keep them
  according to an approximately Zipfian law over ranks (the classic
  log-uniform candidate sampler).

All strategies draw exactly ``max(1, round(r·|C|))`` candidates without
replacement, so comparisons at equal ``r`` are cost-matched.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import FieldBatch
from repro.obs import runtime as obs
from repro.utils.rng import new_rng

__all__ = ["FeatureSampler", "UniformSampler", "FrequencySampler",
           "ZipfianSampler", "get_sampler", "select_candidates"]


def _weighted_sample_without_replacement(candidates: np.ndarray,
                                         weights: np.ndarray, n: int,
                                         rng: np.random.Generator) -> np.ndarray:
    """Efraimidis–Spirakis reservoir keys: top-n of ``u^(1/w)``."""
    weights = np.maximum(weights, 1e-12)
    keys = rng.random(candidates.size) ** (1.0 / weights)
    top = np.argpartition(-keys, n - 1)[:n]
    return candidates[top]


class FeatureSampler:
    """Base class: choose which batch candidates stay in the softmax."""

    name = "base"

    def sample(self, candidates: np.ndarray, frequencies: np.ndarray,
               rate: float, rng: np.random.Generator) -> np.ndarray:
        """Return a sorted subset of ``candidates``.

        Parameters
        ----------
        candidates:
            Sorted distinct feature ids observed in the batch.
        frequencies:
            In-batch occurrence count of each candidate (same length).
        rate:
            Sampling rate ``r`` in (0, 1]; 1 keeps everything.
        """
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1]: {rate}")
        if candidates.size == 0 or rate >= 1.0:
            return candidates
        n = max(1, int(round(rate * candidates.size)))
        return np.sort(self._draw(candidates, frequencies, n, rng))

    def _draw(self, candidates: np.ndarray, frequencies: np.ndarray,
              n: int, rng: np.random.Generator) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UniformSampler(FeatureSampler):
    """Keep candidates uniformly at random (the paper's strategy)."""

    name = "uniform"

    def _draw(self, candidates, frequencies, n, rng):
        return rng.choice(candidates, size=n, replace=False)


class FrequencySampler(FeatureSampler):
    """Keep candidates proportionally to their in-batch frequency."""

    name = "frequency"

    def _draw(self, candidates, frequencies, n, rng):
        return _weighted_sample_without_replacement(
            candidates, frequencies.astype(np.float64), n, rng)


class ZipfianSampler(FeatureSampler):
    """Keep candidates with probability ~Zipfian over frequency rank.

    Probability of the candidate at (0-based) rank ``k`` is proportional to
    ``log(k+2) − log(k+1)`` — the log-uniform sampler used by sampled-softmax
    implementations, which strongly prefers the most frequent features.
    """

    name = "zipfian"

    def _draw(self, candidates, frequencies, n, rng):
        order = np.argsort(-frequencies, kind="stable")
        ranks = np.empty_like(order)
        ranks[order] = np.arange(order.size)
        weights = np.log((ranks + 2.0) / (ranks + 1.0))
        return _weighted_sample_without_replacement(candidates, weights, n, rng)


_SAMPLERS = {
    "uniform": UniformSampler,
    "frequency": FrequencySampler,
    "zipfian": ZipfianSampler,
}


def get_sampler(name: str) -> FeatureSampler:
    """Instantiate a sampler by name: ``uniform``, ``frequency`` or
    ``zipfian``."""
    key = name.lower()
    if key not in _SAMPLERS:
        raise KeyError(f"unknown sampler '{name}'; available: {sorted(_SAMPLERS)}")
    return _SAMPLERS[key]()


def select_candidates(batch_field: FieldBatch, rate: float = 1.0,
                      sampler: FeatureSampler | None = None,
                      rng: np.random.Generator | int | None = None,
                      field: str | None = None) -> np.ndarray:
    """Full batched-softmax candidate selection for one field.

    Step 1 (batched softmax): restrict to features observed by at least one
    user in the batch.  Step 2 (feature sampling): sample that set down with
    ``rate`` using ``sampler`` (defaults to uniform).  ``field`` only labels
    the candidate-size telemetry (``sampling.candidates`` / ``sampling.kept``
    histograms).
    """
    candidates, frequencies = batch_field.unique_with_counts()
    if rate >= 1.0 or candidates.size == 0:
        if obs.enabled():
            label = field or "anon"
            obs.observe("sampling.candidates", candidates.size, field=label)
            obs.observe("sampling.kept", candidates.size, field=label)
        return candidates
    sampler = sampler or UniformSampler()
    kept = sampler.sample(candidates, frequencies, rate, new_rng(rng))
    if obs.enabled():
        label = field or "anon"
        obs.observe("sampling.candidates", candidates.size, field=label)
        obs.observe("sampling.kept", kept.size, field=label)
    return kept
