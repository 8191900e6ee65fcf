"""Latent Dirichlet Allocation baseline (batch variational Bayes).

The paper's LDA baseline [56] treats a user profile as a bag of feature
"words" over the concatenated vocabulary; the user representation is the
variational topic posterior ``γ_i`` and feature scores come from
``E[θ_i] · β`` — the probability the user's topics emit the feature.

This is a from-scratch implementation of the batch variant of Hoffman et
al.'s variational inference: per-document coordinate ascent on
``(γ, φ)`` in the E-step and a Dirichlet-smoothed topic update in the M-step.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import UserRepresentationModel
from repro.data.dataset import MultiFieldDataset
from repro.utils.rng import new_rng

__all__ = ["LDAModel"]


class LDAModel(UserRepresentationModel):
    """Batch variational-Bayes LDA over concatenated multi-field profiles.

    Parameters
    ----------
    n_topics:
        Number of topics ``D`` (the representation dimension).
    doc_prior / topic_prior:
        Dirichlet hyper-parameters α (documents) and η (topics).
    n_iterations:
        Outer EM iterations.
    e_steps:
        Inner fixed-point steps per document batch in the E-step.
    """

    name = "LDA"

    def __init__(self, n_topics: int = 64, doc_prior: float | None = None,
                 topic_prior: float = 0.01, n_iterations: int = 20,
                 e_steps: int = 30, seed: int = 0) -> None:
        if n_topics <= 0:
            raise ValueError(f"n_topics must be positive: {n_topics}")
        self.n_topics = n_topics
        self.doc_prior = doc_prior if doc_prior is not None else 1.0 / n_topics
        self.topic_prior = topic_prior
        self.n_iterations = n_iterations
        self.e_steps = e_steps
        self.seed = seed
        self.topic_word_: np.ndarray | None = None  # (T, J) normalised β
        self._offsets: dict[str, int] | None = None
        self._schema = None

    # -- inference helpers ------------------------------------------------------

    def _e_step(self, counts, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Variational E-step under topics ``λ``; returns (γ, sufficient stats)."""
        from scipy.special import digamma
        exp_elog_beta = np.exp(digamma(lam) - digamma(lam.sum(axis=1, keepdims=True)))
        n_docs = counts.shape[0]
        rng = new_rng(self.seed + 1)
        gamma = rng.gamma(100.0, 0.01, size=(n_docs, self.n_topics))
        sstats = np.zeros_like(exp_elog_beta)
        counts = counts.tocsr()
        for d in range(n_docs):
            start, stop = counts.indptr[d], counts.indptr[d + 1]
            ids = counts.indices[start:stop]
            cts = counts.data[start:stop]
            if ids.size == 0:
                continue
            gamma_d = gamma[d]
            exp_elog_theta_d = np.exp(digamma(gamma_d) - digamma(gamma_d.sum()))
            beta_d = exp_elog_beta[:, ids]
            phinorm = exp_elog_theta_d @ beta_d + 1e-100
            for __ in range(self.e_steps):
                last = gamma_d
                gamma_d = self.doc_prior + exp_elog_theta_d * ((cts / phinorm) @ beta_d.T)
                exp_elog_theta_d = np.exp(digamma(gamma_d) - digamma(gamma_d.sum()))
                phinorm = exp_elog_theta_d @ beta_d + 1e-100
                if np.abs(gamma_d - last).mean() < 1e-3:
                    break
            gamma[d] = gamma_d
            sstats[:, ids] += np.outer(exp_elog_theta_d, cts / phinorm) * beta_d
        return gamma, sstats

    def fit(self, dataset: MultiFieldDataset, **kwargs) -> "LDAModel":
        x = dataset.to_scipy(binary=False)
        self._schema = dataset.schema
        self._offsets = dataset.schema.offsets()
        n_words = x.shape[1]
        rng = new_rng(self.seed)
        lam = rng.gamma(100.0, 0.01, size=(self.n_topics, n_words))
        for __ in range(self.n_iterations):
            __, sstats = self._e_step(x, lam)
            lam = self.topic_prior + sstats
        self.topic_word_ = lam / lam.sum(axis=1, keepdims=True)
        self._lambda = lam
        return self

    def _require_fitted(self) -> None:
        if self.topic_word_ is None:
            raise RuntimeError("LDAModel must be fitted before use")

    def embed_users(self, dataset: MultiFieldDataset) -> np.ndarray:
        """Normalised topic posterior E[θ_i] as the user representation."""
        self._require_fitted()
        x = dataset.to_scipy(binary=False)
        gamma, __ = self._e_step(x, self._lambda)
        return gamma / gamma.sum(axis=1, keepdims=True)

    def score_field(self, dataset: MultiFieldDataset, field: str) -> np.ndarray:
        self._require_fitted()
        theta = self.embed_users(dataset)
        start = self._offsets[field]
        stop = start + self._schema[field].vocab_size
        return theta @ self.topic_word_[:, start:stop]
