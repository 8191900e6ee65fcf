"""PCA baseline: truncated SVD of the binarised user-feature matrix.

The paper's PCA baseline [55] projects the feature matrix ``U`` onto its top
``D`` right singular vectors; the user embedding is the projection and the
reconstruction score of feature ``j`` for user ``i`` is ``(z_i Vᵀ)_j``.
Fold-in is simply projecting the (partially blanked) test rows.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import UserRepresentationModel
from repro.data.dataset import MultiFieldDataset

__all__ = ["PCAModel"]


class PCAModel(UserRepresentationModel):
    """Truncated-SVD dimensionality reduction over the concatenated fields."""

    name = "PCA"

    def __init__(self, latent_dim: int = 64, center: bool = True, seed: int = 0) -> None:
        if latent_dim <= 0:
            raise ValueError(f"latent_dim must be positive: {latent_dim}")
        self.latent_dim = latent_dim
        self.center = center
        self.seed = seed
        self.components_: np.ndarray | None = None  # (D, J)
        self.mean_: np.ndarray | None = None
        self._offsets: dict[str, int] | None = None
        self._schema = None

    def fit(self, dataset: MultiFieldDataset, **kwargs) -> "PCAModel":
        x = dataset.to_scipy(binary=True).astype(np.float64)
        self._schema = dataset.schema
        self._offsets = dataset.schema.offsets()
        if self.center:
            self.mean_ = np.asarray(x.mean(axis=0)).ravel()
        else:
            self.mean_ = np.zeros(x.shape[1])
        k = min(self.latent_dim, min(x.shape) - 1)
        if k <= 0:
            raise ValueError("dataset too small for the requested latent_dim")
        # svds on the uncentered sparse matrix; centering is folded into the
        # projection (X - μ)V = XV - μV, keeping the matrix sparse.
        from scipy.sparse.linalg import svds
        __, __, vt = svds(x, k=k, random_state=self.seed)
        order = np.argsort(-np.linalg.norm(vt, axis=1))  # svds returns unordered
        self.components_ = vt[order]
        return self

    def _require_fitted(self) -> None:
        if self.components_ is None:
            raise RuntimeError("PCAModel must be fitted before use")

    def embed_users(self, dataset: MultiFieldDataset) -> np.ndarray:
        self._require_fitted()
        x = dataset.to_scipy(binary=True).astype(np.float64)
        proj = x @ self.components_.T
        return np.asarray(proj) - self.mean_ @ self.components_.T

    def score_field(self, dataset: MultiFieldDataset, field: str) -> np.ndarray:
        self._require_fitted()
        z = self.embed_users(dataset)
        start = self._offsets[field]
        stop = start + self._schema[field].vocab_size
        recon = z @ self.components_[:, start:stop]
        return recon + self.mean_[start:stop]
