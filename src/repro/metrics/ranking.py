"""Ranking metrics used throughout the paper's evaluation: AUC and mAP.

Both tasks (reconstruction, tag prediction) score every user's candidate
features and compare the ranking against the held-out positives.  The paper
reports the *mean over users* of per-user AUC and Average Precision; we follow
that convention (users without both a positive and a negative are skipped).
"""

from __future__ import annotations

import numpy as np

from repro.data.sparse import CSRMatrix
from repro.utils.rng import new_rng

__all__ = ["roc_auc", "average_precision", "mean_ranking_metrics",
           "sampled_negative_metrics"]


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann–Whitney statistic (tie-aware).

    Returns ``nan`` when labels are single-class.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    from scipy.stats import rankdata
    ranks = rankdata(scores)  # average ranks handle ties correctly
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision of the ranking induced by ``scores``.

    AP = mean over positives of precision@rank-of-positive.  Returns ``nan``
    when there is no positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if not labels.any():
        return float("nan")
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    cum_hits = np.cumsum(hits)
    precision_at = cum_hits / np.arange(1, labels.size + 1)
    return float(precision_at[hits].mean())


def mean_ranking_metrics(score_matrix: np.ndarray, positives: CSRMatrix,
                         ) -> dict[str, float]:
    """Mean per-user AUC and AP of dense scores against CSR positives.

    Parameters
    ----------
    score_matrix:
        ``(N, J_k)`` model scores for every user and feature of one field.
    positives:
        CSR of held-out positive features per user; weights are ignored (the
        metrics are computed on the multi-hot structure).
    """
    if score_matrix.shape != positives.shape:
        raise ValueError(f"scores {score_matrix.shape} vs positives {positives.shape}")
    aucs: list[float] = []
    aps: list[float] = []
    for i in range(positives.n_rows):
        pos_ids, __ = positives.row(i)
        if pos_ids.size == 0 or pos_ids.size == positives.n_cols:
            continue
        labels = np.zeros(positives.n_cols, dtype=bool)
        labels[pos_ids] = True
        aucs.append(roc_auc(score_matrix[i], labels))
        aps.append(average_precision(score_matrix[i], labels))
    return {
        "auc": float(np.nanmean(aucs)) if aucs else float("nan"),
        "map": float(np.nanmean(aps)) if aps else float("nan"),
        "n_users": len(aucs),
    }


def sampled_negative_metrics(score_matrix: np.ndarray, positives: CSRMatrix,
                             rng: np.random.Generator | int | None = None,
                             negatives_per_positive: int = 1) -> dict[str, float]:
    """Tag-prediction protocol of §V-B2: positives vs equal-sized sampled negatives.

    For every user, the observed tags are positives and an equal number of
    *unobserved* tags are drawn uniformly as negatives; AUC/AP are computed on
    that subset and averaged over users.
    """
    if score_matrix.shape != positives.shape:
        raise ValueError(f"scores {score_matrix.shape} vs positives {positives.shape}")
    rng = new_rng(rng)
    n_cols = positives.n_cols
    aucs: list[float] = []
    aps: list[float] = []
    for i in range(positives.n_rows):
        pos_ids, __ = positives.row(i)
        if pos_ids.size == 0:
            continue
        n_neg = min(pos_ids.size * negatives_per_positive, n_cols - pos_ids.size)
        if n_neg <= 0:
            continue
        pos_set = set(pos_ids.tolist())
        # rejection-sample unobserved tags
        neg_ids: list[int] = []
        while len(neg_ids) < n_neg:
            draw = rng.integers(0, n_cols, size=2 * n_neg)
            for d in draw:
                if d not in pos_set:
                    neg_ids.append(int(d))
                    pos_set.add(int(d))  # avoid duplicate negatives
                    if len(neg_ids) == n_neg:
                        break
        ids = np.concatenate([pos_ids, np.asarray(neg_ids, dtype=np.int64)])
        labels = np.zeros(ids.size, dtype=bool)
        labels[: pos_ids.size] = True
        scores = score_matrix[i, ids]
        aucs.append(roc_auc(scores, labels))
        aps.append(average_precision(scores, labels))
    return {
        "auc": float(np.nanmean(aucs)) if aucs else float("nan"),
        "map": float(np.nanmean(aps)) if aps else float("nan"),
        "n_users": len(aucs),
    }
