"""Synthetic multi-field user-profile generators.

The paper evaluates on proprietary Tencent datasets (KD, QB, SC).  Those are
not available, so this module generates profiles that match their *relevant
statistics*:

* a latent-topic model ties fields together (users mostly draw features
  popular within their topic), so fold-in tag prediction is learnable and the
  t-SNE case study (Fig 4) has ground-truth topic labels;
* within-topic feature popularity is power-law, giving the long-tail
  marginals that motivate the batched softmax and feature sampling;
* fields have very different vocabulary sizes (channel hierarchies are small,
  tags are huge), reproducing the multi-field imbalance the α weights target.

For the scalability study (Fig 9) the paper generates random samples with the
Barabási–Albert preferential-attachment model; :func:`barabasi_albert_profiles`
implements a bipartite chunked variant of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import MultiFieldDataset
from repro.data.fields import FieldSchema, FieldSpec
from repro.data.sparse import CSRMatrix
from repro.utils.rng import new_rng

__all__ = [
    "TopicFieldConfig", "SyntheticDataset", "generate_topic_profiles",
    "barabasi_albert_profiles",
]


@dataclass(frozen=True)
class TopicFieldConfig:
    """Configuration of one generated field.

    Attributes
    ----------
    name: field name.
    vocab_size: number of distinct features ``J_k``.
    avg_per_user: Poisson mean of the number of feature draws per user.
    exponent: power-law exponent of within-topic feature popularity.
    sample: mark the field for training-time feature sampling (§IV-C3).
    """

    name: str
    vocab_size: int
    avg_per_user: float
    exponent: float = 1.1
    sample: bool = False


@dataclass
class SyntheticDataset:
    """A generated dataset plus its ground truth."""

    dataset: MultiFieldDataset
    topics: np.ndarray            # (N,) primary topic of each user
    theta: np.ndarray             # (N, T) topic mixture of each user
    name: str = "synthetic"
    personas: np.ndarray | None = None   # (N,) fine-grained persona ids

    @property
    def n_topics(self) -> int:
        return self.theta.shape[1]


def _power_law_cdf(vocab_size: int, exponent: float) -> np.ndarray:
    """Cumulative distribution of ``p_j ∝ (j+1)^{-exponent}`` over ranks."""
    weights = (np.arange(1, vocab_size + 1)) ** (-exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _sample_topics_per_draw(theta: np.ndarray, user_of_draw: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """Draw one topic per event from each owning user's mixture.

    The topic is the first index whose cumulative mass exceeds ``u``, i.e.
    the count of cumulative masses ``u`` exceeds — counted one topic column
    at a time through reused draw-sized buffers, so no ``(draws, topics)``
    matrix is ever gathered.
    """
    columns = np.cumsum(theta, axis=1).T.copy()
    u = rng.random(user_of_draw.size)
    topic = np.zeros(u.size, dtype=np.int64)
    bound = np.empty_like(u)
    above = np.empty(u.size, dtype=bool)
    for column in columns:
        np.take(column, user_of_draw, out=bound, mode="clip")
        topic += np.greater(u, bound, out=above)
    return np.minimum(topic, theta.shape[1] - 1, out=topic)


def generate_topic_profiles(n_users: int,
                            fields: list[TopicFieldConfig],
                            n_topics: int = 8,
                            topic_purity: float = 0.85,
                            field_emphasis_sigma: float = 0.0,
                            n_personas: int = 0,
                            personal_blend: float = 0.0,
                            persona_pool_size: int = 8,
                            seed: int | np.random.Generator | None = 0,
                            name: str = "synthetic") -> SyntheticDataset:
    """Generate correlated multi-field user profiles from a latent topic model.

    Each user gets a primary topic and a mixture ``θ_i`` concentrated on it
    (``topic_purity`` controls how concentrated).  Every feature draw first
    picks a topic from ``θ_i`` and then a feature from that topic's power-law
    distribution (a topic-specific permutation of the global popularity
    ranking), so features co-occurring within a topic are correlated across
    fields.

    ``field_emphasis_sigma > 0`` gives every user a log-normal activity
    multiplier *per field*: some users are tag-heavy, others channel-heavy.
    This is the cross-field "ordering bias" of real multi-source profiles the
    paper targets — a single softmax over all fields must spend capacity
    modelling each user's field shares, while per-field multinomials are
    invariant to them.

    ``n_personas > 0`` adds fine-grained user structure *beyond* topics: every
    user belongs to one of ``n_personas`` personas, each owning a small pool
    of favourite features per field, and a ``personal_blend`` fraction of
    draws comes from that pool.  The same persona drives every field, so a
    user's channels reveal which specific tags they favour — structure far
    finer than the topic count, which mixture models (LDA) cannot represent
    but a non-linear encoder can.  Real profiles have exactly this long-tail
    idiosyncrasy; without it, synthetic data degenerates into a pure LDA
    generative process and unrealistically crowns LDA.
    """
    if n_users <= 0:
        raise ValueError(f"n_users must be positive: {n_users}")
    if not 0.0 <= topic_purity <= 1.0:
        raise ValueError(f"topic_purity must be in [0, 1]: {topic_purity}")
    if n_topics <= 0:
        raise ValueError(f"n_topics must be positive: {n_topics}")
    rng = new_rng(seed)

    if not 0.0 <= personal_blend < 1.0:
        raise ValueError(f"personal_blend must be in [0, 1): {personal_blend}")
    if personal_blend > 0.0 and n_personas <= 0:
        raise ValueError("personal_blend requires n_personas > 0")

    # -- users: primary topic + mixture ---------------------------------------
    primary = rng.integers(0, n_topics, size=n_users)
    base = rng.dirichlet(np.ones(n_topics), size=n_users)
    theta = (1.0 - topic_purity) * base
    theta[np.arange(n_users), primary] += topic_purity
    theta /= theta.sum(axis=1, keepdims=True)
    persona = rng.integers(0, n_personas, size=n_users) if n_personas > 0 \
        else None

    # -- fields -----------------------------------------------------------------
    blocks: dict[str, CSRMatrix] = {}
    specs: list[FieldSpec] = []
    background_blend = 0.1  # shared head mass every topic draws from
    for cfg in fields:
        if cfg.vocab_size <= 0 or cfg.avg_per_user <= 0:
            raise ValueError(f"field '{cfg.name}': vocab and avg_per_user must be positive")
        # Topic-specific vocabulary blocks: each topic owns a contiguous slice
        # of a global permutation, so topic membership concentrates a user's
        # features on ~1/T of the vocabulary — a strong signal — while the
        # within-block power law stays moderate (a weak popularity shortcut).
        global_perm = rng.permutation(cfg.vocab_size)
        block_size = max(cfg.vocab_size // n_topics, min(cfg.vocab_size, 8))
        # evenly spaced starts cover the vocabulary uniformly, keeping the
        # global popularity curve (and thus the popularity shortcut) mild
        block_starts = (np.arange(n_topics) * cfg.vocab_size) // n_topics
        block_cdf = _power_law_cdf(block_size, cfg.exponent)
        global_cdf = _power_law_cdf(cfg.vocab_size, cfg.exponent)

        rate = np.full(n_users, cfg.avg_per_user)
        if field_emphasis_sigma > 0:
            rate = rate * rng.lognormal(0.0, field_emphasis_sigma, size=n_users)
        n_draws = np.maximum(rng.poisson(rate), 1)
        user_of_draw = np.repeat(np.arange(n_users), n_draws)
        topic_of_draw = _sample_topics_per_draw(theta, user_of_draw, rng)
        n_total = user_of_draw.size

        ranks = np.minimum(np.searchsorted(block_cdf, rng.random(n_total),
                                           side="right"), block_size - 1)
        positions = (block_starts[topic_of_draw] + ranks) % cfg.vocab_size
        features = global_perm[positions]

        background = rng.random(n_total) < background_blend
        n_background = int(background.sum())
        if n_background:
            bg_ranks = np.minimum(
                np.searchsorted(global_cdf, rng.random(n_background),
                                side="right"), cfg.vocab_size - 1)
            features[background] = global_perm[bg_ranks]

        if persona is not None and personal_blend > 0.0:
            # Persona feature pools drawn from the persona's own topic block,
            # so personal favourites stay topically coherent but are far
            # finer-grained than any topic-level model can represent.
            pool_size = min(persona_pool_size, cfg.vocab_size)
            persona_topic = rng.integers(0, n_topics, size=n_personas)
            pool_ranks = np.minimum(
                np.searchsorted(block_cdf, rng.random((n_personas, pool_size)),
                                side="right"), block_size - 1)
            pool_positions = (block_starts[persona_topic][:, None]
                              + pool_ranks) % cfg.vocab_size
            pools = global_perm[pool_positions]          # (P, pool_size)
            from_pool = rng.random(n_total) < personal_blend
            n_pool_draws = int(from_pool.sum())
            if n_pool_draws:
                pick = rng.integers(0, pool_size, size=n_pool_draws)
                features[from_pool] = pools[
                    persona[user_of_draw[from_pool]], pick]

        blocks[cfg.name] = _pairs_to_csr(user_of_draw, features, n_users, cfg.vocab_size)
        specs.append(FieldSpec(cfg.name, cfg.vocab_size, sample=cfg.sample))

    dataset = MultiFieldDataset(FieldSchema(specs), blocks)
    return SyntheticDataset(dataset=dataset, topics=primary, theta=theta,
                            name=name, personas=persona)


def _pairs_to_csr(users: np.ndarray, features: np.ndarray,
                  n_users: int, vocab_size: int) -> CSRMatrix:
    """Deduplicate (user, feature) pairs into CSR with counts as weights."""
    key = users.astype(np.int64) * vocab_size + features
    unique_key, counts = np.unique(key, return_counts=True)
    u = unique_key // vocab_size
    f = unique_key % vocab_size
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.add.at(indptr, u + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(indptr, f, counts.astype(np.float64), vocab_size)


def barabasi_albert_profiles(n_users: int,
                             avg_features: float,
                             max_features: int,
                             field_name: str = "feat",
                             chunk_size: int = 256,
                             new_feature_rate: float = 1.0,
                             seed: int | np.random.Generator | None = 0,
                             ) -> MultiFieldDataset:
    """Bipartite preferential-attachment profiles (Fig 9 workload).

    Users arrive one chunk at a time; each draws ``~Poisson(avg_features)``
    features.  A draw either attaches preferentially (proportional to current
    feature degree) or introduces a brand-new feature.  As in the
    Barabási–Albert model, new features arrive at a *constant rate per user*
    (``new_feature_rate``, default 1), so the number of distinct features in
    use grows with the users — independent of the ``max_features`` cap.  That
    cap only bounds the vocabulary dimension, which is exactly the property
    the paper's Fig 9b sweep exercises: runtime must not depend on it.
    """
    if n_users <= 0 or avg_features <= 0 or max_features <= 0:
        raise ValueError("n_users, avg_features and max_features must be positive")
    if new_feature_rate <= 0:
        raise ValueError(f"new_feature_rate must be positive: {new_feature_rate}")
    rng = new_rng(seed)

    # Seed pool with a handful of features so preferential draws are defined.
    seed_features = min(max(int(avg_features), 2), max_features)
    endpoint_pool: list[np.ndarray] = [np.arange(seed_features)]
    pool_size = seed_features
    next_feature = seed_features
    new_feature_prob = min(1.0, new_feature_rate / avg_features)

    indptr = np.zeros(n_users + 1, dtype=np.int64)
    all_rows: list[np.ndarray] = []

    n_draws = np.maximum(rng.poisson(avg_features, size=n_users), 1)
    for start in range(0, n_users, chunk_size):
        stop = min(start + chunk_size, n_users)
        chunk_draws = int(n_draws[start:stop].sum())
        pool = np.concatenate(endpoint_pool) if len(endpoint_pool) > 1 else endpoint_pool[0]
        endpoint_pool = [pool]

        is_new = rng.random(chunk_draws) < new_feature_prob
        n_new = int(is_new.sum())
        remaining = max_features - next_feature
        if n_new > remaining:
            # vocabulary exhausted: turn surplus "new" draws into attachments
            surplus = np.flatnonzero(is_new)[remaining:]
            is_new[surplus] = False
            n_new = remaining
        draws = np.empty(chunk_draws, dtype=np.int64)
        draws[~is_new] = pool[rng.integers(0, pool_size, size=chunk_draws - n_new)]
        if n_new:
            draws[is_new] = np.arange(next_feature, next_feature + n_new)
            next_feature += n_new

        endpoint_pool.append(draws.copy())
        pool_size += chunk_draws

        offset = 0
        for i in range(start, stop):
            row = np.unique(draws[offset:offset + n_draws[i]])
            all_rows.append(row)
            indptr[i + 1] = indptr[i] + row.size
            offset += n_draws[i]

    indices = np.concatenate(all_rows)
    schema = FieldSchema([FieldSpec(field_name, max_features)])
    csr = CSRMatrix(indptr, indices, None, max_features)
    return MultiFieldDataset(schema, {field_name: csr})
