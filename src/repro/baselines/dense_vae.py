"""Dense-input autoencoder baselines: Mult-DAE, Mult-VAE, RecVAE.

These are the models of Liang et al. [8] and Shenbin et al. [23] that the
paper compares against (Tables II/III) and benchmarks for speed (Table V).
They consume the user profile as one dense ``J``-dimensional vector (all
fields concatenated) and decode with a *single* softmax over the whole
vocabulary — the ``O(J)`` per-user cost the FVAE's batched softmax removes.

At billion scale the paper can only run Mult-VAE after statically hashing
features into a 20-bit space (Table V footnote); pass a
:class:`~repro.hashing.FeatureHasher` to reproduce that configuration,
collisions included.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import UserRepresentationModel
from repro.core.annealing import LinearAnnealing
from repro.data.dataset import MultiFieldDataset, UserBatch
from repro.hashing import FeatureHasher
from repro.nn import functional as F
from repro.nn import gaussian_kl
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng

__all__ = ["DenseInputCodec", "MultDAE", "MultVAE", "RecVAE"]


class DenseInputCodec:
    """Maps multi-field sparse batches to dense input/target vectors.

    Without a hasher the input space is the concatenation of all field
    vocabularies (dimension ``J``); with a hasher every (field, feature id)
    pair is hashed into a fixed bucket space, reproducing the collisions of
    static feature hashing.
    """

    def __init__(self, dataset_schema, hasher: FeatureHasher | None = None) -> None:
        self.schema = dataset_schema
        self.hasher = hasher
        self.offsets = dataset_schema.offsets()
        self.dim = hasher.n_buckets if hasher else dataset_schema.total_vocab
        self._bucket_cache: dict[str, np.ndarray] = {}

    def _global_ids(self, field: str, ids: np.ndarray) -> np.ndarray:
        flat = ids + self.offsets[field]
        if self.hasher is None:
            return flat
        return self.hasher.bucket_ints(flat)

    def field_columns(self, field: str) -> np.ndarray:
        """Input-space column of every feature of ``field`` (cached)."""
        if field not in self._bucket_cache:
            vocab = self.schema[field].vocab_size
            self._bucket_cache[field] = self._global_ids(field, np.arange(vocab))
        return self._bucket_cache[field]

    def encode_batch(self, batch: UserBatch, binary: bool = True,
                     dtype=np.float64) -> np.ndarray:
        """Dense ``(B, dim)`` multi-hot matrix for a batch."""
        out = np.zeros((batch.n_users, self.dim), dtype=dtype)
        for field, fb in batch.fields.items():
            if fb.indices.size == 0:
                continue
            cols = self._global_ids(field, fb.indices)
            row_of = np.repeat(np.arange(fb.n_users), fb.counts())
            vals = np.ones(cols.size) if (binary or fb.weights is None) else fb.weights
            np.add.at(out, (row_of, cols), vals)
        if binary:
            out = (out > 0).astype(dtype)
        return out

    @staticmethod
    def normalize(x: np.ndarray) -> np.ndarray:
        """Per-user L2 normalisation (the Mult-VAE input convention)."""
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return x / np.maximum(norms, 1e-12)


class _DenseAutoencoderBase(Module, UserRepresentationModel):
    """Shared machinery of the dense multinomial autoencoders."""

    def __init__(self, schema, latent_dim: int = 64, hidden: list[int] | None = None,
                 dropout: float = 0.5, hasher: FeatureHasher | None = None,
                 seed: int = 0) -> None:
        super().__init__()
        hidden = hidden or [256]
        rng = new_rng(seed)
        self.schema = schema
        self.codec = DenseInputCodec(schema, hasher)
        self.latent_dim = latent_dim
        self.hidden_dims = list(hidden)
        self._rng = new_rng(seed + 1)

        dims = [self.codec.dim] + hidden
        self._enc_layers: list[Linear] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = Linear(d_in, d_out, rng=rng)
            self.register_module(f"enc{i}", layer)
            self._enc_layers.append(layer)
        self.input_dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

        dec_dims = [latent_dim] + hidden[::-1] + [self.codec.dim]
        self._dec_layers: list[Linear] = []
        for i, (d_in, d_out) in enumerate(zip(dec_dims[:-1], dec_dims[1:])):
            layer = Linear(d_in, d_out, rng=rng)
            self.register_module(f"dec{i}", layer)
            self._dec_layers.append(layer)

    # -- shared forward pieces -------------------------------------------------

    def _multi_hot(self, batch: UserBatch) -> np.ndarray:
        """The codec's multi-hot input (and targets) in the parameters' dtype."""
        return self.codec.encode_batch(batch, dtype=self.dtype)

    def _encode_hidden(self, x: np.ndarray) -> Tensor:
        h = Tensor(DenseInputCodec.normalize(x))
        if self.input_dropout is not None:
            h = self.input_dropout(h)
        for layer in self._enc_layers:
            h = F.tanh(layer(h))
        return h

    def decode_logits(self, z: Tensor) -> Tensor:
        h = z
        last = len(self._dec_layers) - 1
        for i, layer in enumerate(self._dec_layers):
            h = layer(h)
            if i < last:
                h = F.tanh(h)
        return h

    # -- UserRepresentationModel -----------------------------------------------

    def fit(self, dataset: MultiFieldDataset, epochs: int = 10, batch_size: int = 512,
            lr: float = 1e-3, verbose: bool = False, **trainer_kwargs):
        from repro.core.trainer import Trainer

        trainer = Trainer(self, lr=lr)
        self.history = trainer.fit(dataset, epochs=epochs, batch_size=batch_size,
                                   verbose=verbose, **trainer_kwargs)
        return self

    def embed_users(self, dataset: MultiFieldDataset, batch_size: int = 2048) -> np.ndarray:
        self.eval()
        out = np.empty((dataset.n_users, self.latent_dim))
        with no_grad():
            for start in range(0, dataset.n_users, batch_size):
                idx = np.arange(start, min(start + batch_size, dataset.n_users))
                x = self._multi_hot(dataset.batch(idx))
                out[idx] = self._embed(x)
        return out

    def _embed(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def score_field(self, dataset: MultiFieldDataset, field: str,
                    batch_size: int = 2048) -> np.ndarray:
        """Decoder logits restricted to the columns of ``field``."""
        self.eval()
        cols = self.codec.field_columns(field)
        out = np.empty((dataset.n_users, cols.size))
        with no_grad():
            for start in range(0, dataset.n_users, batch_size):
                idx = np.arange(start, min(start + batch_size, dataset.n_users))
                x = self._multi_hot(dataset.batch(idx))
                z = Tensor(self._embed(x))
                logits = self.decode_logits(z).data
                out[idx] = logits[:, cols]
        return out


class MultDAE(_DenseAutoencoderBase):
    """Denoising autoencoder with multinomial likelihood (Mult-DAE, [8]).

    Dropout on the (normalised) input is the corruption; the bottleneck is a
    deterministic linear map.
    """

    name = "Mult-DAE"

    def __init__(self, schema, latent_dim: int = 64, hidden: list[int] | None = None,
                 dropout: float = 0.5, hasher: FeatureHasher | None = None,
                 seed: int = 0) -> None:
        super().__init__(schema, latent_dim, hidden, dropout, hasher, seed)
        self.to_latent = Linear(self.hidden_dims[-1], latent_dim, rng=new_rng(seed + 2))

    def loss_on_batch(self, batch: UserBatch, step: int | None = None):
        x = self._multi_hot(batch)
        z = self.to_latent(self._encode_hidden(x))
        log_probs = F.log_softmax(self.decode_logits(z), axis=-1)
        nll = -(Tensor(x) * log_probs).sum() * (1.0 / x.shape[0])
        return nll, {"loss": nll.item(), "recon": nll.item(), "kl": 0.0, "beta": 0.0}

    def _embed(self, x: np.ndarray) -> np.ndarray:
        return self.to_latent(self._encode_hidden(x)).data


class MultVAE(_DenseAutoencoderBase):
    """Variational autoencoder with multinomial likelihood (Mult-VAE, [8]).

    Single multinomial over the concatenated vocabulary, diagonal-Gaussian
    posterior, and linear KL annealing up to ``beta``.
    """

    name = "Mult-VAE"

    def __init__(self, schema, latent_dim: int = 64, hidden: list[int] | None = None,
                 dropout: float = 0.5, beta: float = 0.2, anneal_steps: int = 2000,
                 hasher: FeatureHasher | None = None, seed: int = 0) -> None:
        super().__init__(schema, latent_dim, hidden, dropout, hasher, seed)
        rng = new_rng(seed + 2)
        self.mu_head = Linear(self.hidden_dims[-1], latent_dim, rng=rng)
        self.logvar_head = Linear(self.hidden_dims[-1], latent_dim, rng=rng)
        self.beta_schedule = LinearAnnealing(beta, anneal_steps)
        self._step = 0

    def posterior(self, x: np.ndarray) -> tuple[Tensor, Tensor]:
        h = self._encode_hidden(x)
        return self.mu_head(h), self.logvar_head(h)

    def loss_on_batch(self, batch: UserBatch, step: int | None = None):
        if step is not None:
            self._step = step
        beta = self.beta_schedule(self._step)
        self._step += 1
        x = self._multi_hot(batch)
        mu, logvar = self.posterior(x)
        eps = Tensor(self._rng.standard_normal(mu.shape).astype(x.dtype))
        z = mu + (logvar * 0.5).exp() * eps if self.training else mu
        log_probs = F.log_softmax(self.decode_logits(z), axis=-1)
        nll = -(Tensor(x) * log_probs).sum() * (1.0 / x.shape[0])
        kl = gaussian_kl(mu, logvar)
        loss = nll + kl * beta
        return loss, {"loss": loss.item(), "recon": nll.item(),
                      "kl": kl.item(), "beta": beta}

    def _embed(self, x: np.ndarray) -> np.ndarray:
        mu, __ = self.posterior(x)
        return mu.data


class RecVAE(MultVAE):
    """RecVAE (Shenbin et al. [23]): composite prior + user-specific β.

    Two deltas over Mult-VAE, following the original paper:

    * the prior is a mixture ``p(z) = γ·N(0, I) + (1−γ)·q_old(z|x)`` where
      ``q_old`` is the posterior under periodically-frozen encoder weights;
      the KL is estimated at the sampled ``z`` (Monte-Carlo) instead of in
      closed form.
    * β is rescaled per user proportionally to the profile size
      (``β_i = β · N_i / N̄``), RecVAE's user-specific regularisation.
    """

    name = "RecVAE"

    def __init__(self, schema, latent_dim: int = 64, hidden: list[int] | None = None,
                 dropout: float = 0.5, beta: float = 0.2, anneal_steps: int = 2000,
                 gamma: float = 0.5, refresh_prior_every: int = 200,
                 hasher: FeatureHasher | None = None, seed: int = 0) -> None:
        super().__init__(schema, latent_dim, hidden, dropout, beta, anneal_steps,
                         hasher, seed)
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1]: {gamma}")
        self.gamma = gamma
        self.refresh_prior_every = refresh_prior_every
        self._old_state: dict[str, np.ndarray] | None = None

    def _old_posterior(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior parameters under the frozen (old) encoder weights."""
        if self._old_state is None:
            zeros = np.zeros((x.shape[0], self.latent_dim), dtype=x.dtype)
            return zeros, zeros
        live = self.state_dict()
        self.load_state_dict(self._old_state)
        with no_grad():
            was_training = self.training
            self.eval()
            mu, logvar = self.posterior(x)
            self.train(was_training)
        self.load_state_dict(live)
        return mu.data, logvar.data

    @staticmethod
    def _log_normal(z: Tensor, mu: np.ndarray, logvar: np.ndarray) -> Tensor:
        """``log N(z; mu, exp(logvar))`` summed over latent dims (z differentiable).

        Per sample: ``-0.5 [ D log 2π + Σ logvar + Σ (z-μ)²/σ² ]``.
        """
        diff = z - Tensor(mu)
        inv_var = Tensor(np.exp(-logvar))
        quad = (diff * diff * inv_var).sum(axis=1)
        log_det = Tensor(logvar.sum(axis=1))
        return (quad + log_det + np.log(2.0 * np.pi) * mu.shape[1]) * (-0.5)

    def loss_on_batch(self, batch: UserBatch, step: int | None = None):
        if step is not None:
            self._step = step
        if self._step % self.refresh_prior_every == 0:
            self._old_state = self.state_dict()
        beta = self.beta_schedule(self._step)
        self._step += 1

        x = self._multi_hot(batch)
        mu, logvar = self.posterior(x)
        eps = Tensor(self._rng.standard_normal(mu.shape).astype(x.dtype))
        z = mu + (logvar * 0.5).exp() * eps if self.training else mu
        log_probs = F.log_softmax(self.decode_logits(z), axis=-1)
        nll = -(Tensor(x) * log_probs).sum() * (1.0 / x.shape[0])

        # Monte-Carlo KL against the composite prior, per user.
        log_q = self._log_q(z, mu, logvar)
        mu_old, logvar_old = self._old_posterior(x)
        log_p_std = self._log_normal(z, np.zeros_like(mu.data), np.zeros_like(mu.data))
        log_p_old = self._log_normal(z, mu_old, logvar_old)
        # log p(z) = logsumexp(log γ + log N(0,I), log(1-γ) + log q_old)
        a = log_p_std + np.log(self.gamma)
        b = log_p_old + np.log1p(-self.gamma)
        m = Tensor(np.maximum(a.data, b.data))  # stabilising constant
        log_p = m + ((a - m).exp() + (b - m).exp()).log()
        kl_per_user = log_q - log_p

        # user-specific beta: proportional to profile size
        sizes = x.sum(axis=1)
        scale = sizes / max(sizes.mean(), 1e-12)
        kl = (kl_per_user * Tensor(beta * scale)).sum() * (1.0 / x.shape[0])
        loss = nll + kl
        return loss, {"loss": loss.item(), "recon": nll.item(),
                      "kl": float(kl_per_user.data.mean()), "beta": beta}

    def _log_q(self, z: Tensor, mu: Tensor, logvar: Tensor) -> Tensor:
        diff = z - mu
        inv_var = (logvar * -1.0).exp()
        quad = (diff * diff * inv_var).sum(axis=1)
        log_det = logvar.sum(axis=1)
        return (quad + log_det + np.log(2.0 * np.pi) * self.latent_dim) * (-0.5)
