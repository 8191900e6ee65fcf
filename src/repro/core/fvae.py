"""The Field-aware Variational Autoencoder (FVAE) — the paper's contribution.

The FVAE models each feature field with an *independent multinomial
distribution* (Eq. 1–2): the encoder aggregates all fields into one latent
Gaussian ``z``, and the decoder shares an MLP trunk whose output feeds one
softmax head per field.  The ELBO (Eq. 7) weighs per-field reconstruction
terms with ``α_k`` and the KL term with an annealed ``β``.

Training-time efficiency comes from three mechanisms (§IV-C), all of which
are first-class here:

1. dynamic hash tables index embedding/output rows by raw feature id;
2. the batched softmax restricts each step's softmax to the features observed
   in the batch;
3. feature sampling thins that candidate set further for super-sparse fields.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import UserRepresentationModel
from repro.core.annealing import BetaSchedule, LinearAnnealing
from repro.core.config import FVAEConfig
from repro.core.decoder import FieldAwareDecoder
from repro.core.encoder import FieldAwareEncoder
from repro.data.dataset import MultiFieldDataset, UserBatch
from repro.data.fields import FieldSchema
from repro.nn import gaussian_kl
from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.obs import runtime as obs
from repro.sampling import get_sampler, select_candidates
from repro.utils.memory import release_free_heap
from repro.utils.rng import new_rng

__all__ = ["FVAE"]


class FVAE(Module, UserRepresentationModel):
    """Field-aware VAE over a :class:`~repro.data.fields.FieldSchema`.

    Parameters
    ----------
    schema:
        The fields the model consumes and reconstructs.
    config:
        Hyper-parameters; see :class:`~repro.core.config.FVAEConfig`.
    """

    name = "FVAE"

    def __init__(self, schema: FieldSchema, config: FVAEConfig | None = None) -> None:
        super().__init__()
        self.schema = schema
        self.config = config or FVAEConfig()
        cfg = self.config
        rng = new_rng(cfg.seed)

        self.encoder = FieldAwareEncoder(
            schema, cfg.encoder_hidden, cfg.latent_dim,
            activation=cfg.activation, input_weighting=cfg.input_weighting,
            capacity=cfg.embedding_capacity, dropout=cfg.input_dropout,
            feature_dropout=cfg.feature_dropout, rng=rng)
        tables = {spec.name: self.encoder.bag(spec.name).table for spec in schema}
        self.decoder = FieldAwareDecoder(
            schema, cfg.latent_dim, cfg.decoder_hidden, tables,
            activation=cfg.activation, capacity=cfg.embedding_capacity, rng=rng)

        alphas = dict(schema.alphas())
        if cfg.alpha:
            alphas.update(cfg.alpha)
        unknown = set(cfg.alpha or ()) - set(schema.names)
        if unknown:
            raise ValueError(f"alpha given for unknown fields: {sorted(unknown)}")
        self._alphas = {name: float(alphas[name]) for name in schema.names}
        alpha_norm = sum(abs(a) for a in self._alphas.values())
        if alpha_norm <= 0:
            raise ValueError("at least one field must have a positive alpha")
        self._alpha_norm = alpha_norm

        self.beta_schedule: BetaSchedule = LinearAnnealing(cfg.beta, cfg.anneal_steps)
        self._sampler = get_sampler(cfg.sampler)
        self._rng = new_rng(cfg.seed + 1 if isinstance(cfg.seed, int) else cfg.seed)
        self._step = 0

    # -- training --------------------------------------------------------------

    def reparameterize(self, mu: Tensor, logvar: Tensor, sample: bool,
                       noise: np.ndarray | None = None) -> Tensor:
        """``z = μ + σ·ε`` with ``ε ~ N(0, I)`` (the reparametrisation trick).

        ``noise`` injects a pre-drawn ``ε`` instead of consuming ``self._rng``
        — the sharded trainer draws the noise driver-side (in reference
        order) and ships each worker its slice, so worker processes touch no
        RNG at all.
        """
        if not sample:
            return mu
        if noise is None:
            # float64 draw regardless of model dtype: the noise stream (and
            # its consumption order) is part of the run's determinism
            # contract.
            noise = self._rng.standard_normal(mu.shape)
        eps = noise.astype(mu.data.dtype, copy=False)
        return mu + (logvar * 0.5).exp() * Tensor(eps)

    def _field_candidates(self, batch: UserBatch) -> dict[str, np.ndarray]:
        """Candidate feature ids per field (batched softmax + feature sampling)."""
        out: dict[str, np.ndarray] = {}
        cfg = self.config
        for spec in self.schema:
            fb = batch.fields.get(spec.name)
            if fb is None or fb.indices.size == 0:
                continue
            if not cfg.batched_softmax:
                # ablation: softmax over every feature known so far
                ids, __ = self.encoder.bag(spec.name).feature_rows()
                out[spec.name] = np.sort(ids)
                continue
            rate = cfg.sampling_rate if (spec.sample and self.training) else 1.0
            out[spec.name] = select_candidates(fb, rate, self._sampler, self._rng,
                                               field=spec.name)
        return out

    def elbo_components(self, batch: UserBatch, beta: float | None = None, *,
                        candidates: dict[str, np.ndarray] | None = None,
                        noise: np.ndarray | None = None,
                        recon_scale: float | None = None,
                        kl_weight: float = 1.0,
                        ) -> tuple[Tensor, dict[str, float]]:
        """Negative ELBO (Eq. 7) for one batch, plus scalar diagnostics.

        The encoder forward pass inserts any new feature ids into the dynamic
        hash tables (training mode), so the decoder candidate lookup below is
        guaranteed to find a row for every batch feature.

        The keyword-only hooks exist for the sharded data-parallel trainer,
        which computes this loss on a *slice* of a global batch: it injects
        the driver-drawn ``candidates`` and ``noise`` (so workers consume no
        RNG), scales reconstruction by the *global* batch size via
        ``recon_scale``, and weighs the (batch-mean) KL by the slice's share
        of the global batch via ``kl_weight``.  With all four left at their
        defaults the computation is bit-identical to the original
        single-process loss.
        """
        if beta is None:
            beta = self.beta_schedule(self._step)
        mu, logvar = self.encoder(batch)
        z = self.reparameterize(mu, logvar, sample=self.training, noise=noise)
        trunk = self.decoder.trunk(z)

        scale = 1.0 / batch.n_users if recon_scale is None else recon_scale
        if candidates is None:
            candidates = self._field_candidates(batch)
        fields: list[str] = []
        field_rows: list[np.ndarray] = []
        targets = []
        for field, cand in candidates.items():
            table = self.encoder.bag(field).table
            rows = table.rows_for_ids(cand)
            known = rows >= 0
            if not known.all():      # eval on unseen ids: score only known ones
                cand, rows = cand[known], rows[known]
            if cand.size == 0:
                continue
            fields.append(field)
            field_rows.append(rows)
            targets.append(batch.fields[field].csr_targets(
                cand, binarize=self.config.binarize_targets))

        diagnostics: dict[str, float] = {}
        if fields:
            nlls = self.decoder.recon_nll(trunk, fields, field_rows, targets,
                                          scale=scale)
            for k, field in enumerate(fields):
                term = nlls[k] * (self._alphas[field] / self._alpha_norm)
                recon = term if k == 0 else recon + term
                diagnostics[f"nll_{field}"] = float(nlls.data[k])
                diagnostics[f"candidates_{field}"] = float(field_rows[k].size)
        else:
            recon = mu.sum() * 0.0  # keeps the graph alive for degenerate batches
        kl = gaussian_kl(mu, logvar)
        # beta * 1.0 is bit-exact, so the default weight changes nothing.
        loss = recon + kl * (beta * kl_weight)
        diagnostics.update(recon=recon.item(), kl=kl.item(), beta=beta, loss=loss.item())
        return loss, diagnostics

    def loss_on_batch(self, batch: UserBatch, step: int | None = None,
                      ) -> tuple[Tensor, dict[str, float]]:
        """Trainer hook: advance the annealing step and compute the loss."""
        if step is not None:
            self._step = step
        loss, diag = self.elbo_components(batch)
        self._step += 1
        return loss, diag

    # -- UserRepresentationModel interface ------------------------------------

    def initialize_from_dataset(self, dataset: MultiFieldDataset) -> "FVAE":
        """Register every observed feature and set output biases to log-counts.

        Initialising each head's bias at the feature's log-popularity makes
        the batched softmax start from the marginal feature distribution —
        the same log-prior initialisation classic sampled-softmax systems use.
        Without it, rarely-sampled features would need many epochs just to
        learn the popularity baseline.
        """
        for spec in self.schema:
            counts = dataset.feature_popularity(spec.name)
            observed = np.flatnonzero(counts)
            if observed.size == 0:
                continue
            bag = self.encoder.bag(spec.name)
            rows = bag.lookup(observed, grow=True)
            head = self.decoder.head(spec.name)
            head.ensure_capacity(int(rows.max()) + 1)
            head.bias.data[rows] = np.log(counts[observed] / counts.sum())
        return self

    def fit(self, dataset: MultiFieldDataset, epochs: int = 10,
            batch_size: int = 512, lr: float = 1e-3, verbose: bool = False,
            warm_start_bias: bool = True, **trainer_kwargs) -> "FVAE":
        """Train with the standard :class:`~repro.core.trainer.Trainer` loop.

        When ``fit`` returns, the heap its trainer freed (Adam's moments, the
        step scratch) goes back to the operating system: the trim thresholds
        raised for the step loop (:data:`repro.nn.init._DRAW_BYTES`) would
        otherwise keep it resident for the rest of the process.  The gauge
        ``trainer.heap_released_mb`` records how much that was.
        """
        from repro.core.trainer import Trainer

        self.check_schema(dataset)
        # `precision` must reach the Trainer constructor (the cast has to
        # precede optimizer construction); everything else goes to fit().
        # Casting before the warm start grows the tables at the training
        # precision: the same bits as growing in float64 and casting after
        # (see repro.nn.init.grow_rows), without the float64 tables.
        trainer = Trainer(self, lr=lr,
                          precision=trainer_kwargs.pop("precision", "float32"))
        if warm_start_bias:
            self.initialize_from_dataset(dataset)
        self.history = trainer.fit(dataset, epochs=epochs, batch_size=batch_size,
                                   verbose=verbose, **trainer_kwargs)
        del trainer     # frees the optimizer moments into the heap
        released = release_free_heap()
        if released is not None:
            obs.gauge_set("trainer.heap_released_mb", released / 2 ** 20)
        return self

    def check_schema(self, dataset: MultiFieldDataset) -> None:
        """Raise ``ValueError`` unless ``dataset`` has the model's fields."""
        if dataset.schema != self.schema:
            raise ValueError(f"dataset schema {dataset.schema!r} does not match "
                             f"the model's schema {self.schema!r}")

    def encode_batch(self, batch: UserBatch) -> tuple[np.ndarray, np.ndarray]:
        """Posterior ``(mu, logvar)`` arrays for one batch (eval semantics).

        Runs the raw-array forward (:meth:`FieldAwareEncoder.forward_arrays`)
        — no autograd Tensors, no backward closures, whatever the module's
        training flag — which is bit-identical to the eval Tensor forward
        (guarded by the ``core.encoder.inference_vs_autograd`` oracle).
        """
        return self.encoder.forward_arrays(batch)

    def embed_users(self, dataset: MultiFieldDataset,
                    batch_size: int = 2048) -> np.ndarray:
        """Posterior means ``μ(u_i)`` for every user — the user representation."""
        self.check_schema(dataset)
        self.eval()
        out = np.empty((dataset.n_users, self.config.latent_dim))
        for start in range(0, dataset.n_users, batch_size):
            idx = np.arange(start, min(start + batch_size, dataset.n_users))
            mu, __ = self.encode_batch(dataset.batch(idx))
            out[idx] = mu
        return out

    def embed_users_with_uncertainty(self, dataset: MultiFieldDataset,
                                     batch_size: int = 2048,
                                     ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(μ, σ)`` — position and uncertainty of each user (§III)."""
        self.check_schema(dataset)
        self.eval()
        mu_out = np.empty((dataset.n_users, self.config.latent_dim))
        sigma_out = np.empty_like(mu_out)
        for start in range(0, dataset.n_users, batch_size):
            idx = np.arange(start, min(start + batch_size, dataset.n_users))
            mu, logvar = self.encode_batch(dataset.batch(idx))
            mu_out[idx] = mu
            sigma_out[idx] = np.exp(0.5 * logvar)
        return mu_out, sigma_out

    def score_field(self, dataset: MultiFieldDataset, field: str,
                    batch_size: int = 2048) -> np.ndarray:
        """Dense log-probability scores over the full vocabulary of ``field``.

        Features the model has never seen score a large negative constant
        (they cannot be ranked above any known feature).
        """
        spec = self.schema[field]
        z = self.embed_users(dataset, batch_size=batch_size)
        ids, __, logits = self.decoder.full_scores(z, field)
        scores = np.full((dataset.n_users, spec.vocab_size), -1e9)
        if ids.size:
            scores[:, ids] = logits
        return scores
