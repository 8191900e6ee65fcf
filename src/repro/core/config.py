"""Configuration for the Field-aware VAE."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FVAEConfig"]


@dataclass
class FVAEConfig:
    """Hyper-parameters of the FVAE (§IV).

    Attributes
    ----------
    latent_dim:
        Dimension ``D`` of the latent user representation ``z``.
    encoder_hidden / decoder_hidden:
        Hidden layer widths of the encoder MLP ``g_φ`` and the shared decoder
        trunk ``f_θ`` (the per-field output layers are separate, Eq. 2).
    activation:
        Nonlinearity of both MLPs.
    alpha:
        Per-field reconstruction weights ``α_k`` (Eq. 7).  ``None`` means all
        ones (the paper's recommended default); missing fields default to 1.
    beta:
        Peak weight of the KL term.  With ``anneal_steps > 0`` the effective
        β is annealed linearly from 0 to this value (the annealing of [8]).
    anneal_steps:
        Number of gradient steps over which β ramps up; 0 disables annealing.
    sampling_rate:
        Feature-sampling rate ``r`` (§IV-C3) applied to fields whose spec has
        ``sample=True``.  ``1.0`` disables sampling (batched softmax only).
    sampler:
        Sampling strategy name: ``uniform`` (paper's choice), ``frequency``
        or ``zipfian`` (Fig 5 comparison).
    input_weighting:
        How multi-hot weights enter the encoder: ``"binary"``, ``"log1p"``
        or ``"l2"`` (log1p then per-field L2 normalisation; default).
    input_dropout:
        Dropout probability on the aggregated first-layer output.
    feature_dropout:
        Denoising corruption on the sparse input: each observed feature is
        dropped with this probability during training (the sparse analogue of
        Mult-VAE's input dropout; crucial for fold-in robustness).
    embedding_capacity:
        Initial row capacity of each dynamic-hash-table embedding; tables
        grow geometrically as new feature ids arrive.
    binarize_targets:
        Reconstruct the multi-hot structure (``F_ij ∈ {0,1}``) instead of raw
        counts.  Following Liang et al. [8], binary targets spread gradient
        evenly over a user's features, which helps long-tail ranking.
    batched_softmax:
        When False the decoder computes the softmax over the *entire* known
        vocabulary each step (ablation; this is what makes Mult-VAE slow).
    seed:
        Seed for parameter init, sampling, and the reparametrisation noise.
    """

    latent_dim: int = 64
    encoder_hidden: list[int] = field(default_factory=lambda: [256])
    decoder_hidden: list[int] = field(default_factory=lambda: [256])
    activation: str = "tanh"
    alpha: dict[str, float] | None = None
    beta: float = 0.2
    anneal_steps: int = 2000
    sampling_rate: float = 1.0
    sampler: str = "uniform"
    input_weighting: str = "l2"
    input_dropout: float = 0.1
    feature_dropout: float = 0.5
    embedding_capacity: int = 1024
    binarize_targets: bool = True
    batched_softmax: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latent_dim <= 0:
            raise ValueError(f"latent_dim must be positive: {self.latent_dim}")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate must be in (0, 1]: {self.sampling_rate}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative: {self.beta}")
        if self.sampler not in ("uniform", "frequency", "zipfian"):
            raise ValueError(f"unknown sampler '{self.sampler}'")
        if self.input_weighting not in ("binary", "log1p", "l2"):
            raise ValueError(f"unknown input_weighting '{self.input_weighting}'")
        if self.anneal_steps < 0:
            raise ValueError(f"anneal_steps must be non-negative: {self.anneal_steps}")
        if not 0.0 <= self.feature_dropout < 1.0:
            raise ValueError(f"feature_dropout must be in [0, 1): {self.feature_dropout}")
        if self.embedding_capacity <= 0:
            raise ValueError(f"embedding_capacity must be positive: {self.embedding_capacity}")
