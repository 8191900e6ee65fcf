"""Figure 10 — speedup via distributed computing (3–12 servers).

Expected shape (paper): speedup grows almost linearly with the number of
servers.  The simulator measures real shard compute and models ring-allreduce
synchronisation (see :mod:`repro.distributed`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import FVAE
from repro.data import make_kd_like
from repro.distributed import DistributedTrainingSimulator
from repro.experiments.common import ExperimentScale, fvae_config_for
from repro.viz import format_series

__all__ = ["Fig10Result", "run_fig10"]


@dataclass
class Fig10Result:
    workers: list[int]
    speedups: list[float]

    def to_text(self) -> str:
        return format_series(self.workers, {"speedup": self.speedups},
                             x_label="servers",
                             title="Figure 10 — distributed speedup (KD-like)")

    def is_monotone(self) -> bool:
        return all(b >= a for a, b in zip(self.speedups, self.speedups[1:]))


def run_fig10(scale: ExperimentScale | None = None,
              workers: tuple[int, ...] = (3, 6, 9, 12)) -> Fig10Result:
    """Measure the simulated speedup curve on KD-like data."""
    scale = scale or ExperimentScale(n_users=6000, latent_dim=32)
    syn = make_kd_like(n_users=scale.n_users, seed=scale.seed)
    dataset = syn.dataset

    def factory():
        return FVAE(dataset.schema,
                    fvae_config_for(scale,
                                    encoder_hidden=[2 * scale.latent_dim],
                                    decoder_hidden=[2 * scale.latent_dim]))

    simulator = DistributedTrainingSimulator(factory, dataset)
    curve = simulator.speedup_curve(list(workers), epochs=1,
                                    batch_size=scale.batch_size, lr=scale.lr,
                                    rng=scale.seed)
    return Fig10Result(workers=list(workers),
                       speedups=[curve[w] for w in workers])
