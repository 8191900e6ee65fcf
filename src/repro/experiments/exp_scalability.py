"""Figure 9 — scalability on Barabási–Albert synthetic data.

Two sweeps, as in the paper: (a) vary the *average* profile size with the max
feature vocabulary fixed; (b) vary the *max* vocabulary with the average
profile size fixed.  Expected shape: runtime grows linearly with the average
feature size and stays flat with the max feature size — i.e. the FVAE's cost
is driven by observed features, not by J.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from time import perf_counter

from repro.core import FVAE, Trainer
from repro.data import barabasi_albert_profiles
from repro.experiments.common import ExperimentScale, fvae_config_for
from repro.viz import format_series

__all__ = ["Fig9Result", "run_fig9"]


@dataclass
class Fig9Result:
    avg_sizes: list[int]
    time_by_avg: list[float]
    max_sizes: list[int]
    time_by_max: list[float]

    def to_text(self) -> str:
        a = format_series(self.avg_sizes, {"s/epoch": self.time_by_avg},
                          x_label="avg feature size",
                          title="Figure 9a — runtime vs average feature size "
                                "(max fixed)")
        b = format_series(self.max_sizes, {"s/epoch": self.time_by_max},
                          x_label="max feature size",
                          title="Figure 9b — runtime vs max feature size "
                                "(avg fixed)")
        return f"{a}\n\n{b}"

    def linear_fit_r2_avg(self) -> float:
        """R² of a linear fit to runtime-vs-average-size (should be ≈1)."""
        import numpy as np

        x = np.asarray(self.avg_sizes, dtype=float)
        y = np.asarray(self.time_by_avg)
        coeffs = np.polyfit(x, y, deg=1)
        pred = np.polyval(coeffs, x)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    def max_size_slowdown(self) -> float:
        """Largest/smallest runtime over the max-size sweep (should be ≈1)."""
        return max(self.time_by_max) / min(self.time_by_max)


# Fixed-work timing: one untimed warm-up epoch per point (hash tables fill,
# Adam allocates its moments) sizes its timed run to at least _MIN_POINT_S
# of whole epochs; then _REPEATS rounds time every point once each, and a
# point keeps its best round.  Rounds interleave the points, so a slow spell
# of the host lands on all of them rather than on one.  A single cold epoch
# (25-150 ms here) was mostly start-up and noise, which swamped the slope
# Fig 9a asserts.
_REPEATS = 3
_MIN_POINT_S = 1.0


def _epoch_timer(dataset, scale: ExperimentScale):
    """Warm a fresh model up on ``dataset``; return ``timed()``, which
    trains a fixed number of epochs and returns seconds per epoch."""
    model = FVAE(dataset.schema,
                 fvae_config_for(scale, sampling_rate=1.0,
                                 encoder_hidden=[2 * scale.latent_dim],
                                 decoder_hidden=[2 * scale.latent_dim]))
    trainer = Trainer(model, lr=scale.lr)

    def run(epochs: int) -> float:
        start = perf_counter()
        trainer.fit(dataset, epochs=epochs, batch_size=scale.batch_size,
                    rng=scale.seed)
        return (perf_counter() - start) / epochs

    epochs = max(1, ceil(_MIN_POINT_S / run(1)))
    return lambda: run(epochs)


def run_fig9(scale: ExperimentScale | None = None,
             avg_sizes: tuple[int, ...] = (25, 50, 100, 200),
             fixed_max: int = 20_000,
             max_sizes: tuple[int, ...] = (2_000, 10_000, 50_000, 100_000),
             fixed_avg: int = 50) -> Fig9Result:
    """Generate BA data per sweep point and time FVAE training epochs."""
    scale = scale or ExperimentScale(n_users=1500, latent_dim=32)
    points = [(avg, fixed_max) for avg in avg_sizes] \
        + [(fixed_avg, max_size) for max_size in max_sizes]
    timers = [_epoch_timer(barabasi_albert_profiles(
        scale.n_users, avg_features=avg, max_features=max_size,
        seed=scale.seed), scale) for avg, max_size in points]
    rounds = [[timed() for timed in timers] for __ in range(_REPEATS)]
    best = [min(times) for times in zip(*rounds)]
    return Fig9Result(avg_sizes=list(avg_sizes),
                      time_by_avg=best[:len(avg_sizes)],
                      max_sizes=list(max_sizes),
                      time_by_max=best[len(avg_sizes):])
