"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "xavier_normal", "normal", "zeros", "grow_rows"]

#: Bytes of float64 one ``rng.normal`` call draws while :func:`grow_rows`
#: fills new rows: bounds the draw temporary whatever the table's size.  Not
#: smaller: glibc raises its mmap and heap-trim thresholds to the largest
#: mmapped block freed so far (up to 32 MB).  With 1 MB draws nothing larger
#: than a training step's temporaries was ever freed, so every ``train_kd``
#: step gave ≈ 7.5 MB of heap back to the kernel and faulted it in again
#: (docs/PERFORMANCE.md § "Import footprint").  The heap the raised
#: thresholds keep is handed back once, at the end of ``FVAE.fit``
#: (:func:`repro.utils.memory.release_free_heap`).
_DRAW_BYTES = 16 << 20


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialization for ``(fan_in, fan_out)`` weights."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator,
                  gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier normal initialization."""
    fan_in, fan_out = _fans(shape)
    std = gain * np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


def normal(shape: tuple[int, ...], rng: np.random.Generator,
           std: float = 0.01) -> np.ndarray:
    """Zero-mean Gaussian initialization with fixed standard deviation."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def grow_rows(data: np.ndarray, needed: int, rng: np.random.Generator,
              std: float) -> np.ndarray:
    """``data`` grown to ``max(needed, 2 * len(data))`` rows; new rows ~ N(0, std²).

    The new rows are drawn in bounded row chunks straight into
    ``data.dtype``.  A Generator's normal stream does not depend on how a
    draw is split, and assigning float64 into float32 rounds exactly as
    ``astype`` does, so growing a float32 table gives the bits of growing it
    in float64 and casting afterwards — without the float64 table or the
    full-size draw temporary.
    """
    old, width = data.shape
    grown = np.empty((max(needed, 2 * old), width), dtype=data.dtype)
    grown[:old] = data
    step = max(1, _DRAW_BYTES // (8 * width))
    for start in range(old, grown.shape[0], step):
        block = grown[start:start + step]
        block[...] = rng.normal(0.0, std, size=block.shape)
    return grown


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
