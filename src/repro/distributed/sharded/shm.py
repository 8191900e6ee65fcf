"""Named shared-memory slabs with strict ownership and cleanup semantics.

The sharded parameter server keeps every parameter shard in a
``multiprocessing.shared_memory`` segment laid out as one contiguous
``(n_rows, dim)`` matrix — the PR-5 columnar format — so workers
read parameter rows as zero-copy numpy views instead of deserialising
messages.

Cleanup is where naive ``shared_memory`` use leaks:

* the **creator process owns the segment**: :func:`create` registers every
  slab in a pid-guarded atexit hook, so segments are unlinked exactly once
  even if the driver dies before its explicit teardown — and *never* by a
  forked child that inherited the registry (the hook no-ops off-pid);
* workers never open a segment by name: they inherit the driver's mappings
  through ``fork``, so a worker exiting — cleanly or via SIGKILL — neither
  unlinks a live segment nor registers one with the ``resource_tracker``;
* :func:`active_segments` scans ``/dev/shm`` for this module's name prefix,
  which is what the test-suite leak check diffs before/after each test.
"""

from __future__ import annotations

import atexit
import os
import secrets
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

__all__ = ["Slab", "create", "active_segments", "SHM_PREFIX"]

#: Every segment this repo creates carries this name prefix, so leak scans
#: never confuse our slabs with segments owned by other software.
SHM_PREFIX = "repro_shm_"

_DEV_SHM = Path("/dev/shm")

#: Creator-side registry: slabs to unlink at interpreter exit, guarded by the
#: creating pid so forked children inheriting this module state do nothing.
_OWNED: dict[str, "Slab"] = {}
_OWNER_PID = os.getpid()


class Slab:
    """One shared-memory segment, owned by the process that created it,
    viewed as a numpy array."""

    def __init__(self, shm: shared_memory.SharedMemory, shape: tuple,
                 dtype: np.dtype) -> None:
        self._shm = shm
        self.name = shm.name
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.array = np.ndarray(self.shape, dtype=self.dtype, buffer=shm.buf)

    def close(self) -> None:
        """Drop the local mapping and unlink the segment."""
        self.array = None
        try:
            self._shm.close()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        _OWNED.pop(self.name, None)
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass

    def __repr__(self) -> str:
        return f"Slab({self.name!r}, shape={self.shape}, dtype={self.dtype})"


def create(shape: tuple, dtype=np.float64) -> Slab:
    """Create a zero-initialised named slab owned by this process."""
    dtype = np.dtype(dtype)
    nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
    name = SHM_PREFIX + secrets.token_hex(8)
    shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
    slab = Slab(shm, shape, dtype)
    slab.array.fill(0)
    _OWNED[slab.name] = slab
    return slab


def active_segments() -> set[str]:
    """Names of live ``/dev/shm`` segments created by this module."""
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in _DEV_SHM.iterdir()
            if p.name.startswith(SHM_PREFIX)}


@atexit.register
def _cleanup_owned() -> None:  # pragma: no cover - interpreter teardown
    if os.getpid() != _OWNER_PID:
        return  # forked child inheriting the registry: not the owner
    for slab in list(_OWNED.values()):
        slab.close()
