"""Shared utilities: deterministic RNG plumbing, timers, atomic file IO."""

from repro.utils.fileio import (DigestMismatchError, atomic_savez,
                                mmap_npz_members, verify_digest)
from repro.utils.rng import (capture_rng_tree, get_generator_state, new_rng,
                             restore_rng_tree, set_generator_state, spawn_rngs)
from repro.utils.timer import ManualClock, Timer, timed

__all__ = ["new_rng", "spawn_rngs", "ManualClock", "Timer", "timed",
           "get_generator_state", "set_generator_state",
           "capture_rng_tree", "restore_rng_tree",
           "atomic_savez", "verify_digest", "DigestMismatchError"]
