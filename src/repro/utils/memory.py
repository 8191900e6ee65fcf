"""Hand heap the allocator keeps free back to the operating system.

glibc keeps freed heap mapped for reuse, and the raised trim threshold
(:data:`repro.nn.init._DRAW_BYTES`) means a finished training run's Adam
moments and step scratch stay resident for the rest of the process.
:func:`release_free_heap` gives them back once, where that state dies
(the end of :meth:`repro.core.fvae.FVAE.fit`).  This module is the one place
in ``src/`` that calls into the C library.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["release_free_heap"]


def _malloc_trim():
    """glibc's ``int malloc_trim(size_t pad)``, or ``None`` under any other C
    library."""
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):   # no process-wide handle (Windows)
        return None
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_TRIM = _malloc_trim()


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def release_free_heap() -> int | None:
    """``malloc_trim(0)``: the resident bytes it released, ``None`` if not glibc."""
    if _TRIM is None:
        return None
    before = _resident_bytes()
    _TRIM(0)
    return max(0, before - _resident_bytes())
