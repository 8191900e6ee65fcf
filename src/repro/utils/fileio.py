"""Crash-safe file IO: atomic writes, content digests and mapped archives.

Every file is written through :func:`_replacing`: a temporary file *in the
target directory* (same filesystem, so the rename is atomic) is flushed,
fsynced and moved into place with ``os.replace``.  Readers see the old file
or the new one, never a torn write, and a reader that mapped the old file
keeps its inode, so its pages never change under it.  Archives
(:func:`atomic_savez`) are *uncompressed* ``.npz`` files whose members
:func:`mmap_npz_members` maps back without a copy; corruption that slips
past the filesystem (bit rot, a truncated copy) is caught by the optional
``<name>.sha256`` sidecar that :func:`verify_digest` checks.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import zipfile
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

__all__ = ["atomic_savez", "digest_path_for", "verify_digest",
           "DigestMismatchError", "mmap_npz_members"]

_DIGEST_SUFFIX = ".sha256"


class DigestMismatchError(IOError):
    """A file's content no longer matches its recorded digest (corruption)."""


def digest_path_for(path: str | Path) -> Path:
    """Sidecar digest path for ``path`` (``model.npz`` → ``model.npz.sha256``)."""
    path = Path(path)
    return path.with_name(path.name + _DIGEST_SUFFIX)


def _fsync_directory(directory: Path) -> None:
    """Flush the directory entry so the rename itself survives a power loss
    (skipped where directories cannot be opened or fsynced)."""
    with suppress(OSError):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """A handle on a same-directory temp file that replaces ``path`` —
    flushed, fsynced and renamed — when the block exits cleanly."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.name}.", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w+b") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def atomic_savez(path: str | Path, arrays: dict[str, np.ndarray],
                 with_digest: bool = True) -> None:
    """Atomically write an uncompressed ``.npz`` archive at exactly ``path``.

    ``np.savez`` streams into the temp file; an object array is refused
    (``ValueError``) first, so no member ever needs unpickling.  With
    ``with_digest`` a ``<name>.sha256`` sidecar of the written bytes follows
    (atomically, after the archive); without it any old sidecar is removed.
    """
    if any(np.asarray(v).dtype.hasobject for v in arrays.values()):
        raise ValueError("object arrays cannot be archived without pickling")
    path = Path(path)
    digest = None
    with _replacing(path) as handle:
        np.savez(handle, **arrays)
        if with_digest:
            handle.seek(0)
            hasher = hashlib.sha256()
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                hasher.update(chunk)
            digest = hasher.hexdigest()
    if digest is None:
        digest_path_for(path).unlink(missing_ok=True)
        return
    with _replacing(digest_path_for(path)) as handle:
        handle.write((digest + "\n").encode())


#: Size of a zip local-file header before the variable-length name/extra
#: fields (PK\x03\x04 signature + 2×5 shorts + 3 ints + 2 length shorts).
_ZIP_LOCAL_HEADER = struct.Struct("<4s5H3I2H")
_ZIP_MAGIC = b"PK\x03\x04"
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def mmap_npz_members(handle: BinaryIO) -> dict[str, np.ndarray]:
    """Memory-map every array stored *uncompressed* in the open ``.npz``.

    An uncompressed zip member is a plain ``.npy`` byte range at a fixed
    offset in the archive, so each array is a read-only view of one
    ``np.memmap`` of the file — zero copies, pages faulted in on first
    touch: serving cold-starts on a large snapshot are near-instant.
    Members that cannot be mapped (compressed, or pickled objects) are left
    out.  Raises ``ValueError`` for members that do not fit the file.
    """
    members: dict[str, np.ndarray] = {}
    whole = None
    with zipfile.ZipFile(handle) as archive:
        for info in archive.infolist():
            if (info.compress_type != zipfile.ZIP_STORED
                    or not info.filename.endswith(".npy")):
                continue
            # The central directory records where the member's *local*
            # header starts; the payload follows that header's fixed part
            # plus its own (possibly different) name/extra fields.
            handle.seek(info.header_offset)
            fields = _ZIP_LOCAL_HEADER.unpack(
                handle.read(_ZIP_LOCAL_HEADER.size))
            if fields[0] != _ZIP_MAGIC:
                raise ValueError(f"{info.filename}: bad local zip header")
            handle.seek(fields[9] + fields[10], os.SEEK_CUR)
            read_header = _NPY_HEADERS.get(np.lib.format.read_magic(handle))
            if read_header is None:
                continue
            shape, fortran, dtype = read_header(handle)
            if dtype.hasobject:
                continue
            start = handle.tell()
            if whole is None:
                whole = np.memmap(handle, dtype=np.uint8, mode="r")
            size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            members[info.filename[:-len(".npy")]] = (
                whole[start:start + size].view(dtype)
                .reshape(shape, order="F" if fortran else "C"))
    return members


def verify_digest(path: str | Path) -> str:
    """Check ``path`` against its sidecar; returns the verified hex digest.

    Raises :class:`DigestMismatchError` when the content does not match,
    and :class:`FileNotFoundError` when there is no sidecar.
    """
    path = Path(path)
    expected = digest_path_for(path).read_text().strip()
    actual = hashlib.sha256(path.read_bytes()).hexdigest()
    if actual != expected:
        raise DigestMismatchError(
            f"digest mismatch for {path}: expected {expected[:12]}…, "
            f"got {actual[:12]}… (file is corrupt or was tampered with)")
    return actual
