"""Crash-safe file IO: atomic writes and content digests.

A multi-day training run must never be left with a half-written model or
checkpoint after a crash.  Model files and checkpoints go through
:func:`atomic_write_bytes`: the payload is written to a temporary file *in the
target directory* (same filesystem, so the final rename is atomic), flushed
and fsynced, then moved into place with ``os.replace``.  Readers therefore
see either the old file or the new file — never a torn write.  The one
exception is ``EmbeddingStore.save_snapshot``, which writes with ``np.savez``
in place, uncompressed so that the rows can be memory-mapped back
(:func:`mmap_npz_member`).

Corruption that slips past the filesystem (partial disk, bit rot, truncated
copy) is caught by content digests: :func:`atomic_savez` writes a sidecar
``<name>.sha256`` next to the archive and :func:`verify_digest` checks it on
read.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["atomic_write_bytes", "atomic_savez", "digest_of",
           "digest_path_for", "verify_digest", "DigestMismatchError",
           "mmap_npz_member"]

_DIGEST_SUFFIX = ".sha256"


class DigestMismatchError(IOError):
    """A file's content no longer matches its recorded digest (corruption)."""


def digest_of(data: bytes) -> str:
    """Hex SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def digest_path_for(path: str | Path) -> Path:
    """Sidecar digest path for ``path`` (``model.npz`` → ``model.npz.sha256``)."""
    path = Path(path)
    return path.with_name(path.name + _DIGEST_SUFFIX)


def _fsync_directory(directory: Path) -> None:
    """Flush the directory entry so the rename itself survives a power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + fsync + replace)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.name}.", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)
    return path


def atomic_savez(path: str | Path, arrays: dict[str, np.ndarray],
                 with_digest: bool = True) -> str:
    """Atomically write an ``.npz`` archive; returns its hex SHA-256 digest.

    The archive is serialised in memory first so the digest covers exactly
    the bytes on disk.  With ``with_digest`` a ``<name>.sha256`` sidecar is
    written (atomically, after the archive) for :func:`verify_digest`.
    """
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    payload = buffer.getvalue()
    digest = digest_of(payload)
    atomic_write_bytes(path, payload)
    if with_digest:
        atomic_write_bytes(digest_path_for(path), (digest + "\n").encode())
    return digest


#: Size of a zip local-file header before the variable-length name/extra
#: fields (PK\x03\x04 signature + 2×5 shorts + 3 ints + 2 length shorts).
_ZIP_LOCAL_HEADER = struct.Struct("<4s5H3I2H")


def mmap_npz_member(path: str | Path, member: str) -> np.ndarray | None:
    """Memory-map one array stored *uncompressed* inside an ``.npz`` archive.

    An uncompressed (``np.savez``) zip member is a plain ``.npy`` byte range
    at a fixed offset in the archive, so the array payload can be mapped
    directly with ``np.memmap`` — zero copies, zero deserialisation, pages
    faulted in on first touch.  This is what makes serving cold-starts on a
    multi-gigabyte embedding snapshot near-instant.

    Returns ``None`` when the member cannot be mapped (compressed archive,
    Fortran-ordered or pickled payload) — callers fall back to an eager load.
    The mapping is opened read-only; writers must copy first.
    """
    path = Path(path)
    if not member.endswith(".npy"):
        member = member + ".npy"
    try:
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member)
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            with archive.open(info) as stream:
                version = np.lib.format.read_magic(stream)
                if version == (1, 0):
                    header = np.lib.format.read_array_header_1_0(stream)
                elif version == (2, 0):
                    header = np.lib.format.read_array_header_2_0(stream)
                else:
                    return None
                shape, fortran, dtype = header
                header_size = stream.tell()
        if fortran or dtype.hasobject:
            return None
        # The central directory records where the member's *local* header
        # starts; the payload follows that header's fixed part plus its own
        # (possibly different) name/extra fields.
        with open(path, "rb") as raw:
            raw.seek(info.header_offset)
            fields = _ZIP_LOCAL_HEADER.unpack(
                raw.read(_ZIP_LOCAL_HEADER.size))
        if fields[0] != b"PK\x03\x04":
            return None
        name_len, extra_len = fields[9], fields[10]
        data_offset = (info.header_offset + _ZIP_LOCAL_HEADER.size
                       + name_len + extra_len + header_size)
        return np.memmap(path, dtype=dtype, mode="r", offset=data_offset,
                         shape=shape, order="C")
    except (KeyError, OSError, ValueError, zipfile.BadZipFile):
        return None


def verify_digest(path: str | Path, expected: str | None = None) -> str:
    """Check ``path`` against its digest; returns the verified hex digest.

    ``expected`` overrides the sidecar file.  Raises
    :class:`DigestMismatchError` when the content does not match, and
    :class:`FileNotFoundError` when no digest source is available.
    """
    path = Path(path)
    if expected is None:
        expected = digest_path_for(path).read_text().strip()
    actual = digest_of(path.read_bytes())
    if actual != expected:
        raise DigestMismatchError(
            f"digest mismatch for {path}: expected {expected[:12]}…, "
            f"got {actual[:12]}… (file is corrupt or was tampered with)")
    return actual
