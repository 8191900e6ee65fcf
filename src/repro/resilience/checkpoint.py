"""Crash-safe archives: one codec for every file the system persists.

The paper's production FVAE trains for days on a parameter-server cluster
(§IV-D); at that horizon a lost worker or pre-empted job is routine, and a
training system that cannot resume is a training system that loses days of
work.  The trained model ships to serving as weights plus dynamic hash
tables, and the embeddings as store snapshots that servers map.  Training
checkpoints, model files, store snapshots and ``repro embed`` output all
use the one codec here:

* :func:`write_archive` writes an *uncompressed* ``.npz`` atomically
  (:func:`repro.utils.fileio.atomic_savez`: temp file, fsync,
  ``os.replace``), so a crash mid-save never corrupts the previous archive
  and a reader that mapped it keeps its pages; every archive but a store
  snapshot also gets a ``.sha256`` sidecar;
* :func:`read_archive` checks that sidecar whenever it exists, parses the
  JSON ``meta`` member and its ``format_version``, hands the members back
  as read-only maps of the file, and raises :class:`CheckpointError` for
  every failure — missing, truncated, garbage, bit-rotten, pickled or of
  another format.  No member is ever unpickled: :func:`key_array` stores
  keys as ``int64`` or unicode arrays.

:class:`Checkpointer` adds path naming, a retention policy (the last
``keep_last`` archives) and its ``checkpoint.*`` metrics;
:meth:`Checkpointer.latest` falls back to the newest *valid* checkpoint.

The *content* of a training checkpoint (model parameters, optimizer moments,
hash tables, RNG states, epoch/batch cursor) is assembled by
:meth:`repro.core.trainer.Trainer.fit`; the helpers here
(:func:`model_state_arrays` / :func:`restore_model_state`) capture and restore
the model-side state for any :class:`~repro.nn.layers.Module`-shaped model,
FVAE dynamic hash tables included, for checkpoints and model files alike
(:mod:`repro.core.serialization`).
"""

from __future__ import annotations

import json
import logging
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable

import numpy as np

from repro.obs import runtime as obs
from repro.utils.fileio import (atomic_savez, digest_path_for,
                                mmap_npz_members, verify_digest)

__all__ = ["CheckpointError", "Checkpoint", "Checkpointer", "read_archive",
           "write_archive", "key_array", "check_resume_batch_size",
           "model_state_arrays", "restore_model_state"]

logger = logging.getLogger(__name__)

FORMAT_VERSION = 2

_META = "meta"
_ZIP_MAGIC = b"PK\x03\x04"
_TABLE_KEYS = "table_keys/"
_PARAM = "param/"

#: What a truncated, garbage or bit-rotten archive raises on the way in.
_READ_ERRORS = (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error)


class CheckpointError(RuntimeError):
    """A checkpoint or model archive cannot be read or restored: missing,
    corrupt, of another format, or not fitting the model."""


@dataclass
class Checkpoint:
    """One loaded archive: its path, parsed metadata, and raw arrays."""

    path: Path
    meta: dict
    arrays: dict[str, np.ndarray]

    @property
    def step(self) -> int:
        return int(self.meta["step"])


class Checkpointer:
    """Atomic, digest-verified, retention-bounded checkpoint store.

    Parameters
    ----------
    directory:
        Where archives live (created on first save).
    keep_last:
        Retention: after a successful save, only the newest ``keep_last``
        checkpoints (and their digests) are kept.
    prefix:
        Archive name prefix; files are ``<prefix>-step<NNNNNNNNNN>.npz``.
    """

    def __init__(self, directory: str | Path, keep_last: int = 3,
                 prefix: str = "ckpt") -> None:
        if keep_last <= 0:
            raise ValueError(f"keep_last must be positive: {keep_last}")
        self.directory = Path(directory)
        self.keep_last = keep_last
        self.prefix = prefix

    # -- writing ---------------------------------------------------------------

    def path_for(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-step{step:010d}.npz"

    def save(self, arrays: dict[str, np.ndarray], meta: dict, step: int) -> Path:
        """Atomically persist one checkpoint and apply the retention policy."""
        path = self.path_for(step)
        with obs.latency("checkpoint.save_seconds"):
            write_archive(path, arrays, dict(meta, step=int(step)))
        obs.count("checkpoint.saves")
        obs.gauge_set("checkpoint.bytes", float(path.stat().st_size))
        self._prune()
        return path

    def _prune(self) -> None:
        stale = self.checkpoint_paths()[:-self.keep_last]
        for path in stale:
            path.unlink(missing_ok=True)
            digest_path_for(path).unlink(missing_ok=True)
            obs.count("checkpoint.pruned")

    # -- reading ---------------------------------------------------------------

    def checkpoint_paths(self) -> list[Path]:
        """All archive paths in this store, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"{self.prefix}-step*.npz"))

    def load(self, path: str | Path) -> Checkpoint:
        """:func:`read_archive`, counting failures as ``checkpoint.corrupt``."""
        try:
            return read_archive(path)
        except CheckpointError:
            obs.count("checkpoint.corrupt")
            raise

    def latest(self) -> Checkpoint | None:
        """Newest *valid* checkpoint, skipping (and logging) corrupt ones."""
        for path in reversed(self.checkpoint_paths()):
            try:
                return self.load(path)
            except CheckpointError as exc:
                logger.warning("skipping unreadable checkpoint: %s", exc)
        return None


def write_archive(path: str | Path, arrays: dict[str, np.ndarray],
                  meta: dict, with_digest: bool = True) -> Path:
    """Atomically write ``arrays`` plus JSON ``meta`` (stamped with the
    format version) as one uncompressed ``.npz`` at exactly ``path``, with a
    ``.sha256`` sidecar unless ``with_digest`` is false.  An object-dtype
    member is refused with ``ValueError``."""
    payload = dict(arrays)
    payload[_META] = np.asarray(
        json.dumps({**meta, "format_version": FORMAT_VERSION}))
    path = Path(path)
    atomic_savez(path, payload, with_digest=with_digest)
    return path


def read_archive(path: str | Path) -> Checkpoint:
    """Load and verify one archive; raises :class:`CheckpointError`.
    Members are read-only maps of the file, or eager reads where a member
    cannot be mapped (a compressed one)."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"no archive at {path}")
    try:
        if digest_path_for(path).exists():
            verify_digest(path)
        # One open file for every read below, so a concurrent os.replace
        # cannot mix members of two versions.
        with open(path, "rb") as handle:
            # np.load would return a bare .npy file as an array.
            if handle.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
                raise CheckpointError(f"{path} is not an .npz archive")
            handle.seek(0)
            with np.load(handle, allow_pickle=False) as payload:
                if _META not in payload.files:
                    raise CheckpointError(
                        f"{path} is not an archive of this format: no "
                        f"'{_META}' entry")
                meta = json.loads(str(payload[_META]))
                version = (meta.get("format_version")
                           if isinstance(meta, dict) else None)
                if version != FORMAT_VERSION:
                    raise CheckpointError(f"{path} has format {version}; "
                                          f"this build reads {FORMAT_VERSION}")
                mapped = mmap_npz_members(handle)
                arrays = {name: mapped[name] if name in mapped
                          else payload[name]
                          for name in payload.files if name != _META}
    except _READ_ERRORS as exc:
        raise CheckpointError(f"{path} is unreadable: {exc}") from exc
    return Checkpoint(path=path, meta=meta, arrays=arrays)


def key_array(keys: Iterable[Hashable]) -> np.ndarray:
    """Archive form of ``keys``: ``int64`` when every key is an integer,
    unicode when every key is a ``str`` (``.tolist()`` gives them back);
    any other key type is a ``ValueError``."""
    keys = list(keys)
    kinds = set(map(type, keys))
    if all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
        return np.array(keys, dtype=np.int64)
    if all(issubclass(k, str) for k in kinds):
        return np.array(keys, dtype=np.str_)
    raise ValueError(f"cannot archive keys of types "
                     f"{sorted(k.__name__ for k in kinds)}: keys must be all "
                     f"integers or all str")


def check_resume_batch_size(meta: dict, order: np.ndarray | None,
                            batch_size: int) -> None:
    """Refuse to resume a mid-epoch checkpoint at another batch size.

    The saved cursor counts batches, and every batch before it was full
    except a ragged last one, so ``n_seen`` (users trained so far this
    epoch) pins the size the checkpoint was taken at.  Resuming at any
    other size would skip or repeat users of the interrupted epoch.
    """
    cursor = int(meta.get("cursor", 0))
    if cursor <= 0 or order is None:
        return
    n_seen, n_users = int(meta.get("n_seen", 0)), len(order)
    if n_seen == min(cursor * batch_size, n_users):
        return
    # A cursor past the whole epoch fits any size giving it that many batches.
    saved = (f"{n_seen // cursor}" if n_seen < n_users
             else f"at least {-(-n_users // cursor)}")
    raise CheckpointError(
        f"mid-epoch checkpoint (batch {cursor}, {n_seen} of {n_users} users) "
        f"was taken at batch size {saved}; resuming it at batch size "
        f"{batch_size} would skip or repeat users")


# -- model-side state capture ---------------------------------------------------

def model_state_arrays(model) -> dict[str, np.ndarray]:
    """Snapshot a model's parameters (and FVAE hash tables) as flat arrays."""
    arrays: dict[str, np.ndarray] = {}
    for name, values in model.state_dict().items():
        arrays[f"{_PARAM}{name}"] = values
    for field, table in _tables_of(model).items():
        # Rows are dense in insertion order, so the keys alone suffice.
        arrays[f"{_TABLE_KEYS}{field}"] = key_array(
            key for key, __ in table.items())
    return arrays


def restore_model_state(model, arrays: dict[str, np.ndarray]) -> None:
    """Restore :func:`model_state_arrays` *exactly* (shapes included).

    Unlike :meth:`~repro.nn.layers.Module.load_state_dict` (which tolerates
    grown sparse parameters), resume requires each parameter to take the
    saved array verbatim — optimizer moments are saved at the same shapes,
    and any extra rows would desynchronise the run from its uninterrupted
    twin.
    """
    tables, params = _tables_of(model), dict(model.named_parameters())
    needed = [f"{_TABLE_KEYS}{field}" for field in tables]
    needed += [f"{_PARAM}{name}" for name in params]
    missing = [name for name in needed if name not in arrays]
    if missing:
        raise CheckpointError(f"archive lacks arrays: {missing}")
    # A row-sparse parameter may have grown; every other dimension is fixed.
    misfit = [f"{name} {arrays[_PARAM + name].shape} vs {param.data.shape}"
              for name, param in params.items()
              if arrays[_PARAM + name].shape[param.sparse:]
              != param.data.shape[param.sparse:]]
    if misfit:
        raise CheckpointError(f"archive parameters do not fit the model: "
                              f"{misfit}")
    for field, table in tables.items():
        try:
            table.load_items(arrays[f"{_TABLE_KEYS}{field}"].tolist())
        except ValueError as exc:
            raise CheckpointError(f"archive hash table for '{field}' is "
                                  f"malformed: {exc}") from exc
    for name, param in params.items():
        param.data = np.array(arrays[_PARAM + name], copy=True)


def _tables_of(model) -> dict[str, object]:
    """FVAE-style dynamic hash tables keyed by field name ({} otherwise)."""
    schema = getattr(model, "schema", None)
    encoder = getattr(model, "encoder", None)
    if schema is None or encoder is None or not hasattr(encoder, "bag"):
        return {}
    return {spec.name: encoder.bag(spec.name).table for spec in schema}

