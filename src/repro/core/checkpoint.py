"""Atomic training checkpoints: save/restore for fault-tolerant runs.

A checkpoint captures everything needed to continue a
:func:`repro.core.trainer.train_distributed` run bit-identically:

* the replicated model weights (rank-count independent — every rank holds
  the full weight set — which is what makes *elastic* restore at a
  different rank count possible),
* the optimizer state (plain SGD today: its learning rate),
* the NumPy global RNG state at save time,
* the completed-epoch counter and per-epoch history,
* a fingerprint of the execution-relevant configuration (the
  ``ExecutionPlan`` axes that change the numeric trajectory), so a resume
  onto an incompatible plan fails loudly instead of silently diverging.

On-disk format (``ckpt-<epoch>.ckpt``)::

    8 bytes   magic  b"RPRCKPT1"
    4 bytes   format version (little-endian uint32)
    8 bytes   payload length  (little-endian uint64)
    4 bytes   CRC32 of the payload
    N bytes   pickled payload dict

Writes are atomic (temp file in the same directory + ``fsync`` +
``os.replace``), so a crash mid-write can truncate only the *temp* file,
never a published checkpoint.  Reads validate magic, version, length and
CRC and raise :class:`CheckpointError` with a clear message on any
mismatch; :meth:`CheckpointManager.load_latest` falls back to the newest
*intact* checkpoint when the latest is corrupt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import struct
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..obs.tracer import TRACE

__all__ = ["CHECKPOINT_MAGIC", "CHECKPOINT_VERSION", "CheckpointError",
           "CheckpointManager", "TrainingCheckpoint", "config_fingerprint",
           "read_checkpoint", "resolve_checkpoint", "write_checkpoint"]

CHECKPOINT_MAGIC = b"RPRCKPT1"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<8sIQI")  # magic, version, payload len, crc32

#: ``DistTrainConfig`` fields that determine the numeric training
#: trajectory and data layout.  Backend / machine / pipeline-depth /
#: gradient-overlap / bucket-size are deliberately excluded: they are
#: proven bit-identical execution strategies for the same trajectory, so
#: a checkpoint may be resumed across them.  ``grad_dtype`` *is* included
#: (a reduced-precision gradient wire changes the numbers), and so is
#: ``n_ranks`` — an elastic restore at a different rank count explicitly
#: bypasses the fingerprint check (weights are replicated, hence
#: rank-count independent).
FINGERPRINT_FIELDS = (
    "algorithm", "sparsity_aware", "partitioner", "replication_factor",
    "n_ranks", "hidden", "n_layers", "learning_rate", "seed", "dtype",
    "grad_dtype",
)


class CheckpointError(RuntimeError):
    """A checkpoint could not be read (corrupt, truncated, or wrong plan)."""


def config_fingerprint(config) -> str:
    """Fingerprint of the execution-relevant configuration axes."""
    parts = []
    for name in FINGERPRINT_FIELDS:
        parts.append(f"{name}={getattr(config, name, None)!r}")
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
    return digest


@dataclasses.dataclass
class TrainingCheckpoint:
    """One resumable training state (see the module docstring)."""

    epoch: int                          # completed epochs (= next to run)
    weights: List[np.ndarray]           # replicated full weight set
    optimizer_state: Dict[str, object]
    rng_state: Optional[tuple]          # np.random.get_state() snapshot
    plan_fingerprint: str               # config_fingerprint() at save time
    history: List[dict]                 # serialized DistEpochRecords
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "epoch": self.epoch,
            "weights": [np.asarray(w) for w in self.weights],
            "optimizer_state": dict(self.optimizer_state),
            "rng_state": self.rng_state,
            "plan_fingerprint": self.plan_fingerprint,
            "history": list(self.history),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TrainingCheckpoint":
        try:
            return cls(epoch=int(payload["epoch"]),
                       weights=list(payload["weights"]),
                       optimizer_state=dict(payload["optimizer_state"]),
                       rng_state=payload.get("rng_state"),
                       plan_fingerprint=str(payload["plan_fingerprint"]),
                       history=list(payload.get("history", [])),
                       meta=dict(payload.get("meta", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint payload is malformed: {exc!r}") from exc


def write_checkpoint(path: os.PathLike, ckpt: TrainingCheckpoint) -> Path:
    """Atomically write ``ckpt`` to ``path`` (versioned header + CRC)."""
    with TRACE.span("checkpoint.save", cat="checkpoint",
                    args={"epoch": ckpt.epoch}):
        return _write_checkpoint(path, ckpt)


def _write_checkpoint(path: os.PathLike, ckpt: TrainingCheckpoint) -> Path:
    path = Path(path)
    blob = pickle.dumps(ckpt.payload(), protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob),
                          zlib.crc32(blob) & 0xFFFFFFFF)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already moved/removed
            pass
        raise
    return path


def read_checkpoint(path: os.PathLike) -> TrainingCheckpoint:
    """Read and validate one checkpoint file.

    Raises :class:`CheckpointError` naming the file and the exact defect
    (bad magic, unsupported version, truncation, CRC mismatch, unpickle
    failure) — never returns partially-validated state.
    """
    path = Path(path)
    with TRACE.span("checkpoint.restore", cat="checkpoint",
                    args={"path": str(path)}):
        return _read_checkpoint(path)


def _read_checkpoint(path: Path) -> TrainingCheckpoint:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise CheckpointError(
            f"checkpoint {path} is truncated ({len(raw)} bytes, "
            f"need at least {_HEADER.size} for the header)")
    magic, version, length, crc = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint {path} has bad magic {magic!r} "
            f"(expected {CHECKPOINT_MAGIC!r}) — not a checkpoint file?")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported format version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})")
    blob = raw[_HEADER.size:]
    if len(blob) != length:
        raise CheckpointError(
            f"checkpoint {path} is truncated: header promises {length} "
            f"payload bytes, found {len(blob)}")
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise CheckpointError(
            f"checkpoint {path} failed its CRC32 check — contents corrupt")
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} payload does not unpickle: {exc!r}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint {path} payload has type {type(payload).__name__}, "
            "expected dict")
    return TrainingCheckpoint.from_payload(payload)


def resolve_checkpoint(path: os.PathLike,
                       expect_fingerprint: Optional[str] = None
                       ) -> TrainingCheckpoint:
    """Load a checkpoint from a ``.ckpt`` file *or* a checkpoint directory.

    This is the serving entry point: ``repro serve --checkpoint`` accepts
    either an exact file or the directory a training run published into
    (the newest intact checkpoint wins, with the same corrupt-file
    fallback as :meth:`CheckpointManager.load_latest`).  Unlike training
    resume, serving has nothing to fall back to, so an empty directory is
    an error rather than a fresh start.
    """
    path = Path(path)
    if path.is_dir():
        ckpt = CheckpointManager(path).load_latest(
            expect_fingerprint=expect_fingerprint)
        if ckpt is None:
            raise CheckpointError(
                f"checkpoint directory {path} contains no checkpoints "
                "(expected ckpt-*.ckpt files from a training run with "
                "--checkpoint-dir)")
        return ckpt
    ckpt = read_checkpoint(path)
    if expect_fingerprint is not None \
            and ckpt.plan_fingerprint != expect_fingerprint:
        raise CheckpointError(
            f"checkpoint {path} was written for plan fingerprint "
            f"{ckpt.plan_fingerprint} but this configuration resolves to "
            f"{expect_fingerprint}; the serving model would not match the "
            "trained weights")
    return ckpt


class CheckpointManager:
    """Directory of numbered checkpoints with pruning and safe fallback."""

    #: checkpoints kept after a save: the newest, and one to fall back to
    #: if the newest turns out corrupt
    KEEP = 2

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, epoch: int) -> Path:
        return self.directory / f"ckpt-{epoch:08d}.ckpt"

    def paths(self) -> List[Path]:
        """Published checkpoints, oldest first."""
        return sorted(self.directory.glob("ckpt-*.ckpt"))

    def save(self, ckpt: TrainingCheckpoint) -> Path:
        """Write ``ckpt`` atomically; prune beyond the ``KEEP`` newest."""
        path = write_checkpoint(self.path_for(ckpt.epoch), ckpt)
        stale_paths = self.paths()[:-self.KEEP]
        if stale_paths:
            with TRACE.span("checkpoint.prune", cat="checkpoint",
                            args={"pruned": len(stale_paths)}):
                for stale in stale_paths:
                    try:
                        stale.unlink()
                    except OSError:  # pragma: no cover - concurrent cleanup
                        pass
        return path

    def load_latest(self, expect_fingerprint: Optional[str] = None
                    ) -> Optional[TrainingCheckpoint]:
        """Newest *intact* checkpoint, or ``None`` when the dir is empty.

        Corrupt files are skipped with a warning (the previous intact
        checkpoint — atomic writes guarantee there is one unless every
        file was damaged — is used instead); if every present file is
        corrupt, a :class:`CheckpointError` lists them.  When
        ``expect_fingerprint`` is given, an intact checkpoint written for
        a *different* execution plan raises instead of resuming into a
        silently diverging run (elastic restore passes ``None`` here —
        the rank count legitimately changed).
        """
        paths = self.paths()
        failures: List[str] = []
        for path in reversed(paths):
            try:
                ckpt = read_checkpoint(path)
            except CheckpointError as exc:
                failures.append(str(exc))
                warnings.warn(f"skipping corrupt checkpoint: {exc}",
                              RuntimeWarning, stacklevel=2)
                continue
            if expect_fingerprint is not None \
                    and ckpt.plan_fingerprint != expect_fingerprint:
                raise CheckpointError(
                    f"checkpoint {path} was written for plan fingerprint "
                    f"{ckpt.plan_fingerprint} but this run resolves to "
                    f"{expect_fingerprint}; refusing to resume across "
                    "incompatible plans (change the config back, use "
                    "elastic restart, or point --checkpoint-dir elsewhere)")
            return ckpt
        if failures:
            raise CheckpointError(
                "no intact checkpoint found; every candidate failed "
                "validation:\n  " + "\n  ".join(failures))
        return None
