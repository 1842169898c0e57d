"""Persisted plan cache: JSON keyed by matrix/machine/plan-space identity.

A planner run (enumerate, price, rank) for a given matrix and machine is
deterministic, so its result can be reused across processes.  The cache
stores one JSON record per key; the key hashes together

* the **matrix fingerprint** (shape, nnz and the full CSR structure +
  values, so any change to the graph invalidates the entry),
* the **machine fingerprint** (every field of the
  :class:`~repro.comm.machine.MachineModel`, not just its name),
* the **layer dims** (feature widths drive every cost term), and
* the **plan-space signature** (rank counts, the priced backend,
  resolved partitioner / variant axes, replication candidates,
  backend-overhead constants, seed, and the pricing rule: simulated or
  closed-form).

The default location is ``~/.cache/repro/plan_cache.json``; override it
with the ``REPRO_PLAN_CACHE`` environment variable or by passing a path.
Writes are torn-write safe (temp file + rename) and corrupt or foreign
files are treated as empty rather than crashing the planner.  There is no
cross-process locking: concurrent writers may overwrite each other's
*entries* (last writer wins), which at worst costs a future run a re-plan
— never a wrong answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..comm.machine import MachineModel, get_machine

__all__ = ["CACHE_ENV_VAR", "PlanCache", "default_cache_path",
           "machine_fingerprint", "matrix_fingerprint", "plan_key"]

CACHE_ENV_VAR = "REPRO_PLAN_CACHE"

#: Bump when the record layout or the pricing rule changes; old files are
#: ignored, not migrated.
CACHE_FORMAT_VERSION = 4


def default_cache_path() -> pathlib.Path:
    """Cache location: ``$REPRO_PLAN_CACHE`` or ``~/.cache/repro/plan_cache.json``."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path.home() / ".cache" / "repro" / "plan_cache.json"


def matrix_fingerprint(adjacency) -> str:
    """Stable digest of a sparse matrix's structure and values.

    Any change to the graph (an edge added, a weight changed, a different
    generator seed) produces a different fingerprint and therefore a plan
    cache miss.
    """
    csr = adjacency.tocsr()
    h = hashlib.sha256()
    h.update(f"{csr.shape[0]}x{csr.shape[1]}:{csr.nnz}".encode())
    h.update(np.asarray(csr.indptr, dtype=np.int64).tobytes())
    h.update(np.asarray(csr.indices, dtype=np.int64).tobytes())
    h.update(np.asarray(csr.data, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def machine_fingerprint(machine: "str | MachineModel") -> str:
    """Digest of every machine-model field (name collisions don't alias)."""
    model = get_machine(machine)
    payload = json.dumps(dataclasses.asdict(model), sort_keys=True)
    return f"{model.name}-{hashlib.sha256(payload.encode()).hexdigest()[:8]}"


def plan_key(fingerprint: str, machine: "str | MachineModel",
             layer_dims: Sequence[int], n_ranks: Sequence[int],
             space_signature: Mapping[str, object]) -> str:
    """Cache key for one planner invocation."""
    space = json.dumps(dict(space_signature), sort_keys=True, default=str)
    space_digest = hashlib.sha256(space.encode()).hexdigest()[:8]
    dims = "x".join(str(int(d)) for d in layer_dims)
    ranks = ",".join(str(int(p)) for p in sorted(set(n_ranks)))
    return (f"fp={fingerprint}|machine={machine_fingerprint(machine)}"
            f"|f={dims}|p={ranks}|space={space_digest}")


class PlanCache:
    """A tiny JSON key-value store for :class:`~repro.plan.planner.PlanReport`
    records (used so repeat ``repro tune`` runs simulate nothing)."""

    def __init__(self, path: "str | os.PathLike | None" = None) -> None:
        self.path = pathlib.Path(path) if path is not None \
            else default_cache_path()

    # ------------------------------------------------------------------
    def _load_payload(self) -> Dict[str, dict]:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict) or \
                payload.get("version") != CACHE_FORMAT_VERSION:
            return {}
        return payload

    def _load(self) -> Dict[str, dict]:
        entries = self._load_payload().get("plans")
        return entries if isinstance(entries, dict) else {}

    def _load_dead(self) -> Dict[str, list]:
        dead = self._load_payload().get("dead")
        return dead if isinstance(dead, dict) else {}

    def _store(self, entries: Dict[str, dict],
               dead: "Dict[str, list] | None" = None) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if dead is None:
            dead = self._load_dead()
        payload = {"version": CACHE_FORMAT_VERSION, "plans": entries}
        if dead:
            payload["dead"] = dead
        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent),
                                   prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The cached record for ``key``, or ``None``."""
        return self._load().get(key)

    def put(self, key: str, record: dict) -> None:
        """Insert/overwrite one record.

        The write is torn-write safe but the read-modify-write is not
        locked against concurrent processes: simultaneous ``put`` calls
        may drop each other's entries (the losing plan is simply
        recomputed on its next use).
        """
        entries = self._load()
        entries[key] = record
        self._store(entries)

    # ------------------------------------------------------------------
    # Dead configurations (fault tolerance / elastic restart)
    # ------------------------------------------------------------------
    def mark_dead(self, fingerprint: str, backend: str, n_ranks: int) -> None:
        """Record that ``(backend, n_ranks)`` lost a rank on this matrix.

        The planner treats cached records whose winning plan matches a
        dead configuration as cache *misses* and excludes matching
        candidates from ranking, so a configuration that already killed a
        run is never served again for that matrix (elastic restart marks
        the failed configuration before re-planning at the surviving
        rank count).
        """
        dead = self._load_dead()
        entry = [str(backend), int(n_ranks)]
        configs = dead.setdefault(str(fingerprint), [])
        if entry not in configs:
            configs.append(entry)
            self._store(self._load(), dead)

    def dead_configs(self, fingerprint: str) -> set:
        """The ``{(backend, n_ranks), ...}`` marked dead for a matrix."""
        return {(str(b), int(p))
                for b, p in self._load_dead().get(str(fingerprint), [])}

    def is_dead(self, fingerprint: str, backend: str, n_ranks: int) -> bool:
        """Whether ``(backend, n_ranks)`` was marked dead for this matrix."""
        return (str(backend), int(n_ranks)) in self.dead_configs(fingerprint)

    def clear(self) -> None:
        """Drop every cached plan and dead-config record (keeps the file)."""
        self._store({}, dead={})

    def __len__(self) -> int:
        return len(self._load())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanCache(path={str(self.path)!r})"
