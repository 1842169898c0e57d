"""Partition quality metrics.

Two families of metrics matter in the paper:

* **computational balance** — vertices / nonzeros per part (the local SpMM
  work is proportional to the nonzeros of the block row);
* **communication metrics for 1D row-distributed SpMM** — for each part
  ``j``, the number of its vertices whose ``H`` rows must be sent to some
  other part ``i`` (one count per (vertex, destination part) pair).  The
  total of those counts is the classical *total communication volume*
  (equivalently the "connectivity - 1" hypergraph metric); the per-part
  maximum is the *maximum send volume* that the GVB partitioner balances.

All volume metrics are expressed in units of "rows of H"; multiply by
``f * bytes_per_element`` to get bytes (done in :mod:`repro.core.analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse as sp

from .base import validate_parts

__all__ = [
    "part_sizes",
    "part_nonzeros",
    "load_imbalance",
    "edgecut",
    "CommVolume",
    "communication_volumes_1d",
    "partition_report",
]


def part_sizes(parts: np.ndarray, nparts: int) -> np.ndarray:
    """Vertices per part."""
    parts = validate_parts(parts, nparts)
    return np.bincount(parts, minlength=nparts)


def part_nonzeros(adj: sp.spmatrix, parts: np.ndarray, nparts: int) -> np.ndarray:
    """Nonzeros of each block row — the per-part local SpMM work."""
    adj = adj.tocsr()
    parts = validate_parts(parts, nparts, adj.shape[0])
    row_nnz = np.diff(adj.indptr)
    return np.bincount(parts, weights=row_nnz, minlength=nparts).astype(np.int64)


def load_imbalance(values: np.ndarray) -> float:
    """``max / mean`` of a per-part quantity (1.0 = perfectly balanced)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 1.0
    mean = values.mean()
    if mean == 0:
        return 1.0
    return float(values.max() / mean)


def edgecut(adj: sp.spmatrix, parts: np.ndarray) -> int:
    """Number of (undirected) edges whose endpoints lie in different parts.

    Edge weights are ignored (each stored nonzero counts once, and the
    symmetric pair is de-duplicated), matching the usual METIS definition.
    """
    adj = adj.tocoo()
    parts = validate_parts(parts, int(parts.max()) + 1 if parts.size else 1,
                           adj.shape[0])
    mask = parts[adj.row] != parts[adj.col]
    # Each undirected edge appears twice in a symmetric matrix.
    return int(mask.sum() // 2)


@dataclass(frozen=True)
class CommVolume:
    """Communication volumes of a 1D row distribution (units: rows of H)."""

    send_volume: np.ndarray     # per part: rows it must send
    recv_volume: np.ndarray     # per part: rows it must receive
    pairwise: np.ndarray        # [j, i]: rows part j sends to part i

    @property
    def total(self) -> int:
        return int(self.send_volume.sum())

    @property
    def max_send(self) -> int:
        return int(self.send_volume.max()) if self.send_volume.size else 0

    @property
    def max_recv(self) -> int:
        return int(self.recv_volume.max()) if self.recv_volume.size else 0

    @property
    def max_pairwise(self) -> int:
        return int(self.pairwise.max()) if self.pairwise.size else 0

    @property
    def avg_send(self) -> float:
        return float(self.send_volume.mean()) if self.send_volume.size else 0.0

    @property
    def send_imbalance(self) -> float:
        avg = self.avg_send
        return float(self.max_send / avg) if avg > 0 else 1.0

    @property
    def send_imbalance_pct(self) -> float:
        """Paper Table-2 style imbalance: (max/avg - 1) * 100."""
        return (self.send_imbalance - 1.0) * 100.0


def communication_volumes_1d(adj: sp.spmatrix, parts: np.ndarray,
                             nparts: int) -> CommVolume:
    """Communication volumes of the sparsity-aware 1D SpMM.

    A vertex ``v`` in part ``j`` contributes one unit of send volume for
    every *other* part that contains at least one neighbour of ``v`` —
    because that part's process needs row ``v`` of ``H`` to multiply its
    local block.
    """
    adj = adj.tocoo()
    n = adj.shape[0]
    parts = validate_parts(parts, nparts, n)
    pairwise = np.zeros((nparts, nparts), dtype=np.int64)
    if adj.nnz:
        owner = parts[adj.row]
        dest = parts[adj.col]
        cut = owner != dest
        if cut.any():
            # Unique (source vertex, destination part) pairs: each counts as
            # one row of H sent from the vertex's owner to the destination.
            keys = adj.row[cut].astype(np.int64) * nparts + dest[cut]
            unique_keys = np.unique(keys)
            src_vertex = unique_keys // nparts
            dst_part = unique_keys % nparts
            np.add.at(pairwise, (parts[src_vertex], dst_part), 1)
    send = pairwise.sum(axis=1)
    recv = pairwise.sum(axis=0)
    return CommVolume(send_volume=send, recv_volume=recv, pairwise=pairwise)


def partition_report(adj: sp.spmatrix, parts: np.ndarray, nparts: int
                     ) -> Dict[str, float]:
    """All quality metrics in one dictionary (used by benchmark tables)."""
    sizes = part_sizes(parts, nparts)
    nnzs = part_nonzeros(adj, parts, nparts)
    vol = communication_volumes_1d(adj, parts, nparts)
    return {
        "nparts": float(nparts),
        "edgecut": float(edgecut(adj, parts)),
        "vertex_imbalance": load_imbalance(sizes),
        "nnz_imbalance": load_imbalance(nnzs),
        "total_volume": float(vol.total),
        "max_send_volume": float(vol.max_send),
        "avg_send_volume": float(vol.avg_send),
        "send_imbalance_pct": float(vol.send_imbalance_pct),
        "max_pairwise_volume": float(vol.max_pairwise),
    }
