"""Communication-volume analysis: predictions and paper-style tables.

Separating the *predicted* communication (a pure function of the sparse
matrix, its distribution and the algorithm) from the *measured*
communication (what the simulator's event log records) gives the test
suite a strong cross-check: the two must agree exactly for every variant.

It also provides :func:`single_spmm_volume_table`, which reproduces
Table 2 of the paper (average / maximum data communicated by a process in
one SpMM under a given partitioner, and the resulting load imbalance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..partition import communication_volumes_1d, get_partitioner
from ..partition.base import PartitionResult
from .dist_matrix import DistSparseMatrix

__all__ = [
    "predicted_rows_oblivious_1d",
    "predicted_rows_sparsity_aware_1d",
    "predicted_bytes_per_spmm",
    "predicted_bytes_per_forward",
    "single_spmm_volume_table",
    "VolumeTableRow",
]

#: bytes per dense matrix element moved by the simulator (float64).
ELEMENT_BYTES = 8


def predicted_rows_oblivious_1d(matrix: DistSparseMatrix) -> np.ndarray:
    """Rows of ``H`` each rank *sends* per sparsity-oblivious 1D SpMM.

    Every rank broadcasts its whole block row to the other ``P - 1`` ranks,
    independent of sparsity.
    """
    p = matrix.nblocks
    sizes = matrix.dist.block_sizes.astype(np.int64)
    return sizes * (p - 1)


def predicted_rows_sparsity_aware_1d(matrix: DistSparseMatrix) -> np.ndarray:
    """Rows of ``H`` each rank sends per sparsity-aware 1D SpMM.

    Rank ``j`` sends ``|NnzCols(i, j)|`` rows to every other rank ``i``; the
    total is exactly the partition's send volume in
    :func:`repro.partition.metrics.communication_volumes_1d`.
    """
    needed = matrix.needed_rows_matrix()     # [i, j] = rows j -> i
    return needed.sum(axis=0).astype(np.int64)


def predicted_bytes_per_spmm(matrix: DistSparseMatrix, f: int,
                             sparsity_aware: bool,
                             element_bytes: int = ELEMENT_BYTES) -> np.ndarray:
    """Bytes sent per rank in one distributed SpMM (1D algorithms)."""
    if f <= 0:
        raise ValueError("feature width must be positive")
    rows = predicted_rows_sparsity_aware_1d(matrix) if sparsity_aware \
        else predicted_rows_oblivious_1d(matrix)
    return rows * f * element_bytes


def predicted_bytes_per_forward(matrix: DistSparseMatrix,
                                widths: Sequence[int], sparsity_aware: bool,
                                element_bytes: int = ELEMENT_BYTES) -> int:
    """Bytes all ranks send in one forward pass whose SpMMs run at
    ``widths`` (1D algorithms) — e.g. one served request at
    :func:`repro.core.costmodel.inference_spmm_widths`, or the paper's
    order at ``layer_dims[:-1]``."""
    return int(sum(predicted_bytes_per_spmm(matrix, f, sparsity_aware,
                                            element_bytes).sum()
                   for f in widths))


@dataclass(frozen=True)
class VolumeTableRow:
    """One row of the Table-2 reproduction."""

    nparts: int
    avg_mb: float
    max_mb: float
    imbalance_pct: float
    total_mb: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "p": float(self.nparts),
            "average_MB": self.avg_mb,
            "max_MB": self.max_mb,
            "load_imbalance_pct": self.imbalance_pct,
            "total_MB": self.total_mb,
        }


def single_spmm_volume_table(adjacency: sp.spmatrix,
                             p_values: Sequence[int],
                             f: int,
                             partitioner: str = "metis_like",
                             element_bytes: int = ELEMENT_BYTES,
                             seed: int = 0) -> List[VolumeTableRow]:
    """Reproduce Table 2: per-process data in a single SpMM vs. ``p``.

    For each process count, the graph is partitioned with the requested
    partitioner and the sparsity-aware send volumes are converted to
    megabytes using the dataset's feature width ``f``.
    """
    if f <= 0:
        raise ValueError("feature width must be positive")
    rows: List[VolumeTableRow] = []
    for p in p_values:
        part = get_partitioner(partitioner, seed=seed).partition(adjacency, p)
        vol = communication_volumes_1d(adjacency, part.parts, p)
        send_bytes = vol.send_volume.astype(np.float64) * f * element_bytes
        avg = float(send_bytes.mean())
        mx = float(send_bytes.max())
        imb = ((mx / avg) - 1.0) * 100.0 if avg > 0 else 0.0
        rows.append(VolumeTableRow(
            nparts=p,
            avg_mb=avg / 1e6,
            max_mb=mx / 1e6,
            imbalance_pct=imb,
            total_mb=float(send_bytes.sum()) / 1e6,
        ))
    return rows
