"""The one distribution path: partition, relabel, normalise, split.

The paper's sparsity-aware algorithms only win once a partitioner has
reordered ``A`` (Section 6.3.1): partition the raw graph, relabel its
vertices so every part is contiguous, and give each process the block row
of its part.  :func:`distribute` is the only place that does it; the
trainer, the planner, the cost model and the examples all call it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graphs.adjacency import (gcn_normalize, permutation_from_parts,
                                symmetric_permutation)
from ..partition import get_partitioner
from ..partition.base import PartitionResult
from .dist_matrix import BlockRowDistribution, DistSparseMatrix

__all__ = ["distribute"]


def distribute(adjacency, partitioner: Optional[str], nblocks: int, *,
               seed: int = 0, dtype=np.float64,
               partition: Optional[PartitionResult] = None
               ) -> Tuple[DistSparseMatrix, Optional[np.ndarray],
                          Optional[PartitionResult]]:
    """Distribute the raw ``adjacency`` over ``nblocks`` block rows.

    With a ``partitioner`` the raw graph is partitioned into ``nblocks``
    parts (or the caller's ``partition`` of it is used: partitioners are
    seed-deterministic, so the matching result is bit-identical to
    recomputing it), its vertices are relabelled so every part is
    contiguous, and each block row is one part.  ``partitioner=None``
    keeps the natural order in equal blocks.  The GCN normalisation is
    applied after the relabelling.

    Returns ``(matrix, perm, partition)``: ``perm[old] = new`` is the
    relabelling to apply to the vertex data, ``None`` with no partitioner
    (as is ``partition``).
    """
    n = adjacency.shape[0]
    if nblocks > n:
        raise ValueError(
            f"cannot distribute {n} vertices over {nblocks} block rows")
    perm = None
    if partitioner is None:
        if partition is not None:
            raise ValueError(
                "a partition was supplied without a partitioner; name the "
                "partitioner it came from")
        dist = BlockRowDistribution.uniform(n, nblocks)
    else:
        if partition is None:
            partition = get_partitioner(partitioner, seed=seed).partition(
                adjacency, nblocks)
        sizes = partition.part_sizes()
        if len(sizes) != nblocks or int(np.sum(sizes)) != n:
            raise ValueError(
                f"supplied partition has {len(sizes)} parts over "
                f"{int(np.sum(sizes))} vertices; this configuration needs "
                f"{nblocks} parts over {n}")
        perm = permutation_from_parts(partition.parts, nblocks)
        adjacency = symmetric_permutation(adjacency, perm)
        dist = BlockRowDistribution.from_partition(sizes)
    return (DistSparseMatrix(gcn_normalize(adjacency), dist, dtype=dtype),
            perm, partition)
