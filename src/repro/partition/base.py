"""Partitioner interface and partition result container."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["PartitionResult", "Partitioner", "validate_parts"]


def validate_parts(parts: np.ndarray, nparts: int, n_vertices: Optional[int] = None
                   ) -> np.ndarray:
    """Validate and canonicalise a partition vector."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.ndim != 1:
        raise ValueError("partition vector must be 1-D")
    if n_vertices is not None and parts.shape[0] != n_vertices:
        raise ValueError(
            f"partition vector has {parts.shape[0]} entries for {n_vertices} vertices")
    if nparts <= 0:
        raise ValueError("nparts must be positive")
    if parts.size and (parts.min() < 0 or parts.max() >= nparts):
        raise ValueError(f"part ids must lie in [0, {nparts})")
    return parts


@dataclass
class PartitionResult:
    """Output of a partitioner.

    Attributes
    ----------
    parts:
        ``(n,)`` int64 vector assigning each vertex to a part.
    nparts:
        Number of parts requested (some may be empty on degenerate inputs).
    method:
        Name of the partitioner that produced this result.
    stats:
        Free-form quality metrics filled in by the partitioner (edgecut,
        volumes, imbalance, levels, ...).
    """

    parts: np.ndarray
    nparts: int
    method: str = "unknown"
    stats: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.parts = validate_parts(self.parts, self.nparts)

    @property
    def n_vertices(self) -> int:
        return int(self.parts.shape[0])

    def part_sizes(self) -> np.ndarray:
        """Number of vertices in each part."""
        return np.bincount(self.parts, minlength=self.nparts)

    def members(self, part: int) -> np.ndarray:
        """Vertex ids belonging to ``part`` (in increasing id order)."""
        if not (0 <= part < self.nparts):
            raise ValueError(f"part {part} out of range [0, {self.nparts})")
        return np.flatnonzero(self.parts == part)

    def block_sizes(self) -> np.ndarray:
        """Row counts of the contiguous blocks after relabelling (== part sizes)."""
        return self.part_sizes()


class Partitioner(abc.ABC):
    """Abstract base class for graph partitioners.

    Subclasses implement :meth:`partition`; the input adjacency is always a
    symmetric ``scipy.sparse`` matrix whose sparsity pattern defines the
    graph (weights, if any, are used as edge weights).
    """

    #: short identifier used in benchmark tables
    name: str = "abstract"

    @abc.abstractmethod
    def partition(self, adj: sp.spmatrix, nparts: int) -> PartitionResult:
        """Partition the graph into ``nparts`` parts."""

    # Convenience -------------------------------------------------------
    def __call__(self, adj: sp.spmatrix, nparts: int) -> PartitionResult:
        return self.partition(adj, nparts)

    @staticmethod
    def _check_input(adj: sp.spmatrix, nparts: int) -> sp.csr_matrix:
        if not sp.issparse(adj):
            raise TypeError(f"expected a sparse adjacency, got {type(adj)!r}")
        adj = adj.tocsr()
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if nparts <= 0:
            raise ValueError("nparts must be positive")
        if nparts > adj.shape[0]:
            raise ValueError(
                f"cannot split {adj.shape[0]} vertices into {nparts} parts")
        return adj
