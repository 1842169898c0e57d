"""Block-row distributed sparse and dense matrices.

These containers model the data layout of the paper's algorithms:

* :class:`BlockRowDistribution` — the (variable-size) 1D block-row layout
  produced by a partitioner (each process owns the contiguous rows of its
  part after relabelling);
* :class:`DistSparseMatrix` — ``A^T`` split into block rows, with each
  block row further analysed into per-destination-block
  :class:`~repro.core.nnzcols.BlockColumnInfo` (the ``NnzCols`` structures);
* :class:`DistDenseMatrix` — ``H`` (activations, gradients) split into the
  matching block rows.

The containers hold *all* ranks' blocks because the runtime is a simulator
living in one address space; each algorithm only ever touches the blocks of
the rank it is currently simulating plus whatever the communicator
delivered to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .nnzcols import BlockColumnInfo, split_block_row

__all__ = ["BlockRowDistribution", "DistSparseMatrix", "DistDenseMatrix"]


class BlockRowDistribution:
    """A 1D block-row layout over ``n`` rows and ``nblocks`` owners."""

    def __init__(self, block_sizes: Sequence[int]) -> None:
        block_sizes = np.asarray(block_sizes, dtype=np.int64)
        if block_sizes.ndim != 1 or block_sizes.size == 0:
            raise ValueError("block_sizes must be a non-empty 1-D sequence")
        if np.any(block_sizes < 0):
            raise ValueError("block sizes must be non-negative")
        self.block_sizes = block_sizes
        self.bounds = np.concatenate([[0], np.cumsum(block_sizes)])

    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, n: int, nblocks: int) -> "BlockRowDistribution":
        """Equal-size blocks (sizes differ by at most one row)."""
        base = n // nblocks
        extra = n % nblocks
        sizes = np.full(nblocks, base, dtype=np.int64)
        sizes[:extra] += 1
        return cls(sizes)

    @classmethod
    def from_partition(cls, part_sizes: Sequence[int]) -> "BlockRowDistribution":
        """Blocks with exactly the partitioner's part sizes."""
        return cls(part_sizes)

    # ------------------------------------------------------------------
    @property
    def nblocks(self) -> int:
        return int(self.block_sizes.size)

    @property
    def n(self) -> int:
        return int(self.bounds[-1])

    def block_range(self, block: int) -> tuple[int, int]:
        """Global ``[start, stop)`` row range of ``block``."""
        if not (0 <= block < self.nblocks):
            raise ValueError(f"block {block} out of range [0, {self.nblocks})")
        return int(self.bounds[block]), int(self.bounds[block + 1])

    def block_size(self, block: int) -> int:
        return int(self.block_sizes[block])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlockRowDistribution) and \
            np.array_equal(self.block_sizes, other.block_sizes)


class DistSparseMatrix:
    """``A^T`` distributed by block rows with per-block NnzCols analysis.

    ``dtype`` selects the stored value precision (default ``float64``;
    ``float32`` halves the adjacency footprint and lets the local SpMM
    kernels run in single precision end to end).
    """

    def __init__(self, matrix: sp.spmatrix, dist: BlockRowDistribution,
                 dtype=np.float64) -> None:
        matrix = matrix.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got {matrix.shape}")
        if matrix.shape[0] != dist.n:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows but the distribution "
                f"covers {dist.n}")
        self.dist = dist
        self.shape = matrix.shape
        self.dtype = np.dtype(dtype)
        if matrix.dtype != self.dtype:
            matrix = matrix.astype(self.dtype)
        #: block_rows[i]: CSR of the rows owned by block i (full width)
        self.block_rows: List[sp.csr_matrix] = []
        #: blocks[i][j]: BlockColumnInfo of A^T_{ij}
        self.blocks: List[List[BlockColumnInfo]] = []
        for i in range(dist.nblocks):
            lo, hi = dist.block_range(i)
            block_row = matrix[lo:hi, :].tocsr()
            self.block_rows.append(block_row)
            self.blocks.append(split_block_row(block_row, dist.bounds))
        self._asymmetric: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def nblocks(self) -> int:
        return self.dist.nblocks

    @property
    def nnz(self) -> int:
        return int(sum(b.nnz for b in self.block_rows))

    def block(self, i: int, j: int) -> BlockColumnInfo:
        """The analysed block ``A^T_{ij}``."""
        return self.blocks[i][j]

    def nnz_cols(self, i: int, j: int) -> np.ndarray:
        """``NnzCols(i, j)``: rows of ``H_j`` needed by block row ``i``
        (indices local to block ``j``)."""
        return self.blocks[i][j].nnz_cols_local

    def asymmetric_entries(self) -> int:
        """Entries ``a_ij`` that differ from ``a_ji`` (exact comparison;
        ``0`` means the matrix is symmetric bit for bit).  Counted on the
        first call and kept: the matrix never changes, and every model
        built over it asks."""
        if self._asymmetric is None:
            full = sp.vstack(self.block_rows, format="csr")
            self._asymmetric = int((full != full.T).nnz)
        return self._asymmetric

    def needed_rows_matrix(self) -> np.ndarray:
        """``(P, P)`` matrix: entry ``[i, j]`` is ``|NnzCols(i, j)|`` for
        ``i != j`` — the rows of H that must travel from ``j`` to ``i``."""
        p = self.nblocks
        out = np.zeros((p, p), dtype=np.int64)
        for i in range(p):
            for j in range(p):
                if i != j:
                    out[i, j] = self.blocks[i][j].n_needed_rows
        return out

    def to_dense_global(self) -> np.ndarray:
        """Reassemble the full matrix (tests only; small graphs)."""
        return sp.vstack(self.block_rows).toarray()


class DistDenseMatrix:
    """A tall-skinny dense matrix distributed by block rows.

    ``dtype`` selects the stored precision (default ``float64``); a
    ``float32`` operand makes every exchanged payload half the volume,
    which is the point of the end-to-end single-precision mode.
    """

    def __init__(self, blocks: Sequence[np.ndarray],
                 dist: BlockRowDistribution, dtype=np.float64) -> None:
        if len(blocks) != dist.nblocks:
            raise ValueError(
                f"{len(blocks)} blocks given for {dist.nblocks} owners")
        widths = {b.shape[1] for b in blocks}
        if len(widths) > 1:
            raise ValueError(f"blocks disagree on the feature width: {widths}")
        for i, b in enumerate(blocks):
            expected = dist.block_size(i)
            if b.shape[0] != expected:
                raise ValueError(
                    f"block {i} has {b.shape[0]} rows, expected {expected}")
        self.dist = dist
        self.dtype = np.dtype(dtype)
        self.blocks: List[np.ndarray] = [np.asarray(b, dtype=self.dtype)
                                         for b in blocks]

    # ------------------------------------------------------------------
    @classmethod
    def from_global(cls, matrix: np.ndarray, dist: BlockRowDistribution,
                    dtype=np.float64) -> "DistDenseMatrix":
        """Split a global ``(n, f)`` matrix into the distribution's blocks,
        converting to ``dtype`` block by block: one copy of the matrix in
        total, never a second global one."""
        matrix = np.asarray(matrix)
        if matrix.shape[0] != dist.n:
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows but the distribution "
                f"covers {dist.n}")
        blocks = []
        for i in range(dist.nblocks):
            lo, hi = dist.block_range(i)
            blocks.append(np.array(matrix[lo:hi], dtype=dtype))
        return cls(blocks, dist, dtype=dtype)

    @property
    def nblocks(self) -> int:
        return self.dist.nblocks

    @property
    def width(self) -> int:
        return int(self.blocks[0].shape[1]) if self.blocks else 0

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def to_global(self) -> np.ndarray:
        """Concatenate all blocks back into the global matrix."""
        return np.concatenate(self.blocks, axis=0)

    def like(self, blocks: Sequence[np.ndarray]) -> "DistDenseMatrix":
        """A new distributed matrix over the same distribution and dtype."""
        return DistDenseMatrix(list(blocks), self.dist, dtype=self.dtype)
