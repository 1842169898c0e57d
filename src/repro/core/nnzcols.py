"""Nonzero-column analysis of block-distributed sparse matrices.

``NnzCols(i, j)`` — the sorted list of nonzero column indices of the
off-diagonal block ``A^T_{ij}`` — is the central data structure of the
paper's sparsity-aware algorithms: it tells process ``i`` exactly which
rows of ``H_j`` it must receive from process ``j``, and (symmetrically)
tells process ``j`` which rows it must send.

This module computes those index sets from a CSR block row and the block
boundaries, and produces *compacted* sub-blocks whose column indices are
renumbered to ``[0, len(NnzCols))`` so the local SpMM can run directly on
the received (packed) rows without scattering them into a full-width
buffer first.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["BlockColumnInfo", "split_block_row"]


class BlockColumnInfo:
    """Sparsity summary of one ``A^T_{ij}`` block.

    Attributes
    ----------
    block:
        Destination block (column-block index ``j``).
    nnz_cols_global:
        Sorted global column indices with at least one nonzero in the block.
    nnz_cols_local:
        The same indices relative to the start of block ``j`` (i.e. row
        offsets into ``H_j``).
    compact:
        The block with its columns restricted to ``nnz_cols_global`` and
        renumbered to ``0..len(nnz_cols_global)-1`` (CSR).  Multiplying
        ``compact @ H_j[nnz_cols_local]`` equals the block's contribution.
    width:
        Full column width of block ``j`` (the number of rows of ``H_j``).
    full:
        The block as a CSR matrix over the *full* width of block ``j``
        (used by the sparsity-oblivious algorithms).  Built **lazily** on
        first access by widening ``compact`` — the sparsity-aware paths
        never touch it, so they never pay its memory; the value buffer is
        shared with ``compact`` either way.
    """

    __slots__ = ("block", "nnz_cols_global", "nnz_cols_local", "compact",
                 "width", "_full")

    def __init__(self, block: int, nnz_cols_global: np.ndarray,
                 nnz_cols_local: np.ndarray, compact: sp.csr_matrix,
                 width: int) -> None:
        self.block = block
        self.nnz_cols_global = nnz_cols_global
        self.nnz_cols_local = nnz_cols_local
        self.compact = compact
        self.width = int(width)
        self._full: Optional[sp.csr_matrix] = None

    @property
    def full(self) -> sp.csr_matrix:
        if self._full is None:
            # Widening is a pure column renumbering: map each compacted
            # column index back through NnzCols.  ``nnz_cols_local`` is
            # strictly increasing, so per-row sorted order is preserved and
            # the result equals slicing the original block directly.  The
            # indptr/data buffers are shared with ``compact``.
            compact = self.compact
            if self.nnz_cols_local.size:
                indices = self.nnz_cols_local[compact.indices]
            else:
                indices = compact.indices
            self._full = sp.csr_matrix(
                (compact.data, indices, compact.indptr),
                shape=(compact.shape[0], self.width))
        return self._full

    @property
    def full_materialized(self) -> bool:
        """Whether the full-width CSR has been built (memory accounting)."""
        return self._full is not None

    @property
    def n_needed_rows(self) -> int:
        return int(self.nnz_cols_global.size)

    @property
    def nnz(self) -> int:
        return int(self.compact.nnz)


def _check_bounds(bounds: np.ndarray, n: int) -> np.ndarray:
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.ndim != 1 or bounds.size < 2:
        raise ValueError("block bounds must be a 1-D array with >= 2 entries")
    if bounds[0] != 0 or bounds[-1] != n:
        raise ValueError(f"block bounds must start at 0 and end at {n}")
    if np.any(np.diff(bounds) < 0):
        raise ValueError("block bounds must be non-decreasing")
    return bounds


def split_block_row(block_row: sp.spmatrix, bounds: Sequence[int]
                    ) -> List[BlockColumnInfo]:
    """Split one block row of ``A^T`` into per-destination-block summaries.

    Parameters
    ----------
    block_row:
        The rows of ``A^T`` owned by one process (shape ``local_rows x n``).
    bounds:
        Global column boundaries of the ``P`` blocks (length ``P + 1``).
    """
    block_row = block_row.tocsc()
    n = block_row.shape[1]
    bounds = _check_bounds(np.asarray(bounds), n)
    nblocks = bounds.size - 1

    infos: List[BlockColumnInfo] = []
    for j in range(nblocks):
        lo, hi = int(bounds[j]), int(bounds[j + 1])
        sub = block_row[:, lo:hi].tocsc()
        col_nnz = np.diff(sub.indptr)
        local_cols = np.flatnonzero(col_nnz > 0)
        compact = sub[:, local_cols].tocsr()
        infos.append(BlockColumnInfo(
            block=j,
            nnz_cols_global=(local_cols + lo).astype(np.int64),
            nnz_cols_local=local_cols.astype(np.int64),
            compact=compact,
            width=hi - lo,
        ))
    return infos
