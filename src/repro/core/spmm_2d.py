"""2D (SUMMA-style) distributed SpMM: oblivious and sparsity-aware variants.

The paper's conclusion points out that sparsity-awareness "can be applied to
other communication-avoiding partitioning schemes, such as 2D, 2.5D, or 3D";
CAGNET evaluates 2D algorithms and finds them less performant than 1D/1.5D
for full-batch GNN training.  This module implements both claims so the
ablation benchmarks can reproduce that comparison:

* the process grid is ``pr x pc``; ``A^T`` is split into ``pr x pc`` blocks
  and process ``(i, j)`` owns ``A^T_{ij}``;
* the dense matrix ``H`` is split into ``pc`` column-block-rows, and block
  row ``H_j`` is itself split into ``pr`` chunks owned by the processes of
  grid column ``j``;
* **oblivious**: every grid column all-gathers its full ``H_j`` (each
  process receives the chunks of its ``pr - 1`` column peers), multiplies
  locally, and the row sums are combined with an all-reduce over each grid
  row;
* **sparsity-aware**: instead of the all-gather, each process receives from
  its column peers only the ``H_j`` rows selected by the nonzero columns of
  its local block (``NnzCols(i, j)`` restricted to the peer's chunk).

Both variants are implemented as **compiled operators**
(:class:`~repro.core.engine.CompiledSpmm`).  2D is where the plan/execute
split pays the most: the uncompiled sparsity-aware kernel re-derived the
per-peer gather index sets *and* re-sliced the column-compacted blocks
``A^T_{ij}[:, NnzCols]`` on every call; compiled, both are built once and
only ``np.take`` gathers, the exchange and the multiplies remain.  The
registered functions (``("2d", "oblivious")`` / ``("2d",
"sparsity_aware")``) are compile-and-run-once wrappers.  Both variants
return the result in the same ``pr``-block-row layout as 1D/1.5D results
so they can be checked against ``A @ H`` directly (the engine is how the
ablation benchmarks reach them — the GCN trainer itself sticks to 1D/1.5D,
mirroring the paper which evaluates 2D only at the SpMM level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..comm.base import Communicator
from .dist_matrix import BlockRowDistribution
from .engine import (CompiledSpmm, Stage, Workspace, check_grid2d_operands,
                     get_spmm, register_spmm, register_spmm_compiler)

__all__ = ["Grid2D", "Dist2DSparseMatrix", "Compiled2DOblivious",
           "Compiled2DSparsityAware", "spmm_2d_oblivious",
           "spmm_2d_sparsity_aware"]


@dataclass(frozen=True)
class Grid2D:
    """A ``pr x pc`` process grid with rank ``(i, j) -> i * pc + j``."""

    nrows: int
    ncols: int

    def __post_init__(self) -> None:
        if self.nrows <= 0 or self.ncols <= 0:
            raise ValueError("grid dimensions must be positive")

    @property
    def nranks(self) -> int:
        return self.nrows * self.ncols

    def rank(self, row: int, col: int) -> int:
        if not (0 <= row < self.nrows and 0 <= col < self.ncols):
            raise ValueError(f"grid coordinate ({row}, {col}) out of range")
        return row * self.ncols + col

    def coords(self, rank: int) -> Tuple[int, int]:
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range")
        return rank // self.ncols, rank % self.ncols

    def row_group(self, row: int) -> List[int]:
        return [self.rank(row, j) for j in range(self.ncols)]

    def col_group(self, col: int) -> List[int]:
        return [self.rank(i, col) for i in range(self.nrows)]


class Dist2DSparseMatrix:
    """``A^T`` split into a ``pr x pc`` grid of blocks with NnzCols analysis.

    ``row_dist`` / ``col_dist`` give the block boundaries along the two
    dimensions; ``block(i, j)`` is the CSR block owned by process ``(i, j)``
    and ``nnz_cols(i, j)`` its nonzero columns *local to column block j* —
    exactly the rows of ``H_j`` that process needs.
    """

    def __init__(self, matrix: sp.spmatrix, row_dist: BlockRowDistribution,
                 col_dist: BlockRowDistribution, dtype=np.float64) -> None:
        matrix = matrix.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got {matrix.shape}")
        if row_dist.n != matrix.shape[0] or col_dist.n != matrix.shape[1]:
            raise ValueError("distributions do not cover the matrix")
        self.shape = matrix.shape
        self.row_dist = row_dist
        self.col_dist = col_dist
        self.dtype = np.dtype(dtype)
        if matrix.dtype != self.dtype:
            matrix = matrix.astype(self.dtype)
        self._blocks: List[List[sp.csr_matrix]] = []
        self._nnz_cols: List[List[np.ndarray]] = []
        for i in range(row_dist.nblocks):
            rlo, rhi = row_dist.block_range(i)
            row_strip = matrix[rlo:rhi, :].tocsc()
            blocks_row, cols_row = [], []
            for j in range(col_dist.nblocks):
                clo, chi = col_dist.block_range(j)
                block = row_strip[:, clo:chi]
                col_nnz = np.diff(block.indptr)
                nnz_cols = np.flatnonzero(col_nnz > 0).astype(np.int64)
                blocks_row.append(block.tocsr())
                cols_row.append(nnz_cols)
            self._blocks.append(blocks_row)
            self._nnz_cols.append(cols_row)

    @classmethod
    def uniform(cls, matrix: sp.spmatrix, grid: Grid2D,
                dtype=np.float64) -> "Dist2DSparseMatrix":
        n = matrix.shape[0]
        return cls(matrix, BlockRowDistribution.uniform(n, grid.nrows),
                   BlockRowDistribution.uniform(n, grid.ncols), dtype=dtype)

    def block(self, i: int, j: int) -> sp.csr_matrix:
        return self._blocks[i][j]

    def nnz_cols(self, i: int, j: int) -> np.ndarray:
        return self._nnz_cols[i][j]

    @property
    def nnz(self) -> int:
        return int(sum(b.nnz for row in self._blocks for b in row))


def _split_dense(h: np.ndarray, col_dist: BlockRowDistribution,
                 row_chunks: int) -> List[List[np.ndarray]]:
    """``chunks[j][r]``: the ``r``-th chunk of block row ``H_j`` (owned by the
    ``r``-th process of grid column ``j``)."""
    chunks: List[List[np.ndarray]] = []
    for j in range(col_dist.nblocks):
        lo, hi = col_dist.block_range(j)
        block = h[lo:hi]
        bounds = BlockRowDistribution.uniform(block.shape[0], row_chunks).bounds
        chunks.append([block[bounds[r]:bounds[r + 1]].copy()
                       for r in range(row_chunks)])
    return chunks


def _chunk_bounds(block_rows: int, row_chunks: int) -> np.ndarray:
    return BlockRowDistribution.uniform(block_rows, row_chunks).bounds


class _Compiled2DBase(CompiledSpmm):
    """Shared 2D compile-time state: the output buffer, the zero partials
    of empty blocks and the row phase.

    Subclasses fill ``_mult[i][j] = (csr, operand segment, 2 * nnz)`` for
    every nonempty block, bind ``_operands`` — the views the multiply
    reads (the gathered block rows, or the packed gather buffers) — and
    compile the phase that fills them into ``_stages`` (always blocking).
    The row phase, shared by both variants, is one stage per grid row:
    multiply the row's local blocks (``before``), all-reduce a snapshot
    of the partial-sum list over the row group, copy the reduced rows
    out (``after``).  With ``pipeline_depth > 1`` row ``i``'s all-reduce
    is in flight while row ``i + 1`` multiplies; the snapshot keeps the
    next row's task assignments from disturbing a reduction already in
    the air, so results are bit-identical to the synchronous loop.
    """

    def __init__(self, variant, matrix: Dist2DSparseMatrix,
                 comm: Communicator, grid: Grid2D, dtype,
                 compute_category: str, reduce_category: str,
                 pipeline_depth: int = 1) -> None:
        super().__init__(variant, matrix, comm, grid=grid, dtype=dtype,
                         pipeline_depth=pipeline_depth)
        check_grid2d_operands(matrix, None, grid, comm)
        self.compute_category = compute_category
        self.reduce_category = reduce_category
        self._out_ws = Workspace([matrix.shape[0]], self.dtype)
        # An empty block's partial is a read-only segment of a zeroed
        # workspace: mult[i][j] = (zero_segment,).
        self._mult: List[List[Optional[tuple]]] = [
            [None] * grid.ncols for _ in range(grid.nrows)]
        zero_rows: List[int] = []
        for i in range(grid.nrows):
            for j in range(grid.ncols):
                if matrix.block(i, j).nnz == 0:
                    self._mult[i][j] = (len(zero_rows),)
                    zero_rows.append(matrix.row_dist.block_size(i))
        self._zero_ws = Workspace(zero_rows, self.dtype, zeroed=True)
        self._partials: List[Optional[np.ndarray]] = [None] * grid.ncols
        self._rows = []
        for i in range(grid.nrows):
            group = grid.row_group(i)
            tasks = [self._make_task(i, j) for j in range(grid.ncols)]
            self._rows.append(Stage(
                "allreduce", lambda h: (list(self._partials),),
                {"ranks": group, "category": reduce_category},
                before=lambda tasks=tasks, group=group:
                self.comm.parallel_for(tasks, ranks=group,
                                       category=self.compute_category),
                after=self._copy_out(*matrix.row_dist.block_range(i)),
                span={"phase": "reduce", "row": i}))

    def _bind(self, width: int) -> None:
        self._out = self._out_ws.views(width)[0]
        self._zeros = self._zero_ws.views(width)

    def _check_dense(self, dense) -> int:
        width = super()._check_dense(dense)
        if dense.shape[0] != self.matrix.shape[1]:
            raise ValueError(
                f"dense operand has {dense.shape[0]} rows, expected "
                f"{self.matrix.shape[1]}")
        return width

    def _make_task(self, i: int, j: int):
        def task() -> None:
            entry = self._mult[i][j]
            if len(entry) == 1:
                self._partials[j] = self._zeros[entry[0]]
                return
            csr, seg, flops = entry
            self._partials[j] = csr @ self._operands[seg]
            self.comm.charge_spmm(self.grid.rank(i, j), flops * self._width,
                                  category=self.compute_category)
        return task

    def _copy_out(self, lo: int, hi: int):
        def after(reduced) -> None:
            self._out[lo:hi] = reduced[0]
        return after

    def _execute(self, h: np.ndarray) -> np.ndarray:
        self._run(self._stages, h, 0)
        self._run(self._rows, h, self.pipeline_depth - 1)
        return self._out


@register_spmm_compiler("2d", "oblivious")
class Compiled2DOblivious(_Compiled2DBase):
    """Persistent plan for the sparsity-oblivious 2D SUMMA algorithm."""

    def __init__(self, variant, matrix: Dist2DSparseMatrix,
                 comm: Communicator, grid: Grid2D = None, dtype=np.float64,
                 compute_category: str = "local",
                 gather_category: str = "bcast",
                 reduce_category: str = "allreduce",
                 pipeline_depth: int = 1) -> None:
        super().__init__(variant, matrix, comm, grid, dtype,
                         compute_category, reduce_category,
                         pipeline_depth=pipeline_depth)
        self.gather_category = gather_category
        # Chunk staging segments + their global row ranges, and one
        # gathered block-row segment per grid column (the multiply's
        # operand: mult[i][j] reads segment j).
        chunk_rows: List[int] = []
        self._chunk_ranges: List[List[Tuple[int, int]]] = []
        for j in range(grid.ncols):
            lo, hi = matrix.col_dist.block_range(j)
            bounds = _chunk_bounds(hi - lo, grid.nrows)
            chunk_rows.extend(int(bounds[r + 1] - bounds[r])
                              for r in range(grid.nrows))
            self._chunk_ranges.append([
                (lo + int(bounds[r]), lo + int(bounds[r + 1]))
                for r in range(grid.nrows)])
        self._chunk_ws = Workspace(chunk_rows, self.dtype)
        self._gathered_ws = Workspace(
            [matrix.col_dist.block_size(j) for j in range(grid.ncols)],
            self.dtype)
        for i in range(grid.nrows):
            for j in range(grid.ncols):
                block = matrix.block(i, j)
                if block.nnz:
                    self._mult[i][j] = (block, j, 2.0 * block.nnz)
        # Phase 1: every grid column all-gathers its block row H_j.
        self._stages = [Stage(
            "allgather", lambda h, j=j: (self._chunks[j],),
            {"ranks": grid.col_group(j), "category": gather_category},
            before=self._make_split(j), after=self._make_concat(j),
            span={"phase": "gather", "col": j}) for j in range(grid.ncols)]

    def _bind(self, width: int) -> None:
        super()._bind(width)
        chunks = self._chunk_ws.views(width)
        nr = self.grid.nrows
        self._chunks = [chunks[j * nr:(j + 1) * nr]
                        for j in range(self.grid.ncols)]
        self._operands = self._gathered_ws.views(width)

    def _make_split(self, j: int):
        def before() -> None:
            h, chunks = self._dense, self._chunks[j]
            for r, (lo, hi) in enumerate(self._chunk_ranges[j]):
                chunks[r][...] = h[lo:hi]
        return before

    def _make_concat(self, j: int):
        def after(parts) -> None:
            # Every member of the column now holds the full block row H_j.
            np.concatenate(parts[0], axis=0, out=self._operands[j])
        return after


@register_spmm_compiler("2d", "sparsity_aware")
class Compiled2DSparsityAware(_Compiled2DBase):
    """Persistent plan for the sparsity-aware 2D SUMMA algorithm.

    The expensive per-call metadata of the uncompiled kernel — the
    per-peer restriction of ``NnzCols`` to chunk ranges and the column
    compaction ``block[:, needed]`` — is all hoisted to compile time; the
    per-peer payloads become views into one packed gather segment per
    block, filled by a single ``np.take``.
    """

    def __init__(self, variant, matrix: Dist2DSparseMatrix,
                 comm: Communicator, grid: Grid2D = None, dtype=np.float64,
                 compute_category: str = "local",
                 comm_category: str = "alltoall",
                 reduce_category: str = "allreduce",
                 pipeline_depth: int = 1) -> None:
        super().__init__(variant, matrix, comm, grid, dtype,
                         compute_category, reduce_category,
                         pipeline_depth=pipeline_depth)
        self.comm_category = comm_category
        # Per nonempty (i, j): the packed gather (global H row indices +
        # pack segment) and the compacted block; the exchange messages
        # view row ranges of the pack segments, in the same (j, i, r)
        # order as the uncompiled kernel builds them.
        pack_rows: List[int] = []
        self._gathers: List[Tuple[np.ndarray, int]] = []
        self._message_rows: List[Tuple[int, int, int, int, int]] = []
        self._pack_charges: List[Tuple[int, int]] = []
        for j in range(grid.ncols):
            clo, chi = matrix.col_dist.block_range(j)
            bounds = _chunk_bounds(chi - clo, grid.nrows)
            for i in range(grid.nrows):
                if self._mult[i][j] is not None:        # empty block
                    continue
                dst = grid.rank(i, j)
                needed = matrix.nnz_cols(i, j)
                seg = len(pack_rows)
                pack_rows.append(needed.size)
                self._gathers.append((clo + needed, seg))
                # The compacted block (column-renumbered to the packed
                # rows) — previously re-sliced on every call.
                compact = matrix.block(i, j)[:, needed]
                self._mult[i][j] = (compact, seg, 2.0 * compact.nnz)
                # Split the packed segment by source chunk; off-diagonal
                # pieces travel as exchange messages.
                for r in range(grid.nrows):
                    lo, hi = int(bounds[r]), int(bounds[r + 1])
                    piece = (needed >= lo) & (needed < hi)
                    n_rows = int(np.count_nonzero(piece))
                    if n_rows == 0:
                        continue
                    start = int(np.flatnonzero(piece)[0])
                    src = grid.rank(r, j)
                    if src != dst:
                        self._pack_charges.append((src, n_rows))
                        self._message_rows.append(
                            (src, dst, seg, start, start + n_rows))
        self._pack_ws = Workspace(pack_rows, self.dtype)
        # Phase 1: fill every packed buffer with one gather, charge the
        # packing work, move the off-diagonal segments point-to-point.
        self._stages = [Stage(
            "exchange", lambda h: (self._messages,),
            {"category": comm_category, "sync_ranks": range(comm.nranks)},
            before=self._pack,
            span={"phase": "exchange", "messages": len(self._message_rows)})]

    def _bind(self, width: int) -> None:
        super()._bind(width)
        self._operands = self._pack_ws.views(width)
        self._messages = [(src, dst, self._operands[seg][lo:hi])
                          for src, dst, seg, lo, hi in self._message_rows]

    def _pack(self) -> None:
        h = self._dense
        for rows, seg in self._gathers:
            np.take(h, rows, axis=0, out=self._operands[seg])
        for src, n_rows in self._pack_charges:
            self.comm.charge_elementwise(src, n_rows * self._width,
                                         category=self.compute_category)


@register_spmm("2d", "oblivious", needs_grid=True,
               description="2D SUMMA: column all-gather + row all-reduce")
def spmm_2d_oblivious(matrix: Dist2DSparseMatrix, h: np.ndarray, grid: Grid2D,
                      comm: Communicator,
                      compute_category: str = "local",
                      gather_category: str = "bcast",
                      reduce_category: str = "allreduce") -> np.ndarray:
    """Sparsity-oblivious 2D SpMM (column all-gather + row all-reduce).

    Compile-and-run-once wrapper around :class:`Compiled2DOblivious`.
    """
    h = _coerce_dense(h)
    variant = get_spmm("2d", sparsity_aware=False)
    op = Compiled2DOblivious(variant, matrix, comm, grid=grid,
                             dtype=h.dtype,
                             compute_category=compute_category,
                             gather_category=gather_category,
                             reduce_category=reduce_category)
    return op(h)


@register_spmm("2d", "sparsity_aware", needs_grid=True,
               description="2D SUMMA with NnzCols-restricted column exchange")
def spmm_2d_sparsity_aware(matrix: Dist2DSparseMatrix, h: np.ndarray,
                           grid: Grid2D, comm: Communicator,
                           compute_category: str = "local",
                           comm_category: str = "alltoall",
                           reduce_category: str = "allreduce") -> np.ndarray:
    """Sparsity-aware 2D SpMM: column peers exchange only needed rows.

    Compile-and-run-once wrapper around :class:`Compiled2DSparsityAware`.
    """
    h = _coerce_dense(h)
    variant = get_spmm("2d")
    op = Compiled2DSparsityAware(variant, matrix, comm, grid=grid,
                                 dtype=h.dtype,
                                 compute_category=compute_category,
                                 comm_category=comm_category,
                                 reduce_category=reduce_category)
    return op(h)


def _coerce_dense(h: np.ndarray) -> np.ndarray:
    """Coerce non-float inputs to float64.

    Intentional contract change from the pre-compiled wrappers, which
    upcast *everything* (including float32) to float64: a floating dtype
    is now preserved so single-precision operands run single-precision
    end to end (see ``docs/performance.md``); only integer/bool inputs
    are promoted.
    """
    h = np.asarray(h)
    if h.dtype.kind != "f":
        h = h.astype(np.float64)
    return h
