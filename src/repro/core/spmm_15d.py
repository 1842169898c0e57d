"""1.5D distributed SpMM: sparsity-oblivious and sparsity-aware variants.

In the 1.5D layout (Koanantakool et al.; CAGNET), the ``P`` processes form
a ``P/c x c`` grid.  Both the sparse matrix and the dense matrix are split
into ``P/c`` block rows, and every block row is replicated on the ``c``
processes of its grid row.  The ``P/c`` partial products of a block row are
divided among the ``c`` replicas (``s = P/c^2`` stages each); the replicas'
partial results are then summed with an all-reduce over the grid row.

The sparsity-oblivious variant moves entire ``H`` block rows between the
processes of a grid *column* each stage (a column broadcast); the
sparsity-aware variant (Algorithm 2 of the paper) sends only the rows
selected by ``NnzCols`` with point-to-point messages.

Both variants are implemented as **compiled operators**
(:class:`~repro.core.engine.CompiledSpmm`): the staged broadcast /
point-to-point schedules, gather index sets and flop charges are derived
once at compile time, and the pack buffers plus per-replica partial-sum
accumulators are reused across calls.  The plans register with
:mod:`repro.core.engine` under ``("1.5d", "oblivious")`` /
``("1.5d", "sparsity_aware")``; one-shot callers go through
:func:`repro.core.engine.spmm`.  They run against any
:class:`~repro.comm.base.Communicator` backend; per-rank compute goes
through :meth:`~repro.comm.base.Communicator.parallel_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import List

import numpy as np

from ..comm.base import Communicator
from .dist_matrix import DistDenseMatrix, DistSparseMatrix
from .engine import (CompiledSpmm, Stage, Workspace, check_grid_operands,
                     idle_task, register_spmm_compiler)

__all__ = ["Compiled15DOblivious", "Compiled15DSparsityAware", "ProcessGrid"]


@dataclass(frozen=True)
class ProcessGrid:
    """A ``P/c x c`` process grid with rank ``(i, j) -> i * c + j``.

    ``i`` indexes the grid row (equivalently, the block row of ``A^T`` and
    ``H`` the rank holds); ``j`` indexes the replica column.
    """

    nranks: int
    replication: int

    def __post_init__(self) -> None:
        if not self.fits(self.nranks, self.replication):
            raise ValueError(
                f"1.5D needs a positive c with c | P and c | P/c; got "
                f"P={self.nranks}, c={self.replication}")

    @staticmethod
    def fits(nranks: int, replication: int) -> bool:
        """Whether ``nranks`` ranks form a ``P/c x c`` grid with ``s = P/c^2``
        whole stages per replica — the one 1.5D feasibility rule."""
        c = replication
        return c > 0 and nranks % c == 0 and (nranks // c) % c == 0

    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        """Number of grid rows (= number of block rows, P/c)."""
        return self.nranks // self.replication

    @property
    def stages(self) -> int:
        """Stages per replica: ``s = P / c^2``."""
        return self.nrows // self.replication

    def rank(self, row: int, col: int) -> int:
        if not (0 <= row < self.nrows and 0 <= col < self.replication):
            raise ValueError(f"grid coordinate ({row}, {col}) out of range")
        return row * self.replication + col

    def coords(self, rank: int) -> tuple[int, int]:
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range")
        return rank // self.replication, rank % self.replication

    def row_group(self, row: int) -> List[int]:
        """All ranks replicating block row ``row``."""
        return [self.rank(row, j) for j in range(self.replication)]

    def col_group(self, col: int) -> List[int]:
        """All ranks in replica column ``col``."""
        return [self.rank(i, col) for i in range(self.nrows)]


def _stage_block(grid: ProcessGrid, col: int, stage: int) -> int:
    """Block row consumed by column ``col`` at ``stage`` (q = j*s + k)."""
    return col * grid.stages + stage


class _Compiled15DBase(CompiledSpmm):
    """Shared 1.5D compile-time state: partial accumulators and the
    replica-reduction phase.

    Subclasses compile the exchange phase into ``_stages`` with its
    prefetch window ``_ahead``; every call zeroes the partials, runs that
    phase, then all-reduces each grid row's partial sums (always
    blocking) and keeps one replica's copy as the result's block row.
    """

    def __init__(self, variant, matrix: DistSparseMatrix,
                 comm: Communicator, grid: ProcessGrid, dtype,
                 compute_category: str, comm_category: str,
                 reduce_category: str, pipeline_depth: int = 1) -> None:
        super().__init__(variant, matrix, comm, grid=grid, dtype=dtype,
                         pipeline_depth=pipeline_depth)
        check_grid_operands(matrix, grid, comm)
        self.compute_category = compute_category
        self.comm_category = comm_category
        self.reduce_category = reduce_category
        self._partial_ws = Workspace(
            [matrix.dist.block_size(i) for i in range(grid.nrows)
             for _ in range(grid.replication)], self.dtype)
        self._reduce = [Stage(
            "allreduce", lambda dense, i=i: (self._partial[i],),
            {"ranks": grid.row_group(i), "category": reduce_category},
            after=itemgetter(0), span={"phase": "reduce", "row": i})
            for i in range(grid.nrows)]

    def _bind(self, width: int) -> None:
        views = self._partial_ws.views(width)
        c = self.grid.replication
        self._partial: List[List[np.ndarray]] = [
            views[i * c:(i + 1) * c] for i in range(self.grid.nrows)]

    def _execute(self, dense: DistDenseMatrix) -> DistDenseMatrix:
        for row in self._partial:
            for block in row:
                block[...] = 0.0
        self._run(self._stages, dense, self._ahead)
        return dense.like(self._run(self._reduce, dense, 0))


@register_spmm_compiler("1.5d", "oblivious", needs_grid=True)
class Compiled15DOblivious(_Compiled15DBase):
    """Persistent plan for the CAGNET 1.5D staged-broadcast algorithm.

    One broadcast stage per (stage, col) entry, in that order; its
    ``after`` runs the column group's multiplies.  The prefetch window
    is ``(pipeline_depth - 1) * replication`` entries: the schedule
    interleaves the replica columns, so the next entry of the *same*
    column — the one whose exchange a column's multiply can actually
    hide — sits ``replication`` positions ahead, and ``pipeline_depth``
    keeps its natural meaning of "stages in flight per column".
    """

    def __init__(self, variant, matrix: DistSparseMatrix,
                 comm: Communicator, grid: ProcessGrid = None,
                 dtype=np.float64,
                 compute_category: str = "local",
                 comm_category: str = "bcast",
                 reduce_category: str = "allreduce",
                 pipeline_depth: int = 1) -> None:
        super().__init__(variant, matrix, comm, grid, dtype,
                         compute_category, comm_category, reduce_category,
                         pipeline_depth=pipeline_depth)
        self._ahead = (self.pipeline_depth - 1) * grid.replication
        self._stages = []
        for stage in range(grid.stages):
            for col in range(grid.replication):
                q = _stage_block(grid, col, stage)
                group = grid.col_group(col)
                root = grid.rank(q, col)
                tasks = [self._make_task(pos, rank,
                                         matrix.block(grid.coords(rank)[0], q))
                         for pos, rank in enumerate(group)]
                self._stages.append(Stage(
                    "broadcast", lambda dense, q=q: (dense.block(q),),
                    {"root": root, "ranks": group,
                     "category": comm_category},
                    after=lambda _, tasks=tasks, group=group:
                    self.comm.parallel_for(tasks, ranks=group,
                                           category=self.compute_category),
                    span={"stage": stage, "col": col, "peer": root}))

    def _make_task(self, pos: int, rank: int, info):
        if not info.nnz:
            return idle_task
        i, j = self.grid.coords(rank)
        full, flops = info.full, 2.0 * info.nnz

        def task() -> None:
            self._partial[i][j] += full @ self._received[pos]
            self.comm.charge_spmm(rank, flops * self._width,
                                  category=self.compute_category)
        return task


@register_spmm_compiler("1.5d", "sparsity_aware", needs_grid=True)
class Compiled15DSparsityAware(_Compiled15DBase):
    """Persistent plan for Algorithm 2 (staged NnzCols point-to-point).

    Compile-time work: per (stage, col) the packed gather index sets, the
    pack-workspace segments the point-to-point messages view, the
    diagonal gather segments, and the per-column flop constants.  Each
    stage packs on its sources (``before``), exchanges, and multiplies
    (``after``) the rows the exchange *delivered* to each receiver;
    every stage owns distinct segments, so the pipelined path can pack
    stage ``k + 1`` while stage ``k``'s exchange is in flight.
    """

    def __init__(self, variant, matrix: DistSparseMatrix,
                 comm: Communicator, grid: ProcessGrid = None,
                 dtype=np.float64,
                 compute_category: str = "local",
                 comm_category: str = "alltoall",
                 reduce_category: str = "allreduce",
                 pipeline_depth: int = 1) -> None:
        super().__init__(variant, matrix, comm, grid, dtype,
                         compute_category, comm_category, reduce_category,
                         pipeline_depth=pipeline_depth)
        self._ahead = self.pipeline_depth - 1
        # Per stage: messages = [(src, dst, segment)] in col-major
        # order; one pack task per column (on the source rank) and one
        # multiply task per rank, whose rows are a delivered message or
        # a diagonal gather.
        self._message_segs: List[List[tuple]] = []
        self._stages = []
        pack_rows: List[int] = []
        diag_rows: List[int] = []
        for stage in range(grid.stages):
            messages, pack_tasks, sources = [], [], []
            mult_tasks = [idle_task] * comm.nranks
            for col in range(grid.replication):
                q = _stage_block(grid, col, stage)
                src = grid.rank(q, col)
                sources.append(src)
                items = []
                for i in range(grid.nrows):
                    if i == q:
                        continue
                    idx = matrix.nnz_cols(i, q)
                    if idx.size == 0:
                        continue
                    dst = grid.rank(i, col)
                    seg = len(pack_rows)
                    pack_rows.append(idx.size)
                    items.append((idx, seg))
                    messages.append((src, dst, seg))
                pack_tasks.append(self._make_pack_task(q, src, items))
                for i in range(grid.nrows):
                    rank = grid.rank(i, col)
                    info = matrix.block(i, q)
                    if info.compact.nnz == 0:
                        continue
                    if i == q:
                        idx = info.nnz_cols_local
                        rows_ref = (q, idx, len(diag_rows))
                        diag_rows.append(idx.size)
                    else:
                        rows_ref = (src, rank)
                    mult_tasks[rank] = self._make_mult_task(
                        rank, i, col, info.compact, rows_ref)
            self._message_segs.append(messages)
            self._stages.append(Stage(
                "exchange", lambda dense, k=stage: (self._messages[k],),
                {"category": comm_category,
                 "sync_ranks": range(comm.nranks)},
                before=lambda tasks=pack_tasks, sources=sources:
                self.comm.parallel_for(tasks, ranks=sources,
                                       category=self.compute_category),
                after=lambda _, tasks=mult_tasks: self.comm.parallel_for(
                    tasks, category=self.compute_category),
                span={"stage": stage, "messages": len(messages)}))
        self._pack_ws = Workspace(pack_rows, self.dtype)
        self._diag_ws = Workspace(diag_rows, self.dtype)

    def _bind(self, width: int) -> None:
        super()._bind(width)
        self._packed = self._pack_ws.views(width)
        self._diag = self._diag_ws.views(width)
        # Per stage, the exchange batch over the pack views.
        self._messages = [[(src, dst, self._packed[seg])
                           for src, dst, seg in messages]
                          for messages in self._message_segs]

    def _make_pack_task(self, q: int, src: int, items: List[tuple]):
        def task() -> None:
            h_q = self._dense.block(q)
            for idx, seg in items:
                np.take(h_q, idx, axis=0, out=self._packed[seg])
                self.comm.charge_elementwise(src, idx.size * self._width,
                                             category=self.compute_category)
        return task

    def _make_mult_task(self, rank: int, i: int, col: int, compact,
                        rows_ref):
        """``rows_ref``: the ``(src, dst)`` key of the delivered message,
        or ``(q, idx, diag segment)`` for the diagonal block's local
        gather."""
        flops = 2.0 * compact.nnz

        def task() -> None:
            if len(rows_ref) == 3:
                q, idx, seg = rows_ref
                rows = np.take(self._dense.block(q), idx, axis=0,
                               out=self._diag[seg])
            else:
                rows = self._received[rows_ref]
            self._partial[i][col] += compact @ rows
            self.comm.charge_spmm(rank, flops * self._width,
                                  category=self.compute_category)
        return task
