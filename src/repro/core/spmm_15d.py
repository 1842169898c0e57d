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
accumulators are reused across calls.  The registered functions
(``("1.5d", "oblivious")`` / ``("1.5d", "sparsity_aware")``) are thin
compile-and-run-once wrappers.  They run against any
:class:`~repro.comm.base.Communicator` backend; per-rank compute goes
through :meth:`~repro.comm.base.Communicator.parallel_for`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from time import perf_counter

from ..comm.base import Communicator
from ..obs.tracer import TRACE
from .dist_matrix import BlockRowDistribution, DistDenseMatrix, DistSparseMatrix
from .engine import (CompiledSpmm, Workspace, check_grid_operands,
                     get_spmm, register_spmm, register_spmm_compiler)

__all__ = ["Compiled15DOblivious", "Compiled15DSparsityAware", "ProcessGrid",
           "spmm_15d_oblivious", "spmm_15d_sparsity_aware"]


@dataclass(frozen=True)
class ProcessGrid:
    """A ``P/c x c`` process grid with rank ``(i, j) -> i * c + j``.

    ``i`` indexes the grid row (equivalently, the block row of ``A^T`` and
    ``H`` the rank holds); ``j`` indexes the replica column.
    """

    nranks: int
    replication: int

    def __post_init__(self) -> None:
        c = self.replication
        if c <= 0:
            raise ValueError("replication factor must be positive")
        if self.nranks % c != 0:
            raise ValueError(
                f"replication factor {c} does not divide {self.nranks} ranks")
        rows = self.nranks // c
        if rows % c != 0:
            raise ValueError(
                f"1.5D algorithm needs c | P/c; got P={self.nranks}, c={c}")

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
    """Shared 1.5D compile-time state: schedules and partial accumulators."""

    def __init__(self, variant, matrix: DistSparseMatrix,
                 comm: Communicator, grid: ProcessGrid, dtype,
                 compute_category: str, comm_category: str,
                 reduce_category: str, pipeline_depth: int = 1) -> None:
        super().__init__(variant, matrix, comm, grid=grid, dtype=dtype,
                         pipeline_depth=pipeline_depth)
        check_grid_operands(matrix, None, grid, comm)
        self.compute_category = compute_category
        self.comm_category = comm_category
        self.reduce_category = reduce_category
        self._partial_ws = Workspace(
            [matrix.dist.block_size(i) for i in range(grid.nrows)
             for _ in range(grid.replication)], self.dtype)
        self._row_groups = [grid.row_group(i) for i in range(grid.nrows)]
        self._dense: Optional[DistDenseMatrix] = None

    def _bind(self, width: int) -> None:
        views = self._partial_ws.views(width)
        c = self.grid.replication
        self._partial: List[List[np.ndarray]] = [
            views[i * c:(i + 1) * c] for i in range(self.grid.nrows)]

    def _zero_partials(self) -> None:
        for row in self._partial:
            for block in row:
                block[...] = 0.0

    def _reduce_partials(self, dense: DistDenseMatrix) -> DistDenseMatrix:
        """All-reduce the per-replica partial sums over each grid row."""
        out_blocks: List[np.ndarray] = []
        for i in range(self.grid.nrows):
            reduced = self.comm.allreduce(self._partial[i],
                                          ranks=self._row_groups[i],
                                          category=self.reduce_category)
            # All replicas now hold the same block; keep one copy as the
            # canonical block row of the result.
            out_blocks.append(reduced[0])
        return dense.like(out_blocks)


@register_spmm_compiler("1.5d", "oblivious")
class Compiled15DOblivious(_Compiled15DBase):
    """Persistent plan for the CAGNET 1.5D staged-broadcast algorithm."""

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
        # Per (stage, col): the broadcast root/group and, per group member,
        # the (i, j, full_csr, 2 * nnz, rank) multiply or None for empty
        # blocks.
        self._schedule: List[List[tuple]] = []
        for stage in range(grid.stages):
            cols = []
            for col in range(grid.replication):
                q = _stage_block(grid, col, stage)
                group = grid.col_group(col)
                root = grid.rank(q, col)
                terms: List[Optional[tuple]] = []
                for rank in group:
                    i, j = grid.coords(rank)
                    info = matrix.block(i, q)
                    terms.append((i, j, info.full, 2.0 * info.nnz, rank)
                                 if info.nnz else None)
                cols.append((q, group, root, terms))
            self._schedule.append(cols)
        self._col_tasks = [
            [self._make_task(pos) for pos in range(grid.nrows)]
            for _ in range(grid.replication)]
        self._current: Optional[tuple] = None
        self._copies: Optional[List[np.ndarray]] = None

    def _make_task(self, pos: int):
        def task() -> None:
            entry = self._current[3][pos]
            if entry is None:
                return
            i, j, full, flops, rank = entry
            self._partial[i][j] += full @ self._copies[pos]
            self.comm.charge_spmm(rank, flops * self._width,
                                  category=self.compute_category)
        return task

    def _execute(self, dense: DistDenseMatrix) -> DistDenseMatrix:
        comm = self.comm
        grid = self.grid
        self._zero_partials()
        if self.pipeline_depth > 1 and grid.stages * grid.replication > 1:
            self._run_pipelined(dense)
        else:
            tr = TRACE
            for stage in range(grid.stages):
                for col in range(grid.replication):
                    t0 = perf_counter() if tr.enabled else 0.0
                    current = self._schedule[stage][col]
                    q, group, root, _ = current
                    self._copies = comm.broadcast(dense.block(q), root=root,
                                                  ranks=group,
                                                  category=self.comm_category)
                    self._current = current
                    comm.parallel_for(self._col_tasks[col], ranks=group,
                                      category=self.compute_category)
                    if tr.enabled:
                        tr.add_span("driver", "spmm.stage", "spmm", t0,
                                    perf_counter(),
                                    {"stage": stage, "col": col,
                                     "peer": root})
        self._copies = None
        self._current = None
        return self._reduce_partials(dense)

    def _run_pipelined(self, dense: DistDenseMatrix) -> None:
        """Double-buffer the flattened (stage, col) broadcast sequence:
        while one column group multiplies, the next entries' block rows
        are in flight as nonblocking broadcasts.  The multiply order —
        and hence every partial-sum accumulation order — is unchanged.

        The prefetch window is ``(depth - 1) * replication`` flattened
        entries: the schedule interleaves the replica columns, so the
        next entry of the *same* column — the one whose exchange a
        column's multiply can actually hide — sits ``replication``
        positions ahead.  ``pipeline_depth`` therefore keeps its natural
        meaning of "stages in flight per column"."""
        comm = self.comm
        grid = self.grid
        entries = [(col, self._schedule[stage][col])
                   for stage in range(grid.stages)
                   for col in range(grid.replication)]
        ahead = (self.pipeline_depth - 1) * grid.replication
        inflight: "deque" = deque()
        issued = 0
        n = len(entries)
        for k in range(n):
            while issued <= min(k + ahead, n - 1):
                _, (q, group, root, _) = entries[issued]
                inflight.append(comm.ibroadcast(
                    dense.block(q), root=root, ranks=group,
                    category=self.comm_category))
                issued += 1
            col, current = entries[k]
            tr = TRACE
            t0 = perf_counter() if tr.enabled else 0.0
            self._copies = inflight.popleft().wait()
            self._current = current
            comm.parallel_for(self._col_tasks[col], ranks=current[1],
                              category=self.compute_category)
            if tr.enabled:
                tr.add_span("driver", "spmm.stage", "spmm", t0,
                            perf_counter(),
                            {"stage": k // grid.replication, "col": col,
                             "peer": current[2], "pipelined": True})


@register_spmm_compiler("1.5d", "sparsity_aware")
class Compiled15DSparsityAware(_Compiled15DBase):
    """Persistent plan for Algorithm 2 (staged NnzCols point-to-point).

    Compile-time work: per (stage, col) the packed gather index sets, the
    pack-workspace segments the point-to-point messages view, the
    diagonal gather segments, and the per-column flop constants.  Every
    stage owns distinct segments, so the pipelined path can pack stage
    ``k + 1`` while stage ``k``'s exchange is in flight.
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
        # Per stage: pack[col] = (q, src, [(idx, segment)]) in destination
        # order; messages = [(src, dst, segment)] in the same col-major
        # order the uncompiled kernel builds them; mult[rank] =
        # (i, col, compact, rows_ref, 2 * nnz) or None, where rows_ref is
        # ("recv", pack segment) or ("diag", q, idx, diag segment).
        self._stages: List[dict] = []
        pack_rows: List[int] = []
        diag_rows: List[int] = []
        for stage in range(grid.stages):
            packs, messages = [], []
            mult: List[Optional[tuple]] = [None] * comm.nranks
            for col in range(grid.replication):
                q = _stage_block(grid, col, stage)
                src = grid.rank(q, col)
                items = []
                payload_of = {}
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
                    payload_of[i] = seg
                packs.append((q, src, items))
                for i in range(grid.nrows):
                    rank = grid.rank(i, col)
                    info = matrix.block(i, q)
                    if info.compact.nnz == 0:
                        continue
                    if i == q:
                        idx = info.nnz_cols_local
                        rows_ref = ("diag", q, idx, len(diag_rows))
                        diag_rows.append(idx.size)
                    else:
                        rows_ref = ("recv", payload_of[i])
                    mult[rank] = (i, col, info.compact, rows_ref,
                                  2.0 * info.compact.nnz)
            sources = [grid.rank(_stage_block(grid, col, stage), col)
                       for col in range(grid.replication)]
            self._stages.append({"packs": packs, "messages": messages,
                                 "mult": mult, "sources": sources})
        self._pack_ws = Workspace(pack_rows, self.dtype)
        self._diag_ws = Workspace(diag_rows, self.dtype)
        self._pack_tasks = [self._make_pack_task(col)
                            for col in range(grid.replication)]
        self._mult_tasks = [self._make_mult_task(rank)
                            for rank in range(comm.nranks)]
        self._stage_state: Optional[dict] = None

    def _bind(self, width: int) -> None:
        super()._bind(width)
        self._packed = self._pack_ws.views(width)
        self._diag = self._diag_ws.views(width)
        # Per stage, the exchange batch over the pack views.
        self._messages = [[(src, dst, self._packed[seg])
                           for src, dst, seg in stage["messages"]]
                          for stage in self._stages]

    def _make_pack_task(self, col: int):
        def task() -> None:
            q, src, items = self._stage_state["packs"][col]
            h_q = self._dense.block(q)
            for idx, seg in items:
                np.take(h_q, idx, axis=0, out=self._packed[seg])
                self.comm.charge_elementwise(src, idx.size * self._width,
                                             category=self.compute_category)
        return task

    def _make_mult_task(self, rank: int):
        def task() -> None:
            entry = self._stage_state["mult"][rank]
            if entry is None:
                return
            i, col, compact, rows_ref, flops = entry
            if rows_ref[0] == "diag":
                _, q, idx, seg = rows_ref
                rows = np.take(self._dense.block(q), idx, axis=0,
                               out=self._diag[seg])
            else:
                rows = self._packed[rows_ref[1]]
            self._partial[i][col] += compact @ rows
            self.comm.charge_spmm(rank, flops * self._width,
                                  category=self.compute_category)
        return task

    def _execute(self, dense: DistDenseMatrix) -> DistDenseMatrix:
        comm = self.comm
        self._dense = dense
        self._zero_partials()
        if self.pipeline_depth > 1 and len(self._stages) > 1:
            self._run_pipelined()
        else:
            tr = TRACE
            for stage, stage_state in enumerate(self._stages):
                t0 = perf_counter() if tr.enabled else 0.0
                self._stage_state = stage_state
                comm.parallel_for(self._pack_tasks,
                                  ranks=stage_state["sources"],
                                  category=self.compute_category)
                comm.exchange(self._messages[stage],
                              category=self.comm_category,
                              sync_ranks=range(comm.nranks))
                comm.parallel_for(self._mult_tasks,
                                  category=self.compute_category)
                if tr.enabled:
                    tr.add_span("driver", "spmm.stage", "spmm", t0,
                                perf_counter(),
                                {"stage": stage,
                                 "messages": len(stage_state["messages"])})
        self._stage_state = None
        self._dense = None
        return self._reduce_partials(dense)

    def _run_pipelined(self) -> None:
        """Double-buffer the staged exchanges: pack and post stage
        ``k + 1``'s point-to-point batch (its pack segments are distinct
        per stage, so packing early cannot clobber anything), then run
        stage ``k``'s multiplies while the batch is in flight.  The
        multiply and partial-accumulation order is identical to the
        synchronous path, so results stay bit-identical."""
        comm = self.comm
        n = len(self._stages)
        ahead = self.pipeline_depth - 1
        inflight: "deque" = deque()
        issued = 0
        for k in range(n):
            while issued <= min(k + ahead, n - 1):
                stage_state = self._stages[issued]
                self._stage_state = stage_state
                comm.parallel_for(self._pack_tasks,
                                  ranks=stage_state["sources"],
                                  category=self.compute_category)
                inflight.append(comm.iexchange(
                    self._messages[issued], category=self.comm_category,
                    sync_ranks=range(comm.nranks)))
                issued += 1
            tr = TRACE
            t0 = perf_counter() if tr.enabled else 0.0
            inflight.popleft().wait()
            self._stage_state = self._stages[k]
            comm.parallel_for(self._mult_tasks,
                              category=self.compute_category)
            if tr.enabled:
                tr.add_span("driver", "spmm.stage", "spmm", t0,
                            perf_counter(), {"stage": k, "pipelined": True})


@register_spmm("1.5d", "oblivious", needs_grid=True,
               description="CAGNET 1.5D: staged column broadcasts")
def spmm_15d_oblivious(matrix: DistSparseMatrix, dense: DistDenseMatrix,
                       grid: ProcessGrid, comm: Communicator,
                       compute_category: str = "local",
                       comm_category: str = "bcast",
                       reduce_category: str = "allreduce") -> DistDenseMatrix:
    """Sparsity-oblivious 1.5D SpMM (CAGNET / Koanantakool baseline).

    Compile-and-run-once wrapper around :class:`Compiled15DOblivious`.
    """
    check_grid_operands(matrix, dense, grid, comm)
    variant = get_spmm("1.5d", sparsity_aware=False)
    op = Compiled15DOblivious(variant, matrix, comm, grid=grid,
                              dtype=dense.dtype,
                              compute_category=compute_category,
                              comm_category=comm_category,
                              reduce_category=reduce_category)
    return op(dense)


@register_spmm("1.5d", "sparsity_aware", needs_grid=True,
               description="Algorithm 2: staged NnzCols point-to-point")
def spmm_15d_sparsity_aware(matrix: DistSparseMatrix, dense: DistDenseMatrix,
                            grid: ProcessGrid, comm: Communicator,
                            compute_category: str = "local",
                            comm_category: str = "alltoall",
                            reduce_category: str = "allreduce"
                            ) -> DistDenseMatrix:
    """Sparsity-aware 1.5D SpMM (Algorithm 2 of the paper).

    Per stage, the owner of the consumed block row sends each process of
    its grid column only the rows that process's ``NnzCols`` selects
    (non-blocking sends / blocking receives in the paper; a batched
    point-to-point exchange here).

    Compile-and-run-once wrapper around :class:`Compiled15DSparsityAware`.
    """
    check_grid_operands(matrix, dense, grid, comm)
    variant = get_spmm("1.5d")
    op = Compiled15DSparsityAware(variant, matrix, comm, grid=grid,
                                  dtype=dense.dtype,
                                  compute_category=compute_category,
                                  comm_category=comm_category,
                                  reduce_category=reduce_category)
    return op(dense)
