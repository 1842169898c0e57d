"""1D distributed SpMM: sparsity-oblivious (CAGNET) and sparsity-aware.

Both algorithms compute ``Z = M H`` where ``M`` (the stored, row-distributed
sparse matrix — ``A^T`` in the paper's notation, equal to ``A`` for the
symmetric graphs used in GCN training) and ``H`` share the same block-row
distribution over ``P`` processes.

* The **sparsity-oblivious** algorithm (CAGNET 1D) broadcasts every block
  row ``H_j`` to all processes in turn; every process multiplies its local
  ``A^T_{ij}`` with the full block regardless of whether the block's
  columns are even touched.
* The **sparsity-aware** algorithm (Algorithm 1 of the paper) exchanges
  only the rows of ``H`` selected by ``NnzCols(i, j)`` with a single
  all-to-allv, then multiplies the *compacted* blocks with the packed rows.

Both variants are implemented as **compiled operators**
(:class:`~repro.core.engine.CompiledSpmm`): the per-call metadata (which
rows to pack for whom, which blocks are empty, the flop charges) is
derived once at compile time and the pack/output buffers are reused across
calls, which is what lets one plan serve hundreds of training epochs.  The
plans are :mod:`repro.core.engine`'s ``("1d", "oblivious")`` /
``("1d", "sparsity_aware")`` variants; one-shot callers go through
:func:`repro.core.engine.spmm`.  A call returns only the distributed
result; all communication volume and timing is recorded on the
:class:`~repro.comm.base.Communicator` it runs on, and per-rank compute
runs through :meth:`~repro.comm.base.Communicator.parallel_for` —
sequential under the simulator, genuinely parallel under real backends.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..comm.base import Communicator
from .dist_matrix import DistDenseMatrix, DistSparseMatrix
from .engine import (CompiledSpmm, Stage, Workspace, check_block_operands,
                     idle_task)

__all__ = ["Compiled1DOblivious", "Compiled1DSparsityAware"]


class Compiled1DOblivious(CompiledSpmm):
    """Persistent plan for the CAGNET 1D broadcast algorithm.

    Compile-time work: materialise every full-width block (they are built
    lazily by the NnzCols analysis), compile one broadcast stage per
    block row whose ``after`` runs that step's per-rank multiplies of
    the nonzero blocks, declare the per-rank output accumulators.

    With ``pipeline_depth > 1`` the chunked broadcast schedule is
    double-buffered: while step ``j``'s multiplies run, up to
    ``pipeline_depth - 1`` later block rows are already in flight as
    nonblocking broadcasts — the classic overlap lever for the CAGNET
    baseline, with bit-identical results (the accumulation order over
    ``j`` is unchanged).
    """

    algorithm, mode = "1d", "oblivious"
    comm_category = "bcast"

    def __init__(self, matrix: DistSparseMatrix,
                 comm: Communicator, grid=None, dtype=np.float64,
                 pipeline_depth: int = 1) -> None:
        super().__init__(matrix, comm, grid=grid, dtype=dtype,
                         pipeline_depth=pipeline_depth)
        check_block_operands(matrix, comm)
        p = comm.nranks
        self._out_ws = Workspace(
            [matrix.dist.block_size(i) for i in range(p)], self.dtype)
        self._stages = []
        for j in range(p):
            # Materialising .full here, once, off the hot path.
            tasks = [self._make_task(i, matrix.block(i, j))
                     for i in range(p)]
            self._stages.append(Stage(
                "broadcast", lambda dense, j=j: (dense.block(j),),
                {"root": j, "category": self.comm_category},
                after=lambda _, tasks=tasks: self.comm.parallel_for(
                    tasks, category=self.compute_category),
                span={"stage": j, "peer": j}))

    def _bind(self, width: int) -> None:
        self._out = self._out_ws.views(width)

    def _make_task(self, i: int, info):
        if not info.nnz:
            return idle_task
        full, flops = info.full, 2.0 * info.nnz

        def task() -> None:
            self._out[i] += full @ self._received[i]
            self.comm.charge_spmm(i, flops * self._width,
                                  category=self.compute_category)
        return task

    def _execute(self, dense: DistDenseMatrix) -> DistDenseMatrix:
        for block in self._out:
            block[...] = 0.0
        self._run(self._stages, dense, self.pipeline_depth - 1)
        return dense.like(self._out)


class Compiled1DSparsityAware(CompiledSpmm):
    """Persistent plan for Algorithm 1 (NnzCols-packed all-to-allv).

    Compile-time work: the per-destination gather index sets (each a
    segment of one pack workspace the ``alltoallv`` send matrix views),
    the diagonal gather segments, the per-rank output accumulators and
    the per-column flop constants.  Per call only ``np.take`` packs, one
    ``alltoallv`` and the compacted multiplies remain: a single stage,
    so it runs blocking at every ``pipeline_depth``.
    """

    algorithm, mode = "1d", "sparsity_aware"
    comm_category = "alltoall"

    def __init__(self, matrix: DistSparseMatrix,
                 comm: Communicator, grid=None, dtype=np.float64,
                 pipeline_depth: int = 1) -> None:
        super().__init__(matrix, comm, grid=grid, dtype=dtype,
                         pipeline_depth=pipeline_depth)
        check_block_operands(matrix, comm)
        p = comm.nranks
        # pack[j] = [(i, idx, segment)] in destination order.
        self._pack: List[List[tuple]] = []
        pack_rows: List[int] = []
        for j in range(p):
            packs = []
            for i in range(p):
                if i == j:
                    continue
                idx = matrix.nnz_cols(i, j)
                if idx.size == 0:
                    continue
                packs.append((i, idx, len(pack_rows)))
                pack_rows.append(idx.size)
            self._pack.append(packs)
        # mult[i] = [(j, compact_csr, diag_idx_or_None, diag_segment,
        #             2 * nnz)]
        self._mult: List[List[tuple]] = []
        diag_rows: List[int] = []
        for i in range(p):
            terms = []
            for j in range(p):
                info = matrix.block(i, j)
                if info.compact.nnz == 0:
                    continue
                diag_idx = diag_seg = None
                if i == j:
                    diag_idx = info.nnz_cols_local
                    diag_seg = len(diag_rows)
                    diag_rows.append(diag_idx.size)
                terms.append((j, info.compact, diag_idx, diag_seg,
                              2.0 * info.compact.nnz))
            self._mult.append(terms)
        self._pack_ws = Workspace(pack_rows, self.dtype)
        self._diag_ws = Workspace(diag_rows, self.dtype)
        self._out_ws = Workspace(
            [matrix.dist.block_size(i) for i in range(p)], self.dtype)
        pack_tasks = [self._make_pack_task(j) for j in range(p)]
        mult_tasks = [self._make_mult_task(i) for i in range(p)]
        self._stages = [Stage(
            "alltoallv", lambda dense: (self._send,),
            {"category": self.comm_category},
            before=lambda: self.comm.parallel_for(
                pack_tasks, category=self.compute_category),
            after=lambda _: self.comm.parallel_for(
                mult_tasks, category=self.compute_category),
            span={"phase": "exchange"})]

    def _bind(self, width: int) -> None:
        p = self.comm.nranks
        self._packed = self._pack_ws.views(width)
        self._diag = self._diag_ws.views(width)
        self._out = self._out_ws.views(width)
        # The send matrix rows alias the pack views, so packing fills
        # the all-to-allv payloads in place.
        self._send: List[List[Optional[np.ndarray]]] = \
            [[None] * p for _ in range(p)]
        for j, packs in enumerate(self._pack):
            for i, _, seg in packs:
                self._send[j][i] = self._packed[seg]

    def _make_pack_task(self, j: int):
        def task() -> None:
            h_j = self._dense.block(j)
            for _, idx, seg in self._pack[j]:
                np.take(h_j, idx, axis=0, out=self._packed[seg])
                # Packing the rows into the send buffer is part of the local
                # work the paper's breakdown attributes to the SA schemes.
                self.comm.charge_elementwise(j, idx.size * self._width,
                                             category=self.compute_category)
        return task

    def _make_mult_task(self, i: int):
        def task() -> None:
            z_i = self._out[i]
            z_i[...] = 0.0
            for j, compact, diag_idx, diag_seg, flops in self._mult[i]:
                if diag_idx is not None:
                    rows = np.take(self._dense.block(i), diag_idx, axis=0,
                                   out=self._diag[diag_seg])
                else:
                    rows = self._received[i][j]
                    if rows is None:
                        raise RuntimeError(
                            f"rank {i} expected rows from rank {j} "
                            f"but received none")
                z_i += compact @ rows
                self.comm.charge_spmm(i, flops * self._width,
                                      category=self.compute_category)
        return task

    def _execute(self, dense: DistDenseMatrix) -> DistDenseMatrix:
        self._run(self._stages, dense, self.pipeline_depth - 1)
        return dense.like(self._out)
