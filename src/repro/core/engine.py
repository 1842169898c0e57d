"""Unified distributed-SpMM engine: the variant table, checks, dispatch.

Before this module existed, every caller (the distributed GCN, the trainer,
the benchmark harness, the CLI) hard-wired itself to individual functions
in :mod:`~repro.core.spmm_1d` / :mod:`~repro.core.spmm_15d` and to the
concrete simulator class.  The engine collapses that duplication into one
seam:

* one fixed **table** of compiled plan classes keyed by
  ``{"1d", "1.5d"} x {"oblivious", "sparsity_aware"}`` — the paper's four
  variants; each :class:`CompiledSpmm` subclass names its ``algorithm``,
  ``mode`` and ``needs_grid`` as class constants;
* **common operand-compatibility checks** (:func:`check_block_operands`,
  :func:`check_grid_operands`) shared by the algorithm implementations;
* **compiled execution** (:func:`compile`, :class:`CompiledSpmm`) on any
  :class:`~repro.comm.base.Communicator` backend, simulated or real: the
  plan/execute split.  Compiling a variant against one matrix
  precomputes every piece of per-call metadata the sparsity-aware
  exchanges need (packed NnzCols gather indices, compacted CSR blocks,
  broadcast / all-to-allv / replication-group schedules, per-column flop
  constants).  None of it depends on the dense width, so one plan serves
  every width: its dtype-aware workspaces (output accumulators, pack
  staging buffers) are flat buffers sized by the widest operand seen so
  far and viewed at each call's width.  GCN training and serving are the
  motivating uses: the graph is static, so one plan per matrix amortises
  over hundreds of epochs and every batch width;
* **one stage executor** (:class:`Stage`, :meth:`CompiledSpmm._run`):
  every variant compiles its SpMM into lists of stages — "pack, post a
  collective, multiply" — and one loop runs them all, blocking or with
  a prefetch window of nonblocking posts.

Typical use::

    from repro.comm import make_communicator
    from repro.core.engine import compile, spmm

    comm = make_communicator(p, backend="threaded")
    z = spmm(matrix, dense, comm, algorithm="1d", sparsity_aware=True)
                                            # Z = M H (compile + run once)

    op = compile(matrix, comm, algorithm="1d", sparsity_aware=True)
    for _ in range(epochs):
        z = op(dense)                       # plan reuse, zero re-setup

:func:`spmm` is the one-shot path: it compiles the variant at
``dense.dtype`` and calls the plan once, so a one-shot product runs
exactly the communication and accounting sequence of a compiled plan's
call.  Compiled results are views into the operator's reused
workspaces: they stay valid until the operator's next call, at any
width (see ``docs/performance.md`` for the lifetime rules).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..comm.base import Communicator
from ..obs.tracer import TRACE

__all__ = [
    "CompiledSpmm", "Stage", "Workspace", "available_spmm_variants",
    "check_block_operands", "check_grid_operands", "compile", "get_spmm",
    "mode_name", "spmm",
]


def _check_pipeline_depth(depth) -> int:
    """Validate a pipeline depth (positive integer; 1 = synchronous)."""
    depth = int(depth)
    if depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, got {depth}")
    return depth


# ----------------------------------------------------------------------
# Common compile-time checks of the matrix, grid and communicator (each
# call checks its dense operand in ``CompiledSpmm._check_dense``)
# ----------------------------------------------------------------------
def check_block_operands(matrix, comm: Communicator) -> None:
    """1D: one block row per rank."""
    if matrix.nblocks != comm.nranks:
        raise ValueError(
            f"matrix has {matrix.nblocks} block rows but the communicator "
            f"has {comm.nranks} ranks")


def check_grid_operands(matrix, grid, comm: Communicator) -> None:
    """1.5D: block rows match the grid rows, ranks match the grid size."""
    if matrix.nblocks != grid.nrows:
        raise ValueError(
            f"matrix has {matrix.nblocks} block rows but the grid has "
            f"{grid.nrows} rows")
    if comm.nranks != grid.nranks:
        raise ValueError(
            f"communicator has {comm.nranks} ranks but the grid expects "
            f"{grid.nranks}")


# ----------------------------------------------------------------------
# The variant table
# ----------------------------------------------------------------------
#: (algorithm, mode) -> its :class:`CompiledSpmm` subclass; built on
#: first use (the algorithm modules import this one).
_VARIANTS: Dict[Tuple[str, str], type] = {}


def _variants() -> Dict[Tuple[str, str], type]:
    if not _VARIANTS:
        from .spmm_1d import Compiled1DOblivious, Compiled1DSparsityAware
        from .spmm_15d import Compiled15DOblivious, Compiled15DSparsityAware
        for cls in (Compiled1DOblivious, Compiled1DSparsityAware,
                    Compiled15DOblivious, Compiled15DSparsityAware):
            _VARIANTS[cls.algorithm, cls.mode] = cls
    return _VARIANTS


def mode_name(sparsity_aware: bool) -> str:
    """Mode key for a boolean sparsity flag."""
    return "sparsity_aware" if sparsity_aware else "oblivious"


def available_spmm_variants() -> List[Tuple[str, str]]:
    """All (algorithm, mode) keys, sorted."""
    return sorted(_variants())


def get_spmm(algorithm: str, sparsity_aware: bool = True) -> type:
    """The :class:`CompiledSpmm` subclass of a variant."""
    key = (algorithm, mode_name(sparsity_aware))
    try:
        return _variants()[key]
    except KeyError:
        raise ValueError(
            f"no SpMM variant for {key}; "
            f"available: {available_spmm_variants()}") from None


# ----------------------------------------------------------------------
# Compiled execution (plan once, run every epoch at any width)
# ----------------------------------------------------------------------
class Workspace:
    """One workspace role of a compiled plan: a grow-only flat buffer
    carved into one ``(rows, width)`` view per segment.

    A plan declares each segment's row count once, at compile time.
    :meth:`views` allocates the flat buffer on first use, regrows it only
    when ``width`` needs more than it holds (it never shrinks), and hands
    out C-contiguous, mutually disjoint views
    ``flat[a*width:b*width].reshape(b - a, width)``.  The views are
    uninitialised: every plan writes a view in full before it reads it.
    """

    def __init__(self, rows: Sequence[int], dtype):
        self._starts = [0, *accumulate(int(r) for r in rows)]
        self._flat = np.empty(0, dtype=dtype)

    def views(self, width: int) -> List[np.ndarray]:
        starts = self._starts
        if starts[-1] * width > self._flat.size:
            self._flat = np.empty(starts[-1] * width, dtype=self._flat.dtype)
        flat = self._flat
        return [flat[a * width:b * width].reshape(b - a, width)
                for a, b in zip(starts, starts[1:])]


def idle_task() -> None:
    """The per-rank task of a rank with nothing to multiply this stage."""


@dataclass(frozen=True)
class Stage:
    """One stage of a compiled SpMM schedule.

    The executor (:meth:`CompiledSpmm._run`) runs ``before()`` (pack or
    multiply work the post depends on), posts the ``collective`` — the
    name of a :class:`~repro.comm.base.Communicator` method, called as
    ``method(*operands(dense), **options)``, or its ``i``-prefixed
    nonblocking twin when prefetching — and hands the result to
    ``after(result)`` (multiply or copy-out work).  ``operands`` builds
    the payload at call time from the plan's bound workspace views;
    ``options`` are fixed keyword arguments (root, ranks, sync_ranks,
    category); ``span`` is the stage's ``spmm.stage`` trace args.
    Stage callables reach the communicator through the plan
    (``self.comm.parallel_for(...)``) at call time, never through a
    method bound at compile time, so instance-level wrappers installed
    after compilation see every call.
    """

    collective: str
    operands: Callable[[Any], tuple]
    options: Mapping[str, Any]
    span: Mapping[str, Any]
    before: Optional[Callable[[], None]] = None
    after: Optional[Callable[[Any], Any]] = None


class CompiledSpmm:
    """A persistent execution plan for one (matrix, dtype, variant).

    Subclasses (one per variant) precompute all exchange
    metadata at construction — pack index sets, block lists, schedules
    and per-column flop constants, none of which depends on the dense
    width — compile them into lists of :class:`Stage` and own the reused
    workspaces; ``__call__`` runs one SpMM of any width, every stage
    list through the one executor :meth:`_run`.

    Workspaces are sized lazily: each role is one :class:`Workspace`,
    allocated by the first call and regrown, at call entry and before
    any exchange is posted, only by a call whose operand is wider than
    any before it.  ``workspace_width`` is that widest width; ``grows``
    counts the calls that grew the workspaces.

    Workspace lifetime rule: the returned result aliases the operator's
    output workspace and is only valid until the **next** call of the same
    operator, at any width — for a model that runs every SpMM on its one
    plan, until the model's next SpMM of any width.  Callers that need to
    keep a result across calls must copy it (`result.to_global()` /
    ``np.array(..., copy=True)``); every in-tree caller consumes or copies
    it first (the forward GEMM, the backward tasks, the ``A X`` panel
    copy-out, the inference forward's ``_activate``).

    ``pipeline_depth`` controls overlapped execution: ``1`` (the default)
    runs every stage blocking; ``d > 1`` gives each variant's exchange
    phase a prefetch window (``d - 1`` stages; ``(d - 1) * c`` for the
    1.5D broadcast schedule), within which :meth:`_run` posts later
    stages nonblocking while the current stage's multiply runs.  A phase
    with a window of 0 (gathers, replica reductions) or with a single
    stage (1D sparsity-aware's one all-to-allv) always runs blocking.
    Results are bit-identical to the synchronous path — the stage order,
    reduction order and workspaces are unchanged; only *when* the
    exchanges are waited on differs.

    ``__call__`` owns the per-call state the stage callables read: the
    operand (``_dense``) and the current stage's exchange result
    (``_received``).  It clears both when the call ends, on success or
    failure, so a failed SpMM never keeps its operand alive.
    """

    #: Each variant's key in the table (:func:`get_spmm`) and whether it
    #: takes a process grid.
    algorithm: str
    mode: str
    needs_grid = False
    #: Timeline category of every per-rank pack and multiply; each
    #: variant names its exchange's ``comm_category`` (1.5D also its
    #: replica reduction's ``reduce_category``).
    compute_category = "local"

    def __init__(self, matrix, comm: Communicator, grid=None,
                 dtype=np.float64, pipeline_depth: int = 1) -> None:
        self.matrix = matrix
        self.comm = comm
        self.grid = grid
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(
                f"dense dtype must be a floating type, got {self.dtype}")
        self.pipeline_depth = _check_pipeline_depth(pipeline_depth)
        self.calls = 0
        self.grows = 0
        self.workspace_width = 0
        self._width: Optional[int] = None     # width the views are bound to
        self._dense = None                    # the operand, during a call
        self._received = None                 # the current stage's result

    # Subclasses implement the hot path and bind their workspace views.
    def _execute(self, dense):  # pragma: no cover - abstract
        raise NotImplementedError

    def _bind(self, width: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check_dense(self, dense) -> int:
        """Cheap per-call operand validation; returns the operand width."""
        if dense.dtype != self.dtype:
            raise ValueError(
                f"compiled for dtype {self.dtype}, got {dense.dtype}")
        dist = self.matrix.dist
        if dense.dist is not dist and dense.dist != dist:
            raise ValueError(
                "dense operand uses a different distribution than the "
                "compiled matrix")
        return dense.width

    def __call__(self, dense):
        """Run ``Z = M H`` on the precomputed plan and reused workspaces."""
        width = self._check_dense(dense)
        if width > self.workspace_width:
            self.workspace_width = width
            self.grows += 1
        if width != self._width:        # a grown width is always new
            self._bind(width)
            self._width = width
        self.calls += 1
        self._dense = dense
        try:
            tr = TRACE
            if not tr.enabled:
                return self._execute(dense)
            with tr.span("spmm", cat="spmm",
                         args={"algorithm": self.algorithm,
                               "mode": self.mode, "width": width,
                               "pipeline_depth": self.pipeline_depth,
                               "call": self.calls}):
                return self._execute(dense)
        finally:
            self._dense = self._received = None

    def _run(self, stages: Sequence[Stage], dense, ahead: int) -> List:
        """Run ``stages`` in order; return each stage's ``after`` result.

        With ``ahead > 0`` and more than one stage the schedule is
        prefetched: before stage ``k``'s result is waited on, every stage
        up to ``k + ahead`` has run its ``before`` and posted its
        nonblocking collective.  Otherwise each stage issues the
        *blocking* collective — not a post and an immediate ``wait()``,
        which the simulator charges as ``(now + t) - now`` rather than
        ``t`` and the process backend would route through its
        nonblocking arena slot.  Results, multiply order and reduction
        order are the same either way.
        """
        comm = self.comm
        tr = TRACE
        n = len(stages)
        pipelined = ahead > 0 and n > 1
        inflight: "deque" = deque()
        issued = 0
        outs: List = []
        for k, stage in enumerate(stages):
            t0 = perf_counter() if tr.enabled else 0.0
            if pipelined:
                while issued <= min(k + ahead, n - 1):
                    post = stages[issued]
                    if post.before is not None:
                        post.before()
                    inflight.append(getattr(comm, "i" + post.collective)(
                        *post.operands(dense), **post.options))
                    issued += 1
                result = inflight.popleft().wait()
            else:
                if stage.before is not None:
                    stage.before()
                result = getattr(comm, stage.collective)(
                    *stage.operands(dense), **stage.options)
            self._received = result
            outs.append(None if stage.after is None else stage.after(result))
            if tr.enabled:
                tr.add_span("driver", "spmm.stage", "spmm", t0,
                            perf_counter(),
                            {**stage.span, "pipelined": True}
                            if pipelined else dict(stage.span))
        return outs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(algorithm={self.algorithm!r}, "
                f"mode={self.mode!r}, dtype={self.dtype.name!r}, "
                f"workspace_width={self.workspace_width}, "
                f"calls={self.calls})")


def compile(matrix, comm: Communicator, algorithm: str = "1d",
            sparsity_aware: bool = True, grid=None, dtype=np.float64,
            pipeline_depth: int = 1) -> CompiledSpmm:
    """Build a persistent :class:`CompiledSpmm` for one of the variants.

    All per-variant exchange metadata is derived here, once, for dense
    operands of ``dtype`` and any width; the returned operator's
    ``__call__`` only moves data.

    ``pipeline_depth > 1`` enables double-buffered execution: staged
    variants prefetch the next stage's operand with nonblocking
    collectives while computing the current stage (bit-identical results;
    see the :class:`CompiledSpmm` docstring and ``docs/performance.md``).
    """
    variant = get_spmm(algorithm, sparsity_aware=sparsity_aware)
    if variant.needs_grid != (grid is not None):
        raise ValueError(f"the {algorithm} algorithm " + (
            "requires a process grid" if variant.needs_grid
            else "does not take a process grid"))
    return variant(matrix, comm, grid=grid, dtype=dtype,
                   pipeline_depth=pipeline_depth)


def spmm(matrix, dense, comm: Communicator, algorithm: str = "1d",
         sparsity_aware: bool = True, grid=None):
    """Compute ``Z = M H`` once with the (algorithm, mode) variant:
    compile it at ``dense.dtype`` and call the plan once.

    ``matrix`` / ``dense`` are a
    :class:`~repro.core.dist_matrix.DistSparseMatrix` and a
    :class:`~repro.core.dist_matrix.DistDenseMatrix` on the same
    block-row distribution; 1.5D requires the matching
    :class:`~repro.core.spmm_15d.ProcessGrid`.
    """
    return compile(matrix, comm, algorithm=algorithm,
                   sparsity_aware=sparsity_aware, grid=grid,
                   dtype=dense.dtype)(dense)
