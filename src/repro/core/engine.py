"""Unified distributed-SpMM engine: registry, checks, dispatch, capture.

Before this module existed, every caller (the distributed GCN, the trainer,
the benchmark harness, the CLI) hard-wired itself to individual functions
in :mod:`~repro.core.spmm_1d` / :mod:`~repro.core.spmm_15d` /
:mod:`~repro.core.spmm_2d` and to the concrete simulator class.  The
engine collapses that duplication into one seam:

* an **algorithm registry** keyed by
  ``{"1d", "1.5d", "2d"} x {"oblivious", "sparsity_aware"}`` — the
  algorithm modules self-register via :func:`register_spmm`, and future
  variants (2.5D, 3D, ...) plug in the same way;
* **common operand-compatibility checks** (:func:`check_block_operands`,
  :func:`check_grid_operands`, :func:`check_grid2d_operands`) shared by
  all algorithm implementations;
* **dispatch** (:func:`spmm`, :class:`SpmmEngine`) that works with any
  :class:`~repro.comm.base.Communicator` backend — simulated or real;
* **compiled execution** (:func:`compile`, :class:`CompiledSpmm`): the
  plan/execute split.  Compiling a variant against one matrix and one
  dense operand shape precomputes every piece of per-call metadata the
  sparsity-aware exchanges need (packed NnzCols gather indices, compacted
  CSR blocks, broadcast / all-to-allv / replication-group schedules) and
  preallocates dtype-aware workspaces (output accumulators, pack/unpack
  staging buffers), so calling the compiled operator once per epoch does
  no metadata derivation and no workspace allocation on the hot path.
  GCN training is the motivating use: the graph is static, so one plan
  per (matrix, layer shape) amortises over hundreds of epochs;
* **common timing/volume capture** (:class:`SpmmReport`,
  :meth:`SpmmEngine.run_with_report`) so benchmarks measure every variant
  the same way.

Typical use::

    from repro.comm import make_communicator
    from repro.core.engine import DenseSpec, SpmmEngine

    comm = make_communicator(p, backend="threaded")
    engine = SpmmEngine(comm, algorithm="1d", sparsity_aware=True)
    z = engine.run(matrix, dense)          # Z = M H (compile + run once)

    op = engine.compile(matrix, DenseSpec(width=16))
    for _ in range(epochs):
        z = op(dense)                       # plan reuse, zero re-setup

Compiled results are views into the operator's reused workspaces: they
stay valid until the operator's next call (see ``docs/performance.md``
for the lifetime rules).  The compiled path executes the exact same
communication and accounting sequence as the uncompiled one, so results,
event logs and simulated timings are bitwise identical — the conformance
suite asserts this for every (variant x backend) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..comm.base import Communicator
from ..obs.tracer import TRACE

__all__ = [
    "CompiledOpCache", "CompiledSpmm", "DenseSpec", "MODES", "SpmmEngine",
    "SpmmReport", "SpmmVariant", "available_spmm_variants",
    "check_block_operands", "check_grid_operands", "check_grid2d_operands",
    "compile", "get_spmm", "mode_name", "register_spmm",
    "register_spmm_compiler", "spmm",
]

#: The two communication modes the paper compares.
MODES = ("oblivious", "sparsity_aware")

#: The three distribution families with registered implementations.
ALGORITHM_FAMILIES = ("1d", "1.5d", "2d")


def _check_pipeline_depth(depth) -> int:
    """Validate a pipeline depth (positive integer; 1 = synchronous)."""
    depth = int(depth)
    if depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, got {depth}")
    return depth


# ----------------------------------------------------------------------
# Common operand-compatibility checks
# ----------------------------------------------------------------------
def check_block_operands(matrix, dense, comm: Communicator) -> None:
    """1D: operands share a block-row distribution, one block per rank."""
    if matrix.dist != dense.dist:
        raise ValueError("sparse and dense operands use different distributions")
    if matrix.nblocks != comm.nranks:
        raise ValueError(
            f"matrix has {matrix.nblocks} block rows but the communicator "
            f"has {comm.nranks} ranks")


def check_grid_operands(matrix, dense, grid, comm: Communicator) -> None:
    """1.5D: block rows match the grid rows, ranks match the grid size."""
    if matrix.dist != dense.dist:
        raise ValueError("sparse and dense operands use different distributions")
    if matrix.nblocks != grid.nrows:
        raise ValueError(
            f"matrix has {matrix.nblocks} block rows but the grid has "
            f"{grid.nrows} rows")
    if comm.nranks != grid.nranks:
        raise ValueError(
            f"communicator has {comm.nranks} ranks but the grid expects "
            f"{grid.nranks}")


def check_grid2d_operands(matrix, h, grid, comm: Communicator) -> None:
    """2D: the block grid matches the process grid and the dense operand."""
    if matrix.row_dist.nblocks != grid.nrows or \
            matrix.col_dist.nblocks != grid.ncols:
        raise ValueError("matrix block grid does not match the process grid")
    if h.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"dense operand has {h.shape[0]} rows, expected {matrix.shape[1]}")
    if comm.nranks != grid.nranks:
        raise ValueError(
            f"communicator has {comm.nranks} ranks but the grid expects "
            f"{grid.nranks}")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpmmVariant:
    """One registered (algorithm family, sparsity mode) implementation."""

    algorithm: str
    mode: str
    fn: Callable
    needs_grid: bool
    description: str = ""

    @property
    def key(self) -> Tuple[str, str]:
        return (self.algorithm, self.mode)


_REGISTRY: Dict[Tuple[str, str], SpmmVariant] = {}

#: Per-variant compiler callables: (algorithm, mode) ->
#: ``fn(matrix, spec, comm, grid, **categories) -> CompiledSpmm``.
_COMPILERS: Dict[Tuple[str, str], Callable] = {}


def mode_name(sparsity_aware: bool) -> str:
    """Registry mode key for a boolean sparsity flag."""
    return "sparsity_aware" if sparsity_aware else "oblivious"


def register_spmm(algorithm: str, mode: str, needs_grid: bool = False,
                  description: str = "") -> Callable:
    """Decorator: register an SpMM kernel under ``(algorithm, mode)``.

    Kernels without a grid are called as ``fn(matrix, dense, comm, **kw)``;
    grid kernels as ``fn(matrix, dense, grid, comm, **kw)``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")

    def decorate(fn: Callable) -> Callable:
        key = (algorithm, mode)
        if key in _REGISTRY:
            raise ValueError(f"SpMM variant {key} is already registered")
        _REGISTRY[key] = SpmmVariant(algorithm=algorithm, mode=mode, fn=fn,
                                     needs_grid=needs_grid,
                                     description=description or
                                     (fn.__doc__ or "").strip().split("\n")[0])
        return fn

    return decorate


def _ensure_algorithms_loaded() -> None:
    """Import the built-in algorithm modules (they self-register)."""
    from . import spmm_1d, spmm_15d, spmm_2d  # noqa: F401


def available_spmm_variants() -> List[Tuple[str, str]]:
    """All registered (algorithm, mode) keys, sorted."""
    _ensure_algorithms_loaded()
    return sorted(_REGISTRY)


def get_spmm(algorithm: str, sparsity_aware: bool = True,
             mode: Optional[str] = None) -> SpmmVariant:
    """Look up a registered variant (``mode`` overrides ``sparsity_aware``)."""
    _ensure_algorithms_loaded()
    key = (algorithm, mode if mode is not None else mode_name(sparsity_aware))
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"no SpMM variant registered for {key}; "
            f"available: {sorted(_REGISTRY)}") from None


def register_spmm_compiler(algorithm: str, mode: str) -> Callable:
    """Decorator: register the compiler of an SpMM variant.

    The decorated callable is invoked as
    ``fn(variant, matrix, spec, comm, grid=..., **categories)`` and must
    return a :class:`CompiledSpmm`.  Variants without a registered
    compiler fall back to a generic (plan-free) wrapper in
    :func:`compile`.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")

    def decorate(fn: Callable) -> Callable:
        key = (algorithm, mode)
        if key in _COMPILERS:
            raise ValueError(f"an SpMM compiler for {key} is already "
                             f"registered")
        _COMPILERS[key] = fn
        return fn

    return decorate


# ----------------------------------------------------------------------
# Compiled execution (plan once, run every epoch)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DenseSpec:
    """Shape/precision contract of the dense operand a plan is built for.

    ``width`` is the feature dimension ``f`` of ``H``; ``dtype`` the
    element type every workspace and exchanged payload will use
    (``float32`` halves the exchanged volume of bandwidth-bound runs).
    """

    width: int
    dtype: "np.dtype" = field(default=np.dtype(np.float64))

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.width < 0:
            raise ValueError("dense width must be non-negative")
        if self.dtype.kind != "f":
            raise ValueError(
                f"dense dtype must be a floating type, got {self.dtype}")

    @classmethod
    def like(cls, dense) -> "DenseSpec":
        """The spec describing an existing dense operand (distributed or
        plain ndarray)."""
        if isinstance(dense, np.ndarray):
            return cls(width=dense.shape[1], dtype=dense.dtype)
        return cls(width=dense.width, dtype=getattr(dense, "dtype",
                                                    np.dtype(np.float64)))


class CompiledSpmm:
    """A persistent execution plan for one (matrix, dense-spec, variant).

    Subclasses (one per registered variant) precompute all exchange
    metadata at construction and own the reused workspaces; ``__call__``
    runs one SpMM with the same communication/accounting sequence as the
    uncompiled kernel.

    Workspace lifetime rule: the returned result aliases the operator's
    output workspace and is only valid until the **next** call of the same
    operator.  Callers that need to keep a result across calls must copy
    it (`result.to_global()` / ``np.array(..., copy=True)``).

    ``pipeline_depth`` controls overlapped execution of staged variants:
    ``1`` (the default) runs every exchange synchronously; ``d > 1``
    double-buffers the stage schedule, prefetching up to ``d - 1`` stages'
    operands with nonblocking collectives while the current stage's local
    multiply runs.  Results are bit-identical to the synchronous path —
    the stage order, reduction order and workspaces are unchanged; only
    *when* the exchanges are waited on differs.  Variants with a single
    un-staged exchange (1D sparsity-aware) accept the knob and ignore it.
    """

    def __init__(self, variant: SpmmVariant, matrix, spec: DenseSpec,
                 comm: Communicator, grid=None,
                 pipeline_depth: int = 1) -> None:
        self.variant = variant
        self.matrix = matrix
        self.spec = spec
        self.comm = comm
        self.grid = grid
        self.pipeline_depth = _check_pipeline_depth(pipeline_depth)
        self.calls = 0

    # Subclasses implement the hot path.
    def _execute(self, dense):  # pragma: no cover - abstract
        raise NotImplementedError

    def _check_dense(self, dense) -> None:
        """Cheap per-call operand validation (no metadata derivation)."""
        if isinstance(dense, np.ndarray):
            if dense.ndim != 2 or dense.shape[1] != self.spec.width:
                raise ValueError(
                    f"compiled for width {self.spec.width}, got operand "
                    f"shape {dense.shape}")
            if dense.dtype != self.spec.dtype:
                raise ValueError(
                    f"compiled for dtype {self.spec.dtype}, got "
                    f"{dense.dtype}")
            return
        if dense.width != self.spec.width:
            raise ValueError(
                f"compiled for width {self.spec.width}, got width "
                f"{dense.width}")
        if getattr(dense, "dtype", self.spec.dtype) != self.spec.dtype:
            raise ValueError(
                f"compiled for dtype {self.spec.dtype}, got {dense.dtype}")
        dist = getattr(self.matrix, "dist", None)
        if dist is not None and dense.dist is not dist \
                and dense.dist != dist:
            raise ValueError(
                "dense operand uses a different distribution than the "
                "compiled matrix")

    def __call__(self, dense):
        """Run ``Z = M H`` on the precomputed plan and reused workspaces."""
        self._check_dense(dense)
        self.calls += 1
        tr = TRACE
        if not tr.enabled:
            return self._execute(dense)
        with tr.span("spmm", cat="spmm",
                     args={"algorithm": self.algorithm, "mode": self.mode,
                           "width": self.spec.width,
                           "pipeline_depth": self.pipeline_depth,
                           "call": self.calls}):
            return self._execute(dense)

    @property
    def algorithm(self) -> str:
        return self.variant.algorithm

    @property
    def mode(self) -> str:
        return self.variant.mode

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(algorithm={self.algorithm!r}, "
                f"mode={self.mode!r}, width={self.spec.width}, "
                f"dtype={self.spec.dtype.name!r}, calls={self.calls})")


class SpecOperandProbe:
    """Distribution/width stand-in for a dense operand.

    Lets the per-variant compilers reuse :func:`check_block_operands` /
    :func:`check_grid_operands` at compile time, when only the
    :class:`DenseSpec` — not an actual dense matrix — is available."""

    def __init__(self, matrix, spec: DenseSpec) -> None:
        self.dist = matrix.dist
        self.width = spec.width


class _FallbackCompiled(CompiledSpmm):
    """Plan-free wrapper for variants without a registered compiler."""

    def __init__(self, variant, matrix, spec, comm, grid=None,
                 pipeline_depth: int = 1, **categories) -> None:
        # The fallback has no stage schedule to pipeline; the knob is
        # validated and recorded, then ignored (synchronous execution).
        super().__init__(variant, matrix, spec, comm, grid=grid,
                         pipeline_depth=pipeline_depth)
        self._categories = categories

    def _execute(self, dense):
        if self.variant.needs_grid:
            return self.variant.fn(self.matrix, dense, self.grid, self.comm,
                                   **self._categories)
        return self.variant.fn(self.matrix, dense, self.comm,
                               **self._categories)


def compile(matrix, dense_spec, comm: Communicator, algorithm: str = "1d",
            sparsity_aware: bool = True, mode: Optional[str] = None,
            grid=None, pipeline_depth: int = 1,
            **categories) -> CompiledSpmm:
    """Build a persistent :class:`CompiledSpmm` for a registered variant.

    ``dense_spec`` is a :class:`DenseSpec` (or a plain ``int`` width,
    meaning float64).  All per-variant exchange metadata is derived here,
    once; the returned operator's ``__call__`` only moves data.  The
    ``**categories`` keyword overrides are fixed at compile time.

    ``pipeline_depth > 1`` enables double-buffered execution: staged
    variants prefetch the next stage's operand with nonblocking
    collectives while computing the current stage (bit-identical results;
    see the :class:`CompiledSpmm` docstring and ``docs/performance.md``).
    """
    variant = get_spmm(algorithm, sparsity_aware=sparsity_aware, mode=mode)
    if variant.needs_grid and grid is None:
        raise ValueError(f"the {variant.algorithm} algorithm requires a "
                         f"process grid")
    if not variant.needs_grid and grid is not None:
        raise ValueError(f"the {variant.algorithm} algorithm does not take "
                         f"a process grid")
    if isinstance(dense_spec, (int, np.integer)):
        dense_spec = DenseSpec(width=int(dense_spec))
    pipeline_depth = _check_pipeline_depth(pipeline_depth)
    compiler = _COMPILERS.get(variant.key)
    if compiler is None:
        return _FallbackCompiled(variant, matrix, dense_spec, comm,
                                 grid=grid, pipeline_depth=pipeline_depth,
                                 **categories)
    return compiler(variant, matrix, dense_spec, comm, grid=grid,
                    pipeline_depth=pipeline_depth, **categories)


class CompiledOpCache:
    """Width-keyed retention of compiled plans for one static matrix.

    Training knows every operand width up front (the layer dims) and
    pre-warms; serving additionally discovers widths at runtime — a
    micro-batch of ``k`` coalesced requests propagates at ``k * f``
    columns — so the cache compiles lazily on first sight of a width and
    retains the plan for the lifetime of the model.  Hits/misses/compiles
    are counted for the obs metrics registry (pre-warming via
    :meth:`warm` is deliberately not counted: the counters describe
    request-driven behaviour).

    The cache is dict-like over widths (``iter`` / ``len`` / ``in`` /
    ``items``) so callers can introspect the retained plans.
    """

    def __init__(self, engine: "SpmmEngine", matrix,
                 dtype=np.float64, pipeline_depth: int = 1) -> None:
        self._engine = engine
        self._matrix = matrix
        self.dtype = np.dtype(dtype)
        self.pipeline_depth = _check_pipeline_depth(pipeline_depth)
        self._plans: Dict[int, CompiledSpmm] = {}
        self.hits = 0
        self.misses = 0

    def _compile(self, width: int) -> CompiledSpmm:
        op = self._engine.compile(
            self._matrix, DenseSpec(width=width, dtype=self.dtype),
            pipeline_depth=self.pipeline_depth)
        self._plans[width] = op
        return op

    def get(self, width: int) -> CompiledSpmm:
        """The retained plan for ``width``, compiling it on first use."""
        width = int(width)
        op = self._plans.get(width)
        if op is not None:
            self.hits += 1
            return op
        self.misses += 1
        return self._compile(width)

    def peek(self, width: int) -> Optional[CompiledSpmm]:
        """The retained plan for ``width`` or ``None`` — never compiles,
        never counts."""
        return self._plans.get(int(width))

    def warm(self, widths) -> None:
        """Compile (uncounted) plans for any widths not yet retained."""
        for width in widths:
            width = int(width)
            if width not in self._plans:
                self._compile(width)

    def evict(self, width: int) -> bool:
        """Drop the retained plan for ``width``; ``True`` if there was
        one.  The plan's workspaces are freed once its reference cycle
        (plan <-> task closures) is collected."""
        return self._plans.pop(int(width), None) is not None

    def stats(self) -> Dict[str, int]:
        """Counters in the shape the serve metrics registry exports."""
        return {"plan_hits": self.hits, "plan_misses": self.misses,
                "plans_retained": len(self._plans)}

    def widths(self) -> List[int]:
        return sorted(self._plans)

    def items(self):
        return self._plans.items()

    def __iter__(self):
        return iter(self._plans)

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, width) -> bool:
        return int(width) in self._plans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompiledOpCache(widths={self.widths()}, "
                f"dtype={self.dtype.name!r}, hits={self.hits}, "
                f"misses={self.misses})")


# ----------------------------------------------------------------------
# Dispatch + capture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpmmReport:
    """Timing/volume delta captured around one engine dispatch."""

    algorithm: str
    mode: str
    backend: str
    elapsed_s: float
    comm_bytes: int
    messages: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "mode": self.mode,
            "backend": self.backend,
            "elapsed_s": self.elapsed_s,
            "comm_MB": self.comm_bytes / 1e6,
            "messages": self.messages,
        }


def spmm(matrix, dense, comm: Communicator, algorithm: str = "1d",
         sparsity_aware: bool = True, grid=None, **categories):
    """Dispatch ``Z = M H`` to the registered (algorithm, mode) kernel.

    ``matrix`` / ``dense`` are the family's operand types
    (:class:`~repro.core.dist_matrix.DistSparseMatrix` +
    :class:`~repro.core.dist_matrix.DistDenseMatrix` for 1D/1.5D;
    :class:`~repro.core.spmm_2d.Dist2DSparseMatrix` + a NumPy array for
    2D).  Grid algorithms require the matching ``grid`` object
    (:class:`~repro.core.spmm_15d.ProcessGrid` or
    :class:`~repro.core.spmm_2d.Grid2D`).
    """
    variant = get_spmm(algorithm, sparsity_aware=sparsity_aware)
    if variant.needs_grid:
        if grid is None:
            raise ValueError(
                f"the {variant.algorithm} algorithm requires a process grid")
        return variant.fn(matrix, dense, grid, comm, **categories)
    if grid is not None:
        raise ValueError(
            f"the {variant.algorithm} algorithm does not take a process grid")
    return variant.fn(matrix, dense, comm, **categories)


class SpmmEngine:
    """A communicator-bound dispatcher for one (algorithm, mode) variant.

    The engine is the object the distributed GCN, the trainer and the
    benchmark harness hold instead of concrete kernel functions; swapping
    the algorithm or the communicator backend never touches those layers.
    """

    def __init__(self, comm: Communicator, algorithm: str = "1d",
                 sparsity_aware: bool = True, grid=None) -> None:
        self.comm = comm
        self.variant = get_spmm(algorithm, sparsity_aware=sparsity_aware)
        if self.variant.needs_grid and grid is None:
            raise ValueError(
                f"the {algorithm} algorithm requires a process grid")
        if not self.variant.needs_grid and grid is not None:
            raise ValueError(
                f"the {algorithm} algorithm does not take a process grid")
        self.grid = grid
        self.last_report: Optional[SpmmReport] = None

    @property
    def algorithm(self) -> str:
        return self.variant.algorithm

    @property
    def mode(self) -> str:
        return self.variant.mode

    def run(self, matrix, dense, **categories):
        """Execute ``Z = M H`` on this engine's communicator."""
        if self.variant.needs_grid:
            return self.variant.fn(matrix, dense, self.grid, self.comm,
                                   **categories)
        return self.variant.fn(matrix, dense, self.comm, **categories)

    def compile(self, matrix, dense_spec, pipeline_depth: int = 1,
                **categories) -> CompiledSpmm:
        """Build a persistent plan for this engine's variant/communicator.

        See :func:`compile`; the engine supplies the variant, grid and
        communicator it was constructed with.
        """
        return compile(matrix, dense_spec, self.comm,
                       algorithm=self.algorithm, mode=self.mode,
                       grid=self.grid, pipeline_depth=pipeline_depth,
                       **categories)

    def run_with_report(self, matrix, dense, **categories):
        """Like :meth:`run`, also capturing an :class:`SpmmReport` delta."""
        t0 = self.comm.elapsed()
        bytes0 = self.comm.events.total_bytes()
        msgs0 = self.comm.events.message_count()
        result = self.run(matrix, dense, **categories)
        report = SpmmReport(
            algorithm=self.algorithm,
            mode=self.mode,
            backend=self.comm.backend_name,
            elapsed_s=self.comm.elapsed() - t0,
            comm_bytes=self.comm.events.total_bytes() - bytes0,
            messages=self.comm.events.message_count() - msgs0,
        )
        self.last_report = report
        return result, report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SpmmEngine(algorithm={self.algorithm!r}, mode={self.mode!r}, "
                f"backend={self.comm.backend_name!r}, nranks={self.comm.nranks})")
