"""Configuration dataclasses for distributed GCN training."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from ..comm.factory import available_backends
from ..comm.machine import MachineModel
from .gradsync import GRAD_DTYPES
from .spmm_15d import ProcessGrid

__all__ = ["AUTO", "Algorithm", "DistTrainConfig", "scheme_label",
           "training_layer_dims"]


#: The two distributed SpMM families the paper evaluates.
ALGORITHMS = ("1d", "1.5d")

#: Sentinel value for fields the autotuning planner should choose
#: (``algorithm`` — which also frees the sparsity mode and replication
#: factor — and ``partitioner``); see :mod:`repro.plan`.
AUTO = "auto"


class Algorithm:
    """String constants for the supported distributed SpMM algorithms."""

    ONE_D = "1d"
    ONE_POINT_FIVE_D = "1.5d"


def training_layer_dims(n_features: int, n_classes: int, hidden: int,
                        n_layers: int) -> list:
    """Layer widths ``[f_0, ..., f_L]`` of the GCN the trainer builds.

    The single source of truth shared by the trainer and the autotuning
    planner — the planner must price exactly the architecture that
    will be trained, or "auto" would silently optimise a different model.
    """
    if n_layers == 1:
        return [n_features, n_classes]
    return [n_features] + [hidden] * (n_layers - 1) + [n_classes]


def scheme_label(sparsity_aware: bool, partitioner: Optional[str]) -> str:
    """The paper-style scheme label (CAGNET / SA / SA+<PART>) of a
    configuration; shared by configs, plan candidates and plans."""
    if not sparsity_aware:
        return "CAGNET"
    if partitioner in (None, "block", "random"):
        return "SA"
    return f"SA+{partitioner.upper().replace('_LIKE', '')}"


@dataclass(frozen=True)
class DistTrainConfig:
    """Configuration of a distributed training run.

    Attributes
    ----------
    n_ranks:
        Number of simulated processes (GPUs in the paper).
    algorithm:
        ``"1d"``, ``"1.5d"``, or ``"auto"`` to let the planner pick the
        variant (algorithm family, sparsity mode and replication factor).
    sparsity_aware:
        ``False`` reproduces the CAGNET sparsity-oblivious baselines;
        ``True`` enables the paper's sparsity-aware communication.
    partitioner:
        Registry name of the partitioner used to distribute the graph
        (``"block"``, ``"random"``, ``"metis_like"``, ``"gvb"``).  ``None``
        means the natural block distribution (no reordering); ``"auto"``
        lets the planner pick.
    replication_factor:
        The 1.5D replication factor ``c`` (ignored for 1D; ``c = 1``
        degenerates to the 1D layout).
    hidden / n_layers:
        GCN architecture (paper: 3 layers, 16 hidden units).
    epochs / learning_rate:
        Training loop hyper-parameters (paper: 100 epochs).
    machine:
        Machine preset name or a :class:`~repro.comm.MachineModel` (used by
        simulation backends; real backends measure wall time and ignore it).
    backend:
        Communicator backend name from :func:`repro.comm.available_backends`
        (``"sim"`` for the deterministic simulator, ``"threaded"`` for real
        shared-memory worker threads, ``"process"`` for one OS process per
        rank with shared-memory transport).  Never ``"auto"``: the planner
        prices the backend it is given, it does not choose one.
    seed:
        Seed shared by weight init, partitioner tie-breaking and dataset
        generation helpers.
    dtype:
        Training precision: ``"float64"`` (default, bit-compatible with
        the reference model) or ``"float32"`` (half the communication
        volume and activation memory; losses match to single-precision
        tolerance).  Threaded through the adjacency, the features, the
        weights and every exchanged payload — see ``docs/performance.md``.
    pipeline_depth:
        Double-buffering depth of the compiled SpMM stage schedules
        (``1`` = fully synchronous exchanges, the default; ``2`` =
        classic double buffering: the next stage's operand is prefetched
        with nonblocking collectives while the current stage computes).
        Results are bit-identical at any depth; see the "Overlap &
        pipelining" section of ``docs/performance.md``.
    grad_overlap:
        Wait-free backward pass: post each layer's weight-gradient
        all-reduce nonblocking as soon as it is computed and drain the
        handles in ``apply_gradients``, overlapping the reductions with
        the remaining backward compute.  Bit-identical results at the
        same wire precision; see the "Gradient exchange" section of
        ``docs/performance.md``.
    grad_bucket_bytes:
        Tensor-fusion bucket size (wire bytes) for the gradient exchange:
        consecutive small per-layer gradients are packed into one flat
        fused buffer before reduction.  ``None`` (default) sizes buckets
        for the active backend and machine
        (:func:`~repro.core.gradsync.default_bucket_bytes`) — fusion engages only when ``grad_overlap`` or a reduced
        ``grad_dtype`` is requested, keeping the default path identical
        to the synchronous trainer.  ``0`` forces one reduction per
        layer.
    grad_dtype:
        Wire precision of the gradient exchange: ``None`` (default, the
        model dtype), ``"float32"``, ``"float16"`` or ``"bfloat16"``
        (carried as a uint16 view — NumPy has no native bf16).  Gradients
        are cast down for the wire, reduced, and applied to the
        full-precision master weights (``dtype``).
    checkpoint_dir:
        Directory for atomic training checkpoints (weights, optimizer
        state, RNG state, epoch counter, plan fingerprint — see
        :mod:`repro.core.checkpoint`).  ``None`` (default) disables
        checkpointing.
    checkpoint_every:
        Save a checkpoint every N completed epochs (requires
        ``checkpoint_dir``; ``0`` disables periodic saves).
    resume:
        Resume from the newest intact checkpoint in ``checkpoint_dir``
        instead of starting at epoch 0.  Resuming is bit-identical to
        the uninterrupted run on the same plan; a checkpoint written for
        an incompatible plan is rejected with a clear error.
    max_restarts:
        Supervised retry budget: on a detected rank loss
        (:class:`~repro.comm.faults.WorkerFailure`) the trainer restarts
        up to this many times, restoring the last checkpoint when one
        exists.  ``0`` (default) propagates the failure.
    elastic:
        On restart after a rank loss, re-partition and re-plan at the
        surviving rank count (``n_ranks - 1``) instead of retrying the
        same configuration; the dead configuration is recorded in the
        plan cache so it is never served again.
    """

    n_ranks: int = 4
    algorithm: str = Algorithm.ONE_D
    sparsity_aware: bool = True
    partitioner: Optional[str] = "gvb"
    replication_factor: int = 1
    hidden: int = 16
    n_layers: int = 3
    epochs: int = 100
    learning_rate: float = 0.05
    machine: Union[str, MachineModel] = "perlmutter"
    backend: str = "sim"
    seed: int = 0
    dtype: str = "float64"
    pipeline_depth: int = 1
    grad_overlap: bool = False
    grad_bucket_bytes: Optional[int] = None
    grad_dtype: Optional[str] = None
    cache_input_propagation: bool = True
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 0
    resume: bool = False
    max_restarts: int = 0
    elastic: bool = False

    def __post_init__(self) -> None:
        if self.n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown communicator backend {self.backend!r}; "
                f"available: {available_backends()}")
        if self.algorithm != AUTO and self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS} or 'auto', "
                f"got {self.algorithm!r}")
        if self.replication_factor <= 0:
            raise ValueError("replication_factor must be positive")
        if self.algorithm == Algorithm.ONE_POINT_FIVE_D:
            ProcessGrid(self.n_ranks, self.replication_factor)  # or raise
        if self.hidden < 1:
            raise ValueError(f"hidden must be at least 1, got {self.hidden!r}")
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}")
        if not isinstance(self.pipeline_depth, int) \
                or self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be a positive integer, got "
                f"{self.pipeline_depth!r}")
        if self.grad_bucket_bytes is not None and (
                not isinstance(self.grad_bucket_bytes, int)
                or self.grad_bucket_bytes < 0):
            raise ValueError(
                f"grad_bucket_bytes must be a non-negative integer or None "
                f"(auto), got {self.grad_bucket_bytes!r}")
        if self.grad_dtype is not None and self.grad_dtype not in GRAD_DTYPES:
            raise ValueError(
                f"grad_dtype must be one of {GRAD_DTYPES} or None (the "
                f"model dtype), got {self.grad_dtype!r}")
        if not isinstance(self.checkpoint_every, int) \
                or self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be a non-negative integer, got "
                f"{self.checkpoint_every!r}")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_every requires checkpoint_dir to be set")
        if self.resume and not self.checkpoint_dir:
            raise ValueError("resume requires checkpoint_dir to be set")
        if not isinstance(self.max_restarts, int) or self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be a non-negative integer, got "
                f"{self.max_restarts!r}")

    @property
    def np_dtype(self):
        """The configured precision as a NumPy dtype."""
        import numpy as np
        return np.dtype(self.dtype)

    @property
    def needs_planning(self) -> bool:
        """Whether any field is ``"auto"`` and must be resolved by the
        planner (:func:`repro.plan.resolve_config`) before training."""
        return AUTO in (self.algorithm, self.partitioner)

    @property
    def n_block_rows(self) -> int:
        """Number of block rows of the data distribution (P for 1D, P/c for 1.5D)."""
        if self.algorithm == AUTO:
            raise ValueError(
                "algorithm is 'auto'; resolve the plan first "
                "(repro.plan.resolve_config)")
        if self.algorithm == Algorithm.ONE_POINT_FIVE_D:
            return self.n_ranks // self.replication_factor
        return self.n_ranks

    @property
    def scheme_label(self) -> str:
        """Short label used in benchmark tables (CAGNET / SA / SA+<part>)."""
        if self.needs_planning:
            return "AUTO"
        return scheme_label(self.sparsity_aware, self.partitioner)
