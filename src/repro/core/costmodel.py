"""Closed-form alpha-beta cost model of the paper's algorithms.

Section 4 of the paper derives per-process communication costs under the
alpha-beta model:

* sparsity-aware 1D:      ``T = alpha (P-1) + (P-1) cut_P(G) f beta``
* sparsity-aware 1.5D:    ``T = alpha (P/c^2) log(P/c^2) + (P/c^2) cut_P(G) f beta``
  plus the all-reduce of the replicated partial sums,
* sparsity-oblivious 1D (CAGNET): every block row of ``H`` is broadcast in
  full, so the bandwidth term is ``n f beta`` regardless of ``P`` — the
  reason the CAGNET curves in Figure 3 do not go down with more GPUs,
* per-epoch totals sum the per-SpMM terms over the epoch's ``2 L`` SpMMs
  (one forward propagation and one backward ``A G`` per layer), or the
  ``2 L - 2`` narrow-side SpMMs of a run that caches layer 0's constant
  ``A X`` (:func:`epoch_spmm_widths`).

This module evaluates those formulas for a concrete distributed matrix and
machine so that

* the benchmarks can print predicted-vs-simulated columns,
* :func:`crossover_process_count` can answer "from how many GPUs on does
  the sparsity-aware algorithm win?" analytically, and
* :func:`best_replication_factor` can pick the 1.5D ``c`` the way the
  paper's Figure 7 discussion does.

The *volume* quantities are exact (they come from the same ``NnzCols``
analysis the algorithms use); the *time* quantities are model estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..comm.machine import MachineModel, get_machine
from .analysis import ELEMENT_BYTES
from .dist_matrix import DistSparseMatrix

__all__ = [
    "CommCostBreakdown",
    "spmm_cost_1d_oblivious",
    "spmm_cost_1d_sparsity_aware",
    "spmm_cost_15d_oblivious",
    "spmm_cost_15d_sparsity_aware",
    "epoch_cost",
    "epoch_spmm_widths",
    "inference_spmm_widths",
    "gradient_exchange_cost",
    "crossover_process_count",
    "best_replication_factor",
]


@dataclass(frozen=True)
class CommCostBreakdown:
    """Predicted per-process cost of one distributed SpMM (seconds)."""

    latency_s: float
    bandwidth_s: float
    reduction_s: float = 0.0
    compute_s: float = 0.0

    @property
    def communication_s(self) -> float:
        return self.latency_s + self.bandwidth_s + self.reduction_s

    @property
    def total_s(self) -> float:
        return self.communication_s + self.compute_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "latency_s": self.latency_s,
            "bandwidth_s": self.bandwidth_s,
            "reduction_s": self.reduction_s,
            "compute_s": self.compute_s,
            "communication_s": self.communication_s,
            "total_s": self.total_s,
        }


# ----------------------------------------------------------------------
# Volume helpers
# ----------------------------------------------------------------------
def _max_pairwise_rows(matrix: DistSparseMatrix) -> int:
    """``cut_P(G)``: the largest |NnzCols(i, j)| over all process pairs."""
    needed = matrix.needed_rows_matrix()
    return int(needed.max()) if needed.size else 0


def _avg_block_rows(matrix: DistSparseMatrix) -> float:
    return float(matrix.dist.block_sizes.mean())


def _local_spmm_flops(matrix: DistSparseMatrix, f: int) -> float:
    """Bottleneck (max over ranks) local SpMM flops of one distributed SpMM."""
    per_rank = np.array([block.nnz for block in matrix.block_rows], dtype=float)
    return float(per_rank.max()) * 2.0 * f if per_rank.size else 0.0


# ----------------------------------------------------------------------
# Per-SpMM cost formulas
# ----------------------------------------------------------------------
def spmm_cost_1d_oblivious(matrix: DistSparseMatrix, f: int,
                           machine: "str | MachineModel",
                           element_bytes: int = ELEMENT_BYTES
                           ) -> CommCostBreakdown:
    """CAGNET 1D: ``P`` broadcasts of full block rows of ``H``."""
    machine = get_machine(machine)
    p = matrix.nblocks
    if f <= 0:
        raise ValueError("feature width must be positive")
    alpha, beta = machine.worst_link(p)
    if p <= 1:
        return CommCostBreakdown(0.0, 0.0, 0.0,
                                 machine.spmm_time(_local_spmm_flops(matrix, f)))
    n = matrix.dist.n
    latency = p * math.log2(p) * alpha
    bandwidth = n * f * element_bytes * beta
    compute = machine.spmm_time(_local_spmm_flops(matrix, f))
    return CommCostBreakdown(latency, bandwidth, 0.0, compute)


def spmm_cost_1d_sparsity_aware(matrix: DistSparseMatrix, f: int,
                                machine: "str | MachineModel",
                                element_bytes: int = ELEMENT_BYTES
                                ) -> CommCostBreakdown:
    """Paper Section 4.1: ``alpha (P-1) + (P-1) cut_P(G) f beta``."""
    machine = get_machine(machine)
    p = matrix.nblocks
    if f <= 0:
        raise ValueError("feature width must be positive")
    alpha, beta = machine.worst_link(p)
    if p <= 1:
        return CommCostBreakdown(0.0, 0.0, 0.0,
                                 machine.spmm_time(_local_spmm_flops(matrix, f)))
    cut = _max_pairwise_rows(matrix)
    latency = (p - 1) * alpha
    bandwidth = (p - 1) * cut * f * element_bytes * beta
    compute = machine.spmm_time(_local_spmm_flops(matrix, f))
    return CommCostBreakdown(latency, bandwidth, 0.0, compute)


def spmm_cost_15d_oblivious(matrix: DistSparseMatrix, f: int, nranks: int,
                            replication: int,
                            machine: "str | MachineModel",
                            element_bytes: int = ELEMENT_BYTES
                            ) -> CommCostBreakdown:
    """1.5D oblivious: staged block-row broadcasts plus the row all-reduce."""
    machine = get_machine(machine)
    c = replication
    _check_15d(matrix, nranks, c)
    if f <= 0:
        raise ValueError("feature width must be positive")
    alpha, beta = machine.worst_link(nranks)
    stages = nranks // (c * c)
    avg_rows = _avg_block_rows(matrix)
    latency = stages * math.log2(max(2, matrix.nblocks)) * alpha
    bandwidth = stages * avg_rows * f * element_bytes * beta
    reduction = _allreduce_cost(machine, nranks, c, avg_rows, f, element_bytes)
    compute = machine.spmm_time(_local_spmm_flops(matrix, f) / c)
    return CommCostBreakdown(latency, bandwidth, reduction, compute)


def spmm_cost_15d_sparsity_aware(matrix: DistSparseMatrix, f: int, nranks: int,
                                 replication: int,
                                 machine: "str | MachineModel",
                                 element_bytes: int = ELEMENT_BYTES
                                 ) -> CommCostBreakdown:
    """Paper Section 4.2: ``alpha (P/c^2) log(P/c^2) + (P/c^2) cut f beta``
    plus the all-reduce of the replicated partial results."""
    machine = get_machine(machine)
    c = replication
    _check_15d(matrix, nranks, c)
    if f <= 0:
        raise ValueError("feature width must be positive")
    alpha, beta = machine.worst_link(nranks)
    stages = nranks // (c * c)
    cut = _max_pairwise_rows(matrix)
    avg_rows = _avg_block_rows(matrix)
    latency = stages * math.log2(max(2.0, stages)) * alpha
    bandwidth = stages * cut * f * element_bytes * beta
    reduction = _allreduce_cost(machine, nranks, c, avg_rows, f, element_bytes)
    compute = machine.spmm_time(_local_spmm_flops(matrix, f) / c)
    return CommCostBreakdown(latency, bandwidth, reduction, compute)


def _check_15d(matrix: DistSparseMatrix, nranks: int, c: int) -> None:
    if c <= 0 or nranks % c != 0 or (nranks // c) % c != 0:
        raise ValueError(f"invalid 1.5D configuration P={nranks}, c={c}")
    if matrix.nblocks != nranks // c:
        raise ValueError(
            f"matrix has {matrix.nblocks} block rows; 1.5D with P={nranks}, "
            f"c={c} expects {nranks // c}")


def _allreduce_cost(machine: MachineModel, nranks: int, c: int,
                    avg_rows: float, f: int, element_bytes: int) -> float:
    """Ring all-reduce of one replicated block row over ``c`` replicas."""
    if c <= 1:
        return 0.0
    alpha, beta = machine.worst_link(nranks)
    nbytes = avg_rows * f * element_bytes
    return 2.0 * math.log2(c) * alpha + 2.0 * nbytes * beta * (c - 1) / c


# ----------------------------------------------------------------------
# Epoch / training predictions
# ----------------------------------------------------------------------
def _overlap_windows(algorithm: str, sparsity_aware: bool,
                     matrix: DistSparseMatrix,
                     nranks: Optional[int], replication: int) -> int:
    """Number of pipelined stage windows one SpMM of the variant has.

    This is what double buffering amortises over: the chunked 1D
    broadcast has one window per block row, the 1.5D schedules one per
    (stage, replica-column) entry (oblivious) or per stage (sparsity
    aware).  The sparsity-aware 1D algorithm issues a single un-staged
    all-to-allv — nothing to overlap, so it reports zero windows.
    """
    if algorithm == "1d":
        return 0 if sparsity_aware else matrix.nblocks
    if algorithm == "1.5d":
        stages = nranks // (replication * replication)
        return stages if sparsity_aware else stages * replication
    return 0


def gradient_exchange_cost(layer_dims: Sequence[int],
                           machine: "str | MachineModel",
                           nranks: int,
                           element_bytes: int = ELEMENT_BYTES,
                           bucket_bytes: int = 0,
                           overlap: bool = False,
                           compute_s: float = 0.0) -> float:
    """Predicted per-epoch cost of the weight-gradient all-reduces.

    Each layer contributes one ``f_in x f_out`` ring all-reduce of
    ``element_bytes`` wide elements.  Fusion packs consecutive layers
    into buckets of ``bucket_bytes`` — fewer messages, so the
    per-message latency term is amortised.  With ``overlap`` the buckets post during the backward
    pass: everything except the last bucket's share can hide behind the
    remaining backward compute (``compute_s``), mirroring both the
    simulator's ``max(comm, compute)`` accounting and the fusion/overlap
    tension — one giant bucket flushes after the last layer and has
    nothing left to hide behind.
    """
    machine = get_machine(machine)
    p = int(nranks)
    if p <= 1:
        return 0.0
    sizes = [int(layer_dims[l - 1]) * int(layer_dims[l]) * element_bytes
             for l in range(1, len(layer_dims))]
    buckets: List[float] = []
    open_bytes = 0.0
    for nbytes in sizes:
        open_bytes += nbytes
        if open_bytes >= bucket_bytes:
            buckets.append(open_bytes)
            open_bytes = 0.0
    if open_bytes > 0.0:
        buckets.append(open_bytes)
    alpha, beta = machine.worst_link(p)
    total = 0.0
    for nbytes in buckets:
        total += 2.0 * math.log2(p) * alpha \
            + 2.0 * nbytes * beta * (p - 1) / p
    if overlap and len(buckets) >= 1:
        windows = len(buckets)
        hidden = min(total, compute_s) * (windows - 1) / max(1, windows)
        total -= hidden
    return total


def epoch_spmm_widths(layer_dims: Sequence[int],
                      cache_input_propagation: bool = False) -> List[int]:
    """Operand widths of the distributed SpMMs one training epoch runs.

    With ``layer_dims = [f_0, ..., f_L]`` layer ``l`` maps ``f_l``-wide
    rows to ``f_{l+1}``-wide ones.  The paper's schedule propagates
    ``f_l``-wide rows forward and ``f_{l+1}``-wide rows backward (``A
    G^l``) at every layer; that list pairs each layer's forward and
    backward widths, layer by layer.

    With ``cache_input_propagation`` the trainer keeps layer 0's ``A X``
    across epochs and runs the backward at the narrow side
    (``DistributedGCN.backward``): layer 0 runs no SpMM (``dW^0 = (A
    X)^T G^0``), and layer ``l > 0`` propagates ``min(f_l, f_{l+1})``
    columns backward — ``A G^l`` where the layer does not widen, ``A
    (G^l (W^l)^T)`` from a kept ``A H^l`` where it does.  That list is
    the ``2 L - 2`` widths in execution order: the forward SpMMs of
    layers ``1 .. L-1``, then the backward ones of layers ``L-1 .. 1``.

    The single definition of the schedule that :func:`epoch_cost` prices
    and the trainer runs, and whose widest
    entry sizes the memory model's buffers and the column panels of the
    cached run's one-off ``A X``.
    """
    dims = [int(d) for d in layer_dims]
    if not cache_input_propagation:
        return [f for l in range(len(dims) - 1) for f in dims[l:l + 2]]
    backward = [min(dims[l], dims[l + 1])
                for l in range(len(dims) - 2, 0, -1)]
    return dims[1:-1] + backward


def inference_spmm_widths(layer_dims: Sequence[int]) -> List[int]:
    """Per-request operand width of each layer's SpMM in the inference
    forward (``DistributedGCN.forward(features)``).

    ``A (H W)`` and ``(A H) W`` are the same product and cost the same
    GEMM flops, while the SpMM — its pack, its exchange and its multiply
    — is linear in the operand width.  So a layer that narrows
    (``f_l < f_{l-1}``) applies its weight first and propagates at
    ``f_l``; any other layer keeps the paper's order and propagates at
    ``f_{l-1}``.  A batch of ``k`` coalesced requests runs each SpMM at
    ``k`` times these widths.  The inference executor iterates this list,
    so it is the single definition of the serve-path schedule (training
    keeps :func:`epoch_spmm_widths`).
    """
    return [min(int(layer_dims[l - 1]), int(layer_dims[l]))
            for l in range(1, len(layer_dims))]


def epoch_cost(matrix: DistSparseMatrix, layer_dims: Sequence[int],
               machine: "str | MachineModel",
               algorithm: str = "1d", sparsity_aware: bool = True,
               nranks: Optional[int] = None, replication: int = 1,
               element_bytes: int = ELEMENT_BYTES,
               pipeline_depth: int = 1,
               grad_exchange: bool = False,
               grad_overlap: bool = False,
               grad_bucket_bytes: int = 0,
               cache_input_propagation: bool = False) -> CommCostBreakdown:
    """Predicted cost of one training epoch: the sum over its distributed
    SpMMs (:func:`epoch_spmm_widths`).

    ``layer_dims`` is ``[f_0, ..., f_L]``; the SpMMs are the trainer's
    actual traffic — ``2 L`` in the paper's schedule, or the ``2 L - 2``
    narrow-side ones with ``cache_input_propagation`` (layer 0's forward
    SpMM runs once per run, not per epoch, and its backward not at all).
    The default prices the paper's schedule, so existing tables are
    unchanged.

    With ``pipeline_depth > 1`` (the compiled operators' double-buffered
    execution) the bandwidth term of each staged SpMM overlaps its local
    compute: up to ``min(bandwidth, compute) * (w - 1) / w`` is hidden,
    where ``w`` is the variant's stage-window count — the first window's
    exchange can never be hidden, and latency plus the replica reduction
    stay on the critical path.  ``pipeline_depth=1`` reproduces the
    synchronous model exactly.

    With ``grad_exchange=True`` the model adds the per-layer
    weight-gradient all-reduces (:func:`gradient_exchange_cost`) to the
    reduction term, honouring the trainer's ``grad_overlap`` /
    ``grad_bucket_bytes`` settings at the model's wire width (the
    planner's ``predicted_s``); the default keeps the SpMM-only
    prediction the paper's tables report.
    """
    if len(layer_dims) < 2:
        raise ValueError("layer_dims needs at least [in_features, classes]")
    if pipeline_depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
    totals = dict(latency_s=0.0, bandwidth_s=0.0, reduction_s=0.0, compute_s=0.0)
    for f in epoch_spmm_widths(layer_dims, cache_input_propagation):
        if algorithm == "1d":
            fn = spmm_cost_1d_sparsity_aware if sparsity_aware \
                else spmm_cost_1d_oblivious
            cost = fn(matrix, f, machine, element_bytes)
        elif algorithm == "1.5d":
            if nranks is None:
                raise ValueError("the 1.5D model needs nranks")
            fn = spmm_cost_15d_sparsity_aware if sparsity_aware \
                else spmm_cost_15d_oblivious
            cost = fn(matrix, f, nranks, replication, machine,
                      element_bytes)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        bandwidth = cost.bandwidth_s
        if pipeline_depth > 1:
            windows = _overlap_windows(algorithm, sparsity_aware,
                                       matrix, nranks, replication)
            if windows > 1:
                hidden = min(bandwidth, cost.compute_s) \
                    * (windows - 1) / windows
                bandwidth -= hidden
        totals["latency_s"] += cost.latency_s
        totals["bandwidth_s"] += bandwidth
        totals["reduction_s"] += cost.reduction_s
        totals["compute_s"] += cost.compute_s
    if grad_exchange:
        p = nranks if nranks is not None else matrix.nblocks
        totals["reduction_s"] += gradient_exchange_cost(
            layer_dims, machine, p,
            element_bytes=element_bytes,
            bucket_bytes=grad_bucket_bytes,
            overlap=grad_overlap,
            compute_s=totals["compute_s"] / 2.0)
    return CommCostBreakdown(**totals)


def crossover_process_count(adjacency: sp.spmatrix, f: int,
                            p_values: Sequence[int],
                            machine: "str | MachineModel") -> Optional[int]:
    """Smallest process count at which the sparsity-aware 1D SpMM is
    predicted to be faster than the oblivious one, with ``adjacency`` in
    natural equal blocks (the plain SA curve).

    Returns None when the sparsity-aware variant never wins in the range.
    """
    from .distribute import distribute

    for p in sorted(p_values):
        if p > adjacency.shape[0]:
            continue
        matrix, _, _ = distribute(adjacency, None, p, normalize=False)
        aware = spmm_cost_1d_sparsity_aware(matrix, f, machine)
        oblivious = spmm_cost_1d_oblivious(matrix, f, machine)
        if aware.communication_s < oblivious.communication_s:
            return p
    return None


def best_replication_factor(matrix_builder, f: int, nranks: int,
                            machine: "str | MachineModel",
                            candidates: Sequence[int] = (1, 2, 4),
                            sparsity_aware: bool = True) -> int:
    """Pick the 1.5D replication factor with the lowest predicted cost.

    Parameters
    ----------
    matrix_builder:
        Callable ``c -> DistSparseMatrix`` producing the matrix distributed
        over ``nranks / c`` block rows (the caller decides how to partition
        for each candidate).
    """
    best_c, best_time = None, float("inf")
    for c in candidates:
        if c <= 0 or nranks % c != 0 or (nranks // c) % c != 0:
            continue
        matrix = matrix_builder(c)
        if c == 1:
            fn = spmm_cost_1d_sparsity_aware if sparsity_aware \
                else spmm_cost_1d_oblivious
            cost = fn(matrix, f, machine)
        else:
            fn = spmm_cost_15d_sparsity_aware if sparsity_aware \
                else spmm_cost_15d_oblivious
            cost = fn(matrix, f, nranks, c, machine)
        if cost.total_s < best_time:
            best_time, best_c = cost.total_s, c
    if best_c is None:
        raise ValueError(f"no feasible replication factor among {candidates} "
                         f"for P={nranks}")
    return best_c
