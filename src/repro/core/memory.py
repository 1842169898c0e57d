"""Per-rank memory footprint model and out-of-memory emulation.

The paper's figures have missing data points where a configuration ran out
of the A100's 40 GB (Amazon and Protein at ``p = 4``; partitioning Papers
into more than 16 parts).  This module models the per-rank footprint of a
training configuration so that the benchmarks can mark the same points as
infeasible, and so users can size runs before launching them:

* the local block row of the (CSR) adjacency: ``12 bytes / nonzero`` plus
  the row pointer,
* the local block rows of the activations ``H^0 .. H^L`` and of one
  gradient buffer of the same shape,
* with ``cache_input_propagation``, the resident ``(n/p) x f_0`` block of
  layer 0's kept ``A X`` — and exchange buffers only as wide as the
  epoch schedule's widest SpMM, not ``f_0``,
* the replicated weight matrices,
* for 1.5D, the replication of the block rows over ``c`` ranks (the block
  rows get larger because there are only ``P/c`` of them) plus the partial
  result buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse as sp

from ..comm.machine import MachineModel, get_machine
from .analysis import ELEMENT_BYTES
from .config import Algorithm, DistTrainConfig, training_layer_dims
from .costmodel import epoch_spmm_widths

__all__ = ["MemoryEstimate", "estimate_rank_memory", "fits_in_memory",
           "measure_dist_matrix_bytes",
           "CSR_INDEX_BYTES"]

#: bytes per CSR stored nonzero: one float64 value plus one int32 column index.
CSR_INDEX_BYTES = 4
CSR_VALUE_BYTES = 8


@dataclass(frozen=True)
class MemoryEstimate:
    """Per-rank memory footprint of one training configuration (bytes)."""

    adjacency_bytes: float
    activation_bytes: float
    gradient_bytes: float
    weight_bytes: float
    buffer_bytes: float
    framework_bytes: float
    replication_overhead_bytes: float

    @property
    def total_bytes(self) -> float:
        return (self.adjacency_bytes + self.activation_bytes +
                self.gradient_bytes + self.weight_bytes + self.buffer_bytes +
                self.framework_bytes + self.replication_overhead_bytes)

    @property
    def total_gigabytes(self) -> float:
        return self.total_bytes / 1e9

    def as_dict(self) -> Dict[str, float]:
        return {
            "adjacency_bytes": self.adjacency_bytes,
            "activation_bytes": self.activation_bytes,
            "gradient_bytes": self.gradient_bytes,
            "weight_bytes": self.weight_bytes,
            "buffer_bytes": self.buffer_bytes,
            "framework_bytes": self.framework_bytes,
            "replication_overhead_bytes": self.replication_overhead_bytes,
            "total_bytes": self.total_bytes,
            "total_GB": self.total_gigabytes,
        }


def estimate_rank_memory(n_vertices: int, n_edges_stored: int,
                         n_features: int, n_classes: int,
                         config: DistTrainConfig,
                         element_bytes: int = ELEMENT_BYTES
                         ) -> MemoryEstimate:
    """Worst-rank memory footprint for training a graph of the given size.

    Parameters
    ----------
    n_edges_stored:
        Stored nonzeros of the adjacency (2x the undirected edge count for
        symmetric graphs).
    config:
        The distributed training configuration (rank count, algorithm,
        replication factor, architecture sizes).
    """
    if n_vertices <= 0 or n_edges_stored < 0:
        raise ValueError("graph sizes must be positive")
    nblocks = config.n_block_rows
    c = config.replication_factor if \
        config.algorithm == Algorithm.ONE_POINT_FIVE_D else 1

    # Block rows are ~uniform after partitioning with a balance constraint;
    # use a mild skew factor for the worst rank.
    skew = 1.15
    rows_per_rank = skew * n_vertices / nblocks
    nnz_per_rank = skew * n_edges_stored / nblocks

    adjacency = nnz_per_rank * (CSR_VALUE_BYTES + CSR_INDEX_BYTES) + \
        (rows_per_rank + 1) * CSR_INDEX_BYTES

    dims = training_layer_dims(n_features, n_classes, config.hidden,
                               config.n_layers)
    # Forward caches: the input features plus pre-activation and activation
    # of every layer (the trainer stores h_in, z, h_out per layer).
    activation = rows_per_rank * dims[0] * element_bytes + \
        sum(2.0 * rows_per_rank * f * element_bytes for f in dims[1:])
    if config.cache_input_propagation:
        # The kept layer-0 product A X, resident for the whole run, and
        # the A H^l copy each widening layer keeps for its narrow-side
        # backward.
        activation += rows_per_rank * dims[0] * element_bytes + \
            sum(rows_per_rank * dims[l] * element_bytes
                for l in range(1, len(dims) - 1) if dims[l] < dims[l + 1])
    # One live gradient buffer of the widest layer output.
    gradient = rows_per_rank * max(dims[1:]) * element_bytes

    weights = sum(dims[l] * dims[l + 1] for l in range(len(dims) - 1)) * \
        element_bytes

    # Communication / workspace buffers: a received block row of H at the
    # widest propagated width and the propagated product A @ H of the same
    # width (both are live simultaneously during that SpMM).  The paper's
    # schedule propagates the f_0-wide input every epoch; with the cache
    # the widest plan is the epoch schedule's, and the one-off A X streams
    # through it in column panels.
    if config.cache_input_propagation:
        widest_input = max(epoch_spmm_widths(dims, True), default=dims[0])
    else:
        widest_input = max(dims[:-1])
    buffers = 2.0 * rows_per_rank * widest_input * element_bytes

    # Resident framework overhead (CUDA context, NCCL buffers, allocator
    # slack) — roughly 1 GB per process on the paper's system.
    framework = 1.0e9

    # In 1.5D each rank additionally keeps the partial-sum buffer of its
    # (larger, because there are only P/c of them) block row.
    replication_overhead = 0.0
    if c > 1:
        replication_overhead = rows_per_rank * max(dims[1:]) * element_bytes

    return MemoryEstimate(
        adjacency_bytes=float(adjacency),
        activation_bytes=float(activation),
        gradient_bytes=float(gradient),
        weight_bytes=float(weights),
        buffer_bytes=float(buffers),
        framework_bytes=float(framework),
        replication_overhead_bytes=float(replication_overhead),
    )


def _csr_nbytes(m: sp.csr_matrix) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def measure_dist_matrix_bytes(matrix) -> Dict[str, int]:
    """Actual (not modelled) byte footprint of a ``DistSparseMatrix``.

    Separates the block-row CSRs, the NnzCols index arrays, the compacted
    blocks, and the **lazily built** full-width blocks.  Because
    :class:`~repro.core.nnzcols.BlockColumnInfo` only widens a block on
    first ``.full`` access — and shares the value/indptr buffers with the
    compacted form when it does — ``full_extra_bytes`` stays zero for
    sparsity-aware runs and counts only the extra column-index array per
    materialised block otherwise.  The memory-model tests assert exactly
    that saving.
    """
    block_rows = sum(_csr_nbytes(b) for b in matrix.block_rows)
    nnz_cols = compact = full_extra = 0
    materialised = 0
    for row in matrix.blocks:
        for info in row:
            nnz_cols += int(info.nnz_cols_global.nbytes +
                            info.nnz_cols_local.nbytes)
            compact += _csr_nbytes(info.compact)
            if info.full_materialized:
                materialised += 1
                full = info.full
                # Only count buffers the widened block does NOT share with
                # the compacted one.
                if full.data is not info.compact.data:
                    full_extra += int(full.data.nbytes)
                if full.indptr is not info.compact.indptr:
                    full_extra += int(full.indptr.nbytes)
                full_extra += int(full.indices.nbytes)
    return {
        "block_row_bytes": block_rows,
        "nnz_cols_bytes": nnz_cols,
        "compact_bytes": compact,
        "full_extra_bytes": full_extra,
        "full_blocks_materialized": materialised,
        "total_bytes": block_rows + nnz_cols + compact + full_extra,
    }


def fits_in_memory(estimate: MemoryEstimate,
                   machine: "str | MachineModel",
                   safety_factor: float = 0.9) -> bool:
    """Whether the estimated footprint fits in one rank's device memory."""
    if not (0.0 < safety_factor <= 1.0):
        raise ValueError("safety_factor must lie in (0, 1]")
    machine = get_machine(machine)
    return estimate.total_bytes <= safety_factor * machine.memory_bytes
