"""The paper's primary contribution: sparsity-aware distributed SpMM and
distributed full-graph GCN training built on it."""

from .analysis import (ELEMENT_BYTES, VolumeTableRow,
                       predicted_bytes_per_forward, predicted_bytes_per_spmm,
                       predicted_rows_oblivious_1d,
                       predicted_rows_sparsity_aware_1d,
                       single_spmm_volume_table)
from .config import AUTO, Algorithm, DistTrainConfig
from .costmodel import (CommCostBreakdown, epoch_cost, epoch_spmm_widths,
                        gradient_exchange_cost, inference_spmm_widths,
                        spmm_cost_15d_oblivious, spmm_cost_15d_sparsity_aware,
                        spmm_cost_1d_oblivious, spmm_cost_1d_sparsity_aware)
from .checkpoint import (CheckpointError, CheckpointManager,
                         TrainingCheckpoint, config_fingerprint,
                         read_checkpoint, write_checkpoint)
from .dist_gcn import DistLayerCache, DistributedGCN
from .dist_matrix import BlockRowDistribution, DistDenseMatrix, DistSparseMatrix
from .engine import available_spmm_variants, get_spmm, spmm
from .gradsync import (GRAD_DTYPES, DeferredScalar, GradientExchanger,
                       PendingGradients, decode_bfloat16,
                       default_bucket_bytes, encode_bfloat16)
from .memory import MemoryEstimate, estimate_rank_memory, fits_in_memory
from .nnzcols import BlockColumnInfo, split_block_row
from .spmm_15d import ProcessGrid
from .trainer import (DistEpochRecord, DistributedSetup, DistTrainResult,
                      setup_distributed, train_distributed)

__all__ = [
    "ELEMENT_BYTES", "VolumeTableRow", "predicted_bytes_per_forward",
    "predicted_bytes_per_spmm",
    "predicted_rows_oblivious_1d", "predicted_rows_sparsity_aware_1d",
    "single_spmm_volume_table",
    "AUTO", "Algorithm", "DistTrainConfig",
    "CheckpointError", "CheckpointManager", "TrainingCheckpoint",
    "config_fingerprint", "read_checkpoint", "write_checkpoint",
    "CommCostBreakdown", "epoch_cost", "epoch_spmm_widths",
    "gradient_exchange_cost", "inference_spmm_widths",
    "spmm_cost_1d_oblivious", "spmm_cost_1d_sparsity_aware",
    "spmm_cost_15d_oblivious", "spmm_cost_15d_sparsity_aware",
    "DistLayerCache", "DistributedGCN",
    "BlockRowDistribution", "DistDenseMatrix", "DistSparseMatrix",
    "available_spmm_variants", "get_spmm", "spmm",
    "GRAD_DTYPES", "DeferredScalar", "GradientExchanger", "PendingGradients",
    "decode_bfloat16", "default_bucket_bytes", "encode_bfloat16",
    "MemoryEstimate", "estimate_rank_memory", "fits_in_memory",
    "BlockColumnInfo", "split_block_row",
    "ProcessGrid",
    "DistEpochRecord", "DistributedSetup", "DistTrainResult",
    "setup_distributed", "train_distributed",
]
