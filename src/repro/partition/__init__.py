"""Graph partitioning substrate.

Implements the three distribution strategies compared in the paper:

* :class:`RandomPartitioner` / :class:`BlockPartitioner` — the
  sparsity-oblivious default (1D blocks, optional random permutation);
* :class:`MetisLikePartitioner` — multilevel k-way minimizing total
  edgecut, the stand-in for METIS;
* :class:`GVBPartitioner` — multilevel k-way minimizing total *and*
  maximum send volume, the stand-in for Graph-VB.

These are the only partitioners: :data:`PARTITIONERS` registers exactly
``block``, ``random``, ``metis_like`` and ``gvb``.  Quality metrics for
all of them (edgecut, total/max send volume, imbalance) live in
:mod:`repro.partition.metrics`.
"""

from .base import Partitioner, PartitionResult, validate_parts
from .coarsen import CoarseLevel, coarsen_graph, contract_graph, heavy_edge_matching
from .gvb import GVBPartitioner
from .initial import fix_empty_parts, greedy_graph_growing
from .metis_like import MetisLikePartitioner
from .metrics import (CommVolume, communication_volumes_1d, edgecut,
                      load_imbalance, part_nonzeros, part_sizes,
                      partition_report)
from .multilevel import MultilevelConfig, MultilevelPartitioner
from .random_block import (BlockPartitioner, RandomPartitioner,
                           balanced_block_bounds, contiguous_parts)
from .refine import edgecut_refine, weighted_edgecut
from .volume_refine import VolumeState, volume_refine

__all__ = [
    "Partitioner", "PartitionResult", "validate_parts",
    "CoarseLevel", "coarsen_graph", "contract_graph", "heavy_edge_matching",
    "GVBPartitioner",
    "fix_empty_parts", "greedy_graph_growing",
    "MetisLikePartitioner",
    "CommVolume", "communication_volumes_1d",
    "edgecut", "load_imbalance", "part_nonzeros", "part_sizes",
    "partition_report",
    "MultilevelConfig", "MultilevelPartitioner",
    "BlockPartitioner", "RandomPartitioner", "balanced_block_bounds",
    "contiguous_parts",
    "edgecut_refine", "weighted_edgecut",
    "VolumeState", "volume_refine",
    "get_partitioner", "PARTITIONERS",
]


#: The one list of partitioner names: the CLI's ``--partitioner``
#: choices, the planner's validation and the benchmark sweeps read it.
PARTITIONERS = {
    "block": BlockPartitioner,
    "random": RandomPartitioner,
    "metis_like": MetisLikePartitioner,
    "gvb": GVBPartitioner,
}


def get_partitioner(name: str, **kwargs) -> Partitioner:
    """Instantiate a partitioner by registry name."""
    try:
        cls = PARTITIONERS[name]
    except KeyError:
        raise KeyError(f"unknown partitioner {name!r}; "
                       f"available: {sorted(PARTITIONERS)}") from None
    return cls(**kwargs)
