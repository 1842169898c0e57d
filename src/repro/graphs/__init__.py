"""Graph datasets, generators and adjacency utilities.

The paper's evaluation graphs (Reddit, Amazon, Protein, Papers) are
reproduced as synthetic stand-ins with the same character; see
:mod:`repro.graphs.generators` and DESIGN.md for the substitution notes.
"""

from .adjacency import (add_self_loops, degrees, gcn_normalize, is_symmetric,
                        permutation_from_parts, permute_rows,
                        symmetric_permutation, validate_adjacency)
from .datasets import (DATASET_NAMES, DatasetSpec, GraphDataset, PAPER_SPECS,
                       dataset_summary, load_dataset)
from .features import (NodeData, make_features, make_node_data,
                       planted_labels, train_val_test_split)
from .generators import (chung_lu_graph, community_ring_graph,
                         erdos_renyi_graph, grid_graph,
                         preferential_attachment_graph, rmat_graph,
                         symmetrize)
from .io import load_dataset_file, load_partition, save_dataset, save_partition

__all__ = [
    "add_self_loops", "degrees", "gcn_normalize", "is_symmetric",
    "permutation_from_parts", "permute_rows", "symmetric_permutation",
    "validate_adjacency",
    "DATASET_NAMES", "DatasetSpec", "GraphDataset", "PAPER_SPECS",
    "dataset_summary", "load_dataset",
    "NodeData", "make_features", "make_node_data", "planted_labels",
    "train_val_test_split",
    "chung_lu_graph", "community_ring_graph", "erdos_renyi_graph",
    "grid_graph", "preferential_attachment_graph", "rmat_graph",
    "symmetrize",
    "load_dataset_file", "load_partition", "save_dataset", "save_partition",
]
