"""Dataset registry.

Provides the four evaluation datasets of the paper as synthetic, scaled
stand-ins (see :mod:`repro.graphs.generators` for why each generator was
chosen), plus the *paper-scale* specifications used to reproduce Table 3.

Every dataset is produced deterministically from its name, scale and seed,
so benchmark runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp

from . import generators as gen
from .features import NodeData, make_node_data

__all__ = [
    "DatasetSpec",
    "GraphDataset",
    "PAPER_SPECS",
    "DATASET_NAMES",
    "load_dataset",
    "dataset_summary",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a dataset (paper-scale numbers for Table 3)."""

    name: str
    vertices: int
    edges: int
    features: int
    labels: int
    character: str


#: The statistics reported in Table 3 of the paper.
PAPER_SPECS: Dict[str, DatasetSpec] = {
    "reddit": DatasetSpec("reddit", 232_965, 114_848_857, 602, 41,
                          "small and dense, irregular"),
    "amazon": DatasetSpec("amazon", 14_249_639, 230_788_269, 300, 24,
                          "large and sparse, heavy-tailed / irregular"),
    "protein": DatasetSpec("protein", 8_745_542, 2_116_240_124, 300, 24,
                           "dense but regular / community structured"),
    "papers": DatasetSpec("papers", 111_059_956, 3_231_371_744, 128, 172,
                          "largest, citation network"),
}

DATASET_NAMES = tuple(PAPER_SPECS)


@dataclass
class GraphDataset:
    """A graph plus its learning data, ready for (distributed) GCN training."""

    name: str
    adjacency: sp.csr_matrix
    node_data: NodeData
    spec: DatasetSpec

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (each stored twice in the matrix)."""
        return self.adjacency.nnz // 2

    @property
    def nnz(self) -> int:
        return self.adjacency.nnz

    @property
    def n_features(self) -> int:
        return self.node_data.n_features

    @property
    def n_classes(self) -> int:
        return self.node_data.n_classes

    @property
    def avg_degree(self) -> float:
        return self.adjacency.nnz / max(1, self.n_vertices)


# ----------------------------------------------------------------------
# Scaled synthetic builders
# ----------------------------------------------------------------------
# Scaled sizes keep the *relative* character of the four graphs (Reddit is
# the smallest and densest, Amazon is sparse and irregular, Protein is dense
# and regular, Papers is the largest) at a size that trains in seconds.
_SCALED_BUILDERS: Dict[str, Callable[[float, int], sp.csr_matrix]] = {}


def _register(name: str):
    def deco(fn):
        _SCALED_BUILDERS[name] = fn
        return fn
    return deco


@_register("reddit")
def _build_reddit(scale: float, seed: int) -> sp.csr_matrix:
    # Small and very dense; some community structure but lots of
    # cross-community (hub) edges, like the real Reddit graph.
    n = max(64, int(1_500 * scale))
    avg_degree = min(n - 1, max(8, int(120 * np.sqrt(scale))))
    n_comms = max(4, min(16, n // 40))
    return gen.degree_corrected_sbm(n, avg_degree=avg_degree,
                                    n_communities=n_comms,
                                    p_internal=0.6, exponent=2.6, seed=seed)


@_register("amazon")
def _build_amazon(scale: float, seed: int) -> sp.csr_matrix:
    # Large and sparse with a heavy-tailed degree distribution: the
    # hardest case for communication balance (Table 2 / Figure 6).
    n = max(128, int(8_000 * scale))
    n_comms = max(8, min(64, n // 60))
    return gen.degree_corrected_sbm(n, avg_degree=16,
                                    n_communities=n_comms,
                                    p_internal=0.72, exponent=2.1, seed=seed)


@_register("protein")
def _build_protein(scale: float, seed: int) -> sp.csr_matrix:
    # Dense but regular / strongly clustered: partitioners cut almost
    # nothing, which is what yields the paper's 14x best case.
    n = max(128, int(5_000 * scale))
    avg_degree = min(n // 4, max(8, int(60 * np.sqrt(scale))))
    n_comms = max(8, int(np.sqrt(n) / 2))
    return gen.community_ring_graph(n, avg_degree=avg_degree,
                                    n_communities=n_comms,
                                    p_external=0.02, seed=seed)


@_register("papers")
def _build_papers(scale: float, seed: int) -> sp.csr_matrix:
    # The largest graph; citation-like with many topical communities.
    n = max(256, int(12_000 * scale))
    n_comms = max(16, min(96, n // 80))
    return gen.degree_corrected_sbm(n, avg_degree=12,
                                    n_communities=n_comms,
                                    p_internal=0.78, exponent=2.3, seed=seed)


_SCALED_LEARNING: Dict[str, Dict[str, int]] = {
    # Feature/label counts follow Table 3 but features are capped so the
    # dense activations stay laptop sized at scale 1.
    "reddit": {"features": 602, "labels": 41},
    "amazon": {"features": 300, "labels": 24},
    "protein": {"features": 300, "labels": 24},
    "papers": {"features": 128, "labels": 172},
}


def load_dataset(name: str, scale: float = 1.0, seed: int = 0,
                 n_features: Optional[int] = None,
                 n_classes: Optional[int] = None) -> GraphDataset:
    """Build a scaled synthetic stand-in for one of the paper's datasets.

    Parameters
    ----------
    name:
        One of ``"reddit"``, ``"amazon"``, ``"protein"``, ``"papers"``.
    scale:
        Relative size knob.  ``scale=1.0`` gives graphs with a few thousand
        to ~12k vertices; benchmarks use 0.25–1.0, tests use much less.
    seed:
        RNG seed for graph, features, labels and split.
    n_features / n_classes:
        Override the Table-3 feature/label counts (useful in tests).
    """
    key = name.lower()
    if key not in _SCALED_BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(_SCALED_BUILDERS)}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    adjacency = _SCALED_BUILDERS[key](scale, seed)
    f = n_features if n_features is not None else _SCALED_LEARNING[key]["features"]
    c = n_classes if n_classes is not None else _SCALED_LEARNING[key]["labels"]
    c = min(c, max(2, adjacency.shape[0] // 4))
    node_data = make_node_data(adjacency, n_features=f, n_classes=c, seed=seed)
    return GraphDataset(name=key, adjacency=adjacency, node_data=node_data,
                        spec=PAPER_SPECS[key])


def dataset_summary(dataset: GraphDataset) -> Dict[str, object]:
    """Row of the Table-3 reproduction for one dataset (scaled + paper scale)."""
    return {
        "name": dataset.name,
        "vertices": dataset.n_vertices,
        "edges": dataset.n_edges,
        "nnz": dataset.nnz,
        "avg_degree": round(dataset.avg_degree, 2),
        "features": dataset.n_features,
        "labels": dataset.n_classes,
        "paper_vertices": dataset.spec.vertices,
        "paper_edges": dataset.spec.edges,
        "paper_features": dataset.spec.features,
        "paper_labels": dataset.spec.labels,
    }
