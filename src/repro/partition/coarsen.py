"""Graph coarsening via heavy-edge matching.

This is the first phase of the multilevel partitioning framework used by
METIS-style partitioners: repeatedly contract a maximal matching that
prefers heavy edges, producing a hierarchy of progressively smaller graphs
that preserve the large-scale cut structure of the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["CoarseLevel", "heavy_edge_matching", "contract_graph", "coarsen_graph"]


@dataclass
class CoarseLevel:
    """One level of the coarsening hierarchy.

    ``coarse_map[v]`` is the coarse vertex id that fine vertex ``v`` was
    merged into; ``adj`` / ``vertex_weights`` describe the *coarse* graph.
    """

    adj: sp.csr_matrix
    vertex_weights: np.ndarray
    coarse_map: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.adj.shape[0]


def heavy_edge_matching(adj: sp.csr_matrix, rng: np.random.Generator,
                        vertex_weights: Optional[np.ndarray] = None,
                        max_vertex_weight: Optional[float] = None) -> np.ndarray:
    """Compute a matching preferring heavy edges.

    Returns ``match`` where ``match[v]`` is the vertex matched with ``v``
    (``match[v] == v`` for unmatched vertices).  Vertices are visited in
    random order; each unmatched vertex grabs its unmatched neighbour with
    the largest edge weight, subject to an optional cap on the combined
    vertex weight (which keeps coarse vertices from becoming so heavy that
    balanced partitions no longer exist).
    """
    n = adj.shape[0]
    indptr, order = _pick_order(adj)
    weights = (np.ones(n) if vertex_weights is None
               else np.asarray(vertex_weights)).tolist()
    cap = max_vertex_weight
    match = list(range(n))       # match[v] != v exactly when v is matched
    for v in rng.permutation(n).tolist():
        if match[v] != v:
            continue
        wv = weights[v]
        # The first eligible neighbour in pick order is the heaviest one,
        # the first in CSR order among equals: a strict ``>`` scan's pick.
        for u in order[indptr[v]:indptr[v + 1]]:
            if match[u] == u and (cap is None or not wv + weights[u] > cap):
                match[v] = u
                match[u] = v
                break
    return np.array(match)


def _pick_order(adj: sp.csr_matrix):
    """Each vertex's neighbours in the order heavy-edge matching tries
    them: descending edge weight, then CSR position; self-loops and edges
    a strict ``> -inf`` scan never picks (weight -inf or NaN) dropped.
    Returns ``(indptr, neighbours)`` as lists."""
    n = adj.shape[0]
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    keep = (adj.indices != rows) & (adj.data > -np.inf)
    rows, cols, data = rows[keep], adj.indices[keep], adj.data[keep]
    if data.size and data.min() != data.max():
        # lexsort is stable: equal weights keep their CSR order.
        cols = cols[np.lexsort((-data.astype(np.float64), rows))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr.tolist(), cols.tolist()


def contract_graph(adj: sp.csr_matrix, match: np.ndarray,
                   vertex_weights: np.ndarray) -> CoarseLevel:
    """Contract matched vertex pairs into coarse vertices.

    The coarse adjacency sums the edge weights between coarse vertices and
    drops coarse self-loops; coarse vertex weights are the sums of their
    constituents.
    """
    n = adj.shape[0]
    # Coarse ids: every matched pair (and every unmatched vertex) is named
    # by its lower-id endpoint, and coarse ids follow that order.
    names, coarse_map = np.unique(np.minimum(np.arange(n), match),
                                  return_inverse=True)
    nc = names.size

    coo = adj.tocoo()
    crow = coarse_map[coo.row]
    ccol = coarse_map[coo.col]
    keep = crow != ccol
    coarse_adj = sp.coo_matrix(
        (coo.data[keep], (crow[keep], ccol[keep])), shape=(nc, nc)).tocsr()

    coarse_weights = np.zeros(nc)
    np.add.at(coarse_weights, coarse_map, vertex_weights)

    return CoarseLevel(adj=coarse_adj, vertex_weights=coarse_weights,
                       coarse_map=coarse_map)


#: most levels :func:`coarsen_graph` builds
MAX_LEVELS = 20
#: a level that shrinks the graph by less than this share ends coarsening
MIN_REDUCTION = 0.05
#: no coarse vertex may weigh more than this share of the graph (or 2)
BALANCE_CAP_FACTOR = 0.06


def coarsen_graph(adj: sp.csr_matrix, target_vertices: int,
                  seed: int = 0) -> List[CoarseLevel]:
    """Build the full coarsening hierarchy.

    Coarsening stops when the graph has at most ``target_vertices``
    vertices, when ``MAX_LEVELS`` levels were produced, or when a level
    shrinks the graph by less than ``MIN_REDUCTION`` (matching stalls on
    star-like graphs).

    Returns the list of levels, finest first.  An empty list means the
    input graph was already small enough.
    """
    if target_vertices < 1:
        raise ValueError("target_vertices must be at least 1")
    rng = np.random.default_rng(seed)
    levels: List[CoarseLevel] = []
    current = adj.tocsr().astype(np.float64)
    weights = np.ones(current.shape[0])
    total_weight = float(weights.sum())

    for _ in range(MAX_LEVELS):
        n = current.shape[0]
        if n <= target_vertices:
            break
        # Cap coarse vertex weight so no single coarse vertex exceeds a
        # fraction of the average target part weight.
        cap = max(2.0, BALANCE_CAP_FACTOR * total_weight)
        match = heavy_edge_matching(current, rng, vertex_weights=weights,
                                    max_vertex_weight=cap)
        level = contract_graph(current, match, weights)
        if level.n_vertices >= n * (1.0 - MIN_REDUCTION):
            break
        levels.append(level)
        current = level.adj
        weights = level.vertex_weights
    return levels
