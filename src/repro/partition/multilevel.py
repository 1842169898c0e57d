"""Multilevel k-way partitioning driver.

Combines the three phases (coarsening → initial partitioning → uncoarsening
with refinement) into a reusable driver.  The refinement objective is
pluggable, which is how the METIS-like and GVB-like partitioners share all
of their machinery and differ only in what they optimise — exactly the
comparison the paper draws in Section 5 and Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from . import metrics
from .base import Partitioner, PartitionResult
from .coarsen import CoarseLevel, coarsen_graph
from .initial import fix_empty_parts, greedy_graph_growing
from .refine import edgecut_refine, rebalance
from .volume_refine import volume_refine

__all__ = ["MultilevelConfig", "MultilevelPartitioner"]


@dataclass(frozen=True)
class MultilevelConfig:
    """Tuning knobs of the multilevel driver."""

    #: stop coarsening when at most ``coarse_to * nparts`` vertices remain
    #: (never below ``min_coarse_vertices``).
    coarse_to: int = 30
    min_coarse_vertices: int = 64
    max_levels: int = 20
    #: balance tolerance of the edgecut refinement
    balance_factor: float = 1.05
    #: sweeps per level
    refine_passes: int = 6
    #: whether to run volume-aware refinement, and on how many of the
    #: finest levels
    volume_refine_levels: int = 0
    volume_balance_factor: float = 1.10
    volume_max_weight: Optional[float] = None
    volume_refine_passes: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        # Reject settings the refiners would silently churn on (a balance
        # below 1.0 is infeasible) or skip (negative counts).
        for name in ("balance_factor", "volume_balance_factor"):
            if not getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be >= 1.0, got "
                                 f"{getattr(self, name)}")
        for name in ("refine_passes", "volume_refine_passes", "max_levels",
                     "volume_refine_levels"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")


class MultilevelPartitioner(Partitioner):
    """Generic multilevel k-way partitioner."""

    name = "multilevel"

    def __init__(self, config: Optional[MultilevelConfig] = None) -> None:
        self.config = config or MultilevelConfig()

    # ------------------------------------------------------------------
    def partition(self, adj: sp.spmatrix, nparts: int) -> PartitionResult:
        adj = self._check_input(adj, nparts)
        cfg = self.config
        n = adj.shape[0]

        if nparts == 1:
            parts = np.zeros(n, dtype=np.int64)
            result = PartitionResult(parts=parts, nparts=1, method=self.name)
            result.stats.update(metrics.partition_report(adj, parts, 1))
            return result

        target = max(cfg.min_coarse_vertices, cfg.coarse_to * nparts)
        levels = coarsen_graph(adj, target_vertices=target, seed=cfg.seed,
                               max_levels=cfg.max_levels)

        # Initial partition on the coarsest graph.
        if levels:
            coarsest_adj = levels[-1].adj
            coarsest_weights = levels[-1].vertex_weights
        else:
            coarsest_adj = adj.astype(np.float64)
            coarsest_weights = np.ones(n)
        parts = greedy_graph_growing(coarsest_adj, nparts,
                                     vertex_weights=coarsest_weights,
                                     seed=cfg.seed)
        parts = rebalance(coarsest_adj, parts, nparts,
                          vertex_weights=coarsest_weights,
                          balance_factor=cfg.balance_factor, seed=cfg.seed)
        parts, _ = edgecut_refine(coarsest_adj, parts, nparts,
                                  vertex_weights=coarsest_weights,
                                  balance_factor=cfg.balance_factor,
                                  max_passes=cfg.refine_passes,
                                  seed=cfg.seed)

        # Uncoarsen: project to each finer level and refine there.
        graphs: List[Tuple[sp.csr_matrix, np.ndarray]] = [
            (adj.astype(np.float64), np.ones(n))]
        for level in levels[:-1]:
            graphs.append((level.adj, level.vertex_weights))
        # graphs[i] is the graph at level i (0 = finest); levels[i].coarse_map
        # maps level i vertices to level i+1 vertices.

        total_levels = len(levels)
        for level_idx in range(total_levels - 1, -1, -1):
            coarse_map = levels[level_idx].coarse_map
            parts = parts[coarse_map]  # project coarse parts to finer graph
            fine_adj, fine_weights = graphs[level_idx]
            parts = fix_empty_parts(fine_adj, parts, nparts, fine_weights)
            parts = rebalance(fine_adj, parts, nparts,
                              vertex_weights=fine_weights,
                              balance_factor=cfg.balance_factor,
                              seed=cfg.seed + level_idx + 1)
            parts, _ = edgecut_refine(fine_adj, parts, nparts,
                                      vertex_weights=fine_weights,
                                      balance_factor=cfg.balance_factor,
                                      max_passes=cfg.refine_passes,
                                      seed=cfg.seed + level_idx + 1)
            if cfg.volume_refine_levels and \
                    level_idx < cfg.volume_refine_levels:
                parts, _ = volume_refine(
                    fine_adj, parts, nparts,
                    vertex_weights=fine_weights,
                    balance_factor=cfg.volume_balance_factor,
                    max_volume_weight=cfg.volume_max_weight,
                    max_passes=cfg.volume_refine_passes,
                    seed=cfg.seed + 100 + level_idx)

        if total_levels == 0:
            # No coarsening happened: parts already refer to the input graph,
            # but run the optional volume refinement on it.
            if cfg.volume_refine_levels:
                parts, _ = volume_refine(
                    adj, parts, nparts, vertex_weights=np.ones(n),
                    balance_factor=cfg.volume_balance_factor,
                    max_volume_weight=cfg.volume_max_weight,
                    max_passes=cfg.volume_refine_passes,
                    seed=cfg.seed + 100)

        parts = fix_empty_parts(adj, parts, nparts, np.ones(n))
        result = PartitionResult(parts=parts, nparts=nparts, method=self.name)
        result.stats.update(metrics.partition_report(adj, parts, nparts))
        result.stats["coarsening_levels"] = float(total_levels)
        return result
