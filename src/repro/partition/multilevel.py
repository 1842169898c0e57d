"""Multilevel k-way partitioning driver.

Combines the three phases (coarsening → initial partitioning → uncoarsening
with refinement) into a reusable driver.  The refinement objective is
pluggable, which is how the METIS-like and GVB-like partitioners share all
of their machinery and differ only in what they optimise — exactly the
comparison the paper draws in Section 5 and Figure 6.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from . import metrics
from .base import Partitioner, PartitionResult
from .coarsen import CoarseLevel, coarsen_graph
from .initial import fix_empty_parts, greedy_graph_growing
from .refine import LevelGraph, edgecut_refine, rebalance
from .volume_refine import volume_refine

__all__ = ["MultilevelConfig", "MultilevelPartitioner", "PHASES"]

#: the phases ``MultilevelPartitioner.partition`` times; each adds
#: ``<phase>_s`` wall seconds to ``PartitionResult.stats``
#: (``rebalance`` includes ``fix_empty_parts``)
PHASES = ("coarsen", "initial_partition", "rebalance", "edgecut_refine",
          "volume_refine")


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


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, if it runs, for one partition.

    The refiners allocate some 10^5 lists and delta records per amazon
    partition and create no reference cycles, so the collections those
    allocations trigger only traverse live state (≈ 13 % of GVB at amazon
    p = 4).  Reference counting still frees every temporary at once.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextmanager
def _timed(seconds: Dict[str, float], phase: str) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[phase] += time.perf_counter() - start


class MultilevelPartitioner(Partitioner):
    """Generic multilevel k-way partitioner."""

    name = "multilevel"

    def __init__(self, config: Optional[MultilevelConfig] = None) -> None:
        self.config = config or MultilevelConfig()

    # ------------------------------------------------------------------
    def partition(self, adj: sp.spmatrix, nparts: int) -> PartitionResult:
        with _collector_paused():
            return self._partition(adj, nparts)

    def _partition(self, adj: sp.spmatrix, nparts: int) -> PartitionResult:
        adj = self._check_input(adj, nparts)
        cfg = self.config
        n = adj.shape[0]
        seconds = dict.fromkeys(PHASES, 0.0)

        if nparts == 1:
            parts = np.zeros(n, dtype=np.int64)
            result = PartitionResult(parts=parts, nparts=1, method=self.name)
            result.stats.update(metrics.partition_report(adj, parts, 1))
            result.stats.update({f"{k}_s": v for k, v in seconds.items()})
            return result

        target = max(cfg.min_coarse_vertices, cfg.coarse_to * nparts)
        with _timed(seconds, "coarsen"):
            levels = coarsen_graph(adj, target_vertices=target, seed=cfg.seed,
                                   max_levels=cfg.max_levels)

        # graphs[i] is the graph at level i (0 = finest); levels[i].coarse_map
        # maps level i vertices to level i+1 vertices.
        graphs: List[Tuple[sp.csr_matrix, np.ndarray]] = [
            (adj.astype(np.float64), np.ones(n))]
        graphs += [(level.adj, level.vertex_weights) for level in levels]

        def refine(level_idx: int, parts: np.ndarray, seed: int
                   ) -> np.ndarray:
            """Rebalance and edgecut-refine ``parts`` on level ``level_idx``,
            then volume-refine it on the finest ``volume_refine_levels``;
            the three share one conversion of the level's adjacency."""
            level_adj, level_weights = graphs[level_idx]
            level_adj = LevelGraph(level_adj)
            with _timed(seconds, "rebalance"):
                parts = rebalance(level_adj, parts, nparts,
                                  vertex_weights=level_weights,
                                  balance_factor=cfg.balance_factor,
                                  seed=seed)
            with _timed(seconds, "edgecut_refine"):
                parts, _ = edgecut_refine(level_adj, parts, nparts,
                                          vertex_weights=level_weights,
                                          balance_factor=cfg.balance_factor,
                                          max_passes=cfg.refine_passes,
                                          seed=seed)
            if level_idx < min(cfg.volume_refine_levels, len(levels)):
                with _timed(seconds, "volume_refine"):
                    parts, _ = volume_refine(
                        level_adj, parts, nparts,
                        vertex_weights=level_weights,
                        balance_factor=cfg.volume_balance_factor,
                        max_volume_weight=cfg.volume_max_weight,
                        max_passes=cfg.volume_refine_passes,
                        seed=cfg.seed + 100 + level_idx)
            return parts

        # Initial partition on the coarsest graph.
        coarsest_adj, coarsest_weights = graphs[-1]
        with _timed(seconds, "initial_partition"):
            parts = greedy_graph_growing(coarsest_adj, nparts,
                                         vertex_weights=coarsest_weights,
                                         seed=cfg.seed)
        parts = refine(len(levels), parts, cfg.seed)

        # Uncoarsen: project to each finer level and refine there.
        for level_idx in range(len(levels) - 1, -1, -1):
            parts = parts[levels[level_idx].coarse_map]
            with _timed(seconds, "rebalance"):
                parts = fix_empty_parts(graphs[level_idx][0], parts, nparts,
                                        graphs[level_idx][1])
            parts = refine(level_idx, parts, cfg.seed + level_idx + 1)

        if not levels and cfg.volume_refine_levels:
            # No coarsening happened: parts already refer to the input graph,
            # but run the optional volume refinement on it.
            with _timed(seconds, "volume_refine"):
                parts, _ = volume_refine(
                    adj, parts, nparts, vertex_weights=np.ones(n),
                    balance_factor=cfg.volume_balance_factor,
                    max_volume_weight=cfg.volume_max_weight,
                    max_passes=cfg.volume_refine_passes,
                    seed=cfg.seed + 100)

        with _timed(seconds, "rebalance"):
            parts = fix_empty_parts(adj, parts, nparts, np.ones(n))
        result = PartitionResult(parts=parts, nparts=nparts, method=self.name)
        result.stats.update(metrics.partition_report(adj, parts, nparts))
        result.stats["coarsening_levels"] = float(len(levels))
        result.stats.update({f"{k}_s": v for k, v in seconds.items()})
        return result
