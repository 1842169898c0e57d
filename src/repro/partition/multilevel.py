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
from typing import Dict, Iterator, List, Tuple

import numpy as np
import scipy.sparse as sp

from . import metrics
from .base import Partitioner, PartitionResult
from .coarsen import CoarseLevel, coarsen_graph
from .initial import fix_empty_parts, greedy_graph_growing
from .refine import LevelGraph, edgecut_refine, rebalance
from .volume_refine import volume_refine

__all__ = ["MultilevelPartitioner", "PHASES"]

#: the phases ``MultilevelPartitioner.partition`` times; each adds
#: ``<phase>_s`` wall seconds to ``PartitionResult.stats``
#: (``rebalance`` includes ``fix_empty_parts``)
PHASES = ("coarsen", "initial_partition", "rebalance", "edgecut_refine",
          "volume_refine")


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
    """Generic multilevel k-way partitioner.

    Subclasses differ only in the class constants below; ``seed`` is the
    one value a caller sets.
    """

    name = "multilevel"
    #: stop coarsening when at most ``COARSE_TO * nparts`` vertices
    #: remain (never below ``MIN_COARSE_VERTICES``)
    COARSE_TO = 30
    MIN_COARSE_VERTICES = 64
    #: balance tolerance of the rebalance and edgecut refinement
    BALANCE_FACTOR = 1.05
    #: edgecut (and volume) refinement sweeps per level
    REFINE_PASSES = 8
    #: volume-aware refinement runs on this many of the finest levels
    VOLUME_REFINE_LEVELS = 0
    #: balance tolerance of the volume-aware refinement (set by a
    #: subclass that refines the volume)
    volume_balance_factor: float

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ------------------------------------------------------------------
    def partition(self, adj: sp.spmatrix, nparts: int) -> PartitionResult:
        with _collector_paused():
            return self._partition(adj, nparts)

    def _partition(self, adj: sp.spmatrix, nparts: int) -> PartitionResult:
        adj = self._check_input(adj, nparts)
        seed = self.seed
        n = adj.shape[0]
        seconds = dict.fromkeys(PHASES, 0.0)

        if nparts == 1:
            parts = np.zeros(n, dtype=np.int64)
            result = PartitionResult(parts=parts, nparts=1, method=self.name)
            result.stats.update(metrics.partition_report(adj, parts, 1))
            result.stats.update({f"{k}_s": v for k, v in seconds.items()})
            return result

        target = max(self.MIN_COARSE_VERTICES, self.COARSE_TO * nparts)
        with _timed(seconds, "coarsen"):
            levels = coarsen_graph(adj, target_vertices=target, seed=seed)

        # graphs[i] is the graph at level i (0 = finest); levels[i].coarse_map
        # maps level i vertices to level i+1 vertices.
        graphs: List[Tuple[sp.csr_matrix, np.ndarray]] = [
            (adj.astype(np.float64), np.ones(n))]
        graphs += [(level.adj, level.vertex_weights) for level in levels]

        def refine(level_idx: int, parts: np.ndarray, level_seed: int
                   ) -> np.ndarray:
            """Rebalance and edgecut-refine ``parts`` on level ``level_idx``,
            then volume-refine it on the finest ``VOLUME_REFINE_LEVELS``;
            the three share one conversion of the level's adjacency."""
            level_adj, level_weights = graphs[level_idx]
            level_adj = LevelGraph(level_adj)
            with _timed(seconds, "rebalance"):
                parts = rebalance(level_adj, parts, nparts,
                                  vertex_weights=level_weights,
                                  balance_factor=self.BALANCE_FACTOR,
                                  seed=level_seed)
            with _timed(seconds, "edgecut_refine"):
                parts, _ = edgecut_refine(level_adj, parts, nparts,
                                          vertex_weights=level_weights,
                                          balance_factor=self.BALANCE_FACTOR,
                                          max_passes=self.REFINE_PASSES,
                                          seed=level_seed)
            if level_idx < min(self.VOLUME_REFINE_LEVELS, len(levels)):
                with _timed(seconds, "volume_refine"):
                    parts, _ = volume_refine(
                        level_adj, parts, nparts,
                        vertex_weights=level_weights,
                        balance_factor=self.volume_balance_factor,
                        max_passes=self.REFINE_PASSES,
                        seed=seed + 100 + level_idx)
            return parts

        # Initial partition on the coarsest graph.
        coarsest_adj, coarsest_weights = graphs[-1]
        with _timed(seconds, "initial_partition"):
            parts = greedy_graph_growing(coarsest_adj, nparts,
                                         vertex_weights=coarsest_weights,
                                         seed=seed)
        parts = refine(len(levels), parts, seed)

        # Uncoarsen: project to each finer level and refine there.
        for level_idx in range(len(levels) - 1, -1, -1):
            parts = parts[levels[level_idx].coarse_map]
            with _timed(seconds, "rebalance"):
                parts = fix_empty_parts(graphs[level_idx][0], parts, nparts,
                                        graphs[level_idx][1])
            parts = refine(level_idx, parts, seed + level_idx + 1)

        if not levels and self.VOLUME_REFINE_LEVELS:
            # No coarsening happened: parts already refer to the input graph,
            # but run the optional volume refinement on it.
            with _timed(seconds, "volume_refine"):
                parts, _ = volume_refine(
                    adj, parts, nparts, vertex_weights=np.ones(n),
                    balance_factor=self.volume_balance_factor,
                    max_passes=self.REFINE_PASSES,
                    seed=seed + 100)

        with _timed(seconds, "rebalance"):
            parts = fix_empty_parts(adj, parts, nparts, np.ones(n))
        result = PartitionResult(parts=parts, nparts=nparts, method=self.name)
        result.stats.update(metrics.partition_report(adj, parts, nparts))
        result.stats["coarsening_levels"] = float(len(levels))
        result.stats.update({f"{k}_s": v for k, v in seconds.items()})
        return result
