"""GVB-like partitioner: multilevel k-way minimizing total AND maximum
send volume.

Models Graph-VB (Acer, Selvitopi, Aykanat 2016), the partitioner the paper
adopts: on top of the multilevel edgecut machinery it runs a volume-aware
refinement whose objective includes the *maximum send volume* of any part,
with a deliberately looser computational balance constraint (the paper
notes this trade-off explicitly — SA+GVB sometimes has slightly worse local
compute balance but much lower and much better balanced communication).
"""

from __future__ import annotations

from typing import Optional

import scipy.sparse as sp

from .base import PartitionResult
from .multilevel import MultilevelConfig, MultilevelPartitioner

__all__ = ["GVBPartitioner"]


class GVBPartitioner(MultilevelPartitioner):
    """Multilevel partitioner balancing communication volume (Graph-VB)."""

    name = "gvb"

    def __init__(self, balance_factor: float = 1.05,
                 volume_balance_factor: float = 1.20,
                 max_volume_weight: Optional[float] = None,
                 seed: int = 0,
                 refine_passes: int = 8,
                 volume_refine_passes: int = 8,
                 volume_refine_levels: int = 2,
                 config: Optional[MultilevelConfig] = None) -> None:
        if config is None:
            if volume_refine_levels < 1:
                raise ValueError(f"volume_refine_levels must be >= 1 (GVB "
                                 f"refines the volume on at least the finest "
                                 f"level), got {volume_refine_levels}")
            config = MultilevelConfig(
                balance_factor=balance_factor,
                refine_passes=refine_passes,
                volume_refine_levels=volume_refine_levels,
                volume_balance_factor=volume_balance_factor,
                volume_max_weight=max_volume_weight,
                volume_refine_passes=volume_refine_passes,
                seed=seed,
            )
        super().__init__(config)

    def partition(self, adj: sp.spmatrix, nparts: int) -> PartitionResult:
        result = super().partition(adj, nparts)
        result.method = self.name
        return result
