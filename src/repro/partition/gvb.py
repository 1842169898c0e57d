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

from .multilevel import MultilevelPartitioner

__all__ = ["GVBPartitioner"]


class GVBPartitioner(MultilevelPartitioner):
    """Multilevel partitioner balancing communication volume (Graph-VB).

    ``volume_balance_factor`` is the computational balance the volume
    refinement may trade for lower volume (the balance ablation's axis).
    """

    name = "gvb"
    VOLUME_REFINE_LEVELS = 2

    def __init__(self, seed: int = 0,
                 volume_balance_factor: float = 1.20) -> None:
        if not volume_balance_factor >= 1.0:
            raise ValueError(f"volume_balance_factor must be >= 1.0, got "
                             f"{volume_balance_factor}")
        super().__init__(seed)
        self.volume_balance_factor = volume_balance_factor
