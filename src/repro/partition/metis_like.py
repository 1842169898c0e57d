"""METIS-like partitioner: multilevel k-way minimizing total edgecut.

This is the stand-in for METIS in the paper's comparisons (``SA+METIS``):
it optimises *only* the total amount of communicated data (edgecut as a
proxy for total volume) under a strict computational balance constraint,
and is oblivious to how that communication is distributed across processes
— which is exactly the deficiency Table 2 and Figure 6 expose.
"""

from __future__ import annotations

from .multilevel import MultilevelPartitioner

__all__ = ["MetisLikePartitioner"]


class MetisLikePartitioner(MultilevelPartitioner):
    """Multilevel partitioner optimising total edgecut (METIS objective)."""

    name = "metis_like"
    BALANCE_FACTOR = 1.03
