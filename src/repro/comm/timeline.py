"""Per-rank simulated clocks and time accounting.

The simulated runtime executes distributed algorithms bulk-synchronously:
each communication operation is a synchronisation point.  :class:`Timeline`
keeps one clock per rank and a per-rank, per-category accumulator of where
that time went (local compute, all-to-all, broadcast, all-reduce, wait).

The timing-breakdown figures of the paper (Figures 4 and 5) are produced
directly from these accumulators; the per-epoch times of Figures 3, 6 and 7
are the advance of ``max(clock)`` over an epoch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["Timeline", "WAIT_CATEGORY"]

WAIT_CATEGORY = "wait"


class Timeline:
    """Per-rank clocks with category attribution.

    Parameters
    ----------
    nranks:
        Number of simulated ranks.
    """

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self._clock = np.zeros(nranks, dtype=np.float64)
        # category -> per-rank accumulated seconds
        self._by_category: Dict[str, np.ndarray] = defaultdict(
            lambda: np.zeros(self.nranks, dtype=np.float64))

    # ------------------------------------------------------------------
    def now(self, rank: int) -> float:
        """Current simulated time of ``rank``."""
        return float(self._clock[rank])

    @property
    def clocks(self) -> np.ndarray:
        """Copy of all rank clocks."""
        return self._clock.copy()

    def elapsed(self) -> float:
        """Simulated makespan so far: the maximum rank clock."""
        return float(self._clock.max())

    # ------------------------------------------------------------------
    def advance(self, rank: int, seconds: float, category: str) -> None:
        """Advance one rank's clock, attributing the time to ``category``."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        self._clock[rank] += seconds
        self._by_category[category][rank] += seconds

    def advance_all(self, seconds_per_rank: Sequence[float],
                    category: str,
                    ranks: Optional[Sequence[int]] = None) -> None:
        """Advance several ranks at once.

        ``seconds_per_rank[k]`` is attributed to ``ranks[k]`` (or rank ``k``
        when ``ranks`` is None).
        """
        if ranks is None:
            ranks = range(self.nranks)
        for r, dt in zip(ranks, seconds_per_rank):
            self.advance(r, float(dt), category)

    def synchronize(self, ranks: Optional[Sequence[int]] = None,
                    category: str = WAIT_CATEGORY) -> float:
        """Barrier: bring every rank in ``ranks`` up to the group maximum.

        The time a rank spends waiting for slower peers is attributed to
        ``category`` (by default :data:`WAIT_CATEGORY`).  Returns the
        synchronised time.
        """
        if ranks is None:
            ranks = list(range(self.nranks))
        else:
            ranks = list(ranks)
        target = float(self._clock[ranks].max()) if ranks else 0.0
        for r in ranks:
            gap = target - self._clock[r]
            if gap > 0:
                self.advance(r, gap, category)
        return target

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def breakdown(self, reduce: str = "max",
                  include_wait: bool = False) -> Dict[str, float]:
        """Per-category summary across ranks.

        Parameters
        ----------
        reduce:
            ``"max"`` (bottleneck rank view — what determines the epoch
            time), ``"mean"`` or ``"sum"``.
        include_wait:
            Whether to include the synthetic wait category.
        """
        reducers = {"max": np.max, "mean": np.mean, "sum": np.sum}
        if reduce not in reducers:
            raise ValueError(f"unknown reduce {reduce!r}; "
                             f"expected one of {sorted(reducers)}")
        fn = reducers[reduce]
        out: Dict[str, float] = {}
        for cat, arr in self._by_category.items():
            if cat == WAIT_CATEGORY and not include_wait:
                continue
            out[cat] = float(fn(arr))
        return out

    def per_rank_breakdown(self) -> Dict[str, np.ndarray]:
        """Full per-rank, per-category matrix of seconds."""
        return {cat: arr.copy() for cat, arr in self._by_category.items()}

    def reset(self) -> None:
        self._clock[:] = 0.0
        self._by_category.clear()
