"""Communication event log.

Every message the simulated communicator moves is recorded as a
:class:`CommEvent`.  The event log is the ground truth behind all the
communication-volume tables in the paper reproduction (e.g. Table 2's
average/max MB per process), and is also what the property-based tests
inspect to check invariants such as "the sparsity-aware algorithm never
sends more bytes than the oblivious one".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

__all__ = ["CommEvent", "EventLog"]


@dataclass(frozen=True)
class CommEvent:
    """A single point-to-point message (collectives are decomposed).

    Attributes
    ----------
    kind:
        Operation that generated the message, e.g. ``"alltoallv"``,
        ``"bcast"``, ``"allreduce"``, ``"p2p"``.
    src, dst:
        Global rank ids of the sender and the receiver.
    nbytes:
        Payload size in bytes.
    category:
        User-facing accounting bucket (``"alltoall"``, ``"bcast"``,
        ``"allreduce"``, ...) used by the timing-breakdown figures.
    step:
        Monotonically increasing index of the communication operation
        this message belongs to (all messages of one collective share a
        step).
    """

    kind: str
    src: int
    dst: int
    nbytes: int
    category: str
    step: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative message size: {self.nbytes}")
        if self.src < 0 or self.dst < 0:
            raise ValueError("ranks must be non-negative")


class EventLog:
    """Append-only log of :class:`CommEvent` with aggregation helpers.

    :meth:`total_bytes` and :meth:`message_count` answer from running
    totals kept by :meth:`record` (overall and per category), so their
    cost does not grow with the log — the serving engine reads them
    around every batch of a long-lived process.
    """

    def __init__(self) -> None:
        self._events: List[CommEvent] = []
        self._step = 0
        # category -> [bytes, messages]; the ``None`` key is the overall total
        self._totals: Dict[Optional[str], List[int]] = {None: [0, 0]}

    # -- recording -----------------------------------------------------
    def next_step(self) -> int:
        """Allocate a fresh step id for a communication operation."""
        step = self._step
        self._step += 1
        return step

    def record(self, event: CommEvent) -> None:
        self._events.append(event)
        for key in (None, event.category):
            totals = self._totals.setdefault(key, [0, 0])
            totals[0] += event.nbytes
            totals[1] += 1

    def record_message(
        self,
        kind: str,
        src: int,
        dst: int,
        nbytes: int,
        category: str,
        step: Optional[int] = None,
    ) -> CommEvent:
        if step is None:
            step = self.next_step()
        event = CommEvent(kind=kind, src=src, dst=dst, nbytes=int(nbytes),
                          category=category, step=step)
        self.record(event)
        return event

    # -- querying ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[CommEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[CommEvent]:
        return list(self._events)

    def filtered(
        self,
        kind: Optional[str] = None,
        category: Optional[str] = None,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> List[CommEvent]:
        """Events matching all of the provided criteria."""
        out = []
        for e in self._events:
            if kind is not None and e.kind != kind:
                continue
            if category is not None and e.category != category:
                continue
            if src is not None and e.src != src:
                continue
            if dst is not None and e.dst != dst:
                continue
            out.append(e)
        return out

    def total_bytes(self, category: Optional[str] = None) -> int:
        """Total bytes moved across all ranks (optionally one category)."""
        return self._totals.get(category, (0, 0))[0]

    def bytes_sent_by_rank(self, nranks: int,
                           category: Optional[str] = None) -> np.ndarray:
        """Vector of bytes sent by each rank."""
        out = np.zeros(nranks, dtype=np.int64)
        for e in self._events:
            if category is None or e.category == category:
                out[e.src] += e.nbytes
        return out

    def bytes_received_by_rank(self, nranks: int,
                               category: Optional[str] = None) -> np.ndarray:
        """Vector of bytes received by each rank."""
        out = np.zeros(nranks, dtype=np.int64)
        for e in self._events:
            if category is None or e.category == category:
                out[e.dst] += e.nbytes
        return out

    def traffic_matrix(self, nranks: int,
                       category: Optional[str] = None) -> np.ndarray:
        """``(nranks, nranks)`` matrix: entry ``[i, j]`` is bytes ``i -> j``."""
        mat = np.zeros((nranks, nranks), dtype=np.int64)
        for e in self._events:
            if category is None or e.category == category:
                mat[e.src, e.dst] += e.nbytes
        return mat

    def message_count(self, category: Optional[str] = None) -> int:
        """Messages recorded (optionally of one category)."""
        return self._totals.get(category, (0, 0))[1]

    def clear(self) -> None:
        self._events.clear()
        self._step = 0
        self._totals = {None: [0, 0]}

    def merge(self, other: "EventLog") -> None:
        """Append all events of ``other`` (step ids are re-based)."""
        base = self._step
        for e in other._events:
            self.record(CommEvent(kind=e.kind, src=e.src, dst=e.dst,
                                  nbytes=e.nbytes, category=e.category,
                                  step=e.step + base))
        self._step = base + other._step
