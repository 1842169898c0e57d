"""Dynamic micro-batching: coalesce queued requests into one forward.

The batcher is the serving thread's only source of work.  Its contract:

* :meth:`MicroBatcher.next_batch` blocks until at least one request is
  available, then keeps collecting until the **column budget**
  (``max_batch_width``) is reached, the **batching window**
  (``max_wait_s`` after the first request) expires, or the queue runs
  dry past the window.  Already-queued requests are drained without
  waiting, so a saturated queue never pays the window at all — the
  window only trades a bounded latency add at low load for coalescing
  opportunity.
* A request that would overflow the column budget is **carried over**
  to lead the next batch, never dropped or reordered.
* The shutdown sentinel (posted by
  :meth:`~repro.serve.engine.ServingEngine.stop`) flushes the
  in-progress batch first; ``next_batch`` returns ``None`` only once
  everything admitted before shutdown has been handed out.
* A request whose ``deadline`` (a ``monotonic()`` timestamp) has passed
  at dequeue time is **shed before any SpMM work**: it is handed to the
  ``on_expired`` callback instead of joining a batch, so an expired
  request never contributes a column to the coalesced operand.

Requests only need a ``width`` attribute (columns they contribute to
the coalesced operand); ``deadline`` is optional and the batcher is
otherwise payload-agnostic.
"""

from __future__ import annotations

import queue as _queue
from time import monotonic
from typing import List, Optional

__all__ = ["MicroBatcher", "SHUTDOWN"]

#: Control sentinel: drains the in-progress batch, then ends the loop.
SHUTDOWN = object()


class MicroBatcher:
    """Coalesce queued requests under a column budget and a time window.

    Parameters
    ----------
    source:
        The bounded ``queue.Queue`` the engine admits requests into.
    max_batch_width:
        Column budget of one coalesced batch.  A single request wider
        than the budget still forms its own batch (it can never wait
        for a smaller slot).
    max_wait_s:
        Batching window measured from the *first* request of the batch.
    max_requests:
        Upper bound on requests per batch; ``1`` disables coalescing
        entirely (the ``--no-batch`` baseline) and skips the window.
    on_expired:
        Callback invoked (in the serving thread) with each request shed
        because its ``deadline`` had passed at dequeue.  ``None``
        disables deadline shedding entirely.
    """

    def __init__(self, source: "_queue.Queue", max_batch_width: int,
                 max_wait_s: float, max_requests: Optional[int] = None,
                 on_expired=None) -> None:
        max_batch_width = int(max_batch_width)
        if max_batch_width < 1:
            raise ValueError(
                f"max_batch_width must be >= 1, got {max_batch_width}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_requests is not None and int(max_requests) < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {max_requests}")
        self.source = source
        self.max_batch_width = max_batch_width
        self.max_wait_s = float(max_wait_s)
        self.max_requests = None if max_requests is None else int(max_requests)
        self.on_expired = on_expired
        self._carry = None
        self._stopping = False

    def reset(self) -> None:
        """Re-arm after a shutdown (the serving engine is restartable)."""
        self._stopping = False

    def take_carry(self):
        """Remove and return the carried-over request (``None`` if none).

        A permanently-failing engine must drain *everything* pending —
        the carry-over slot included, since a carried request lives in
        neither the queue nor any batch."""
        item, self._carry = self._carry, None
        return item

    def _shed_expired(self, item) -> bool:
        """Hand an expired request to ``on_expired``; True if shed."""
        if self.on_expired is None:
            return False
        deadline = getattr(item, "deadline", None)
        if deadline is None or monotonic() < deadline:
            return False
        self.on_expired(item)
        return True

    def _first(self):
        """The request leading the next batch (carry-over wins), or
        ``SHUTDOWN``.  Expired requests are shed here, before they can
        lead a batch."""
        while True:
            if self._carry is not None:
                first, self._carry = self._carry, None
            else:
                first = self.source.get()
            if first is SHUTDOWN or not self._shed_expired(first):
                return first

    def next_batch(self) -> Optional[List]:
        """The next non-empty batch, or ``None`` after shutdown."""
        if self._stopping and self._carry is None:
            return None
        first = self._first()
        if first is SHUTDOWN:
            self._stopping = True
            return None
        batch = [first]
        width = first.width
        if self.max_requests == 1:
            return batch
        deadline = monotonic() + self.max_wait_s
        while self.max_requests is None or len(batch) < self.max_requests:
            try:
                item = self.source.get_nowait()
            except _queue.Empty:
                remaining = deadline - monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self.source.get(timeout=remaining)
                except _queue.Empty:
                    break
            if item is SHUTDOWN:
                # Flush what we have; the next call observes the stop.
                self._stopping = True
                break
            if self._shed_expired(item):
                continue
            if width + item.width > self.max_batch_width:
                self._carry = item
                break
            batch.append(item)
            width += item.width
        return batch
