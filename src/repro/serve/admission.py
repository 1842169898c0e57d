"""Admission control: bounded queue, structured rejection, backpressure.

An unbounded queue turns overload into unbounded latency (every request
is admitted and waits forever); a bounded one turns it into fast,
explicit rejection the client can act on (back off, retry elsewhere,
shed).  :class:`AdmissionController` wraps a ``queue.Queue(maxsize)`` so
admission is race-free — ``put_nowait`` either claims a slot atomically
or raises — and counts accepted/rejected totals for the serving
engine's metrics registry.
"""

from __future__ import annotations

import queue
from typing import Optional

__all__ = ["AdmissionController", "RequestRejected"]


class RequestRejected(RuntimeError):
    """A request was refused admission.

    Carries the structured fields a client needs to react — the
    rejection ``reason`` (``"queue_full"``: the bounded queue is at its
    limit), the queue ``depth`` and ``limit`` at rejection time, and the
    ``tenant`` that was refused — in addition to the formatted message.
    """

    def __init__(self, reason: str, depth: int, limit: int,
                 tenant: Optional[str] = None) -> None:
        self.reason = reason
        self.depth = depth
        self.limit = limit
        self.tenant = tenant
        who = f" (tenant {tenant!r})" if tenant else ""
        super().__init__(
            f"request rejected{who}: {reason} — queue depth {depth} at "
            f"limit {limit}; back off and retry")


class AdmissionController:
    """Bounded admission in front of the serving thread's drain loop.

    The controller owns the request queue.  Client threads only ever
    touch :meth:`offer` (non-blocking, thread-safe); the serving thread
    drains via the ``queue`` attribute.  Control items (the shutdown
    sentinel) bypass the bound through :meth:`post_control` — they must
    be deliverable even under full load, and the drain loop guarantees
    the blocking put completes.
    """

    def __init__(self, queue_depth: int) -> None:
        queue_depth = int(queue_depth)
        if queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {queue_depth}")
        self.queue_depth = queue_depth
        self.queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self.accepted = 0
        self.rejected = 0

    def offer(self, request, tenant: Optional[str] = None) -> None:
        """Admit ``request`` or raise :class:`RequestRejected`."""
        try:
            self.queue.put_nowait(request)
        except queue.Full:
            self.rejected += 1
            raise RequestRejected("queue_full", depth=self.queue.qsize(),
                                  limit=self.queue_depth,
                                  tenant=tenant) from None
        self.accepted += 1

    def post_control(self, item) -> None:
        """Enqueue a control item, waiting out a full queue if needed."""
        self.queue.put(item)

    def depth(self) -> int:
        """Instantaneous queue depth (approximate under concurrency)."""
        return self.queue.qsize()

