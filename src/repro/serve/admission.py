"""Admission control: bounded queue, structured rejection, backpressure.

An unbounded queue turns overload into unbounded latency (every request
is admitted and waits forever); a bounded one turns it into fast,
explicit rejection the client can act on (back off, retry elsewhere,
shed).  :class:`AdmissionController` wraps a ``queue.Queue(maxsize)`` so
admission is race-free — ``put_nowait`` either claims a slot atomically
or raises — and counts accepted/rejected totals for the serving
engine's metrics registry.

:class:`OverloadPolicy` is the *graceful degradation* layer on top of
the hard bound: it watches the EWMA queue depth, and when
sustained pressure crosses the high watermark it (a) sheds the
lowest-priority tenants first (``ServeOptions.tenant_priorities``) and
(b) shrinks the batching window toward zero so in-queue requests drain
at full cadence — the engine keeps serving its important traffic
instead of timing every request out.
"""

from __future__ import annotations

import queue
from typing import Mapping, Optional

__all__ = ["AdmissionController", "OverloadPolicy", "RequestRejected"]


class RequestRejected(RuntimeError):
    """A request was refused admission.

    Carries the structured fields a client needs to react — the
    rejection ``reason`` (``"queue_full"`` for the hard bound,
    ``"overload_shed"`` for priority-based backpressure shedding), the
    queue ``depth`` and ``limit`` at rejection time, and the ``tenant``
    that was refused — in addition to the formatted message.
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


class OverloadPolicy:
    """EWMA backpressure: shed lowest-priority tenants, shrink the window.

    The policy tracks an exponentially-weighted moving average of the
    admission queue depth (sampled at every submit and every batch
    completion) and derives a *pressure* in ``[0, 1]`` (depth EWMA over
    the queue limit).  It enters the **degraded** state when pressure
    crosses ``ENTER_PRESSURE`` and leaves it below ``EXIT_PRESSURE``
    (hysteresis, so the state does not flap at the boundary).

    While degraded:

    * :meth:`should_shed` refuses the lowest-priority tenants first.
      Tenants map to integer priorities via ``tenant_priorities``
      (higher = more important; unlisted tenants get
      ``DEFAULT_PRIORITY``).  As pressure climbs from the enter
      watermark toward 1.0, progressively higher priority tiers are
      shed; the *top* tier is never shed by the policy (the hard queue
      bound still protects the engine).  With a single tier there is
      nothing lower-priority to sacrifice, so shedding stays off and
      degradation acts through the window alone.
    * :meth:`window_scale` shrinks the batching window toward
      ``MIN_WINDOW_SCALE`` so queued requests drain at full cadence —
      trading coalescing opportunity for latency exactly when latency
      is the scarce resource.
    """

    DEFAULT_PRIORITY = 0
    #: EWMA weight of the newest depth sample
    ALPHA = 0.3
    ENTER_PRESSURE = 0.75
    EXIT_PRESSURE = 0.40
    MIN_WINDOW_SCALE = 0.2

    def __init__(self, queue_limit: int,
                 tenant_priorities: Optional[Mapping[str, int]] = None
                 ) -> None:
        self.queue_limit = max(1, int(queue_limit))
        self.priorities = dict(tenant_priorities or {})
        self.depth_ewma = 0.0
        self.degraded = False
        self.shed_total = 0
        levels = set(self.priorities.values())
        levels.add(self.DEFAULT_PRIORITY)
        self._levels = sorted(levels)

    def observe(self, queue_depth: int) -> None:
        """Feed one depth sample; updates the EWMA and the degraded
        state."""
        self.depth_ewma += self.ALPHA * (float(queue_depth)
                                         - self.depth_ewma)
        p = self.pressure()
        if self.degraded:
            if p <= self.EXIT_PRESSURE:
                self.degraded = False
        elif p >= self.ENTER_PRESSURE:
            self.degraded = True

    def pressure(self) -> float:
        """Sustained load in ``[0, 1]``: depth EWMA over the queue limit."""
        return min(1.0, self.depth_ewma / self.queue_limit)

    def priority_of(self, tenant: str) -> int:
        return self.priorities.get(tenant, self.DEFAULT_PRIORITY)

    def shed_cutoff(self) -> Optional[int]:
        """Priorities strictly below this value are shed; ``None`` = no
        shedding (healthy, or only one priority tier exists)."""
        if not self.degraded or len(self._levels) < 2:
            return None
        span = max(1e-9, 1.0 - self.ENTER_PRESSURE)
        frac = min(1.0, max(0.0, (self.pressure() - self.ENTER_PRESSURE)
                            / span))
        n_tiers = len(self._levels)
        n_shed = min(n_tiers - 1, 1 + int(frac * (n_tiers - 1)))
        return self._levels[n_shed]

    def should_shed(self, tenant: str) -> bool:
        """Whether a request from ``tenant`` should be refused right now."""
        cutoff = self.shed_cutoff()
        shed = cutoff is not None and self.priority_of(tenant) < cutoff
        if shed:
            self.shed_total += 1
        return shed

    def window_scale(self) -> float:
        """Multiplier for the batching window (1.0 healthy, smaller under
        pressure, never below ``MIN_WINDOW_SCALE``)."""
        if not self.degraded:
            return 1.0
        return max(self.MIN_WINDOW_SCALE, 1.0 - self.pressure())
