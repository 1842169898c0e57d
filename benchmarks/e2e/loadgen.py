"""Single-threaded load generator for the serve workloads.

One thread of the benchmark process drives the engine, two ways:

* **closed loop** — keep a fixed number of requests in flight; the next
  one is sent only when the oldest completes, so a slower engine receives
  less load.  This finds saturation throughput.
* **open loop** — send on a fixed schedule regardless of completions, so
  the queue can grow.  Each request is timed from when it was *due*:
  ``latency = (actual send - due) + ServeResult.latency_s``, which charges
  a stall to every request it delayed.  How late the generator itself ran
  is reported (``late_ms``); a phase whose generator ran more than
  :data:`MAX_LATE_MS` late at p99 measured the generator, not the engine,
  and is flagged invalid.

Every response is compared with the reference logits of its pool entry;
a rejected, failed, expired, timed-out or mismatched request is a failed
operation and counts as missing any latency limit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import List, Optional

import numpy as np

from repro.serve import RequestExpired, RequestRejected, ServeError

#: A generator later than this at p99 invalidates its phase.
MAX_LATE_MS = 5.0
#: Bound on any single wait, so a wedged engine fails the run instead of
#: hanging it past the driver's limit.
RESULT_TIMEOUT_S = 60.0
#: Latency booked for a request that failed: it misses every limit.
FAILED_LATENCY_MS = RESULT_TIMEOUT_S * 1e3


@dataclass
class Phase:
    """What one phase sent and what came back, in send order."""

    name: str
    sent: int = 0
    failed: int = 0                 # rejected, errored, expired, mismatched
    rejected: int = 0               # the refused-at-submit part of failed
    wall_s: float = 0.0
    #: Per request: latency in ms from when it was due (None = failed).
    latency_ms: List[Optional[float]] = field(default_factory=list)
    batch_size: List[int] = field(default_factory=list)
    #: Seconds since phase start at which each completion was observed.
    done_s: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    @property
    def late_ms_p99(self) -> float:
        return float(np.percentile(self.late_ms, 99)) if self.late_ms else 0.0

    @property
    def valid(self) -> bool:
        return self.late_ms_p99 <= MAX_LATE_MS

    def latencies_or_failed(self) -> List[float]:
        """Latency of every request sent, failures booked as
        :data:`FAILED_LATENCY_MS` so they can only raise a percentile."""
        return [FAILED_LATENCY_MS if v is None else v
                for v in self.latency_ms]


class _Driver:
    """Submit / harvest bookkeeping shared by both loops."""

    def __init__(self, engine, pool, refs, phase: Phase) -> None:
        self.engine = engine
        self.pool = pool
        self.refs = refs
        self.phase = phase
        self.inflight: deque = deque()      # (index, late_ms, future)
        self.t0 = perf_counter()

    def send(self, late_ms: float) -> None:
        phase = self.phase
        index = phase.sent
        phase.sent += 1
        phase.latency_ms.append(None)
        phase.late_ms.append(late_ms)
        try:
            future = self.engine.submit(self.pool[index % len(self.pool)])
        except RequestRejected:
            phase.failed += 1
            phase.rejected += 1
            return
        self.inflight.append((index, late_ms, future))

    def harvest(self, block: bool) -> bool:
        """Collect the oldest in-flight request; False if none was ready."""
        if not self.inflight:
            return False
        index, late_ms, future = self.inflight[0]
        if not block and not future.done():
            return False
        self.inflight.popleft()
        phase = self.phase
        try:
            result = future.result(timeout=RESULT_TIMEOUT_S)
        except (ServeError, RequestExpired, TimeoutError):
            phase.failed += 1
            return True
        phase.done_s.append(perf_counter() - self.t0)
        if not np.array_equal(result.logits,
                              self.refs[index % len(self.refs)]):
            phase.failed += 1
            return True
        phase.latency_ms[index] = late_ms + result.latency_s * 1e3
        phase.batch_size.append(result.batch_size)
        return True

    def finish(self) -> Phase:
        while self.harvest(block=True):
            pass
        self.phase.wall_s = perf_counter() - self.t0
        return self.phase


def closed_loop(engine, pool, refs, requests: int, in_flight: int,
                name: str = "sat") -> Phase:
    """``requests`` requests with ``in_flight`` outstanding at all times."""
    driver = _Driver(engine, pool, refs, Phase(name))
    while driver.phase.sent < requests:
        while len(driver.inflight) < in_flight \
                and driver.phase.sent < requests:
            driver.send(0.0)
        if not driver.harvest(block=True):
            sleep(0.001)                    # everything was rejected
    return driver.finish()


def open_loop(engine, pool, refs, rate_qps: float, requests: int,
              name: str) -> Phase:
    """``requests`` requests, the i-th due at ``i / rate_qps`` seconds."""
    driver = _Driver(engine, pool, refs, Phase(name))
    period = 1.0 / rate_qps
    for i in range(requests):
        due = driver.t0 + i * period
        # One sleep per request: every wake-up contends with the serving
        # thread for the interpreter lock, so polling would slow the
        # engine being measured.
        ahead = due - perf_counter()
        if ahead > 0:
            sleep(ahead)
        driver.send(max(0.0, (perf_counter() - due) * 1e3))
        while driver.harvest(block=False):
            pass
    return driver.finish()


def windows(values: list, n: int = 3) -> List[list]:
    """``n`` equal consecutive windows (a remainder goes to the last)."""
    size = max(1, len(values) // n)
    out = [values[i * size:(i + 1) * size] for i in range(n - 1)]
    out.append(values[(n - 1) * size:])
    return [w for w in out if w]


def window_qps(phase: Phase, n: int = 3) -> List[float]:
    """Completions per second in each of ``n`` equal-count windows."""
    out = []
    start = 0.0
    for window in windows(phase.done_s, n):
        out.append(len(window) / (window[-1] - start))
        start = window[-1]
    return out


def window_percentile(phase: Phase, q: float, n: int = 3) -> List[float]:
    """The ``q``-th latency percentile of each of ``n`` windows."""
    return [tail_percentile(window, q)
            for window in windows(phase.latencies_or_failed(), n)]


def tail_percentile(values, q: float) -> float:
    """Percentile that, above the median, is always an observed sample."""
    return float(np.percentile(values, q,
                               method="higher" if q > 50 else "linear"))
