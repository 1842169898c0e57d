"""Real shared-memory communicator: one worker thread per rank.

:class:`ThreadedCommunicator` is the first *real* (non-simulated) backend
of the :class:`~repro.comm.base.Communicator` interface.  Each rank owns a
persistent daemon worker thread with a task queue, and
:meth:`parallel_for` dispatches each rank's compute closure to the owning
rank's worker — so the distributed SpMM algorithms in :mod:`repro.core`
execute on actual parallel workers (NumPy releases the GIL inside its
BLAS/sparse kernels) rather than only in simulation.

Collectives run the same lowerings as the process backend
(:class:`~repro.comm.lowering.StepLowering`: each collective is one
:class:`~repro.comm.lowering.Step` of copies and reductions).  The ranks
share the driver's heap, so :meth:`_collective` needs no transport: each
group member performs the copies and reductions landing on its rank,
reading the senders' arrays in place, then meets the rest of the group
at the step's ``threading.Barrier``.  A blocking step runs on the rank
workers; a posted one runs the same closures on the per-rank delivery
workers and its handle assembles the result at ``wait()``.  Every
delivered payload is a fresh copy, as on ``process``: a received array
never aliases the sender's buffer.

Determinism / equivalence guarantees (asserted by the integration tests):

* reductions use the shared :func:`~repro.comm.base.reduce_stack` helper,
  summing contributions in group order — bitwise identical to the
  simulator backend;
* every rank's compute closure touches only that rank's output slots, so
  concurrent execution cannot reorder arithmetic.

Timing is **wall-clock**: collectives and ``parallel_for`` advance the
shared :class:`~repro.comm.timeline.Timeline` by measured durations (the
``charge_*`` hooks are no-ops here — the time they would model has really
elapsed).  Volume accounting reuses the same
:class:`~repro.comm.events.EventLog` as the simulator, so Table-2 style
statistics remain available.

Workers are started lazily on first use and torn down by :meth:`close`
(also called by ``__del__`` and the context-manager protocol).
"""

from __future__ import annotations

import queue
import threading
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .base import CommHandle, reduce_stack
from .lowering import StepLowering

__all__ = ["ThreadedCommunicator"]

#: Default safety net so a backend bug surfaces as an error instead of a
#: hang.  Override per instance with ``ThreadedCommunicator(timeout_s=...)``
#: when individual rank tasks legitimately run longer (large real graphs).
DEFAULT_TIMEOUT_S = 600.0


class _TaskResult:
    """Completion handle for one task submitted to a rank worker."""

    __slots__ = ("done", "error", "seconds")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.error: Optional[BaseException] = None
        self.seconds = 0.0

    def wait(self, timeout_s: float) -> float:
        if not self.done.wait(timeout_s):
            raise RuntimeError("rank worker did not finish within "
                               f"{timeout_s}s (deadlock?)")
        if self.error is not None:
            raise self.error
        return self.seconds


class _RankWorker(threading.Thread):
    """Persistent worker executing one rank's tasks in submission order."""

    def __init__(self, rank: int) -> None:
        super().__init__(name=f"comm-rank-{rank}", daemon=True)
        self.rank = rank
        self.tasks: "queue.Queue[Optional[Tuple[Callable[[], None], _TaskResult, Optional[threading.Barrier]]]]" = \
            queue.Queue()

    def submit(self, fn: Callable[[], None],
               abort_gate: Optional[threading.Barrier] = None) -> _TaskResult:
        result = _TaskResult()
        self.tasks.put((fn, result, abort_gate))
        return result

    def run(self) -> None:
        while True:
            item = self.tasks.get()
            if item is None:
                return
            fn, result, abort_gate = item
            start = time.perf_counter()
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reraised in driver
                result.error = exc
                if abort_gate is not None:
                    # Fail fast: release siblings parked at this collective's
                    # barrier instead of letting them run into the watchdog.
                    abort_gate.abort()
            finally:
                result.seconds = time.perf_counter() - start
                result.done.set()


class _ThreadedHandle(CommHandle):
    """Handle over a collective running on dedicated background threads.

    The member closures run on their own daemon threads (not the per-rank
    workers), so :meth:`~repro.comm.base.Communicator.parallel_for`
    compute dispatched to the rank workers genuinely overlaps the
    delivery.  Only the time the driver spends *blocked* inside
    :meth:`wait` is charged to the group clocks (the overlapped window's
    wall time is already covered by whatever the driver measured in it).
    """

    def __init__(self, comm: "ThreadedCommunicator", group, results,
                 category: str, reader: Callable[[], object]) -> None:
        super().__init__()
        self._comm = comm
        self._group = list(group)
        self._results = results
        self._category = category
        self._reader = reader

    def _poll(self) -> bool:
        return all(res.done.is_set() for res in self._results)

    def _finish(self):
        comm = self._comm
        start = time.perf_counter()
        errors: List[BaseException] = []
        for res in self._results:
            try:
                res.wait(comm.timeout_s)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
        blocked = time.perf_counter() - start
        comm.timeline.advance_all([blocked] * len(self._group),
                                  self._category, ranks=self._group)
        comm.timeline.synchronize(self._group)
        comm._forget_handle(self)
        if errors:
            real = [e for e in errors
                    if not isinstance(e, threading.BrokenBarrierError)]
            raise (real or errors)[0]
        return self._reader()


class ThreadedCommunicator(StepLowering):
    """Shared-memory backend: per-rank worker threads run the steps."""

    backend_name = "threaded"
    rejects_work_when_closed = True

    def __init__(self, nranks: int, machine=None,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        # ``machine`` is accepted (and ignored) so the factory can pass the
        # same keyword arguments to every backend; wall time needs no model.
        super().__init__(nranks)
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self._workers: Optional[List[_RankWorker]] = None
        # Persistent per-rank *delivery* workers for nonblocking
        # collectives, so the rank workers stay free for parallel_for
        # compute while payloads move — and so issuing a prefetch on the
        # hot pipelined path never pays thread start-up.
        self._delivery: Optional[List[_RankWorker]] = None
        self._lock = threading.Lock()
        self._inflight: List[_ThreadedHandle] = []

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> List[_RankWorker]:
        with self._lock:
            if self._closed:
                raise RuntimeError("communicator is closed")
            if self._workers is None:
                self._workers = [_RankWorker(r) for r in range(self.nranks)]
                for w in self._workers:
                    w.start()
            return self._workers

    def _ensure_delivery(self) -> List[_RankWorker]:
        with self._lock:
            if self._closed:
                raise RuntimeError("communicator is closed")
            if self._delivery is None:
                self._delivery = [_RankWorker(r) for r in range(self.nranks)]
                for w in self._delivery:
                    w.name = f"comm-delivery-{w.rank}"
                    w.start()
            return self._delivery

    def close(self) -> None:
        # In-flight nonblocking collectives complete autonomously (every
        # member already runs on its own background thread); finalise them
        # so their results stay readable after close and no delivery
        # thread outlives the communicator.  Errors are cached on the
        # owning handle and re-raised by its wait().
        for handle in list(self._inflight):
            try:
                handle.wait()
            except Exception:
                pass
        with self._lock:
            workers, self._workers = self._workers, None
            delivery, self._delivery = self._delivery, None
            self._closed = True
        for pool in (workers, delivery):
            if pool:
                for w in pool:
                    w.tasks.put(None)
                for w in pool:
                    w.join(timeout=5.0)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # SPMD step execution
    # ------------------------------------------------------------------
    def _run_step(self, group: Sequence[int],
                  fns: Sequence[Callable[[], None]],
                  category: str, per_rank_time: bool = False,
                  gate: Optional[threading.Barrier] = None) -> None:
        """Run ``fns[k]`` on rank ``group[k]``'s worker and wait for all.

        With ``per_rank_time`` each rank's clock advances by its own task
        duration (local compute); otherwise all group clocks advance by the
        wall duration of the whole step (bulk-synchronous collective).
        ``gate`` is the collective's rendezvous barrier, if any: a task that
        raises aborts it so sibling tasks fail promptly instead of stalling.
        """
        workers = self._ensure_workers()
        start = time.perf_counter()
        results = [workers[r].submit(fn, abort_gate=gate)
                   for r, fn in zip(group, fns)]
        errors: List[BaseException] = []
        seconds: List[float] = []
        for res in results:
            try:
                seconds.append(res.wait(self.timeout_s))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                seconds.append(0.0)
        if errors:
            # Prefer the root cause over the broken-barrier fallout it caused.
            real = [e for e in errors
                    if not isinstance(e, threading.BrokenBarrierError)]
            raise (real or errors)[0]
        if per_rank_time:
            self.timeline.advance_all(seconds, category, ranks=group)
        else:
            dt = time.perf_counter() - start
            self.timeline.advance_all([dt] * len(group), category, ranks=group)
            self.timeline.synchronize(group)

    def _i_step(self, group: Sequence[int],
                fns: Sequence[Callable[[], None]],
                category: str, gate: Optional[threading.Barrier],
                reader: Callable[[], object]) -> _ThreadedHandle:
        """Run ``fns`` on the persistent delivery workers; return a handle
        that returns ``reader()`` (the result ``fns`` fill) at ``wait()``.

        Unlike :meth:`_run_step` this never touches the per-rank compute
        workers, so compute dispatched through :meth:`parallel_for` while
        the collective is in flight runs concurrently with the delivery.
        Each member runs on its rank's dedicated delivery worker; members
        of successive in-flight collectives therefore serialise per rank
        in posting order (posting happens from the single driver thread,
        so every delivery queue sees the same collective order — one
        collective can never wait on a later one).
        """
        delivery = self._ensure_delivery()
        results = [delivery[r].submit(fn, abort_gate=gate)
                   for r, fn in zip(group, fns)]
        handle = _ThreadedHandle(self, group, results, category, reader)
        self._inflight.append(handle)
        return handle

    def _forget_handle(self, handle: _ThreadedHandle) -> None:
        try:
            self._inflight.remove(handle)
        except ValueError:  # pragma: no cover - already finalised
            pass

    def parallel_for(self, tasks: Sequence[Callable[[], None]],
                     ranks: Optional[Sequence[int]] = None,
                     category: str = "local") -> None:
        """Dispatch each task to the owning rank's worker thread."""
        self._check_open()
        group = self._resolve_ranks(ranks)
        if len(tasks) != len(group):
            raise ValueError(
                f"{len(tasks)} tasks for a group of {len(group)} ranks")
        self._run_step(group, tasks, category, per_rank_time=True)

    def _rendezvous(self, group: List[int]) -> None:
        """Real rendezvous of the group's workers."""
        gate = threading.Barrier(len(group))
        self._run_step(group, [lambda: gate.wait(self.timeout_s)
                               for _ in group], "wait")


    # ------------------------------------------------------------------
    # The runner.  Every collective is one Step (comm/lowering.py); each
    # member performs the copies and reductions landing on its rank,
    # reading the senders' arrays in place, then meets the group at the
    # step's barrier.
    # ------------------------------------------------------------------
    def _collective(self, lower, blocking, category, *args):
        group, step, finish = lower(category, *args)
        if not group:
            return finish(())
        parts, copies, reduces = [], (), ()
        if step is not None:
            parts = [arr for _, arr in step.sends]
            copies, reduces = step.copies, step.reduces
        outs: list = [None] * (len(copies) + len(reduces))
        jobs: Dict[int, list] = {r: [] for r in group}
        for k, (i, dst) in enumerate(copies):
            jobs[dst].append((k, parts[i].copy))
        for k, (dst, op, force64) in enumerate(reduces, len(copies)):
            jobs[dst].append((k, partial(reduce_stack, parts, op, force64)))
        gate = threading.Barrier(len(group))

        def member(mine: list) -> Callable[[], None]:
            def task() -> None:
                for k, job in mine:
                    outs[k] = job()
                gate.wait(self.timeout_s)
            return task

        fns = [member(jobs[r]) for r in group]
        if blocking:
            self._run_step(group, fns, category, gate=gate)
            return finish(outs)
        return self._i_step(group, fns, category, gate, lambda: finish(outs))
