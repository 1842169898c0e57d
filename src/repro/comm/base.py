"""Abstract communicator interface shared by every backend.

:class:`Communicator` is the seam between the distributed algorithms in
:mod:`repro.core` and whatever actually moves the data.  The paper's stack
(PyTorch distributed + NCCL on Perlmutter) is one possible backend; this
reproduction ships three:

* :class:`~repro.comm.simulator.SimCommunicator` — deterministic
  single-process simulation with alpha-beta timing (the original backend),
* :class:`~repro.comm.threaded.ThreadedCommunicator` — real shared-memory
  execution on one worker thread per rank,
* :class:`~repro.comm.process.ProcessPoolCommunicator` — one OS process
  per rank with shared-memory transport (no shared interpreter state).

The interface has five parts:

1. **Collectives**: :meth:`broadcast`, :meth:`allreduce`,
   :meth:`allgather`, :meth:`reduce`, :meth:`alltoallv` and the batched
   point-to-point :meth:`exchange`.  All of them use the *driver* calling
   convention of the simulator: one call carries every rank's operand and
   returns every rank's result, indexed by group position.  They are
   defined here, once: each public method does the open check, group
   resolution, operand validation and its trace span, then hands the
   validated operands to the backend's *lowering* for that collective
   (``_lower_alltoallv`` ... ``_lower_exchange``) through the backend's
   one *runner*, :meth:`_collective`.  Backends are free to execute the
   data movement however they like (simulated clocks, worker threads,
   real processes) as long as the returned values are bitwise identical
   — the integration tests assert exactly that.
2. **Nonblocking collectives**: :meth:`ibroadcast`, :meth:`ialltoallv`,
   :meth:`iallreduce`, :meth:`iexchange`, each returning a
   :class:`CommHandle` (``wait()`` / ``test()``).  They share the
   blocking collective's lowering; the runner either settles it at once
   (blocking) or returns a handle over the posted work.  A runner that
   cannot overlap returns the plain result and the base wraps it in a
   :class:`CompletedCommHandle` (always correct, never overlapped); the
   shipped backends return genuinely deferred handles — the foundation
   of the compiled operators' ``pipeline_depth`` double buffering.
3. **Rank / group queries**: :attr:`nranks`, :meth:`ranks`,
   :meth:`_resolve_ranks` (group validation shared by all backends).
4. **Accounting hooks**: :meth:`charge_spmm`, :meth:`charge_gemm`,
   :meth:`charge_elementwise`, :meth:`charge_seconds`.  Algorithms call
   these to attribute local compute; simulation backends turn them into
   simulated clock advances, real backends may ignore them (wall time
   already elapsed) — the base implementation is a no-op.
5. **Execution**: :meth:`parallel_for` runs one closure per rank.  The base
   implementation executes sequentially in rank order (what the simulator
   needs for determinism); real backends either dispatch each closure to
   the owning rank's worker so the SpMM compute genuinely runs in parallel
   (threaded — the closures share the driver's heap), or execute them in
   the driver while attributing each rank's measured duration to its clock
   (process — the closures mutate driver-side output slots that a foreign
   address space could not reach, so ``elapsed()`` models the as-if-parallel
   makespan there rather than summed wall time).

Every backend owns an :class:`~repro.comm.events.EventLog` (per-message
volume ground truth) and a :class:`~repro.comm.timeline.Timeline` (per-rank
clocks — simulated or wall), so the reporting surface (:meth:`elapsed`,
:meth:`breakdown`, :meth:`stats_summary`) is uniform
across backends and the benchmark harness does not care which one ran.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import NULL_SPAN, TRACE
from .events import EventLog
from .faults import FaultPlan
from .timeline import Timeline

__all__ = ["CommHandle", "CompletedCommHandle", "Communicator",
           "payload_nbytes", "reduce_into", "reduce_stack"]

class CommHandle:
    """Completion handle of a nonblocking collective.

    Returned by :meth:`Communicator.ibroadcast` /
    :meth:`Communicator.ialltoallv` / :meth:`Communicator.iallreduce` /
    :meth:`Communicator.iexchange`.  The contract, uniform across
    backends:

    * :meth:`wait` blocks until the collective completed and returns the
      same value the blocking counterpart would have returned.  It is
      idempotent — a second ``wait()`` returns the identical result object
      and charges no further time or traffic.
    * :meth:`test` is a non-blocking completion probe.  Once it returns
      True, ``wait()`` returns immediately; after a successful ``wait()``
      it always returns True.
    * Between issue and ``wait()`` the caller must not mutate the operands
      it passed in (backends may still be reading them) and must not read
      the result (it does not exist yet) — the standard MPI nonblocking
      contract.

    Subclasses implement :meth:`_finish` (complete and build the result)
    and optionally :meth:`_poll` (cheap completion probe; the default says
    "would complete without blocking").  An error raised by ``_finish`` is
    cached and re-raised by every later ``wait()``.
    """

    #: Trace identity stamped by the nonblocking posts while tracing, so
    #: the drain shows up as a "<op>.drain" slice (None → no drain span).
    _trace_op: Optional[str] = None
    _trace_cat: str = ""

    def __init__(self) -> None:
        self._finalized = False
        self._result = None
        self._error: Optional[BaseException] = None

    # Subclasses override.
    def _finish(self):
        return self._result

    def _poll(self) -> bool:
        return True

    def wait(self):
        """Block until completion; return the collective's result."""
        if self._error is not None:
            raise self._error
        if not self._finalized:
            tr = TRACE
            span = (tr.span(self._trace_op + ".drain", cat=self._trace_cat)
                    if tr.enabled and self._trace_op is not None
                    else NULL_SPAN)
            with span:
                try:
                    self._result = self._finish()
                except BaseException as exc:  # noqa: BLE001 - cached + reraised
                    self._error = exc
                    raise
                self._finalized = True
        return self._result

    def test(self) -> bool:
        """Non-blocking completion probe (True once the result is ready)."""
        if self._error is not None:
            return True
        if self._finalized:
            return True
        if self._poll():
            self.wait()
            return True
        return False

    @property
    def done(self) -> bool:
        """Whether :meth:`wait` has already completed (or failed)."""
        return self._finalized or self._error is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "in-flight"
        return f"{type(self).__name__}({state})"


class CompletedCommHandle(CommHandle):
    """A handle over an already-computed result (eager backends)."""

    def __init__(self, result) -> None:
        super().__init__()
        self._result = result
        self._finalized = True


def payload_nbytes(value) -> int:
    """Payload size of a message in bytes (0 for ``None``)."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if np.isscalar(value):
        return int(np.asarray(value).nbytes)
    # Fallback for small python objects (index lists etc.)
    arr = np.asarray(value)
    return int(arr.nbytes)


def reduce_stack(arrays: Sequence[np.ndarray], op: str,
                 force_float64: bool = False) -> np.ndarray:
    """Element-wise reduction used by ``allreduce`` / ``reduce``.

    Centralised so that every backend reduces in exactly the same order
    with exactly the same dtype coercion — that is what makes results
    bitwise identical across backends.
    """
    if force_float64:
        stacked = np.stack([np.asarray(a, dtype=np.float64) for a in arrays])
    else:
        stacked = np.stack([np.asarray(a, dtype=np.float64)
                            if np.asarray(a).dtype.kind != "f"
                            else np.asarray(a) for a in arrays])
    if op == "sum":
        return stacked.sum(axis=0)
    if op == "max":
        return stacked.max(axis=0)
    if op == "min":
        return stacked.min(axis=0)
    raise ValueError(f"unsupported reduction op {op!r}")


#: Below this many members a ``sum`` of ``k`` same-dtype payloads stacked
#: on axis 0 reduces as a left fold from zero, element by element; from
#: it on numpy may sum a one-element payload pairwise (unrolled by 8),
#: which a fold does not reproduce.  A one-element payload is never
#: folded: numpy reduces it in a scalar loop that keeps the accumulated
#: NaN where ``np.add(out, part, out=out)`` keeps ``part``'s, so the two
#: differ in a NaN's sign bit.
FOLD_MAX_MEMBERS = 8


def reduce_into(out: np.ndarray, arrays: Sequence[np.ndarray], op: str,
                force_float64: bool = False) -> np.ndarray:
    """``out[...] = reduce_stack(arrays, op, force_float64)``, bit for
    bit, without the stacked temporary where that is exact.

    A ``sum`` of fewer than :data:`FOLD_MAX_MEMBERS` payloads of more
    than one element that all have ``out``'s dtype is a fold straight
    into ``out``: zero it, then add each payload in group order.  The
    zero start is what makes an all-``-0.0`` sum ``+0.0``, as
    ``reduce_stack``'s is.  Every other case (more members, one-element
    payloads, ``max`` / ``min``, ``force_float64``, mixed dtypes)
    assigns ``reduce_stack``'s result.  ``out`` must not overlap any
    payload.
    """
    if op == "sum" and not force_float64 and out.size > 1 \
            and len(arrays) < FOLD_MAX_MEMBERS \
            and all(a.dtype == out.dtype for a in arrays):
        out[...] = 0
        for part in arrays:
            np.add(out, part, out=out)
        return out
    result = reduce_stack(arrays, op, force_float64=force_float64)
    if result.dtype != out.dtype:
        raise ValueError(f"reduction produced dtype {result.dtype}, "
                         f"out has {out.dtype}")
    out[...] = result
    return out


class Communicator(abc.ABC):
    """Abstract multi-rank communicator (see the module docstring)."""

    #: Registry name of the backend ("sim", "threaded", ...); subclasses
    #: override.  Used in reports and error messages only.
    backend_name: str = "abstract"

    #: Whether the backend refuses new work after :meth:`close` (backends
    #: with real worker pools set this to True).  Reporting — ``elapsed``,
    #: ``breakdown``, ``stats_summary`` — must keep working after close on
    #: every backend; the conformance suite asserts both halves.
    rejects_work_when_closed: bool = False

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.events = EventLog()
        self.timeline = Timeline(nranks)
        self._closed = False
        self._fault_plan: Optional[FaultPlan] = None
        self._epoch: Optional[int] = None

    # ------------------------------------------------------------------
    # Rank / group queries
    # ------------------------------------------------------------------
    def ranks(self) -> range:
        """All global rank ids of this communicator."""
        return range(self.nranks)

    def _resolve_ranks(self, ranks: Optional[Sequence[int]]) -> List[int]:
        """Validate a rank group (default: all ranks)."""
        if ranks is None:
            return list(range(self.nranks))
        ranks = list(ranks)
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        for r in ranks:
            if not (0 <= r < self.nranks):
                raise ValueError(f"rank {r} out of range [0, {self.nranks})")
        return ranks

    # ------------------------------------------------------------------
    # Shared operand validation (identical across backends)
    # ------------------------------------------------------------------
    @staticmethod
    def _check_alltoallv_send(send, group: Sequence[int]) -> None:
        p = len(group)
        if len(send) != p:
            raise ValueError(f"send has {len(send)} rows for a group of {p}")
        for i, row in enumerate(send):
            if len(row) != p:
                raise ValueError(
                    f"send[{i}] has {len(row)} entries for a group of {p}")

    @staticmethod
    def _check_root(root: int, group: Sequence[int]) -> None:
        if root not in group:
            raise ValueError(f"root rank {root} not in group {list(group)}")

    @staticmethod
    def _check_allreduce_arrays(arrays, group: Sequence[int], op: str) -> None:
        p = len(group)
        if len(arrays) != p:
            raise ValueError(f"{len(arrays)} arrays for a group of {p}")
        shapes = {np.asarray(a).shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(
                f"allreduce arrays must share a shape, got {shapes}")
        if op not in ("sum", "max", "min"):
            raise ValueError(f"unsupported allreduce op {op!r}")

    @staticmethod
    def _check_allgather_arrays(arrays, group: Sequence[int]) -> None:
        if len(arrays) != len(group):
            raise ValueError(
                f"{len(arrays)} arrays for a group of {len(group)}")

    @staticmethod
    def _check_reduce_arrays(arrays, group: Sequence[int], op: str) -> None:
        if len(arrays) != len(group):
            raise ValueError(
                f"{len(arrays)} arrays for a group of {len(group)}")
        if op not in ("sum", "max"):
            raise ValueError(f"unsupported reduce op {op!r}")

    def _check_messages(self, messages,
                        sync_ranks: Optional[Sequence[int]]
                        ) -> Optional[List[int]]:
        """Validate a point-to-point batch; returns the resolved
        ``sync_ranks`` group (``None`` when not given).

        Called before :meth:`_begin_exchange`, so a rejected batch ticks
        no fault point, allocates no step and logs no message.
        """
        for src, dst, _ in messages:
            if not (0 <= src < self.nranks and 0 <= dst < self.nranks):
                raise ValueError(f"message ranks ({src}, {dst}) out of range")
        return None if sync_ranks is None else self._resolve_ranks(sync_ranks)

    # ------------------------------------------------------------------
    # Fault injection (deterministic chaos testing; see comm/faults.py)
    # ------------------------------------------------------------------
    def inject_faults(self, plan: Optional[FaultPlan]) -> None:
        """Arm a :class:`~repro.comm.faults.FaultPlan` on this communicator.

        The plan's :meth:`~repro.comm.faults.FaultPlan.on_collective` hook
        runs once per collective — at the top of the shared
        volume-accounting helpers and :meth:`_begin_exchange` — so a fault
        addressed as "epoch e, collective k" fires at the same logical
        point on every backend, blocking and nonblocking alike.  Pass
        ``None`` to disarm.
        """
        self._fault_plan = plan

    def _fault_point(self) -> None:
        """Tick the armed fault plan (no-op when none is armed)."""
        if self._fault_plan is not None:
            self._fault_plan.on_collective(self)

    def _begin_exchange(self, category: str = "p2p") -> int:
        """Fault-point + step allocation shared by the exchange paths."""
        self._fault_point()
        step = self.events.next_step()
        if TRACE.enabled:
            TRACE.annotate(step=step)
        return step

    # ------------------------------------------------------------------
    # Shared volume accounting (identical event streams across backends,
    # so Table-2 style statistics do not depend on the backend)
    # ------------------------------------------------------------------
    def _record_alltoallv_events(self, send, group: Sequence[int],
                                 category: str) -> List[List[int]]:
        """Log one message per off-diagonal payload; returns the byte matrix."""
        p = len(group)
        self._fault_point()
        step = self.events.next_step()
        send_bytes = [[payload_nbytes(send[i][j]) if i != j else 0
                       for j in range(p)] for i in range(p)]
        for i in range(p):
            for j in range(p):
                if i != j and send_bytes[i][j] > 0:
                    self.events.record_message(
                        "alltoallv", group[i], group[j],
                        send_bytes[i][j], category, step)
        if TRACE.enabled:
            TRACE.annotate(step=step,
                           bytes=sum(map(sum, send_bytes)))
        return send_bytes

    def _record_broadcast_events(self, nbytes: int, root: int,
                                 group: Sequence[int], category: str) -> None:
        self._fault_point()
        step = self.events.next_step()
        for r in group:
            if r != root and nbytes > 0:
                self.events.record_message("bcast", root, r, nbytes,
                                           category, step)
        if TRACE.enabled:
            TRACE.annotate(step=step, bytes=nbytes * (len(group) - 1))

    def _record_allreduce_events(self, nbytes: int, group: Sequence[int],
                                 category: str) -> None:
        # Ring all-reduce: each rank sends ~2*(p-1)/p of the buffer; we log
        # it as one message to each ring neighbour for volume accounting.
        p = len(group)
        self._fault_point()
        step = self.events.next_step()
        if p > 1 and nbytes > 0:
            per_neighbor = int(round(nbytes * (p - 1) / p))
            for idx, r in enumerate(group):
                nxt = group[(idx + 1) % p]
                self.events.record_message("allreduce", r, nxt,
                                           2 * per_neighbor, category, step)
        if TRACE.enabled:
            TRACE.annotate(step=step, bytes=nbytes)

    def _record_allgather_events(self, arrays, group: Sequence[int],
                                 category: str) -> None:
        self._fault_point()
        step = self.events.next_step()
        total = 0
        for i, r in enumerate(group):
            nb = payload_nbytes(arrays[i])
            for s in group:
                if s != r and nb > 0:
                    self.events.record_message("allgather", r, s, nb,
                                               category, step)
                    total += nb
        if TRACE.enabled:
            TRACE.annotate(step=step, bytes=total)

    def _record_reduce_events(self, nbytes: int, root: int,
                              group: Sequence[int], category: str) -> None:
        self._fault_point()
        step = self.events.next_step()
        for r in group:
            if r != root and nbytes > 0:
                self.events.record_message("reduce", r, root, nbytes,
                                           category, step)
        if TRACE.enabled:
            TRACE.annotate(step=step, bytes=nbytes * (len(group) - 1))

    # ------------------------------------------------------------------
    # Accounting hooks (no-ops by default; simulation backends override)
    # ------------------------------------------------------------------
    def charge_spmm(self, rank: int, flops: float,
                    category: str = "local") -> float:
        """Attribute a local sparse-dense multiply of ``flops`` to ``rank``."""
        return 0.0

    def charge_gemm(self, rank: int, flops: float,
                    category: str = "local") -> float:
        """Attribute a local dense GEMM of ``flops`` to ``rank``."""
        return 0.0

    def charge_elementwise(self, rank: int, nelements: float,
                           category: str = "local") -> float:
        """Attribute an element-wise kernel over ``nelements`` to ``rank``."""
        return 0.0

    def charge_seconds(self, rank: int, seconds: float,
                       category: str = "local") -> float:
        """Attribute a pre-computed number of seconds to ``rank``."""
        return 0.0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def parallel_for(self, tasks: Sequence[Callable[[], None]],
                     ranks: Optional[Sequence[int]] = None,
                     category: str = "local") -> None:
        """Run ``tasks[k]`` as rank ``ranks[k]``'s local work.

        The base implementation executes sequentially in group order —
        correct for simulation backends, whose clocks are advanced by the
        ``charge_*`` hooks the tasks call.  Real backends override this to
        dispatch each task to the owning rank's worker.
        """
        group = self._resolve_ranks(ranks)
        if len(tasks) != len(group):
            raise ValueError(
                f"{len(tasks)} tasks for a group of {len(group)} ranks")
        for task in tasks:
            task()

    def barrier(self, ranks: Optional[Sequence[int]] = None) -> float:
        """Synchronise a group of ranks; returns the synchronised time."""
        with self._span("barrier", "wait"):
            group = self._open_group(ranks)
            self._rendezvous(group)
            return self.timeline.synchronize(group)

    def _rendezvous(self, group: List[int]) -> None:
        """Real rendezvous of ``group`` before :meth:`barrier` aligns
        its clocks (no-op here; backends with workers override it)."""

    # ------------------------------------------------------------------
    # The collective front-end.  Every public collective is defined here
    # and only here: open check, group resolution, operand validation
    # and the trace span, then one call of the backend's runner with its
    # lowering.  A rejected call therefore never reaches a backend.
    # ------------------------------------------------------------------
    def _span(self, op: str, category: str):
        """The ``comm.<op>`` span of a public entry point (no-op while
        tracing is disabled)."""
        if not TRACE.enabled:
            return NULL_SPAN
        return TRACE.span("comm." + op, cat=category,
                          args={"backend": self.backend_name})

    def _open_group(self, ranks: Optional[Sequence[int]]) -> List[int]:
        """:meth:`_check_open`, then :meth:`_resolve_ranks`."""
        self._check_open()
        return self._resolve_ranks(ranks)

    @staticmethod
    def _posted(result, op: str, category: str) -> CommHandle:
        """The handle of a post: the runner's handle, or a
        :class:`CompletedCommHandle` over a result it settled at once."""
        handle = (result if isinstance(result, CommHandle)
                  else CompletedCommHandle(result))
        if TRACE.enabled:
            handle._trace_op = "comm." + op
            handle._trace_cat = category
        return handle

    def alltoallv(self,
                  send: Sequence[Sequence[Optional[np.ndarray]]],
                  ranks: Optional[Sequence[int]] = None,
                  category: str = "alltoall",
                  ) -> List[List[Optional[np.ndarray]]]:
        """Personalised all-to-all: ``send[i][j]`` is what member ``i``
        sends member ``j`` (``None`` or an empty array means nothing);
        ``recv[i][j]`` is what member ``i`` received from member ``j``."""
        with self._span("alltoallv", category):
            group = self._open_group(ranks)
            self._check_alltoallv_send(send, group)
            return self._collective(self._lower_alltoallv, True, category,
                                    send, group)

    def ialltoallv(self,
                   send: Sequence[Sequence[Optional[np.ndarray]]],
                   ranks: Optional[Sequence[int]] = None,
                   category: str = "alltoall") -> CommHandle:
        """Nonblocking :meth:`alltoallv`; returns a :class:`CommHandle`."""
        with self._span("ialltoallv.post", category):
            group = self._open_group(ranks)
            self._check_alltoallv_send(send, group)
            result = self._collective(self._lower_alltoallv, False, category,
                                      send, group)
        return self._posted(result, "ialltoallv", category)

    def broadcast(self, value: np.ndarray, root: int,
                  ranks: Optional[Sequence[int]] = None,
                  category: str = "bcast") -> List[np.ndarray]:
        """Broadcast ``value`` from global rank ``root`` to the group.

        The root's slot holds ``value`` itself, every other slot an
        independent copy (the physically separate buffers each process
        would own).
        """
        with self._span("broadcast", category):
            group = self._open_group(ranks)
            self._check_root(root, group)
            return self._collective(self._lower_broadcast, True, category,
                                    value, root, group)

    def ibroadcast(self, value: np.ndarray, root: int,
                   ranks: Optional[Sequence[int]] = None,
                   category: str = "bcast") -> CommHandle:
        """Nonblocking :meth:`broadcast`; returns a :class:`CommHandle`."""
        with self._span("ibroadcast.post", category):
            group = self._open_group(ranks)
            self._check_root(root, group)
            result = self._collective(self._lower_broadcast, False, category,
                                      value, root, group)
        return self._posted(result, "ibroadcast", category)

    def allreduce(self, arrays: Sequence[np.ndarray],
                  ranks: Optional[Sequence[int]] = None,
                  op: str = "sum",
                  category: str = "allreduce") -> List[np.ndarray]:
        """Element-wise reduction (``op``: ``"sum"``, ``"max"`` or
        ``"min"``) delivered to every group member."""
        with self._span("allreduce", category):
            group = self._open_group(ranks)
            self._check_allreduce_arrays(arrays, group, op)
            return self._collective(self._lower_allreduce, True, category,
                                    arrays, group, op)

    def iallreduce(self, arrays: Sequence[np.ndarray],
                   ranks: Optional[Sequence[int]] = None,
                   op: str = "sum",
                   category: str = "allreduce") -> CommHandle:
        """Nonblocking :meth:`allreduce`; returns a :class:`CommHandle`."""
        with self._span("iallreduce.post", category):
            group = self._open_group(ranks)
            self._check_allreduce_arrays(arrays, group, op)
            result = self._collective(self._lower_allreduce, False, category,
                                      arrays, group, op)
        return self._posted(result, "iallreduce", category)

    def allgather(self, arrays: Sequence[np.ndarray],
                  ranks: Optional[Sequence[int]] = None,
                  category: str = "allgather") -> List[List[np.ndarray]]:
        """Every member receives every member's contribution."""
        with self._span("allgather", category):
            group = self._open_group(ranks)
            self._check_allgather_arrays(arrays, group)
            return self._collective(self._lower_allgather, True, category,
                                    arrays, group)

    def reduce(self, arrays: Sequence[np.ndarray], root: int,
               ranks: Optional[Sequence[int]] = None,
               op: str = "sum",
               category: str = "reduce") -> List[Optional[np.ndarray]]:
        """Rooted reduction; only the root's result slot is non-None."""
        with self._span("reduce", category):
            group = self._open_group(ranks)
            self._check_root(root, group)
            self._check_reduce_arrays(arrays, group, op)
            return self._collective(self._lower_reduce, True, category,
                                    arrays, root, group, op)

    def exchange(self,
                 messages: Sequence[Tuple[int, int, np.ndarray]],
                 category: str = "p2p",
                 sync_ranks: Optional[Sequence[int]] = None,
                 ) -> Dict[Tuple[int, int], np.ndarray]:
        """Deliver a batch of ``(src, dst, payload)`` point-to-point
        messages; returns a dict keyed by ``(src, dst)`` (messages with
        ``src == dst`` are free).

        This models the paper's 1.5D ``batch_isend_irecv`` grouping: all
        sends and receives of the batch progress concurrently.
        """
        with self._span("exchange", category):
            self._check_open()
            sync = self._check_messages(messages, sync_ranks)
            return self._collective(self._lower_exchange, True, category,
                                    messages, sync)

    def iexchange(self,
                  messages: Sequence[Tuple[int, int, np.ndarray]],
                  category: str = "p2p",
                  sync_ranks: Optional[Sequence[int]] = None) -> CommHandle:
        """Nonblocking :meth:`exchange`; returns a :class:`CommHandle`."""
        with self._span("iexchange.post", category):
            self._check_open()
            sync = self._check_messages(messages, sync_ranks)
            result = self._collective(self._lower_exchange, False, category,
                                      messages, sync)
        return self._posted(result, "iexchange", category)

    # ------------------------------------------------------------------
    # Backend hooks: one lowering per collective plus one runner
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _collective(self, lower: Callable, blocking: bool, category: str,
                    *args):
        """Run ``lower(category, *args)`` and settle it.

        Blocking: return the collective's result.  Posted: return a
        :class:`CommHandle`, or the plain result when the backend cannot
        overlap (the base wraps it).  ``args`` are already validated;
        ``lower`` is one of the ``_lower_*`` hooks below, and what it
        returns is private to the backend.
        """

    # Each lowering records the collective's EventLog messages (the
    # ``_record_*_events`` helpers, or ``_begin_exchange``) and builds
    # the backend's unit of work and result; it must not advance clocks.
    @abc.abstractmethod
    def _lower_alltoallv(self, category: str, send, group: List[int]):
        """Lower a validated :meth:`alltoallv`."""

    @abc.abstractmethod
    def _lower_broadcast(self, category: str, value, root: int,
                         group: List[int]):
        """Lower a validated :meth:`broadcast`."""

    @abc.abstractmethod
    def _lower_allreduce(self, category: str, arrays, group: List[int],
                         op: str):
        """Lower a validated :meth:`allreduce`."""

    @abc.abstractmethod
    def _lower_allgather(self, category: str, arrays, group: List[int]):
        """Lower a validated :meth:`allgather`."""

    @abc.abstractmethod
    def _lower_reduce(self, category: str, arrays, root: int,
                      group: List[int], op: str):
        """Lower a validated :meth:`reduce`."""

    @abc.abstractmethod
    def _lower_exchange(self, category: str, messages,
                        sync: Optional[List[int]]):
        """Lower a validated :meth:`exchange` (``sync`` is the resolved
        ``sync_ranks`` group, or ``None``)."""

    # ------------------------------------------------------------------
    # Reporting (uniform across backends)
    # ------------------------------------------------------------------
    def stats_summary(self) -> Dict[str, float]:
        """Flat summary dict (volume + timing) for benchmark rows.

        Per-rank send volume as in the paper's Table 2 (total, average
        and maximum MB, imbalance ``(max / avg - 1) * 100`` percent), the
        message count, the makespan and the bottleneck rank's seconds per
        category (``time_<category>_s``).
        """
        sends = self.events.bytes_sent_by_rank(self.nranks)
        avg = float(sends.mean())
        peak = int(sends.max())
        out: Dict[str, float] = {
            "elapsed_s": self.timeline.elapsed(),
            "total_MB": int(sends.sum()) / 1e6,
            "avg_MB_per_rank": avg / 1e6,
            "max_MB_per_rank": peak / 1e6,
            "imbalance_pct": ((peak / avg) - 1.0) * 100.0 if avg > 0 else 0.0,
            "messages": float(self.events.message_count()),
        }
        for cat, sec in self.timeline.breakdown().items():
            out[f"time_{cat}_s"] = sec
        return out

    def elapsed(self) -> float:
        """Makespan so far: the maximum rank clock (simulated or wall)."""
        return self.timeline.elapsed()

    def breakdown(self, reduce: str = "max",
                  include_wait: bool = False) -> Dict[str, float]:
        """Per-category time summary across ranks."""
        return self.timeline.breakdown(reduce=reduce, include_wait=include_wait)

    def cache_stats(self) -> Dict[str, int]:
        """Backend-internal cache counters, empty when the backend keeps
        no caches.  The process backend reports its exchange-plan LRU
        (hits / misses / evictions / size / capacity); the trainer and
        the serving engine fold a non-empty dict into the metrics
        registry as ``comm_plan_cache_*`` counters.
        """
        return {}

    def note_epoch(self, epoch: Optional[int]) -> None:
        """Record the trainer's current epoch for diagnostics.

        The process backend stamps it onto its per-rank "last completed
        op" bookkeeping so watchdog/`WorkerFailure` messages can say
        *where* a rank was lost.
        """
        self._epoch = epoch

    def collect_trace_spans(self) -> None:
        """Ship worker-recorded spans into the driver's tracer.

        No-op for single-process backends (sim, threaded), whose spans
        are all recorded driver-side.  The process backend overrides
        this to fetch each worker's local span buffer over the control
        plane; the trainer calls it at epoch boundaries and ``close()``
        calls it one final time, so the driver merges one coherent
        timeline.
        """

    def reset(self) -> None:
        """Clear clocks and the event log."""
        self.events.clear()
        self.timeline.reset()

    def _check_open(self) -> None:
        """Raise if :meth:`close` has been called on a backend that
        ``rejects_work_when_closed``.

        The front-end calls it at the top of every collective and
        :meth:`barrier`, *before* any event or timeline mutation, so
        rejected work never records phantom traffic.  The simulator keeps
        accepting work after close.
        """
        if self._closed and self.rejects_work_when_closed:
            raise RuntimeError("communicator is closed")

    def close(self) -> None:
        """Release backend resources (worker threads etc.); idempotent."""
        self._closed = True

    def __enter__(self) -> "Communicator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(nranks={self.nranks})"

