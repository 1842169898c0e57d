"""Process-pool communicator: one OS process per rank, shared-memory transport.

:class:`ProcessPoolCommunicator` is the second *real* backend of the
:class:`~repro.comm.base.Communicator` interface and the first one whose
ranks share **no live Python interpreter state**: every rank is a separate
OS process.  That property is what makes it valuable in the proof net —
any hidden cross-rank aliasing an algorithm smuggles through the threaded
backend (where every rank sees the same heap) is physically impossible
here, because every payload a rank receives is reconstructed from raw
bytes that crossed a process boundary.

Architecture (driver calling convention, like every other backend: one
call carries every rank's operand and returns every rank's result):

* **data plane** — per-rank *send* and *recv* arenas backed by
  :class:`multiprocessing.shared_memory.SharedMemory`.  The driver stages
  each rank's outgoing payloads into that rank's send arena; the receiving
  rank's worker process copies (or reduces) the bytes out of its peers'
  send arenas into its own recv arena; the driver reads the results back.
  Tensor payloads are never pickled — only raw bytes move, so round trips
  are exact and reductions, which equal the shared
  :func:`~repro.comm.base.reduce_stack` byte for byte
  (:func:`~repro.comm.base.reduce_into`), stay bitwise identical to the
  simulator.
* **control plane** — small pickled command dicts (slab offsets, shapes,
  dtypes, arena generations) on one one-way pipe per rank for commands
  and one for responses.  ``Connection.send`` pickles and writes in the
  caller (no feeder thread, no lock), and the driver waits on a
  response pipe together with the worker's process sentinel, so a
  response or a worker death wakes it at once.  Every pipe end lives in
  exactly one process (the driver closes its copies of the worker ends,
  each forked worker closes every end that is not its own), so a write
  to a dead worker raises instead of blocking and a worker whose driver
  is gone reads EOF and exits.
* **workers** — one daemon process per rank, started lazily on the first
  collective and torn down by :meth:`close` (idempotent; also invoked by
  the context-manager protocol and ``__del__``).  Workers act only on
  driver commands, never on each other.  A worker failure is
  reported back with its traceback instead of hanging the driver; a
  watchdog timeout (default 600 s) turns a lost worker into an error and
  closes the communicator (a lost worker's late response could otherwise
  be mismatched with a later collective's plan).

Semantics notes:

* Reductions are executed inside the worker processes (every result slot
  of an ``allreduce`` is the same group-ordered :func:`reduce_stack`,
  computed by its owner or, for a small step, by the courier, so no
  result broadcast round is needed and results are bitwise identical
  across ranks and across backends).  Each reduction is computed once
  per command, in place: :func:`~repro.comm.base.reduce_into` writes it
  straight into the first destination slab (a zero-started fold for a
  ``sum`` of fewer than 8 same-dtype members, ``reduce_stack`` for
  everything else), and every later reduce of the command with the same
  sources and op gets a byte copy of that slab.
* The copy contract matches the simulator: the root/owner slot of a
  collective result is the caller's original object, every other slot is
  a fresh buffer.
* :meth:`parallel_for` executes the per-rank compute closures in the
  driver process (they close over driver-side matrices and output slots,
  which a foreign address space could not mutate) while charging each
  rank's clock with its measured wall duration.  The *transport* is what
  runs multi-process in this backend; see ``docs/backends.md`` for when
  to prefer it over ``threaded``.

Timing is wall-clock, like the threaded backend: collectives advance the
whole group by the measured step duration and synchronise; the
``charge_*`` hooks are no-ops.  Volume accounting uses the same
:class:`~repro.comm.events.EventLog` records as the simulator, so the
Table-2 statistics are backend-independent.

**Lowering.**  Every collective lowers to one
:class:`~repro.comm.lowering.Step` through the lowerings this backend
shares with the threaded one (:class:`~repro.comm.lowering.StepLowering`):
``sends`` — the payloads, staged in order into their owners' send
arenas; ``copies`` — ``(send index, dst)`` pairs, each landing in
``dst``'s recv arena; ``reduces`` — ``(dst, op, force64)``, each the
group-ordered :func:`reduce_stack` of every staged payload.  The
lowering's ``finish`` assembles the caller's result from the read-back
slabs; :meth:`_step` (the one plan builder) turns the step into
per-rank worker commands and :meth:`_collective` (the one runner) runs
them blocking or posts them nonblocking.

**The courier rule.**  Blocking and nonblocking steps share one
grouped-copy rule.  Only members whose plan does work receive a command
— no no-op round trips; group clocks synchronise driver-side.  A step
moving at most :data:`GROUPED_COPY_MAX_BYTES` runs on one *courier*,
``group[pid % len(group)]``, which executes the whole copy/reduce
fan-out in a single command; rotating by plan id spreads small steps
over the workers; it reduces an allreduce once and copies the result
to the other members' slabs.  Larger steps give each member the copies
and the reduction landing in its own recv arena, for parallel copy
bandwidth.
A step that moves nothing (empty payloads, singleton groups) sends no
command at all.  Before a blocking step returns, the driver checks the
liveness of the members that got no command, so a worker killed under
any collective still fails that collective.  :meth:`barrier` is one
no-op command per member: a rendezvous, because the driver waits for
every answer.

**Repeated-exchange fast path.**  A training epoch issues the *same-shaped*
collectives hundreds of times (the compiled SpMM operators reuse their
pack buffers, so shapes are literally identical call to call).  The driver
therefore caches, per (collective tag, arena kind, group, payload-shape
signature), the complete staging layout — slab placements, arena views,
worker plan dicts and result-read slabs — and the workers cache the plan
dict under a small plan id.  A repeated call then writes the payload
bytes into the cached arena views and sends a tiny ``{"op": "replay",
"pid": ...}`` command instead of re-deriving layouts and re-pickling
plans.  Entries are invalidated whenever a referenced arena is regrown
and the cache is LRU bounded (:data:`MAX_CACHED_PLANS`); a pid is only
ever replayed to the members the full plan carrying that pid was
delivered to, so reused pids can never resolve to a stale worker-side
plan.

**Nonblocking collectives.**  ``ibroadcast`` / ``ialltoallv`` /
``iallreduce`` / ``iexchange`` post the staged step and return a
:class:`~repro.comm.base.CommHandle` immediately; the workers stream the
payload bytes while the driver computes (``parallel_for`` runs
driver-side here, so the overlap is genuine).  A post stages the operand
bytes before it returns, so the caller may rebind its operand slots
afterwards.  Posted steps move through
a dedicated, *alternating* pair of arena slots (kinds ``send0/recv0`` and
``send1/recv1`` — the transport-level double buffer, so an in-flight
payload can never be clobbered by the next step's staging).  Responses
are drained strictly in posting order (the per-rank response pipes are
FIFO), blocking steps drain every pending response first, and
:meth:`close` finalises in-flight handles — reading their results out
of the arenas — before anything is unlinked, so interrupted runs never
leak shm segments.

**Crash cleanup.**  The driver starts the ``multiprocessing`` resource
tracker before its workers, so under ``fork`` and ``spawn`` alike every
worker shares the driver's tracker, and attaching a segment only repeats
the driver's registration.  If the driver dies without :meth:`close`, the
tracker unlinks every segment once the driver and its workers are gone.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import time
import traceback
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import TRACE
from .base import CommHandle, reduce_into, reduce_stack
from .faults import WatchdogTimeout, WorkerFailure
from .lowering import Step, StepLowering

__all__ = ["ProcessPoolCommunicator"]

#: Watchdog: a worker that does not answer within this many seconds is
#: treated as lost and the collective raises instead of hanging.
DEFAULT_TIMEOUT_S = 600.0

#: Slab alignment inside the shared-memory arenas.
_ALIGN = 64

#: Upper bound on cached exchange plans (driver side; the worker-side plan
#: tables are bounded by the same number because pids are slot-reused).
#: Sized so a full training epoch's distinct collectives fit without LRU
#: thrash: the oblivious 1D scheme alone issues one broadcast key per
#: (rank, layer width) — e.g. 96 keys at p=16 with six distinct widths —
#: and a cycling key set that exceeds the cap would never hit.  Entries
#: are small (plan dicts + buffer views), so the bound is generous.
MAX_CACHED_PLANS = 512


#: Process-global communicator counter: arena names must stay unique across
#: every ProcessPoolCommunicator alive in this driver process.
_UID_COUNTER = itertools.count()


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


#: Grouped-copy protocol threshold (module docstring, "The courier
#: rule"): a step moving at most this many payload bytes in total runs
#: its whole copy/reduce fan-out on a single courier worker (one command
#: + one response) instead of one command per member.  Small steps are
#: control-plane-bound — per-command pipe round trips dwarf the memcpy —
#: so fewer commands beat parallel copies; large steps keep the
#: per-member plans and their parallel copy bandwidth.  The same
#: latency-vs-bandwidth protocol switch NCCL makes (LL vs Simple),
#: applied to the shared-memory transport.
GROUPED_COPY_MAX_BYTES = 1 << 20


# ----------------------------------------------------------------------
# Worker side (runs in the per-rank child processes)
# ----------------------------------------------------------------------
def _attach_arena(name: str) -> shared_memory.SharedMemory:
    """Attach an existing shared-memory segment.

    The attach registers the segment with the resource tracker the worker
    shares with the driver (see "Crash cleanup" in the module docstring);
    that repeats the driver's own registration, so the attachment is never
    unregistered — unregistering would drop the driver's registration and
    leak the segment if the driver crashed.
    """
    return shared_memory.SharedMemory(name=name)


def _worker_main(rank: int, cmd_conn, out_conn, foreign: Sequence,
                 trace: bool = False) -> None:
    """Main loop of one rank's worker process.

    Commands arrive as pickled dicts on ``cmd_conn``; payload bytes only
    ever move through the shared-memory arenas.  Every command is
    answered on ``out_conn`` with exactly one ``("done", seconds)`` or
    ``("error", traceback)`` message, keeping the driver and the worker
    in lockstep.  ``foreign`` are the pipe ends a forked worker inherited
    but does not own; closing them first is what lets a write to a dead
    worker raise (module docstring, "control plane").  EOF on the command
    pipe means the driver is gone: the worker exits.  With ``trace`` on,
    every handled command is also recorded as a local span ``(name, cat,
    t0, t1, args)`` (raw ``perf_counter`` stamps — comparable with the
    driver's on one host); the ``"spans"`` control op returns-and-clears
    the buffer, which is how the driver merges worker timelines at epoch
    boundaries and at ``close()``.
    """
    for conn in foreign:
        conn.close()
    attached: Dict[Tuple[int, str], Tuple[int, shared_memory.SharedMemory]] = {}
    plan_table: Dict[int, dict] = {}
    spans: List[tuple] = []

    def arena(owner: int, kind: str) -> shared_memory.SharedMemory:
        shm = attached[(owner, kind)][1]
        if shm.buf is None:
            # ``np.ndarray(buffer=None)`` would silently allocate fresh
            # memory and reduce garbage.
            raise RuntimeError(f"arena {(owner, kind)} is closed")
        return shm

    try:
        while True:
            cmd = cmd_conn.recv()
            if cmd["op"] == "stop":
                break
            if cmd["op"] == "spans":
                out_conn.send(("spans", spans))
                spans = []
                continue
            op = cmd["op"]
            start = time.perf_counter()
            try:
                if cmd["op"] == "replay":
                    # Re-execute a cached plan: the driver only replays a
                    # pid after the full plan carrying it reached this
                    # worker.
                    cmd = plan_table[cmd["pid"]]
                if cmd["op"] != "plan":  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unknown worker op {cmd['op']!r}")
                pid = cmd.get("pid")
                if pid is not None:
                    plan_table[pid] = cmd
                for owner, kind, name, gen in cmd["arenas"]:
                    cur = attached.get((owner, kind))
                    if cur is None or cur[0] != gen:
                        # Attach before closing the current generation: a
                        # failed attach leaves the table usable.
                        attached[(owner, kind)] = (gen, _attach_arena(name))
                        if cur is not None:
                            cur[1].close()
                skind = cmd.get("skind", "send")
                rkind = cmd.get("rkind", "recv")
                for copy in cmd["copies"]:
                    if len(copy) == 5:
                        # Grouped-copy protocol: a courier worker writes
                        # into another rank's recv arena (shared memory
                        # is owner-agnostic; the driver reads it back).
                        src, src_off, nbytes, dst_owner, dst_off = copy
                    else:
                        src, src_off, nbytes, dst_off = copy
                        dst_owner = rank
                    dst = arena(dst_owner, rkind)
                    dst.buf[dst_off:dst_off + nbytes] = \
                        arena(src, skind).buf[src_off:src_off + nbytes]
                # Each reduction is computed once, in place, into the
                # first slab that wants it; a later reduce of the same
                # sources and op (an allreduce's other members, on a
                # courier) gets a byte copy of that slab.
                done = None
                for red in cmd["reduces"]:
                    sources = red["sources"]
                    key = (sources, red["reduce_op"], red["force64"])
                    view = np.ndarray(
                        sources[0][2], dtype=np.dtype(red["out_dtype"]),
                        buffer=arena(red.get("dst_owner", rank), rkind).buf,
                        offset=red["dst_off"])
                    if done is not None and done[0] == key:
                        view[...] = done[1]
                        continue
                    parts = [
                        np.ndarray(shape, dtype=dtype,
                                   buffer=arena(src, skind).buf, offset=off)
                        for src, off, shape, dtype in sources]
                    reduce_into(view, parts, red["reduce_op"],
                                force_float64=red["force64"])
                    done = (key, view)
            except BaseException:  # noqa: BLE001 - reported to the driver
                out_conn.send(("error", traceback.format_exc()))
            else:
                end = time.perf_counter()
                if trace:
                    spans.append((f"worker.{op}", "worker", start, end,
                                  {"copies": len(cmd["copies"]),
                                   "reduces": len(cmd["reduces"])}))
                out_conn.send(("done", end - start))
    except (EOFError, BrokenPipeError):
        pass  # the driver is gone
    finally:
        for _, shm in attached.values():
            shm.close()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class _Arena:
    """One rank's send or recv shared-memory segment (driver bookkeeping)."""

    __slots__ = ("shm", "size", "gen")

    def __init__(self, shm: shared_memory.SharedMemory, size: int,
                 gen: int) -> None:
        self.shm = shm
        self.size = size
        self.gen = gen


class _Slab:
    """Placement of one staged payload inside an arena."""

    __slots__ = ("offset", "shape", "dtype", "nbytes")

    def __init__(self, offset: int, shape: Tuple[int, ...],
                 dtype: np.dtype, nbytes: int) -> None:
        self.offset = offset
        self.shape = shape
        self.dtype = dtype
        self.nbytes = nbytes


class _CachedStep:
    """One cached exchange schedule (see the module docstring).

    ``views`` are ndarray views into the send arenas, in the step's send
    order — a repeated call only writes payload bytes through them.
    ``ranks`` are the members whose plan does work and ``plans`` their
    fully built worker commands (sent once, then replayed by ``pid``);
    ``reads`` are the ``(rank, slab)`` result slabs in the recv arenas,
    copies first, then reductions; ``gens`` snapshots the (arena key,
    generation) pairs the plan references, for invalidation on arena
    regrowth.
    """

    __slots__ = ("pid", "ranks", "plans", "views", "reads", "gens", "primed")

    def __init__(self, pid: int, ranks: List[int], plans: List[dict],
                 views: List[np.ndarray], reads, gens) -> None:
        self.pid = pid
        self.ranks = ranks
        self.plans = plans
        self.views = views
        self.reads = reads
        self.gens = gens
        self.primed = False


class _WorkerLost(Exception):
    """Internal: rank's response will never arrive.

    ``died`` distinguishes a dead worker process (raised to callers as a
    structured :class:`~repro.comm.faults.WorkerFailure`) from a live but
    unresponsive one (watchdog timeout; raised as ``RuntimeError`` like
    before).
    """

    def __init__(self, rank: int, died: bool) -> None:
        super().__init__(rank, died)
        self.rank = rank
        self.died = died


class _PendingStep:
    """One posted-but-not-yet-drained step (driver FIFO).

    ``remaining`` holds the commanded ranks whose ``("done"|"error",
    ...)`` response has not been consumed yet.  Responses are drained
    strictly in posting order (the per-rank response pipes are FIFO), so
    a response read for a rank always belongs to the oldest pending step
    naming it.
    """

    __slots__ = ("group", "remaining", "category", "start", "slot", "error",
                 "op_index")

    def __init__(self, group: List[int], ranks: Sequence[int],
                 category: str, slot: Optional[int], op_index: int) -> None:
        self.group = group
        self.remaining = list(ranks)
        self.category = category
        self.start = time.perf_counter()
        self.slot = slot
        self.error: Optional[BaseException] = None
        self.op_index = op_index


class _ProcessHandle(CommHandle):
    """Handle over a posted exchange plan running in the worker pool.

    The driver posted the per-rank plan commands and returned; the
    workers stream the payload bytes through the nonblocking arena slot
    while the driver computes.  :meth:`wait` drains the responses (in
    posting order), charges only the time the driver actually spent
    blocked, and reads the results out of the slot's recv arenas.
    """

    def __init__(self, comm: "ProcessPoolCommunicator", pending: _PendingStep,
                 reader) -> None:
        super().__init__()
        self._comm = comm
        self._pending = pending
        self._reader = reader
        self._slot = pending.slot

    def _poll(self) -> bool:
        return self._comm._try_drain_through(self._pending)

    def _finish(self):
        comm = self._comm
        comm._drain_through(self._pending)
        comm._forget_handle(self)
        if self._pending.error is not None:
            raise self._pending.error
        return self._reader()


class ProcessPoolCommunicator(StepLowering):
    """Real multi-process backend: per-rank OS processes + shared memory."""

    backend_name = "process"
    rejects_work_when_closed = True

    def __init__(self, nranks: int, machine=None,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 start_method: Optional[str] = None) -> None:
        # ``machine`` is accepted (and ignored) so the factory can pass the
        # same keyword arguments to every backend; wall time needs no model.
        super().__init__(nranks)
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() \
                else "spawn"
        self.start_method = start_method
        self._ctx = mp.get_context(start_method)
        self._procs: Optional[List] = None
        self._cmd_conns: Optional[List] = None
        self._out_conns: Optional[List] = None
        self._arenas: Dict[Tuple[int, str], _Arena] = {}
        self._gen = itertools.count()
        self._uid = f"{os.getpid():x}x{next(_UID_COUNTER):x}"
        # Repeated same-shape exchange fast path (see module docstring).
        self._plan_cache: "OrderedDict[tuple, _CachedStep]" = OrderedDict()
        self._free_pids: List[int] = []
        self._pid_counter = itertools.count()
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_evictions = 0
        # Nonblocking state: posted-step FIFO, live handles, and the
        # double-buffered arena slot toggle (slot arenas use kinds
        # "send0"/"recv0" and "send1"/"recv1", distinct from the blocking
        # "send"/"recv" pair, so an in-flight collective's bytes can never
        # be clobbered by the next blocking call).
        self._pending: List[_PendingStep] = []
        self._nb_handles: List[_ProcessHandle] = []
        self._nb_slot = 0
        self._draining = False
        # Set when a worker was lost (died or timed out): close() then
        # joins with short grace timeouts and kills stragglers instead of
        # waiting out an unresponsive worker that may never read its
        # stop command.
        self._failed = False
        # Watchdog diagnostics: per-rank (category, epoch, op_index) of
        # the last collective whose response was consumed, so a lost
        # worker's error message can say where the run was when it died.
        self._op_seq = 0
        self._last_done: Dict[int, Tuple[str, Optional[int], int]] = {}

    # ------------------------------------------------------------------
    # Worker / arena management
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        self._check_open()
        if self._procs is not None:
            return
        ctx = self._ctx
        # Per rank: (worker reads, driver writes) and (driver reads,
        # worker writes).
        cmd = [ctx.Pipe(duplex=False) for _ in range(self.nranks)]
        out = [ctx.Pipe(duplex=False) for _ in range(self.nranks)]
        ends = [end for pair in cmd + out for end in pair]
        # Workers must share the driver's tracker (module docstring, "Crash
        # cleanup"); a child forked before it runs would start its own.
        resource_tracker.ensure_running()
        self._procs = []
        for r in range(self.nranks):
            own = (cmd[r][0], out[r][1])
            # A forked child inherits every end; a spawned one gets its own.
            foreign = [end for end in ends if end not in own] \
                if self.start_method == "fork" else []
            proc = ctx.Process(
                target=_worker_main, name=f"comm-rank-{r}",
                args=(r, *own, foreign, TRACE.enabled), daemon=True)
            proc.start()
            self._procs.append(proc)
        for (worker_end, _), (_, worker_out) in zip(cmd, out):
            worker_end.close()
            worker_out.close()
        self._cmd_conns = [driver_end for _, driver_end in cmd]
        self._out_conns = [driver_end for driver_end, _ in out]

    def _kill_worker(self, rank: int) -> None:
        """Fault injection (``FaultPlan`` "kill"): SIGKILL ``rank``'s worker.

        The next response wait or liveness check notices the dead process
        at once and raises the structured :class:`WorkerFailure`.
        Chaos tests use this to make worker death a deterministic fixture
        instead of racing a real crash.
        """
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        self._ensure_workers()
        proc = self._procs[rank]
        proc.kill()
        # Join so the death is observable (``is_alive()`` False) by the
        # time the collective that triggered the fault starts waiting.
        proc.join(timeout=5.0)

    def _ensure_arena(self, rank: int, kind: str, nbytes: int) -> _Arena:
        """Grow-only shared-memory arena for ``rank``'s ``kind`` buffer."""
        key = (rank, kind)
        arena = self._arenas.get(key)
        if arena is not None and arena.size >= nbytes:
            return arena
        size = max(nbytes, 4096, 2 * arena.size if arena else 0)
        gen = next(self._gen)
        name = f"rpr{self._uid}{kind[0]}{rank}g{gen}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        if arena is not None:
            # Cached plans referencing the outgoing segment hold exported
            # buffer views and stale offsets; drop them before the close
            # (releasing the views) so the segment can be unlinked.
            self._purge_cached_plans(key)
            # No collective is in flight when we get here (the driver is
            # synchronous), so the old segment can be unlinked immediately:
            # workers still mapping it stay valid and re-attach the new
            # generation with their next command.
            arena.shm.close()
            arena.shm.unlink()
        arena = _Arena(shm, size, gen)
        self._arenas[key] = arena
        return arena

    # ------------------------------------------------------------------
    # Cached exchange schedules
    # ------------------------------------------------------------------
    def _purge_cached_plans(self, arena_key: Tuple[int, str]) -> None:
        stale = [k for k, e in self._plan_cache.items()
                 if any(ak == arena_key for ak, _ in e.gens)]
        for k in stale:
            entry = self._plan_cache.pop(k)
            self._free_pids.append(entry.pid)
            del entry

    def _alloc_pid(self) -> int:
        if self._free_pids:
            return self._free_pids.pop()
        if len(self._plan_cache) >= MAX_CACHED_PLANS:
            _, evicted = self._plan_cache.popitem(last=False)
            self._plan_evictions += 1
            return evicted.pid
        return next(self._pid_counter)

    def cache_stats(self) -> Dict[str, int]:
        """Exchange-plan LRU counters (exported into the metrics registry
        as ``comm_plan_cache_*``).  Hits are replayed schedules; misses
        include both first-sight keys and entries invalidated by an arena
        regrow; evictions are capacity-driven LRU drops."""
        return {
            "hits": self._plan_hits,
            "misses": self._plan_misses,
            "evictions": self._plan_evictions,
            "size": len(self._plan_cache),
            "capacity": MAX_CACHED_PLANS,
        }

    def _entry_cmds(self, entry: _CachedStep) -> List[dict]:
        """Full plans on first dispatch, tiny replays afterwards."""
        if not entry.primed:
            entry.primed = True
            return entry.plans
        replay = {"op": "replay", "pid": entry.pid}
        return [replay] * len(entry.ranks)

    def collect_trace_spans(self) -> None:
        """Ship each worker's local span buffer into the driver tracer.

        Sends the ``"spans"`` control op to every rank and merges the
        returned ``(name, cat, t0, t1, args)`` tuples under a
        ``"rank{r}"`` track.  Pending nonblocking steps are drained first
        so the response pipes stay in lockstep (every command still gets
        exactly one response).  A lost worker propagates exactly like a
        collective would — the spans round trip is a control-plane
        operation like any other.
        """
        if self._procs is None or self._failed or self._draining \
                or not TRACE.enabled:
            return
        self._drain_all_pending()
        for r in range(self.nranks):
            self._send(r, {"op": "spans"})
        lost: List[_WorkerLost] = []
        for r in range(self.nranks):
            try:
                msg = self._await_response(
                    r, time.perf_counter() + self.timeout_s)
            except _WorkerLost as exc:
                lost.append(exc)
                if exc.died:
                    break
                continue
            if msg[0] == "spans":
                for name, cat, t0, t1, args in msg[1]:
                    TRACE.add_span(f"rank{r}", name, cat, t0, t1, args)
        if lost:
            self._fail_lost(lost)

    def close(self) -> None:
        """Join the worker processes and release all shared memory.

        Idempotent; safe to call when the workers were never started,
        after a collective raised, or when worker processes already died
        (joins tolerate dead pids, stop commands tolerate broken pipes and,
        once a worker was lost, joins use short grace timeouts before
        killing a worker that may never read its stop command).
        In-flight nonblocking handles are drained first: their
        responses are consumed (so no worker is stopped mid-answer) and
        their results are read out of the shm arenas *before* those are
        unlinked — interrupted runs neither leak segments nor lose
        delivered data, and a later ``handle.wait()`` still returns the
        result (or re-raises the failure).  Reporting (``elapsed`` /
        ``breakdown`` / ``stats_summary``) keeps working afterwards;
        submitting new work raises ``RuntimeError``.
        """
        if self._procs is not None and not self._failed \
                and any(not proc.is_alive() for proc in self._procs):
            self._failed = True
        if not self._draining and self._procs is not None \
                and self._nb_handles:
            self._draining = True
            try:
                for handle in list(self._nb_handles):
                    try:
                        handle.wait()
                    except Exception:
                        # Cached on the handle; re-raised at its wait().
                        pass
            finally:
                self._draining = False
        if TRACE.enabled:
            # Final worker-span harvest (best-effort: close must finish
            # even if a worker can no longer answer).
            try:
                self.collect_trace_spans()
            except Exception:
                pass
        self._pending.clear()
        self._nb_handles.clear()
        self._closed = True
        # Cached plans hold exported views into the arenas; release them
        # before the segments are closed/unlinked below.
        self._plan_cache.clear()
        self._free_pids.clear()
        procs, self._procs = self._procs, None
        cmd_conns, self._cmd_conns = self._cmd_conns, None
        out_conns, self._out_conns = self._out_conns, None
        if procs:
            for proc, conn in zip(procs, cmd_conns):
                try:
                    if proc.is_alive():
                        conn.send({"op": "stop"})
                except OSError:  # the worker died after the check
                    pass
            # After a lost worker, an unresponsive one may never read the
            # stop command — use a short grace join and kill it instead
            # of paying the full join timeout per rank.
            join_s = 0.2 if self._failed else 5.0
            for proc in procs:
                if proc.is_alive():
                    proc.join(timeout=join_s)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
            for conn in (*cmd_conns, *out_conns):
                conn.close()
        arenas, self._arenas = self._arenas, {}
        for arena in arenas.values():
            try:
                arena.shm.close()
                arena.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Plan staging and execution
    # ------------------------------------------------------------------
    def _arena_ref(self, rank: int, kind: str) -> Tuple[int, str, str, int]:
        arena = self._arenas[(rank, kind)]
        return (rank, kind, arena.shm.name, arena.gen)

    def _read_recv(self, rank: int, slab: _Slab, kind: str) -> np.ndarray:
        """Copy one result slab out of ``rank``'s ``kind`` recv arena."""
        arena = self._arenas[(rank, kind)]
        view = np.ndarray(slab.shape, dtype=slab.dtype,
                          buffer=arena.shm.buf, offset=slab.offset)
        return np.array(view, copy=True)

    # ------------------------------------------------------------------
    # Nonblocking posting / draining
    # ------------------------------------------------------------------
    def _nb_kinds(self) -> Tuple[int, str, str]:
        """Claim the next nonblocking arena slot; returns (slot, send kind,
        recv kind).

        The two slots alternate, which is what makes the transport
        double-buffered: stage *k*'s results can still sit in slot A's
        recv arenas while stage *k+1* streams through slot B.  Claiming a
        slot finalises the previous collective that used it (reading its
        results out of the slot's arenas before they are reused), so at
        most two nonblocking collectives are ever in flight.
        """
        slot = self._nb_slot
        self._nb_slot = 1 - slot
        for handle in list(self._nb_handles):
            if handle._slot == slot and not handle.done:
                try:
                    handle.wait()
                except Exception:
                    # The error stays cached on that handle and re-raises
                    # at its owner's wait(); this collective is unaffected.
                    pass
        return slot, f"send{slot}", f"recv{slot}"

    def _send(self, r: int, cmd: dict) -> None:
        """Write one command to rank ``r``'s pipe.  No other process holds
        a dead worker's read end, so the write raises instead of blocking
        on a full pipe, and the communicator closes."""
        try:
            self._cmd_conns[r].send(cmd)
        except OSError:
            self._fail_lost([_WorkerLost(r, died=True)])

    def _post(self, ranks: Sequence[int], cmds: Sequence[dict],
              group: Sequence[int], category: str,
              slot: Optional[int] = None) -> _PendingStep:
        """Send ``cmds[i]`` to ``ranks[i]`` and queue the step's responses.

        ``ranks`` are the members with work (module docstring, "The
        courier rule"); ``group`` is the collective's group, whose clocks
        synchronise when the step is drained.
        """
        self._ensure_workers()
        self._op_seq += 1
        pending = _PendingStep(list(group), ranks, category, slot,
                               self._op_seq)
        self._pending.append(pending)
        for r, cmd in zip(ranks, cmds):
            self._send(r, cmd)
        return pending

    def _post_handle(self, ranks: Sequence[int], cmds: Sequence[dict],
                     group: Sequence[int], category: str, reader,
                     slot: int) -> _ProcessHandle:
        """Post a nonblocking step's commands and return without waiting."""
        handle = _ProcessHandle(
            self, self._post(ranks, cmds, group, category, slot), reader)
        self._nb_handles.append(handle)
        return handle

    def _forget_handle(self, handle: _ProcessHandle) -> None:
        try:
            self._nb_handles.remove(handle)
        except ValueError:  # pragma: no cover - already finalised
            pass

    def _await_response(self, r: int, deadline: float):
        """Read rank ``r``'s next response, watching the worker's liveness.

        Waits on the response pipe and the worker's process sentinel
        together, so a response or a death wakes the driver at once.
        Raises :class:`_WorkerLost` when the response can never arrive
        (dead process) or the watchdog ``deadline`` expired.
        """
        conn = self._out_conns[r]
        ready = wait_ready([conn, self._procs[r].sentinel],
                           max(0.0, deadline - time.perf_counter()))
        if conn in ready:
            try:
                return conn.recv()
            except (EOFError, OSError):
                raise _WorkerLost(r, died=True) from None
        raise _WorkerLost(r, died=bool(ready))

    def _fail_lost(self, lost: Sequence[_WorkerLost]) -> None:
        """Close (fast) and raise for lost workers.

        A dead worker process becomes a structured :class:`WorkerFailure`
        (the trainer's supervised retry loop catches it); a live but
        unresponsive worker keeps the historical watchdog ``RuntimeError``.
        Either way the communicator is closed first — shm segments are
        unlinked and the remaining workers are torn down — because a lost
        worker's late response could otherwise be paired with a later
        collective's plan.
        """
        self._failed = True
        if not self._draining:
            self.close()
        dead = [e.rank for e in lost if e.died]
        if dead:
            raise WorkerFailure(
                dead[0], backend=self.backend_name,
                reason="worker process died mid-collective "
                       f"({self._last_done_desc(dead[0])}); "
                       "communicator closed")
        ranks = [e.rank for e in lost]
        detail = "; ".join(self._last_done_desc(r) for r in ranks)
        raise WatchdogTimeout(
            ranks[0], backend=self.backend_name, timeout_s=self.timeout_s,
            detail=f"unresponsive rank{'s' if len(ranks) > 1 else ''} "
                   f"{', '.join(map(str, ranks))}; {detail}; "
                   "communicator closed")

    def _last_done_desc(self, rank: int) -> str:
        """Human-readable "where was this rank" watchdog diagnostic."""
        info = self._last_done.get(rank)
        if info is None:
            return f"rank {rank} completed no collective yet"
        category, epoch, idx = info
        where = f"{category} op #{idx}"
        if epoch is not None:
            where += f" of epoch {epoch}"
        return f"rank {rank} last completed {where}"

    def _drain_step(self, pending: _PendingStep, block: bool = True,
                    since: Optional[float] = None) -> bool:
        """Consume one pending step's responses; returns completion.

        Worker errors are recorded on the step (re-raised by the owning
        handle's ``wait`` or by :meth:`_run_step`) so the response pipes
        stay in lockstep.  A lost worker closes the communicator.  On
        completion every group member's ``_last_done`` is recorded and
        the group clocks advance by the time the driver spent blocked:
        since ``since`` (a blocking step: since it was posted), else in
        this call — the overlapped window's wall time already belongs to
        whatever the driver did in it.
        """
        if self._out_conns is None:
            raise RuntimeError("communicator is closed")
        start = time.perf_counter() if since is None else since
        deadline = time.perf_counter() + self.timeout_s
        lost: List[_WorkerLost] = []
        still: List[int] = []
        for r in pending.remaining:
            if not block and not self._out_conns[r].poll():
                still.append(r)
                continue
            try:
                msg = self._await_response(r, deadline)
            except _WorkerLost as exc:
                lost.append(exc)
                if exc.died:
                    break  # the communicator closes; skip the others
                continue
            if msg[0] == "error" and pending.error is None:
                pending.error = RuntimeError(
                    f"rank {r} worker failed:\n{msg[1]}")
        pending.remaining = still
        if lost:
            self._pending.remove(pending)
            self._fail_lost(lost)
        if still:
            return False
        blocked = time.perf_counter() - start if block else 0.0
        for r in pending.group:
            self._last_done[r] = (pending.category, self._epoch,
                                  pending.op_index)
        self.timeline.advance_all([blocked] * len(pending.group),
                                  pending.category, ranks=pending.group)
        self.timeline.synchronize(pending.group)
        self._pending.remove(pending)
        return True

    def _drain_through(self, target: _PendingStep) -> None:
        """Drain posted steps in FIFO order up to and including ``target``."""
        while target in self._pending:
            self._drain_step(self._pending[0], block=True)

    def _try_drain_through(self, target: _PendingStep) -> bool:
        """Nonblocking best-effort drain; True when ``target`` completed."""
        while target in self._pending:
            if not self._drain_step(self._pending[0], block=False):
                return False
        return True

    def _drain_all_pending(self) -> None:
        """Bring the response pipes back in lockstep before a blocking
        step.

        Worker errors stay cached on their pending step (the owning
        handle re-raises them); only a lost worker propagates from here.
        """
        while self._pending:
            self._drain_step(self._pending[0], block=True)

    def _run_step(self, ranks: Sequence[int], cmds: Sequence[dict],
                  category: str,
                  group: Optional[Sequence[int]] = None) -> None:
        """Send ``cmds[i]`` to ``ranks[i]`` and wait for every response.

        ``group`` (default ``ranks``) is the collective's group: its
        clocks advance by the wall duration of the whole step
        (bulk-synchronous semantics) and synchronise, and its members
        that got no command have their liveness checked before the step
        returns, so a dead worker fails the collective whether or not it
        had work.  Every response is drained even after an *error* on an
        earlier member, so the response pipes stay in lockstep and a
        failed collective does not poison later ones.  A lost worker
        (death or watchdog timeout) closes the communicator before
        raising: its late answer could no longer be matched to a command.
        """
        group = list(ranks if group is None else group)
        self._drain_all_pending()
        pending = self._post(ranks, cmds, group, category)
        self._drain_step(pending, since=pending.start)
        dead = [r for r in group
                if r not in ranks and not self._procs[r].is_alive()]
        if dead:
            self._fail_lost([_WorkerLost(r, died=True) for r in dead])
        if pending.error is not None:
            raise pending.error

    @staticmethod
    def _plan(arenas: Sequence[Tuple[int, str, str, int]],
              copies: Sequence[tuple] = (),
              reduces: Sequence[dict] = (),
              skind: str = "send", rkind: str = "recv") -> dict:
        return {"op": "plan", "arenas": list(arenas),
                "copies": list(copies), "reduces": list(reduces),
                "skind": skind, "rkind": rkind}

    # ------------------------------------------------------------------
    # Lowered steps: the one plan builder and the one dispatcher
    # ------------------------------------------------------------------
    def _step(self, step: Step, group: List[int], skind: str,
              rkind: str) -> _CachedStep:
        """The per-rank worker plans of ``step``, built or from the cache.

        Plans are cached under ``(tag, send kind, group, signature)``; a
        hit costs one dict lookup plus a generation check of the arenas
        the plans reference.  On a miss, each rank's payloads are placed
        back to back (64-byte aligned) in its send arena, each
        destination's results back to back in its recv arena, and every
        member gets the copies and reductions landing in its own recv
        arena — or, when the step moves at most
        :data:`GROUPED_COPY_MAX_BYTES`, the courier ``group[pid %
        len(group)]`` gets all of them.
        """
        key = (step.tag, skind, tuple(group), step.sig)
        entry = self._plan_cache.get(key)
        if entry is not None:
            for ak, gen in entry.gens:
                arena = self._arenas.get(ak)
                if arena is None or arena.gen != gen:
                    break
            else:
                self._plan_hits += 1
                self._plan_cache.move_to_end(key)
                return entry
            self._plan_cache.pop(key)
            self._free_pids.append(entry.pid)
        self._plan_misses += 1
        pid = self._alloc_pid()

        sent: Dict[int, int] = {}
        placed = []
        for rank, arr in step.sends:
            placed.append((rank, sent.get(rank, 0)))
            sent[rank] = placed[-1][1] + _aligned(arr.nbytes)
        for rank, total in sent.items():
            self._ensure_arena(rank, skind, total)
        views = [np.ndarray(arr.shape, dtype=arr.dtype, offset=off,
                            buffer=self._arenas[(rank, skind)].shm.buf)
                 for (rank, off), (_, arr) in zip(placed, step.sends)]

        results = [(dst, step.sends[k][1].shape, step.sends[k][1].dtype)
                   for k, dst in step.copies]
        for dst, op, force64 in step.reduces:
            # The dtype reduce_stack returns, from the function itself.
            empty = [np.empty(0, arr.dtype) for _, arr in step.sends]
            results.append((dst, step.sends[0][1].shape,
                            reduce_stack(empty, op, force64).dtype))
        received: Dict[int, int] = {}
        reads = []
        for dst, shape, dtype in results:
            nbytes = int(np.prod(shape)) * dtype.itemsize
            reads.append((dst, _Slab(received.get(dst, 0), shape, dtype,
                                     nbytes)))
            received[dst] = reads[-1][1].offset + _aligned(nbytes)
        for dst, total in received.items():
            self._ensure_arena(dst, rkind, total)

        grouped = sum(slab.nbytes
                      for _, slab in reads) <= GROUPED_COPY_MAX_BYTES
        sources = [(rank, off, arr.shape, str(arr.dtype))
                   for (rank, off), (_, arr) in zip(placed, step.sends)]
        # Per destination: (copies, reductions, referenced arena keys).
        work: Dict[int, Tuple[list, list, dict]] = {}
        for i, (dst, slab) in enumerate(reads):
            copies, reduces, keys = work.setdefault(dst, ([], [], {}))
            if i < len(step.copies):
                src, src_off = placed[step.copies[i][0]]
                keys[(src, skind)] = None
                copies.append(
                    (src, src_off, slab.nbytes, dst, slab.offset) if grouped
                    else (src, src_off, slab.nbytes, slab.offset))
            else:
                _, op, force64 = step.reduces[i - len(step.copies)]
                keys.update(dict.fromkeys((r, skind) for r, _ in placed))
                red = {"sources": sources, "reduce_op": op,
                       "force64": force64, "dst_off": slab.offset,
                       "out_dtype": str(slab.dtype)}
                if grouped:
                    red["dst_owner"] = dst
                reduces.append(red)
            keys[(dst, rkind)] = None

        def plan_for(dsts) -> dict:
            copies, reduces, keys = [], [], {}
            for dst in dsts:
                if dst in work:
                    copies += work[dst][0]
                    reduces += work[dst][1]
                    keys.update(work[dst][2])
            return self._plan([self._arena_ref(*k) for k in keys], copies,
                              reduces, skind=skind, rkind=rkind)

        if grouped:
            # Latency protocol: one command + one response for the step.
            ranks = [group[pid % len(group)]]
            plans = [plan_for(group)]
        else:
            ranks = [r for r in group if r in work]
            plans = [plan_for((r,)) for r in ranks]
        for plan in plans:
            plan["pid"] = pid
        gens = tuple(((r, skind), self._arenas[(r, skind)].gen) for r in sent)
        gens += tuple(((r, rkind), self._arenas[(r, rkind)].gen)
                      for r in received)
        entry = _CachedStep(pid, ranks, plans, views, reads, gens)
        self._plan_cache[key] = entry
        return entry

    def _collective(self, lower: Callable, blocking: bool, category: str,
                    *args):
        """Run one collective: lower it, then run its step bulk-synchronously
        (``blocking``) or post it through the next nonblocking arena slot.

        ``lower(category, *args) -> (group, step, finish)``; ``finish``
        maps the read-back result slabs (copies, then reductions) to the
        caller's result.  ``step`` is ``None`` when no byte crosses a
        process boundary.  A post claims its slot before ``lower`` records
        the events and after the front-end validated the operands, so a
        rejected post leaves the double buffer's parity alone.
        """
        if blocking:
            slot, skind, rkind = None, "send", "recv"
        else:
            slot, skind, rkind = self._nb_kinds()
        group, step, finish = lower(category, *args)
        if step is None:
            if not blocking:
                return finish(())
            if group:
                self._run_step((), (), category, group)
            return finish(())
        entry = self._step(step, group, skind, rkind)
        for view, (_, arr) in zip(entry.views, step.sends):
            view[...] = arr
        cmds = self._entry_cmds(entry)

        def reader():
            return finish([self._read_recv(rank, slab, rkind)
                           for rank, slab in entry.reads])

        if blocking:
            self._run_step(entry.ranks, cmds, category, group)
            return reader()
        return self._post_handle(entry.ranks, cmds, group, category, reader,
                                 slot)

    # ------------------------------------------------------------------
    # Execution / synchronisation
    # ------------------------------------------------------------------
    def parallel_for(self, tasks: Sequence[Callable[[], None]],
                     ranks: Optional[Sequence[int]] = None,
                     category: str = "local") -> None:
        """Run the per-rank compute closures, timing each rank's share.

        The closures mutate driver-side state (output blocks of the SpMM
        operands), so they execute in the driver process; each rank's
        clock advances by its task's measured wall duration.
        """
        if self._closed:
            raise RuntimeError("communicator is closed")
        group = self._resolve_ranks(ranks)
        if len(tasks) != len(group):
            raise ValueError(
                f"{len(tasks)} tasks for a group of {len(group)} ranks")
        seconds = []
        for task in tasks:
            t0 = time.perf_counter()
            task()
            seconds.append(time.perf_counter() - t0)
        self.timeline.advance_all(seconds, category, ranks=group)

    def _rendezvous(self, group: List[int]) -> None:
        """Real rendezvous of the group's worker processes: one no-op
        command per member.  Workers act only on driver commands, so an
        answer from every member is the rendezvous."""
        if len(group) > 1:
            self._run_step(group, [self._plan(())] * len(group), "wait")
