"""Simulated multi-rank communicator.

:class:`SimCommunicator` is the simulation backend of the
:class:`~repro.comm.base.Communicator` interface — the substitute for
``torch.distributed`` + NCCL on Perlmutter in the original paper.  It
executes real data movement (NumPy arrays are physically handed from the
sending rank's data structures to the receiving rank's), while charging
simulated time to per-rank clocks using the machine's alpha-beta model.
The operations provided mirror exactly the ones the paper's algorithms
need:

* ``alltoallv``           — sparsity-aware 1D row exchange (Algorithm 1),
* ``broadcast``           — sparsity-oblivious (CAGNET) block-row broadcast,
* ``allreduce``           — 1.5D partial-sum reduction and weight-gradient
                            reduction,
* ``exchange``            — staged point-to-point sends of the 1.5D
                            algorithm (Algorithm 2),
* ``allgather`` / ``reduce`` — utility collectives.

The communicator is *deterministic*: given the same inputs it produces the
same data and the same simulated times, which makes the reproduction's
benchmark tables stable.  Construct it directly or via
``repro.comm.make_communicator(nranks, backend="sim")``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import collectives as coll
from .base import (CommHandle, Communicator, payload_nbytes as _nbytes,
                   reduce_stack)
from .machine import MachineModel, get_machine

__all__ = ["SimCommunicator"]


class _SimHandle(CommHandle):
    """Deferred-charge handle: overlap accounting for the simulator.

    The collective's *data* is produced eagerly at issue time (the
    simulator is single-threaded), but the communication time is not
    charged until :meth:`wait`.  Each participating rank records its
    issue-time clock plus the collective's duration; at ``wait()`` the
    rank is only charged the part of that window not already covered by
    local compute it performed in between (via the ``charge_*`` hooks).
    The charged cost of an overlapped window is therefore
    ``max(comm, compute)`` — which keeps the simulated cost model honest
    about what pipelining can and cannot hide.  An immediate
    ``wait()`` after issue charges exactly what the blocking collective
    would have, including the group synchronisation.
    """

    def __init__(self, comm: "SimCommunicator", ranks, per_rank_time,
                 result, category: str) -> None:
        super().__init__()
        self._comm = comm
        self._ranks = list(ranks)
        self._category = category
        self._result = result
        timeline = comm.timeline
        self._finish_at = [timeline.now(r) + float(t)
                           for r, t in zip(self._ranks, per_rank_time)]

    def _poll(self) -> bool:
        timeline = self._comm.timeline
        return all(timeline.now(r) >= fin - 1e-18
                   for r, fin in zip(self._ranks, self._finish_at))

    def _finish(self):
        timeline = self._comm.timeline
        for r, fin in zip(self._ranks, self._finish_at):
            gap = fin - timeline.now(r)
            if gap > 0:
                timeline.advance(r, gap, self._category)
        timeline.synchronize(self._ranks)
        return self._result


class SimCommunicator(Communicator):
    """Bulk-synchronous simulated communicator over ``nranks`` ranks."""

    backend_name = "sim"

    def __init__(self, nranks: int,
                 machine: "str | MachineModel" = "perlmutter") -> None:
        super().__init__(nranks)
        self.machine = get_machine(machine)

    # ------------------------------------------------------------------
    # Local compute charging
    # ------------------------------------------------------------------
    def charge_spmm(self, rank: int, flops: float, category: str = "local") -> float:
        """Charge a local sparse-dense multiply of ``flops`` to ``rank``."""
        dt = self.machine.spmm_time(flops)
        self.timeline.advance(rank, dt, category)
        return dt

    def charge_gemm(self, rank: int, flops: float, category: str = "local") -> float:
        """Charge a local dense GEMM of ``flops`` to ``rank``."""
        dt = self.machine.gemm_time(flops)
        self.timeline.advance(rank, dt, category)
        return dt

    def charge_elementwise(self, rank: int, nelements: float,
                           category: str = "local") -> float:
        """Charge an element-wise kernel over ``nelements`` to ``rank``."""
        dt = self.machine.elementwise_time(nelements)
        self.timeline.advance(rank, dt, category)
        return dt

    def charge_seconds(self, rank: int, seconds: float,
                       category: str = "local") -> float:
        """Charge a pre-computed number of seconds to ``rank``."""
        self.timeline.advance(rank, seconds, category)
        return seconds

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def alltoallv(self,
                  send: Sequence[Sequence[Optional[np.ndarray]]],
                  ranks: Optional[Sequence[int]] = None,
                  category: str = "alltoall",
                  ) -> List[List[Optional[np.ndarray]]]:
        """Personalised all-to-all exchange.

        ``send[i][j]`` is the payload the ``i``-th group member sends to the
        ``j``-th group member (``None`` or an empty array means nothing).
        Returns ``recv`` with ``recv[i][j]`` being what member ``i`` received
        *from* member ``j``.
        """
        group = self._resolve_ranks(ranks)
        p = len(group)
        self._check_alltoallv_send(send, group)
        send_bytes = self._record_alltoallv_events(send, group, category)

        times = coll.alltoallv_time_per_rank(self.machine, group, send_bytes)
        self.timeline.advance_all(times, category, ranks=group)
        self.timeline.synchronize(group)

        recv: List[List[Optional[np.ndarray]]] = [
            [send[j][i] for j in range(p)] for i in range(p)]
        return recv

    def broadcast(self, value: np.ndarray, root: int,
                  ranks: Optional[Sequence[int]] = None,
                  category: str = "bcast") -> List[np.ndarray]:
        """Broadcast ``value`` from global rank ``root`` to the group.

        Returns a list indexed by group position; the root's slot holds the
        original object, other slots hold copies (simulating the physically
        separate buffers each process would own).
        """
        group = self._resolve_ranks(ranks)
        self._check_root(root, group)
        nbytes = _nbytes(value)
        self._record_broadcast_events(nbytes, root, group, category)
        t = coll.broadcast_time(self.machine, group, nbytes)
        self.timeline.advance_all([t] * len(group), category, ranks=group)
        self.timeline.synchronize(group)

        out: List[np.ndarray] = []
        for r in group:
            if r == root:
                out.append(value)
            else:
                out.append(np.array(value, copy=True))
        return out

    def allreduce(self, arrays: Sequence[np.ndarray],
                  ranks: Optional[Sequence[int]] = None,
                  op: str = "sum",
                  category: str = "allreduce") -> List[np.ndarray]:
        """All-reduce: every group member contributes one array, every
        member receives the element-wise reduction.

        Supported ``op``: ``"sum"``, ``"max"``, ``"min"``.
        """
        group = self._resolve_ranks(ranks)
        p = len(group)
        self._check_allreduce_arrays(arrays, group, op)
        result = reduce_stack(arrays, op)

        nbytes = _nbytes(arrays[0])
        self._record_allreduce_events(nbytes, group, category)
        t = coll.allreduce_time(self.machine, group, nbytes)
        self.timeline.advance_all([t] * p, category, ranks=group)
        self.timeline.synchronize(group)

        return [result.copy() if i > 0 else result for i in range(p)]

    def allgather(self, arrays: Sequence[np.ndarray],
                  ranks: Optional[Sequence[int]] = None,
                  category: str = "allgather") -> List[List[np.ndarray]]:
        """All-gather: every member receives every member's contribution."""
        group = self._resolve_ranks(ranks)
        p = len(arrays)
        self._check_allgather_arrays(arrays, group)
        max_nbytes = max((_nbytes(a) for a in arrays), default=0)
        self._record_allgather_events(arrays, group, category)
        t = coll.allgather_time(self.machine, group, max_nbytes)
        self.timeline.advance_all([t] * len(group), category, ranks=group)
        self.timeline.synchronize(group)
        gathered = [np.array(a, copy=True) for a in arrays]
        return [[gathered[j] if j != i else arrays[i] for j in range(p)]
                for i in range(p)]

    def reduce(self, arrays: Sequence[np.ndarray], root: int,
               ranks: Optional[Sequence[int]] = None,
               op: str = "sum",
               category: str = "reduce") -> List[Optional[np.ndarray]]:
        """Rooted reduction; only the root's slot of the result is non-None."""
        group = self._resolve_ranks(ranks)
        p = len(group)
        self._check_root(root, group)
        self._check_reduce_arrays(arrays, group, op)
        result = reduce_stack(arrays, op, force_float64=True)
        nbytes = _nbytes(arrays[0])
        self._record_reduce_events(nbytes, root, group, category)
        t = coll.reduce_time(self.machine, group, nbytes)
        self.timeline.advance_all([t] * p, category, ranks=group)
        self.timeline.synchronize(group)
        return [result if r == root else None for r in group]

    # ------------------------------------------------------------------
    # Nonblocking collectives (deferred charging; see _SimHandle)
    # ------------------------------------------------------------------
    def ibroadcast(self, value: np.ndarray, root: int,
                   ranks: Optional[Sequence[int]] = None,
                   category: str = "bcast") -> CommHandle:
        """Nonblocking broadcast: data moves now, time is charged at wait."""
        group = self._resolve_ranks(ranks)
        self._check_root(root, group)
        nbytes = _nbytes(value)
        self._record_broadcast_events(nbytes, root, group, category)
        t = coll.broadcast_time(self.machine, group, nbytes)
        out = [value if r == root else np.array(value, copy=True)
               for r in group]
        return _SimHandle(self, group, [t] * len(group), out, category)

    def ialltoallv(self,
                   send: Sequence[Sequence[Optional[np.ndarray]]],
                   ranks: Optional[Sequence[int]] = None,
                   category: str = "alltoall") -> CommHandle:
        """Nonblocking all-to-allv with deferred per-rank time charges."""
        group = self._resolve_ranks(ranks)
        p = len(group)
        self._check_alltoallv_send(send, group)
        send_bytes = self._record_alltoallv_events(send, group, category)
        times = coll.alltoallv_time_per_rank(self.machine, group, send_bytes)
        recv: List[List[Optional[np.ndarray]]] = [
            [send[j][i] for j in range(p)] for i in range(p)]
        return _SimHandle(self, group, times, recv, category)

    def iallreduce(self, arrays: Sequence[np.ndarray],
                   ranks: Optional[Sequence[int]] = None,
                   op: str = "sum",
                   category: str = "allreduce") -> CommHandle:
        """Nonblocking all-reduce with a deferred time charge."""
        group = self._resolve_ranks(ranks)
        p = len(group)
        self._check_allreduce_arrays(arrays, group, op)
        result = reduce_stack(arrays, op)
        nbytes = _nbytes(arrays[0])
        self._record_allreduce_events(nbytes, group, category)
        t = coll.allreduce_time(self.machine, group, nbytes)
        out = [result.copy() if i > 0 else result for i in range(p)]
        return _SimHandle(self, group, [t] * p, out, category)

    def iexchange(self,
                  messages: Sequence[Tuple[int, int, np.ndarray]],
                  category: str = "p2p",
                  sync_ranks: Optional[Sequence[int]] = None) -> CommHandle:
        """Nonblocking batched point-to-point with deferred busy times."""
        involved = set()
        send_time = np.zeros(self.nranks)
        recv_time = np.zeros(self.nranks)
        sync = self._check_messages(messages, sync_ranks)
        step = self._begin_exchange(category)
        delivered: Dict[Tuple[int, int], np.ndarray] = {}
        for src, dst, payload in messages:
            involved.add(src)
            involved.add(dst)
            nb = _nbytes(payload)
            if src != dst and nb > 0:
                t = self.machine.p2p_time(src, dst, nb)
                send_time[src] += t
                recv_time[dst] += t
                self.events.record_message("p2p", src, dst, nb, category, step)
            delivered[(src, dst)] = payload
        busy = np.maximum(send_time, recv_time)
        ranks = sorted(involved) if sync is None else sync
        return _SimHandle(self, ranks, [float(busy[r]) for r in ranks],
                          delivered, category)

    # ------------------------------------------------------------------
    # Point-to-point batches
    # ------------------------------------------------------------------
    def exchange(self,
                 messages: Sequence[Tuple[int, int, np.ndarray]],
                 category: str = "p2p",
                 sync_ranks: Optional[Sequence[int]] = None,
                 ) -> Dict[Tuple[int, int], np.ndarray]:
        """Deliver a batch of point-to-point messages.

        Each entry is ``(src_rank, dst_rank, payload)``.  This models the
        ``batch_isend_irecv`` grouping used by the paper's 1.5D
        implementation: all sends and receives of the batch progress
        concurrently, and a rank's time is the maximum of its total send
        time and its total receive time.

        Returns a dict keyed by ``(src, dst)`` whose value is the payload as
        seen by the receiver (messages with ``src == dst`` are free).
        """
        involved = set()
        send_time = np.zeros(self.nranks)
        recv_time = np.zeros(self.nranks)
        sync = self._check_messages(messages, sync_ranks)
        step = self._begin_exchange(category)
        delivered: Dict[Tuple[int, int], np.ndarray] = {}
        for src, dst, payload in messages:
            involved.add(src)
            involved.add(dst)
            nb = _nbytes(payload)
            if src != dst and nb > 0:
                t = self.machine.p2p_time(src, dst, nb)
                send_time[src] += t
                recv_time[dst] += t
                self.events.record_message("p2p", src, dst, nb, category, step)
            delivered[(src, dst)] = payload
        busy = np.maximum(send_time, recv_time)
        ranks = sorted(involved) if sync is None else sync
        for r in ranks:
            if busy[r] > 0:
                self.timeline.advance(r, float(busy[r]), category)
        self.timeline.synchronize(ranks)
        return delivered
