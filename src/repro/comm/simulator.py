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

Each is one lowering (``_lower_*``; the public collectives are defined
once, on :class:`~repro.comm.base.Communicator`) that moves the data and
returns the per-rank busy seconds; :meth:`_collective` charges them at
once (blocking) or when the handle is waited on (posted, see
:class:`_SimHandle`).

The communicator is *deterministic*: given the same inputs it produces the
same data and the same simulated times, which makes the reproduction's
benchmark tables stable.  Construct it directly or via
``repro.comm.make_communicator(nranks, backend="sim")``.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
    about what pipelining can and cannot hide.  An immediate ``wait()``
    after issue leaves the rank clocks where the blocking collective
    would, group synchronisation included, but not always the
    per-category totals: it charges each rank ``(now + t) - now``, which
    can differ from ``t`` in the last bit, so a category's seconds may
    differ by a few ulps.  The blocking runner therefore never goes
    through a handle.
    """

    def __init__(self, comm: "SimCommunicator", ranks, per_rank_time,
                 result, category: str) -> None:
        super().__init__()
        self._comm = comm
        self._ranks = list(ranks)
        self._category = category
        self._result = result
        timeline = comm.timeline
        self._finish_at = {r: timeline.now(r) + float(t)
                           for r, t in per_rank_time.items()}

    def _poll(self) -> bool:
        timeline = self._comm.timeline
        return all(timeline.now(r) >= fin - 1e-18
                   for r, fin in self._finish_at.items())

    def _finish(self):
        timeline = self._comm.timeline
        for r, fin in self._finish_at.items():
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
    # Collectives: each lowering moves the data now and returns the
    # group, the per-rank busy seconds and the result; the runner charges
    # the seconds at once (blocking) or at wait() (see _SimHandle).
    # ------------------------------------------------------------------
    def _collective(self, lower, blocking, category, *args):
        group, times, result = lower(category, *args)
        if not blocking:
            return _SimHandle(self, group, times, result, category)
        self.timeline.advance_all(list(times.values()), category,
                                  ranks=list(times))
        self.timeline.synchronize(group)
        return result

    def _lower_alltoallv(self, category, send, group):
        p = len(group)
        send_bytes = self._record_alltoallv_events(send, group, category)
        times = coll.alltoallv_time_per_rank(self.machine, group, send_bytes)
        recv = [[send[j][i] for j in range(p)] for i in range(p)]
        return group, dict(zip(group, times)), recv

    def _lower_broadcast(self, category, value, root, group):
        nbytes = _nbytes(value)
        self._record_broadcast_events(nbytes, root, group, category)
        t = coll.broadcast_time(self.machine, group, nbytes)
        out = [value if r == root else np.array(value, copy=True)
               for r in group]
        return group, dict.fromkeys(group, t), out

    def _lower_allreduce(self, category, arrays, group, op):
        result = reduce_stack(arrays, op)
        nbytes = _nbytes(arrays[0])
        self._record_allreduce_events(nbytes, group, category)
        t = coll.allreduce_time(self.machine, group, nbytes)
        out = [result.copy() if i > 0 else result for i in range(len(group))]
        return group, dict.fromkeys(group, t), out

    def _lower_allgather(self, category, arrays, group):
        p = len(group)
        max_nbytes = max((_nbytes(a) for a in arrays), default=0)
        self._record_allgather_events(arrays, group, category)
        t = coll.allgather_time(self.machine, group, max_nbytes)
        gathered = [np.array(a, copy=True) for a in arrays]
        out = [[gathered[j] if j != i else arrays[i] for j in range(p)]
               for i in range(p)]
        return group, dict.fromkeys(group, t), out

    def _lower_reduce(self, category, arrays, root, group, op):
        result = reduce_stack(arrays, op, force_float64=True)
        nbytes = _nbytes(arrays[0])
        self._record_reduce_events(nbytes, root, group, category)
        t = coll.reduce_time(self.machine, group, nbytes)
        out = [result if r == root else None for r in group]
        return group, dict.fromkeys(group, t), out

    def _lower_exchange(self, category, messages, sync):
        """A rank's busy time is the maximum of its total send time and
        its total receive time; only ranks with a positive one are
        charged, then the senders and receivers (or ``sync``)
        synchronise."""
        involved = set()
        send_time = np.zeros(self.nranks)
        recv_time = np.zeros(self.nranks)
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
        times = {r: float(busy[r]) for r in ranks if busy[r] > 0}
        return ranks, times, delivered
