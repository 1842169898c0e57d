"""The one lowering of every collective for the real backends.

Each collective lowers to one :class:`Step` of sends, copies and
reductions — the data movement the collective means, with no word about
how a backend moves it.  :class:`StepLowering` holds the six lowerings
(``_lower_alltoallv`` ... ``_lower_exchange``, the hooks the public
collectives on :class:`~repro.comm.base.Communicator` call); each records
the collective's :class:`~repro.comm.events.EventLog` messages and
returns ``(group, step, finish)``:

* ``group`` — the members that take part (for an ``exchange``, every
  sender and receiver plus the ``sync_ranks``);
* ``step`` — the :class:`Step`, or ``None`` when no byte has to move
  (empty payloads, singleton groups): the result is then already whole;
* ``finish(outs)`` — maps the step's outputs, one per copy and then one
  per reduction, in order, to the caller's result.  The root/owner slot
  of a result is the caller's own object, every other slot is a fresh
  buffer (for a step without work, ``finish`` ignores ``outs``).

A real backend extends :class:`StepLowering` and writes one runner,
``_collective(lower, blocking, category, *args)``: it executes the step
(:class:`~repro.comm.process.ProcessPoolCommunicator` through
shared-memory arenas and worker processes,
:class:`~repro.comm.threaded.ThreadedCommunicator` on its rank threads,
in place) and calls ``finish``, at once or at a handle's ``wait()``.
The simulator keeps lowerings of its own: it prices collectives and
passes references through.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Communicator, payload_nbytes as _nbytes, reduce_stack

__all__ = ["Step", "StepLowering"]


class Step:
    """One collective lowered to data movement (module docstring).

    ``sends`` are ``(rank, array)`` pairs: each payload and the rank that
    sends it; ``copies`` are ``(send index, dst rank)`` pairs, each a
    fresh copy of that payload landing at ``dst`` (on ``process``, a
    rank's result slabs follow copy order); ``reduces`` are ``(dst, op,
    force64)``, each the group-ordered :func:`reduce_stack` of every sent
    payload, landing at ``dst``.  ``tag`` and ``sig`` — a cheap shape
    signature — key a backend's plan cache.
    """

    __slots__ = ("tag", "sig", "sends", "copies", "reduces")

    def __init__(self, tag: str, sig: tuple,
                 sends: List[Tuple[int, np.ndarray]],
                 copies: Sequence[Tuple[int, int]] = (),
                 reduces: Sequence[tuple] = ()) -> None:
        self.tag = tag
        self.sig = sig
        self.sends = sends
        self.copies = copies
        self.reduces = reduces


class StepLowering(Communicator):
    """The six collectives lowered to :class:`Step` s; subclasses write
    the runner, :meth:`~repro.comm.base.Communicator._collective`."""

    def _lower_alltoallv(self, category, send, group):
        p = len(group)
        self._record_alltoallv_events(send, group, category)
        recv: List[List[Optional[np.ndarray]]] = [[None] * p for _ in range(p)]
        sends, copies, pairs = [], [], []
        for i in range(p):
            recv[i][i] = send[i][i]
            for j in range(p):
                if j == i or send[i][j] is None:
                    continue
                arr = np.asarray(send[i][j])
                if arr.nbytes == 0:
                    recv[j][i] = np.array(arr, copy=True)
                else:
                    copies.append((len(sends), group[j]))
                    sends.append((group[i], arr))
                    pairs.append((i, j))

        def finish(outs):
            for (i, j), out in zip(pairs, outs):
                recv[j][i] = out
            return recv

        if not sends:
            return group, None, finish
        sig = tuple((i, j, arr.shape, arr.dtype.str)
                    for (i, j), (_, arr) in zip(pairs, sends))
        return group, Step("a2a", sig, sends, copies), finish

    def _lower_broadcast(self, category, value, root, group):
        p = len(group)
        self._record_broadcast_events(_nbytes(value), root, group, category)
        arr = np.asarray(value)
        root_pos = group.index(root)
        if arr.nbytes == 0 or p == 1:
            result = [value if pos == root_pos else np.array(arr, copy=True)
                      for pos in range(p)]
            return group, None, lambda _: result

        def finish(outs):
            return outs[:root_pos] + [value] + outs[root_pos:]

        step = Step("bc", (root, arr.shape, arr.dtype.str), [(root, arr)],
                     [(0, r) for r in group if r != root])
        return group, step, finish

    def _lower_allreduce(self, category, arrays, group, op):
        p = len(group)
        self._record_allreduce_events(_nbytes(arrays[0]), group, category)
        arrs = [np.asarray(a) for a in arrays]
        if arrs[0].nbytes == 0 or p == 1:
            result = reduce_stack(arrays, op)
            results = [result.copy() if i > 0 else result for i in range(p)]
            return group, None, lambda _: results
        step = Step("ar", (op, arrs[0].shape, tuple(a.dtype.str
                                                     for a in arrs)),
                     list(zip(group, arrs)),
                     reduces=[(r, op, False) for r in group])
        return group, step, lambda outs: outs

    def _lower_allgather(self, category, arrays, group):
        p = len(group)
        self._record_allgather_events(arrays, group, category)
        arrs = [np.asarray(a) for a in arrays]
        moving = [j for j in range(p) if arrs[j].nbytes > 0]
        pairs = [(i, j) for i in range(p) for j in moving if j != i]

        def finish(outs):
            got = dict(zip(pairs, outs))
            return [[arrays[i] if j == i
                     else got[(i, j)] if (i, j) in got
                     else np.array(arrs[j], copy=True)
                     for j in range(p)] for i in range(p)]

        if not pairs:
            return group, None, finish
        sig = tuple((j, arrs[j].shape, arrs[j].dtype.str) for j in moving)
        index = {j: k for k, j in enumerate(moving)}
        step = Step("ag", sig, [(group[j], arrs[j]) for j in moving],
                     [(index[j], group[i]) for i, j in pairs])
        return group, step, finish

    def _lower_reduce(self, category, arrays, root, group, op):
        p = len(group)
        self._record_reduce_events(_nbytes(arrays[0]), root, group, category)
        arrs = [np.asarray(a) for a in arrays]
        root_pos = group.index(root)
        if arrs[0].nbytes == 0 or p == 1:
            result = reduce_stack(arrays, op, force_float64=True)
            return group, None, lambda _: [
                result if pos == root_pos else None for pos in range(p)]
        step = Step("red", (root, op, arrs[0].shape,
                             tuple(a.dtype.str for a in arrs)),
                     list(zip(group, arrs)), reduces=[(root, op, True)])
        return group, step, lambda outs: [
            outs[0] if pos == root_pos else None for pos in range(p)]

    def _lower_exchange(self, category, messages, sync):
        step_id = self._begin_exchange(category)
        involved = set()
        delivered: Dict[Tuple[int, int], np.ndarray] = {}
        # Grouped by sender (first appearance), then message order: the
        # send and receive slab order of the batch.
        by_src: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for src, dst, payload in messages:
            involved.add(src)
            involved.add(dst)
            if src == dst or _nbytes(payload) == 0:
                delivered[(src, dst)] = payload
                continue
            arr = np.asarray(payload)
            self.events.record_message("p2p", src, dst, arr.nbytes,
                                       category, step_id)
            by_src.setdefault(src, []).append((dst, arr))
        group = sorted(involved if sync is None else involved.union(sync))
        sends, copies, pairs = [], [], []
        for src, items in by_src.items():
            for dst, arr in items:
                copies.append((len(sends), dst))
                sends.append((src, arr))
                pairs.append((src, dst))

        def finish(outs):
            delivered.update(zip(pairs, outs))
            return delivered

        if not pairs:
            return group, None, finish
        sig = tuple((src, dst, arr.shape, arr.dtype.str)
                    for (src, dst), (_, arr) in zip(pairs, sends))
        return group, Step("p2p", sig, sends, copies), finish
