"""Volume-aware refinement (the GVB objective).

The Graph-VB partitioner of Acer et al. — the one the paper adopts —
minimizes several *volume-based* cost metrics simultaneously: the total
communication volume and the maximum send/receive volume of any part.
This module implements a boundary-move refinement whose gain function is
computed on exactly those metrics, for the 1D row-distributed SpMM
communication model (see
:func:`repro.partition.metrics.communication_volumes_1d`):

* a vertex ``v`` owned by part ``p`` contributes one unit of *send volume
  of p* (and one unit of *receive volume of q*) for every other part ``q``
  containing a neighbour of ``v``;
* moving ``v`` from ``p`` to ``q`` changes both ``v``'s own contribution
  and the contributions of ``v``'s neighbours (they may stop needing to
  send to ``p``, or start needing to send to ``q``).

The refinement keeps an incremental ``(n, nparts)`` neighbour-part count so
every candidate move's exact effect on the total volume and on the
bottleneck part's volume is evaluated in O(degree + nparts) time.  A
move's deltas are kept until one of their inputs changes, and a move that
cannot lower the objective is dropped before it is priced.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .refine import boundary_ids, check_refine_settings, refine_inputs

__all__ = ["VolumeState", "MoveDelta", "volume_refine"]


@dataclass(slots=True)
class MoveDelta:
    """Effect of one candidate move on the volume bookkeeping."""

    delta_send: List[int]       # per-part change of send volume
    delta_recv: List[int]       # per-part change of receive volume
    new_send_count_v: int       # send_count of the moved vertex afterwards
    total: int                  # change of total volume, sum(delta_send)


def _array_view(field: str) -> property:
    return property(lambda self: np.array(getattr(self, field)))


@dataclass
class VolumeState:
    """Incremental bookkeeping for volume-aware moves.

    Moves read and update it one vertex at a time, and at degree ≈ 10 and
    ``nparts`` ≤ 16 numpy's per-call overhead would be nearly all of the
    cost, so it is held in Python lists; the public fields read as numpy
    copies.
    """

    _parts: List[int]                 # (n,) part of each vertex
    _nbr: List[List[int]]             # (n, nparts) neighbours (≠ self) per part
    _send_count: List[int]            # (n,) parts (≠ own) that need this vertex
    _send: List[int]                  # (nparts,) per-part send volume
    _recv: List[int]                  # (nparts,) per-part receive volume
    _weight: List[float]              # (nparts,) computational weight per part

    parts = _array_view("_parts")
    nbr_part_count = _array_view("_nbr")
    send_count = _array_view("_send_count")
    send_volume = _array_view("_send")
    recv_volume = _array_view("_recv")
    part_weight = _array_view("_weight")

    @classmethod
    def build(cls, adj: sp.csr_matrix, parts: np.ndarray, nparts: int,
              vertex_weights: np.ndarray) -> "VolumeState":
        n = adj.shape[0]
        coo = adj.tocoo()
        # A vertex's diagonal entry is not a neighbour (apply_move skips it).
        off = coo.row != coo.col
        nbr_part_count = np.zeros((n, nparts), dtype=np.int32)
        np.add.at(nbr_part_count, (coo.row[off], parts[coo.col[off]]), 1)

        has_nbr = nbr_part_count > 0
        # send_count[v] = number of parts other than parts[v] that contain a
        # neighbour of v.
        own = has_nbr[np.arange(n), parts]
        send_count = has_nbr.sum(axis=1) - own.astype(np.int64)

        send_volume = np.zeros(nparts, dtype=np.int64)
        np.add.at(send_volume, parts, send_count)

        # recv_volume[q] = number of (vertex, q) pairs where the vertex is
        # outside q but has a neighbour inside q.
        recv_volume = has_nbr.sum(axis=0).astype(np.int64)
        own_counts = np.zeros(nparts, dtype=np.int64)
        np.add.at(own_counts, parts[own], 1)
        recv_volume -= own_counts

        part_weight = np.zeros(nparts)
        np.add.at(part_weight, parts, vertex_weights)
        return cls(*(a.tolist() for a in (parts, nbr_part_count, send_count,
                                          send_volume, recv_volume,
                                          part_weight)))

    # -- objective -------------------------------------------------------
    @property
    def total_volume(self) -> int:
        return sum(self._send)

    def cost_change(self, delta: MoveDelta, max_volume_weight: float,
                    bottleneck: int) -> float:
        """Change of the objective, total volume + ``max_volume_weight`` x
        bottleneck volume, if ``delta`` were applied; ``bottleneck`` is the
        current bottleneck volume (:func:`_bottleneck`)."""
        new_bottleneck = max(max(map(add, self._send, delta.delta_send)),
                             max(map(add, self._recv, delta.delta_recv)))
        return delta.total + \
            max_volume_weight * (new_bottleneck - bottleneck)

    # -- move machinery ---------------------------------------------------
    def move_deltas(self, adj_indptr, adj_indices, v: int, q: int) -> MoveDelta:
        """Compute the volume deltas of moving ``v`` to part ``q``.

        Does not modify the state.  The CSR arrays are fastest as lists.
        """
        parts, nbr = self._parts, self._nbr
        p = parts[v]
        nparts = len(self._send)
        delta_send = [0] * nparts
        delta_recv = [0] * nparts
        counts_v = nbr[v]

        # v's own send contribution moves from part p to part q and is
        # re-evaluated relative to the new owner.
        new_send_count_v = nparts - counts_v.count(0) - (counts_v[q] > 0)
        delta_send[p] -= self._send_count[v]
        delta_send[q] += new_send_count_v
        # v's own receive contributions: it no longer "receives into" q
        # (now its own part) but starts counting p if it has neighbours there.
        if counts_v[q] > 0:
            delta_recv[q] -= 1
        if counts_v[p] > 0:
            delta_recv[p] += 1

        # Neighbours' contributions: u stops needing to send to p if v was
        # its only neighbour there; u starts needing to send to q if it had
        # none there before.  The matching receive volume of p / q changes
        # with it.
        for u in adj_indices[adj_indptr[v]:adj_indptr[v + 1]]:
            if u == v:
                continue
            r = parts[u]
            counts_u = nbr[u]
            if r != p and counts_u[p] == 1:
                delta_send[r] -= 1
                delta_recv[p] -= 1
            if r != q and counts_u[q] == 0:
                delta_send[r] += 1
                delta_recv[q] += 1
        return MoveDelta(delta_send, delta_recv, new_send_count_v,
                         sum(delta_send))

    def apply_move(self, adj_indptr, adj_indices, v: int, q: int,
                   vertex_weights, delta: MoveDelta) -> None:
        """Apply a move previously evaluated with :meth:`move_deltas`."""
        parts, nbr, send_count = self._parts, self._nbr, self._send_count
        p = parts[v]
        # Neighbour counts: every neighbour of v sees v change part.
        for idx in range(adj_indptr[v], adj_indptr[v + 1]):
            u = adj_indices[idx]
            if u == v:
                continue
            r = parts[u]
            counts_u = nbr[u]
            had_q = counts_u[q] > 0
            counts_u[p] -= 1
            counts_u[q] += 1
            if r != p and counts_u[p] == 0:
                send_count[u] -= 1
            if r != q and not had_q:
                send_count[u] += 1

        self._send[:] = map(add, self._send, delta.delta_send)
        self._recv[:] = map(add, self._recv, delta.delta_recv)
        send_count[v] = delta.new_send_count_v
        wv = float(vertex_weights[v])
        self._weight[p] -= wv
        self._weight[q] += wv
        parts[v] = q


def _bottleneck(send: List[int], recv: List[int]
                ) -> Tuple[int, List[int], List[int]]:
    """The bottleneck volume, the metric that bounds the all-to-allv time
    (the largest send or receive volume of any part), and the send /
    receive parts attaining it."""
    bottleneck = max(max(send), max(recv))
    return (bottleneck, [r for r, x in enumerate(send) if x == bottleneck],
            [r for r, x in enumerate(recv) if x == bottleneck])


def _keeps_bottleneck(delta: MoveDelta, top_send: List[int],
                      top_recv: List[int]) -> bool:
    """Whether some part attaining the bottleneck does not lose volume under
    ``delta``, i.e. the bottleneck cannot fall."""
    for r in top_send:
        if delta.delta_send[r] >= 0:
            return True
    for r in top_recv:
        if delta.delta_recv[r] >= 0:
            return True
    return False


def _forget_deltas(deltas_of: List[Optional[List[Optional[MoveDelta]]]],
                   indptr, indices, nbr: List[List[int]], x: int, p: int,
                   q: int) -> None:
    """Drop the kept deltas that moving ``x`` from ``p`` to ``q`` changes.

    ``move_deltas(v, ·)`` reads ``parts[v]``, ``nbr[v]``, ``send_count[v]``
    and, per neighbour ``u``, ``parts[u]``, ``[nbr[u][a] == 1]`` and
    ``[nbr[u][b] == 0]``.  The move changes ``parts[x]`` and, for each
    neighbour ``u``, ``nbr[u]`` and ``send_count[u]``: the deltas of ``x``
    and ``N(x)`` go.  ``nbr[u][p]`` falls by one, which flips an indicator
    only from a count ≤ 2, and ``nbr[u][q]`` rises by one, which flips one
    only from a count ≤ 1; only then do the deltas of ``N(u)`` go too.
    Call it before the move, on the old counts.
    """
    deltas_of[x] = None
    for u in indices[indptr[x]:indptr[x + 1]]:
        if u == x:
            continue
        deltas_of[u] = None
        counts_u = nbr[u]
        if counts_u[p] <= 2 or counts_u[q] <= 1:
            for w in indices[indptr[u]:indptr[u + 1]]:
                deltas_of[w] = None


def volume_refine(adj: sp.spmatrix, parts: np.ndarray, nparts: int,
                  vertex_weights: Optional[np.ndarray] = None,
                  balance_factor: float = 1.10,
                  max_volume_weight: Optional[float] = None,
                  max_passes: int = 8,
                  seed: int = 0) -> Tuple[np.ndarray, int]:
    """Refine a partition for total + bottleneck (max send/recv) volume.

    Parameters
    ----------
    balance_factor:
        Computational balance tolerance (max part weight over ideal).  The
        paper notes GVB uses a *looser* constraint than METIS in exchange
        for lower communication, so the default here is looser than
        :func:`repro.partition.refine.edgecut_refine`'s.
    max_volume_weight:
        Weight of the bottleneck-volume term in the scalar objective.  The
        default ``nparts / 2`` makes "shave one row off the bottleneck
        part" worth about as much as "save nparts/2 rows of total volume",
        which is what pushes the refinement toward balanced communication.
    max_passes:
        Sweep limit.

    Returns
    -------
    (parts, moves)
    """
    check_refine_settings(balance_factor, max_passes)
    adj, parts, vertex_weights = refine_inputs(adj, parts, nparts,
                                               vertex_weights)
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    if max_volume_weight is None:
        max_volume_weight = max(1.0, nparts / 2.0)

    state = VolumeState.build(adj, parts, nparts, vertex_weights)
    part_of, nbr, part_weight = state._parts, state._nbr, state._weight
    weights = vertex_weights.tolist()
    coo = adj.tocoo()
    max_weight = balance_factor * (vertex_weights.sum() / nparts)
    rng = np.random.default_rng(seed)
    # deltas_of[v][q] is move_deltas(v, q), kept until one of its inputs
    # changes (_forget_deltas).
    deltas_of: List[Optional[List[Optional[MoveDelta]]]] = \
        [None] * adj.shape[0]
    bottleneck, top_send, top_recv = _bottleneck(state._send, state._recv)

    total_moves = 0
    for _ in range(max_passes):
        boundary = boundary_ids(coo.row, coo.col, state.parts)
        if boundary.size == 0:
            break
        rng.shuffle(boundary)

        moves_this_pass = 0
        for v in boundary.tolist():
            p = part_of[v]
            counts_v = nbr[v]
            wv = weights[v]
            deltas = deltas_of[v]
            best_delta_cost = -1e-9  # strict improvement required
            best_q, best_delta = -1, None
            for q in range(nparts):
                if q == p or counts_v[q] == 0 or \
                        part_weight[q] + wv > max_weight:
                    continue
                if deltas is None:
                    deltas = deltas_of[v] = [None] * nparts
                delta = deltas[q]
                if delta is None:
                    delta = deltas[q] = state.move_deltas(indptr, indices,
                                                          v, q)
                # A move that does not lower the total volume and leaves
                # the bottleneck standing costs >= 0 (in floating point
                # too): it never beats -1e-9, so it is not priced.
                if delta.total >= 0 and \
                        _keeps_bottleneck(delta, top_send, top_recv):
                    continue
                delta_cost = state.cost_change(delta, max_volume_weight,
                                               bottleneck)
                if delta_cost < best_delta_cost:
                    best_delta_cost, best_q, best_delta = delta_cost, q, delta
            if best_delta is not None:
                _forget_deltas(deltas_of, indptr, indices, nbr, v, p, best_q)
                state.apply_move(indptr, indices, v, best_q, weights,
                                 best_delta)
                bottleneck, top_send, top_recv = _bottleneck(state._send,
                                                             state._recv)
                moves_this_pass += 1
        total_moves += moves_this_pass
        if moves_this_pass == 0:
            break
    return state.parts, total_moves
