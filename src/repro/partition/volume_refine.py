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

from .refine import (_LOOKAHEAD, LevelGraph, check_refine_settings,
                     fill_ahead, refine_inputs, row_entries)

__all__ = ["VolumeState", "MoveDelta", "volume_refine"]

#: a vertex's kept candidate moves: ``(q, move_deltas(v, q))`` in
#: ascending ``q``, for the moves that can lower the objective
LiveDeltas = List[Tuple[int, "MoveDelta"]]


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
    def build(cls, adj, parts: np.ndarray, nparts: int,
              vertex_weights: np.ndarray,
              nbr_part_count: Optional[np.ndarray] = None) -> "VolumeState":
        """The state of ``parts``; ``nbr_part_count`` is
        :func:`neighbour_part_counts`, computed here unless given."""
        graph = adj if isinstance(adj, LevelGraph) else LevelGraph(adj)
        if nbr_part_count is None:
            nbr_part_count = neighbour_part_counts(graph, parts, nparts)

        has_nbr = nbr_part_count > 0
        # send_count[v] = number of parts other than parts[v] that contain a
        # neighbour of v.
        own = has_nbr[np.arange(graph.n), parts]
        send_count = has_nbr.sum(axis=1) - own.astype(np.int64)

        send_volume = np.bincount(parts, weights=send_count,
                                  minlength=nparts).astype(np.int64)

        # recv_volume[q] = number of (vertex, q) pairs where the vertex is
        # outside q but has a neighbour inside q.
        recv_volume = has_nbr.sum(axis=0).astype(np.int64) - \
            np.bincount(parts[own], minlength=nparts)

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


def neighbour_part_counts(graph: LevelGraph, parts: np.ndarray,
                          nparts: int) -> np.ndarray:
    """``(n, nparts)`` neighbours of each vertex per part.  A vertex's
    diagonal entry is not a neighbour (``apply_move`` skips it)."""
    rows, cols = graph.rows, graph.csr.indices
    off = rows != cols
    return np.bincount(rows[off] * np.int64(nparts) + parts[cols[off]],
                       minlength=graph.n * nparts).reshape(graph.n, nparts)


class DeltaBatch:
    """Many vertices' live deltas in one numpy pass.

    A vertex's live deltas are its candidate moves (parts other than its
    own that hold a neighbour) that can lower the objective: those whose
    deltas lower the total or some part's send or receive volume.  A move
    that does none of these costs >= 0 whatever the bottleneck (every
    part attaining it keeps its volume), so it never beats -1e-9 until
    its deltas are dropped.  Each is ``(q, move_deltas(v, q))``, in
    ascending ``q``.

    It reads numpy copies of the parts and the neighbour-part counts
    (``counts``, which it takes over).  :meth:`note_move` keeps the parts
    current and queues the move; the queued moves reach the counts
    (integers, so in any order) before the next batch.
    """

    def __init__(self, graph: LevelGraph, state: VolumeState,
                 counts: np.ndarray) -> None:
        self.graph, self.state = graph, state
        self.parts = np.array(state._parts)
        self.nparts = len(state._send)
        self.counts = counts
        self.pending: List[Tuple[int, int, int]] = []

    def note_move(self, v: int, p: int, q: int) -> None:
        """``v`` moved from ``p`` to ``q``."""
        self.parts[v] = q
        self.pending.append((v, p, q))

    def _neighbours(self, vertices: np.ndarray):
        """``(k, u)``: each neighbour ``u`` (self-loops dropped) of
        ``vertices[k]``, in CSR order."""
        k, pos = row_entries(self.graph.csr.indptr, vertices)
        u = self.graph.csr.indices[pos]
        keep = u != vertices[k]
        return k[keep], u[keep]

    def live_deltas(self, vertices: List[int]) -> List[LiveDeltas]:
        """The live deltas of each vertex in ``vertices``."""
        nparts, parts = self.nparts, self.parts
        if self.pending:
            moved, p, q = np.array(self.pending).T
            k, u = self._neighbours(moved)
            flat = self.counts.reshape(-1)
            np.add.at(flat, u * nparts + p[k], -1)
            np.add.at(flat, u * nparts + q[k], 1)
            self.pending.clear()
        send_count = np.array([self.state._send_count[v] for v in vertices])
        vertices = np.array(vertices)
        counts = self.counts[vertices] > 0
        own = parts[vertices]
        candidate = counts.copy()
        candidate[np.arange(len(vertices)), own] = False
        # One row per candidate move (vertex i to part q), in (i, q) order,
        # and move_deltas' neighbour loop over each move's row.
        pair_i, pair_q = np.nonzero(candidate)
        pair_p = own[pair_i]
        k, u = self._neighbours(vertices[pair_i])
        r, p, q = parts[u], pair_p[k], pair_q[k]
        flat = self.counts.reshape(-1)
        # u stops sending to p if v was its only neighbour there, and starts
        # sending to q if it had none there: u's part r sends one row less
        # or more, and p receives one less or q one more.
        leave = (r != p) & (flat[u * nparts + p] == 1)
        join = (r != q) & (flat[u * nparts + q] == 0)
        n_pairs = len(pair_i)
        delta_send = np.bincount(
            k * nparts + r, weights=join.view(np.int8) - leave.view(np.int8),
            minlength=n_pairs * nparts).astype(np.int64).reshape(n_pairs,
                                                                 nparts)
        # v's own contributions move from p to q.
        at = np.arange(n_pairs)
        new_send_count = counts.sum(axis=1)[pair_i] - 1
        delta_send[at, pair_p] -= send_count[pair_i]
        delta_send[at, pair_q] += new_send_count
        delta_recv = np.zeros((n_pairs, nparts), dtype=np.int64)
        delta_recv[at, pair_p] = counts[pair_i, pair_p] - np.bincount(
            k, weights=leave, minlength=n_pairs).astype(np.int64)
        delta_recv[at, pair_q] = np.bincount(
            k, weights=join, minlength=n_pairs).astype(np.int64) - 1
        total = delta_send.sum(axis=1)
        live = np.flatnonzero(
            (total < 0) | (np.minimum(delta_send, delta_recv).min(axis=1) < 0))
        out: List[LiveDeltas] = [[] for _ in range(len(vertices))]
        for i, q, delta in zip(pair_i[live].tolist(), pair_q[live].tolist(),
                               map(MoveDelta, delta_send[live].tolist(),
                                   delta_recv[live].tolist(),
                                   new_send_count[live].tolist(),
                                   total[live].tolist())):
            out[i].append((q, delta))
        return out


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


def _forget_deltas(deltas_of: List[Optional[LiveDeltas]], indptr, indices,
                   state: VolumeState, x: int, q: int) -> None:
    """Drop the kept deltas that moving ``x`` to ``q`` changes.

    ``move_deltas(w, a)`` reads ``parts[w]``, ``nbr[w]``, ``send_count[w]``
    and, per neighbour ``u`` of ``w`` in a part ``r``, ``parts[u]``,
    ``[nbr[u][parts[w]] == 1]`` when ``r != parts[w]`` and
    ``[nbr[u][a] == 0]`` when ``r != a``.  The move changes ``parts[x]``
    and, for each neighbour ``u``, ``nbr[u]`` and ``send_count[u]``: the
    deltas of ``x`` and ``N(x)`` go.  ``nbr[u][p]`` falls by one: that
    flips ``[· == 1]`` only from a count ≤ 2, read by the ``w`` in ``p``,
    and ``[· == 0]`` only from 1, read by the ``w`` with a neighbour in
    ``p``.  ``nbr[u][q]`` rises by one: that flips ``[· == 1]`` only from a
    count ≤ 1, read by the ``w`` in ``q``, and ``[· == 0]`` only from 0,
    read by the ``w`` with a neighbour in ``q``.  Only those ``w`` in
    ``N(u)`` go too.  Call it before the move, on the old counts.
    """
    parts, nbr = state._parts, state._nbr
    p = parts[x]
    deltas_of[x] = None
    for u in indices[indptr[x]:indptr[x + 1]]:
        if u == x:
            continue
        deltas_of[u] = None
        r = parts[u]
        count_p, count_q = nbr[u][p], nbr[u][q]
        at_p = r != p and count_p <= 2
        at_q = r != q and count_q <= 1
        if not (at_p or at_q):
            continue
        for w in indices[indptr[u]:indptr[u + 1]]:
            if deltas_of[w] is None:
                continue
            r_w = parts[w]
            if at_p and (r_w == p or (count_p == 1 and nbr[w][p])) or \
                    at_q and (r_w == q or (count_q == 0 and nbr[w][q])):
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
    graph, parts, vertex_weights = refine_inputs(adj, parts, nparts,
                                                 vertex_weights)
    indptr, indices = graph.indptr, graph.indices
    if max_volume_weight is None:
        max_volume_weight = max(1.0, nparts / 2.0)

    counts = neighbour_part_counts(graph, parts, nparts)
    state = VolumeState.build(graph, parts, nparts, vertex_weights, counts)
    part_weight, send_count = state._weight, state._send_count
    weights = vertex_weights.tolist()
    max_weight = balance_factor * (vertex_weights.sum() / nparts)
    rng = np.random.default_rng(seed)
    # deltas_of[v] is v's live deltas (DeltaBatch), kept until one of their
    # inputs changes (_forget_deltas); [] marks a vertex that cannot move
    # until then.
    deltas_of: List[Optional[LiveDeltas]] = [None] * graph.n
    bottleneck, top_send, top_recv = _bottleneck(state._send, state._recv)

    batch = DeltaBatch(graph, state, counts)

    total_moves = 0
    # seen[v] is the move count at v's last visit that did not move it: a
    # visit with no move since then repeats that outcome, so it is skipped.
    seen = [-1] * graph.n
    for _ in range(max_passes):
        # The boundary: vertices some other part needs.
        boundary = np.flatnonzero(np.fromiter(send_count, np.int64,
                                              graph.n))
        if boundary.size == 0:
            break
        rng.shuffle(boundary)

        moves_before = total_moves
        order = boundary.tolist()
        for i, v in enumerate(order):
            if seen[v] == total_moves:
                continue
            live = deltas_of[v]
            if live is None:
                fill_ahead(deltas_of, order[i:i + _LOOKAHEAD],
                           batch.live_deltas)
                live = deltas_of[v]
            if not live:
                continue
            wv = weights[v]
            best_delta_cost = -1e-9  # strict improvement required
            best_q, best_delta = -1, None
            for q, delta in live:
                if part_weight[q] + wv > max_weight:
                    continue
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
                batch.note_move(v, state._parts[v], best_q)
                _forget_deltas(deltas_of, indptr, indices, state, v, best_q)
                state.apply_move(indptr, indices, v, best_q, weights,
                                 best_delta)
                bottleneck, top_send, top_recv = _bottleneck(state._send,
                                                             state._recv)
                total_moves += 1
            else:
                seen[v] = total_moves
        if total_moves == moves_before:
            break
    return state.parts, total_moves
