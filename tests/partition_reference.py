"""Reference copies of the refinement loops, for the oracle property test.

These are the straightforward loops of ``repro.partition.refine`` and
``repro.partition.volume_refine`` before they learned to skip work that
cannot change a decision (docs/performance.md, "Partitioning cost"): every
boundary vertex is re-evaluated on every visit, every candidate move is
priced in full, and ``rebalance`` scans its sample one vertex at a time.
``tests/test_partition_reference.py`` asserts the shipped refiners return
the same ``(parts, moves)`` as these on random graphs.

Test-only: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.partition.base import validate_parts

__all__ = ["edgecut_refine", "rebalance", "volume_refine"]


def part_weight_vector(parts: np.ndarray, vertex_weights: np.ndarray,
                       nparts: int) -> np.ndarray:
    """Total vertex weight per part."""
    weights = np.zeros(nparts)
    np.add.at(weights, parts, vertex_weights)
    return weights


def weighted_edgecut(adj: sp.spmatrix, parts: np.ndarray) -> float:
    """Sum of edge weights crossing the partition (undirected, counted once)."""
    coo = adj.tocoo()
    mask = parts[coo.row] != parts[coo.col]
    return float(coo.data[mask].sum() / 2.0)


def boundary_ids(rows: np.ndarray, cols: np.ndarray,
                 parts: np.ndarray) -> np.ndarray:
    """Vertex ids with at least one neighbour in a different part, from the
    COO ``rows`` / ``cols`` of the adjacency."""
    mask = parts[rows] != parts[cols]
    return np.unique(np.concatenate([rows[mask], cols[mask]]))


def _connectivity(indptr, indices, data, parts, v: int, nparts: int
                  ) -> List[float]:
    """Edge weight from ``v`` to each part, summed in CSR order (the order
    ``np.add.at`` would use, so the floats are the same bit for bit)."""
    conn = [0.0] * nparts
    for idx in range(indptr[v], indptr[v + 1]):
        conn[parts[indices[idx]]] += data[idx]
    return conn


def refine_inputs(adj: sp.spmatrix, parts: np.ndarray, nparts: int,
                  vertex_weights: Optional[np.ndarray]):
    """CSR matrix, validated copy of ``parts``, float vertex weights and the
    CSR arrays as lists (converted once per call, never per vertex)."""
    adj = adj.tocsr()
    n = adj.shape[0]
    parts = validate_parts(parts, nparts, n).copy()
    if vertex_weights is None:
        vertex_weights = np.ones(n)
    return (adj, parts, np.asarray(vertex_weights, dtype=np.float64),
            (adj.indptr.tolist(), adj.indices.tolist(), adj.data.tolist()))


def edgecut_refine(adj: sp.spmatrix, parts: np.ndarray, nparts: int,
                   vertex_weights: Optional[np.ndarray] = None,
                   balance_factor: float = 1.05,
                   max_passes: int = 8,
                   seed: int = 0) -> Tuple[np.ndarray, int]:
    """Refine a partition in place-ish (returns a new vector).

    Parameters
    ----------
    balance_factor:
        Maximum allowed part weight as a multiple of the ideal
        ``total_weight / nparts``.
    max_passes:
        Upper bound on full sweeps over the boundary.

    Returns
    -------
    (parts, moves):
        The refined partition vector and the number of vertex moves made.
    """
    adj, parts, vertex_weights, (indptr, indices, data) = refine_inputs(
        adj, parts, nparts, vertex_weights)
    if balance_factor < 1.0:
        raise ValueError("balance_factor must be >= 1.0")

    coo = adj.tocoo()
    vw, part_of = vertex_weights.tolist(), parts.tolist()
    weights = part_weight_vector(parts, vertex_weights, nparts).tolist()
    max_weight = balance_factor * (vertex_weights.sum() / nparts)

    rng = np.random.default_rng(seed)
    total_moves = 0
    # conn_of[v] is v's connectivity, kept until a neighbour of v moves
    # (recomputed, never patched, so the sums stay in CSR order).
    conn_of: List[Optional[List[float]]] = [None] * adj.shape[0]

    for _ in range(max_passes):
        boundary = boundary_ids(coo.row, coo.col, np.array(part_of))
        if boundary.size == 0:
            break
        rng.shuffle(boundary)
        moves_this_pass = 0
        for v in boundary.tolist():
            p = part_of[v]
            conn = conn_of[v]
            if conn is None:
                conn = conn_of[v] = _connectivity(indptr, indices, data,
                                                  part_of, v, nparts)
            internal = conn[p]
            best_q = -1
            best_gain = 0.0
            wv = vw[v]
            # Candidate parts: the ones v is actually connected to.
            for q in range(nparts):
                if q == p or not conn[q] > 0 or \
                        weights[q] + wv > max_weight:
                    continue
                gain = conn[q] - internal
                if gain > best_gain or (gain == best_gain == 0.0 and
                                        weights[p] > weights[q] + wv and
                                        best_q < 0):
                    best_gain, best_q = gain, q
            if best_q >= 0 and (best_gain > 0 or
                                (best_gain == 0.0 and weights[p] >
                                 weights[best_q] + wv)):
                weights[p] -= wv
                weights[best_q] += wv
                part_of[v] = best_q
                for idx in range(indptr[v], indptr[v + 1]):
                    conn_of[indices[idx]] = None
                moves_this_pass += 1
        total_moves += moves_this_pass
        if moves_this_pass == 0:
            break
    return np.array(part_of, dtype=np.int64), total_moves


def rebalance(adj: sp.spmatrix, parts: np.ndarray, nparts: int,
              vertex_weights: Optional[np.ndarray] = None,
              balance_factor: float = 1.05,
              seed: int = 0,
              max_moves: Optional[int] = None) -> np.ndarray:
    """Repair computational balance by draining overweight parts.

    Greedy graph growing on awkward (disconnected, star-heavy) graphs can
    leave some parts far above the balance tolerance.  This pass moves
    vertices out of every overweight part — preferring vertices with the
    highest connectivity to the receiving part, i.e. the smallest edgecut
    damage — until all parts respect ``balance_factor`` times the ideal
    weight (or the move budget runs out).
    """
    adj, parts, vertex_weights, (indptr, indices, data) = refine_inputs(
        adj, parts, nparts, vertex_weights)
    vw, part_of = vertex_weights.tolist(), parts.tolist()  # scalar mirrors

    weights = part_weight_vector(parts, vertex_weights, nparts)
    max_weight = balance_factor * (vertex_weights.sum() / nparts)
    if max_moves is None:
        max_moves = 4 * adj.shape[0]
    rng = np.random.default_rng(seed)

    moves = 0
    overweight = [p for p in range(nparts) if weights[p] > max_weight]
    while overweight and moves < max_moves:
        p = max(overweight, key=lambda q: weights[q])
        members = np.flatnonzero(parts == p)
        if members.size <= 1:
            overweight = [q for q in overweight if q != p]
            continue
        # Candidate receivers: the lightest parts.
        order = np.argsort(weights)
        receivers = [int(q) for q in order if q != p and
                     weights[q] < max_weight][:8]
        if not receivers:
            break
        # Pick the member vertex whose move hurts the cut least: highest
        # external connectivity to a receiver, lowest internal connectivity.
        best = None
        sample = members if members.size <= 256 else \
            rng.choice(members, size=256, replace=False)
        load = weights.tolist()
        for v in sample.tolist():
            conn = _connectivity(indptr, indices, data, part_of, v, nparts)
            internal = conn[p]
            for q in receivers:
                if load[q] + vw[v] > max_weight:
                    continue
                score = conn[q] - internal
                if best is None or score > best[0]:
                    best = (score, v, q)
        if best is None:
            break
        _, v, q = best
        weights[p] -= vertex_weights[v]
        weights[q] += vertex_weights[v]
        parts[v] = part_of[v] = q
        moves += 1
        overweight = [r for r in range(nparts) if weights[r] > max_weight]
    return parts


@dataclass
class MoveDelta:
    """Effect of one candidate move on the volume bookkeeping."""

    delta_send: List[int]       # per-part change of send volume
    delta_recv: List[int]       # per-part change of receive volume
    new_send_count_v: int       # send_count of the moved vertex afterwards


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

    @property
    def bottleneck_volume(self) -> int:
        """The metric that bounds the all-to-allv time: the largest send or
        receive volume of any part."""
        return max(max(self._send), max(self._recv))

    def cost_change(self, delta: MoveDelta, max_volume_weight: float,
                    bottleneck: int) -> float:
        """Change of the objective, total volume + ``max_volume_weight`` x
        bottleneck volume, if ``delta`` were applied; ``bottleneck`` is the
        current :attr:`bottleneck_volume`."""
        new_bottleneck = max(max(map(add, self._send, delta.delta_send)),
                             max(map(add, self._recv, delta.delta_recv)))
        return sum(delta.delta_send) + \
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
        for idx in range(adj_indptr[v], adj_indptr[v + 1]):
            u = adj_indices[idx]
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
        return MoveDelta(delta_send=delta_send, delta_recv=delta_recv,
                         new_send_count_v=new_send_count_v)

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
    adj, parts, vertex_weights, (indptr, indices, _) = refine_inputs(
        adj, parts, nparts, vertex_weights)
    if max_volume_weight is None:
        max_volume_weight = max(1.0, nparts / 2.0)

    state = VolumeState.build(adj, parts, nparts, vertex_weights)
    part_of, nbr, part_weight = state._parts, state._nbr, state._weight
    weights = vertex_weights.tolist()
    coo = adj.tocoo()
    max_weight = balance_factor * (vertex_weights.sum() / nparts)
    rng = np.random.default_rng(seed)

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
            best_delta_cost = -1e-9  # strict improvement required
            best_q, best_delta = -1, None
            bottleneck = state.bottleneck_volume
            for q in range(nparts):
                if q == p or counts_v[q] == 0 or \
                        part_weight[q] + wv > max_weight:
                    continue
                delta = state.move_deltas(indptr, indices, v, q)
                delta_cost = state.cost_change(delta, max_volume_weight,
                                               bottleneck)
                if delta_cost < best_delta_cost:
                    best_delta_cost, best_q, best_delta = delta_cost, q, delta
            if best_delta is not None:
                state.apply_move(indptr, indices, v, best_q, weights,
                                 best_delta)
                moves_this_pass += 1
        total_moves += moves_this_pass
        if moves_this_pass == 0:
            break
    return state.parts, total_moves
