"""Boundary refinement minimizing total edgecut (METIS-style objective).

A simplified k-way Fiduccia–Mattheyses pass: boundary vertices are examined
repeatedly and moved to the neighbouring part with the highest connectivity
whenever that reduces the cut (or keeps it equal while improving balance),
subject to a vertex-weight balance constraint.

The refiners assume a symmetric adjacency: a move of ``v`` invalidates
what its row ``v`` lists as neighbours.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .base import validate_parts

__all__ = ["edgecut_refine", "rebalance", "weighted_edgecut",
           "part_weight_vector"]

#: ``conn_of`` marker of an idle vertex: every part it is connected to
#: has a strictly negative gain, so no part weight can make it move
#: until a neighbour moves (which resets the marker like any connectivity)
_IDLE = ()


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
    """Sorted vertex ids with at least one neighbour in a different part,
    from the COO ``rows`` / ``cols`` of the adjacency."""
    mask = parts[rows] != parts[cols]
    marked = np.zeros(len(parts), dtype=bool)
    marked[rows[mask]] = True
    marked[cols[mask]] = True
    return np.flatnonzero(marked)


def _connectivity(indptr, indices, data, parts, v: int, nparts: int
                  ) -> List[float]:
    """Edge weight from ``v`` to each part, summed in CSR order (the order
    ``np.add.at`` would use, so the floats are the same bit for bit)."""
    conn = [0.0] * nparts
    for idx in range(indptr[v], indptr[v + 1]):
        conn[parts[indices[idx]]] += data[idx]
    return conn


def connectivity_rows(adj: sp.csr_matrix, parts: np.ndarray,
                      vertices: np.ndarray, nparts: int) -> np.ndarray:
    """``(len(vertices), nparts)`` edge weight from each vertex to each part.

    One ``np.bincount`` over the vertices' CSR slices: it accumulates in
    input order, i.e. CSR order per vertex, so each row has the same bits
    as :func:`_connectivity`.
    """
    starts = adj.indptr[vertices]
    lengths = adj.indptr[vertices + 1] - starts
    row = np.repeat(np.arange(len(vertices)), lengths)
    pos = np.arange(int(lengths.sum())) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths)
    conn = np.bincount(row * nparts + parts[adj.indices[pos]],
                       weights=adj.data[pos],
                       minlength=len(vertices) * nparts)
    # (an empty input comes back as int64)
    return conn.astype(np.float64, copy=False).reshape(len(vertices), nparts)


def check_refine_settings(balance_factor: float, max_passes: int = 0
                          ) -> None:
    """Reject settings under which a refiner could only churn or no-op."""
    if not balance_factor >= 1.0:
        raise ValueError(f"balance_factor must be >= 1.0, got "
                         f"{balance_factor}")
    if max_passes < 0:
        raise ValueError(f"max_passes must be >= 0, got {max_passes}")


def refine_inputs(adj: sp.spmatrix, parts: np.ndarray, nparts: int,
                  vertex_weights: Optional[np.ndarray]):
    """CSR matrix, validated copy of ``parts`` and float vertex weights."""
    adj = adj.tocsr()
    n = adj.shape[0]
    parts = validate_parts(parts, nparts, n).copy()
    if vertex_weights is None:
        vertex_weights = np.ones(n)
    return adj, parts, np.asarray(vertex_weights, dtype=np.float64)


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
    check_refine_settings(balance_factor, max_passes)
    adj, parts, vertex_weights = refine_inputs(adj, parts, nparts,
                                               vertex_weights)
    indptr, indices, data = (adj.indptr.tolist(), adj.indices.tolist(),
                             adj.data.tolist())

    coo = adj.tocoo()
    vw, part_of = vertex_weights.tolist(), parts.tolist()
    weights = part_weight_vector(parts, vertex_weights, nparts).tolist()
    max_weight = balance_factor * (vertex_weights.sum() / nparts)

    rng = np.random.default_rng(seed)
    total_moves = 0
    # conn_of[v] is v's connectivity (or _IDLE), kept until a neighbour of
    # v moves (recomputed, never patched, so the sums stay in CSR order).
    conn_of: List[Optional[List[float]]] = [None] * adj.shape[0]

    for _ in range(max_passes):
        parts = np.array(part_of)
        boundary = boundary_ids(coo.row, coo.col, parts)
        if boundary.size == 0:
            break
        # The connectivity the pass would compute on its first visits,
        # in one numpy call; a neighbour moving first resets it as usual.
        todo = boundary[[conn_of[v] is None for v in boundary.tolist()]]
        for v, conn in zip(todo.tolist(), connectivity_rows(
                adj, parts, todo, nparts).tolist()):
            conn_of[v] = conn
        rng.shuffle(boundary)
        moves_this_pass = 0
        for v in boundary.tolist():
            conn = conn_of[v]
            if conn is _IDLE:
                continue
            p = part_of[v]
            if conn is None:
                conn = conn_of[v] = _connectivity(indptr, indices, data,
                                                  part_of, v, nparts)
            internal = conn[p]
            best_q = -1
            best_gain = 0.0
            wv = vw[v]
            idle = True
            # Candidate parts: the ones v is actually connected to.
            for q in range(nparts):
                if q == p or not conn[q] > 0:
                    continue
                gain = conn[q] - internal
                if gain < 0:
                    continue
                idle = False
                if weights[q] + wv > max_weight:
                    continue
                if gain > best_gain or (gain == best_gain == 0.0 and
                                        weights[p] > weights[q] + wv and
                                        best_q < 0):
                    best_gain, best_q = gain, q
            if idle:
                conn_of[v] = _IDLE
            elif best_q >= 0 and (best_gain > 0 or
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
    check_refine_settings(balance_factor)
    adj, parts, vertex_weights = refine_inputs(adj, parts, nparts,
                                               vertex_weights)

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
        # The first maximum in (member, receiver) order is the one a scalar
        # scan with a strict ``>`` keeps.
        sample = members if members.size <= 256 else \
            rng.choice(members, size=256, replace=False)
        conn = connectivity_rows(adj, parts, sample, nparts)
        score = conn[:, receivers] - conn[:, [p]]
        infeasible = weights[receivers][None, :] + \
            vertex_weights[sample][:, None] > max_weight
        score[infeasible] = -np.inf
        best = int(np.argmax(score))
        if score.flat[best] == -np.inf:
            break
        v = int(sample[best // len(receivers)])
        q = receivers[best % len(receivers)]
        weights[p] -= vertex_weights[v]
        weights[q] += vertex_weights[v]
        parts[v] = q
        moves += 1
        overweight = [r for r in range(nparts) if weights[r] > max_weight]
    return parts
