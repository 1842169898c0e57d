"""Boundary refinement minimizing total edgecut (METIS-style objective).

A simplified k-way Fiduccia–Mattheyses pass: boundary vertices are examined
repeatedly and moved to the neighbouring part with the highest connectivity
whenever that reduces the cut (or keeps it equal while improving balance),
subject to a vertex-weight balance constraint.

The refiners assume a symmetric adjacency: a move of ``v`` invalidates
what its row ``v`` lists as neighbours.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .base import validate_parts

__all__ = ["LevelGraph", "edgecut_refine", "rebalance", "weighted_edgecut",
           "part_weight_vector"]

#: a visit that finds its kept value missing computes the missing values
#: of this many visits of the pass (its own first) in one numpy pass
_LOOKAHEAD = 256

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


def row_entries(indptr: np.ndarray, vertices: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, pos)``: the CSR position of every stored entry of the
    vertices' rows, in order, and the index into ``vertices`` of its
    row."""
    starts = indptr[vertices]
    lengths = indptr[vertices + 1] - starts
    row = np.repeat(np.arange(len(vertices)), lengths)
    pos = np.arange(int(lengths.sum())) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths)
    return row, pos


def connectivity_rows(adj: sp.csr_matrix, parts: np.ndarray,
                      vertices: np.ndarray, nparts: int) -> np.ndarray:
    """``(len(vertices), nparts)`` edge weight from each vertex to each part.

    One ``np.bincount`` over the vertices' CSR slices: it accumulates in
    input order, i.e. CSR order per vertex, so each row has the same bits
    as a loop adding the row's weights one by one.
    """
    row, pos = row_entries(adj.indptr, vertices)
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


class LevelGraph:
    """One level's adjacency in the forms the refiners share, converted
    once per level for ``rebalance``, ``edgecut_refine`` and
    ``volume_refine``: the CSR matrix, its structure as lists for the
    per-vertex loops, and the row of every stored entry (the COO ``row``,
    in CSR order) for whole-graph numpy work.  Each form is built on its
    first use."""

    def __init__(self, adj: sp.spmatrix) -> None:
        self.csr = adj.tocsr()
        self.n = self.csr.shape[0]

    @cached_property
    def indptr(self) -> List[int]:
        return self.csr.indptr.tolist()

    @cached_property
    def indices(self) -> List[int]:
        return self.csr.indices.tolist()

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n, dtype=self.csr.indices.dtype),
                         np.diff(self.csr.indptr))


def refine_inputs(adj, parts: np.ndarray, nparts: int,
                  vertex_weights: Optional[np.ndarray]):
    """:class:`LevelGraph` of ``adj`` (itself, if it is one), a validated
    copy of ``parts`` and float vertex weights."""
    graph = adj if isinstance(adj, LevelGraph) else LevelGraph(adj)
    parts = validate_parts(parts, nparts, graph.n).copy()
    if vertex_weights is None:
        vertex_weights = np.ones(graph.n)
    return graph, parts, np.asarray(vertex_weights, dtype=np.float64)


def fill_ahead(kept: list, upcoming: List[int], compute) -> None:
    """Fill the missing kept values of the vertices a pass visits next.

    ``kept[v]`` is ``None`` while ``v``'s value is missing;
    ``compute(vertices)`` returns the values of a list of vertices, each
    equal to what a visit would compute.  Values filled ahead are kept
    like any other: a move before their visit drops them as usual.
    """
    missing = [w for w in upcoming if kept[w] is None]
    for w, value in zip(missing, compute(missing)):
        kept[w] = value


class CutState:
    """``edgecut_refine``'s bookkeeping, kept across moves by :meth:`move`.

    * ``part_of[v]`` / ``parts[v]`` (a list for the moves, a numpy copy
      for :func:`connectivity_rows`) and ``weights[p]``: each vertex's
      part and each part's total vertex weight;
    * ``ext[v]``: how many stored entries of row ``v`` lie in another part
      (the boundary is ``ext > 0``), updated in O(deg) per move instead of
      an O(nnz) edge mask per pass;
    * ``conn_of[v]``: ``v``'s connectivity, or ``_IDLE``, kept until a
      neighbour of ``v`` moves (recomputed, never patched, so the sums stay
      in CSR order).
    """

    __slots__ = ("graph", "parts", "part_of", "weights", "ext", "conn_of")

    def __init__(self, graph: LevelGraph, parts: np.ndarray,
                 vertex_weights: np.ndarray, nparts: int) -> None:
        self.graph, self.parts = graph, parts
        cross = parts[graph.rows] != parts[graph.csr.indices]
        self.ext = np.bincount(graph.rows[cross], minlength=graph.n).tolist()
        self.part_of = parts.tolist()
        self.weights = part_weight_vector(parts, vertex_weights,
                                          nparts).tolist()
        self.conn_of: List[Optional[List[float]]] = [None] * graph.n

    def boundary(self) -> np.ndarray:
        """Sorted ids of the vertices with a neighbour in another part."""
        return np.flatnonzero(np.fromiter(self.ext, np.int64, len(self.ext)))

    def move(self, v: int, q: int, wv: float) -> None:
        """Move ``v`` (of weight ``wv``) to part ``q``."""
        part_of, ext, conn_of = self.part_of, self.ext, self.conn_of
        indptr, indices = self.graph.indptr, self.graph.indices
        p = part_of[v]
        self.weights[p] -= wv
        self.weights[q] += wv
        part_of[v] = q
        self.parts[v] = q
        for u in indices[indptr[v]:indptr[v + 1]]:
            conn_of[u] = None
            if u == v:
                continue
            r = part_of[u]
            if r == p:
                ext[u] += 1
                ext[v] += 1
            elif r == q:
                ext[u] -= 1
                ext[v] -= 1


def edgecut_refine(adj, parts: np.ndarray, nparts: int,
                   vertex_weights: Optional[np.ndarray] = None,
                   balance_factor: float = 1.05,
                   max_passes: int = 8,
                   seed: int = 0) -> Tuple[np.ndarray, int]:
    """Refine a partition in place-ish (returns a new vector).

    Parameters
    ----------
    adj:
        The adjacency, as a sparse matrix or a :class:`LevelGraph`.
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
    graph, parts, vertex_weights = refine_inputs(adj, parts, nparts,
                                                 vertex_weights)
    state = CutState(graph, parts, vertex_weights, nparts)
    part_of, weights, conn_of = state.part_of, state.weights, state.conn_of
    vw = vertex_weights.tolist()
    max_weight = balance_factor * (vertex_weights.sum() / nparts)

    rng = np.random.default_rng(seed)
    total_moves = 0
    # seen[v] is the move count at v's last visit that did not move it: a
    # visit with no move since then repeats that outcome, so it is skipped.
    seen = [-1] * graph.n

    def conn_rows(vertices: List[int]) -> List[List[float]]:
        return connectivity_rows(graph.csr, state.parts, np.array(vertices),
                                 nparts).tolist()

    for _ in range(max_passes):
        boundary = state.boundary()
        if boundary.size == 0:
            break
        rng.shuffle(boundary)
        moves_before = total_moves
        order = boundary.tolist()
        for i, v in enumerate(order):
            conn = conn_of[v]
            if conn is _IDLE or seen[v] == total_moves:
                continue
            p = part_of[v]
            if conn is None:
                fill_ahead(conn_of, order[i:i + _LOOKAHEAD], conn_rows)
                conn = conn_of[v]
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
                state.move(v, best_q, wv)
                total_moves += 1
                continue
            seen[v] = total_moves
        if total_moves == moves_before:
            break
    return state.parts, total_moves


class KeptRows:
    """``rebalance``'s connectivity rows, kept across moves.

    A row is computed (:func:`connectivity_rows`) the first time its
    vertex is asked for and kept until a neighbour of the vertex moves:
    recomputed, never patched, so the sums stay in CSR order.  It reads
    ``parts`` in place; call :meth:`moved` after each move.
    """

    def __init__(self, adj: sp.csr_matrix, parts: np.ndarray,
                 nparts: int) -> None:
        self.adj, self.parts, self.nparts = adj, parts, nparts
        self.conn = np.empty((adj.shape[0], nparts))
        self.fresh = np.zeros(adj.shape[0], dtype=bool)

    def rows(self, vertices: np.ndarray) -> np.ndarray:
        """``(len(vertices), nparts)`` connectivity of ``vertices``."""
        stale = vertices[~self.fresh[vertices]]
        if stale.size:
            self.conn[stale] = connectivity_rows(self.adj, self.parts, stale,
                                                 self.nparts)
            self.fresh[stale] = True
        return self.conn[vertices]

    def moved(self, v: int) -> None:
        """``v`` changed part: its neighbours' rows are stale."""
        self.fresh[self.adj.indices[self.adj.indptr[v]:
                                    self.adj.indptr[v + 1]]] = False


def rebalance(adj, parts: np.ndarray, nparts: int,
              vertex_weights: Optional[np.ndarray] = None,
              balance_factor: float = 1.05,
              seed: int = 0) -> np.ndarray:
    """Repair computational balance by draining overweight parts.

    Greedy graph growing on awkward (disconnected, star-heavy) graphs can
    leave some parts far above the balance tolerance.  This pass moves
    vertices out of every overweight part — preferring vertices with the
    highest connectivity to the receiving part, i.e. the smallest edgecut
    damage — until all parts respect ``balance_factor`` times the ideal
    weight (or ``4 n`` moves were made).
    """
    check_refine_settings(balance_factor)
    graph, parts, vertex_weights = refine_inputs(adj, parts, nparts,
                                                 vertex_weights)
    adj = graph.csr

    weights = part_weight_vector(parts, vertex_weights, nparts)
    max_weight = balance_factor * (vertex_weights.sum() / nparts)
    max_moves = 4 * adj.shape[0]
    rng = np.random.default_rng(seed)

    moves = 0
    kept = KeptRows(adj, parts, nparts)
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
        conn = kept.rows(sample)
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
        kept.moved(v)
        moves += 1
        overweight = [r for r in range(nparts) if weights[r] > max_weight]
    return parts
