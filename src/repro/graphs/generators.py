"""Synthetic graph generators.

The paper evaluates on four real graphs (Reddit, Amazon, Protein, Papers)
that are far too large to ship or to process on a single node in pure
Python.  What the experiments actually depend on is not the identity of the
graphs but their *character*:

* **Reddit**  — small and very dense (average degree ≈ 493), irregular.
* **Amazon**  — large and sparse (average degree ≈ 16), heavy-tailed and
  irregular; the hardest case for communication balance.
* **Protein** — dense (average degree ≈ 242) but highly *regular* /
  community structured; partitioners cut almost nothing.
* **Papers**  — the largest; citation-like degree distribution.

The generators below create graphs with those characters at configurable
scale.  All of them return a symmetric ``scipy.sparse.csr_matrix`` adjacency
with zero diagonal (self loops are added later by the GCN normalisation),
and all are deterministic given the ``seed``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = [
    "rmat_graph",
    "chung_lu_graph",
    "degree_corrected_sbm",
    "community_ring_graph",
    "preferential_attachment_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "symmetrize",
]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def symmetrize(adj: sp.spmatrix) -> sp.csr_matrix:
    """Return the symmetric closure ``max(A, A^T)`` with unit weights."""
    adj = adj.tocsr()
    sym = adj.maximum(adj.T)
    sym.data[:] = 1.0
    sym.eliminate_zeros()
    return sym.tocsr()


def _edges_to_csr(n: int, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """Build a symmetric unweighted CSR adjacency from an edge list."""
    mask = rows != cols
    rows, cols = rows[mask], cols[mask]
    data = np.ones(rows.shape[0], dtype=np.float64)
    adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    adj.sum_duplicates()
    adj.data[:] = 1.0
    return symmetrize(adj)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def rmat_graph(n: int, avg_degree: float,
               a: float = 0.57, b: float = 0.19, c: float = 0.19,
               seed: int = 0) -> sp.csr_matrix:
    """Recursive-matrix (R-MAT / Kronecker-like) generator.

    Produces a skewed, irregular degree distribution similar to social
    graphs such as Reddit.  ``n`` is rounded up to the next power of two
    internally and the result is cropped back to ``n`` vertices.

    Parameters
    ----------
    n:
        Number of vertices.
    avg_degree:
        Target average degree of the symmetrised graph.
    a, b, c:
        R-MAT quadrant probabilities (the fourth is ``1 - a - b - c``).
    seed:
        RNG seed; the generator is fully deterministic.
    """
    if n <= 1:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("R-MAT quadrant probabilities must be a distribution")

    rng = np.random.default_rng(seed)
    levels = int(np.ceil(np.log2(n)))
    n_pow = 1 << levels
    # Directed edges before symmetrisation; symmetrisation roughly keeps the
    # count because duplicate/self edges are rare for sparse settings.
    nnz_target = int(n * avg_degree / 2.0)
    nnz_target = max(nnz_target, n)

    rows = np.zeros(nnz_target, dtype=np.int64)
    cols = np.zeros(nnz_target, dtype=np.int64)
    quad_probs = np.array([a, b, c, d])
    for level in range(levels):
        half = n_pow >> (level + 1)
        choice = rng.choice(4, size=nnz_target, p=quad_probs)
        rows += np.where((choice == 2) | (choice == 3), half, 0)
        cols += np.where((choice == 1) | (choice == 3), half, 0)

    # Crop to n vertices by folding out-of-range ids back in (keeps skew).
    rows = rows % n
    cols = cols % n
    return _edges_to_csr(n, rows, cols)


def chung_lu_graph(n: int, avg_degree: float, exponent: float = 2.4,
                   max_degree: Optional[int] = None,
                   seed: int = 0) -> sp.csr_matrix:
    """Chung–Lu graph with a power-law expected degree sequence.

    This is the Amazon-like stand-in: sparse, heavy-tailed and irregular,
    which stresses communication load balance exactly as the paper
    describes (Table 2).
    """
    if n <= 1:
        raise ValueError(f"need at least 2 vertices, got {n}")
    rng = np.random.default_rng(seed)
    # Power-law weights w_i ~ (i + i0)^{-1/(exponent-1)}, rescaled to hit the
    # requested average degree.
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights *= (avg_degree * n) / weights.sum()
    if max_degree is not None:
        weights = np.minimum(weights, max_degree)
    total = weights.sum()

    # Sample edges proportionally to w_i * w_j using weighted endpoint draws.
    m = int(avg_degree * n / 2.0)
    m = max(m, n)
    p = weights / total
    rows = rng.choice(n, size=m, p=p)
    cols = rng.choice(n, size=m, p=p)
    # Randomly permute vertex ids so that the heavy vertices are not in a
    # contiguous id range (matching real-world inputs before partitioning).
    perm = rng.permutation(n)
    return _edges_to_csr(n, perm[rows], perm[cols])


def degree_corrected_sbm(n: int, avg_degree: float, n_communities: int = 32,
                         p_internal: float = 0.7, exponent: float = 2.4,
                         seed: int = 0) -> sp.csr_matrix:
    """Degree-corrected stochastic block model.

    Combines two properties the paper's real graphs have and that drive its
    results: (i) *community structure*, so a graph partitioner can
    substantially reduce communication volume, and (ii) a *heavy-tailed
    degree distribution*, so the per-part communication volume is
    unbalanced unless the partitioner explicitly balances it (the METIS
    deficiency of Table 2).

    Parameters
    ----------
    n / avg_degree:
        Size and density of the symmetrised graph.
    n_communities:
        Number of planted communities (equal sized, with shuffled ids).
    p_internal:
        Fraction of edges whose endpoints are drawn from the same
        community; the remainder connect arbitrary communities.  Lower
        values make the graph more irregular and the partitioner's job
        harder (the paper's Amazon/Reddit regime); higher values approach
        the easily-partitionable Protein regime.
    exponent:
        Power-law exponent of the expected-degree weights.
    """
    if n_communities <= 0 or n_communities > n:
        raise ValueError("n_communities must be in [1, n]")
    if not (0.0 <= p_internal <= 1.0):
        raise ValueError("p_internal must be in [0, 1]")
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    rng = np.random.default_rng(seed)

    # Heavy-tailed expected-degree weights, randomly assigned to vertices.
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    rng.shuffle(weights)

    community = np.arange(n) % n_communities
    rng.shuffle(community)
    members = [np.flatnonzero(community == c) for c in range(n_communities)]
    member_probs = []
    for mem in members:
        w = weights[mem]
        member_probs.append(w / w.sum())
    comm_weight = np.array([weights[mem].sum() for mem in members])
    comm_probs = comm_weight / comm_weight.sum()
    global_probs = weights / weights.sum()

    m = max(n, int(avg_degree * n / 2.0))
    internal = rng.random(m) < p_internal
    m_int = int(internal.sum())
    m_ext = m - m_int

    rows = np.empty(m, dtype=np.int64)
    cols = np.empty(m, dtype=np.int64)

    # Internal edges: community chosen by weight mass, endpoints by weight.
    comm_choice = rng.choice(n_communities, size=m_int, p=comm_probs)
    int_positions = np.flatnonzero(internal)
    for c in range(n_communities):
        idx = int_positions[comm_choice == (c)] if m_int else np.empty(0, int)
        if idx.size == 0:
            continue
        mem = members[c]
        rows[idx] = rng.choice(mem, size=idx.size, p=member_probs[c])
        cols[idx] = rng.choice(mem, size=idx.size, p=member_probs[c])

    # External edges: both endpoints drawn from the global weight
    # distribution (so hubs attract cross-community edges, which is what
    # creates the send-volume imbalance GVB corrects).
    if m_ext:
        ext_positions = np.flatnonzero(~internal)
        rows[ext_positions] = rng.choice(n, size=m_ext, p=global_probs)
        cols[ext_positions] = rng.choice(n, size=m_ext, p=global_probs)

    return _edges_to_csr(n, rows, cols)


def community_ring_graph(n: int, avg_degree: float, n_communities: int = 32,
                         p_external: float = 0.01,
                         seed: int = 0) -> sp.csr_matrix:
    """Dense, *regular* community graph (the Protein stand-in).

    Vertices are divided into ``n_communities`` equally sized communities
    arranged on a ring.  Almost all edges are internal to a community, with
    a small fraction going to the two neighbouring communities.  A good
    partitioner can therefore cut almost nothing — which is exactly the
    behaviour the paper reports for the Protein dataset (SA+GVB reaching
    near-communication-free training, a 14x win at 256 GPUs).
    """
    if n_communities <= 0:
        raise ValueError("n_communities must be positive")
    if not (0.0 <= p_external < 1.0):
        raise ValueError("p_external must be in [0, 1)")
    rng = np.random.default_rng(seed)
    community = np.arange(n) % n_communities
    # Shuffle assignment so the natural vertex order does NOT expose the
    # communities; the partitioner has to find them.
    rng.shuffle(community)
    members = [np.flatnonzero(community == c) for c in range(n_communities)]

    m = int(avg_degree * n / 2.0)
    m_ext = int(m * p_external)
    m_int = m - m_ext

    # Internal edges: pick a community proportional to its size, then two
    # random members.
    sizes = np.array([len(mem) for mem in members], dtype=np.float64)
    comm_choice = rng.choice(n_communities, size=m_int, p=sizes / sizes.sum())
    rows = np.empty(m, dtype=np.int64)
    cols = np.empty(m, dtype=np.int64)
    for c in range(n_communities):
        idx = np.flatnonzero(comm_choice == c)
        if idx.size == 0:
            continue
        mem = members[c]
        rows[idx] = rng.choice(mem, size=idx.size)
        cols[idx] = rng.choice(mem, size=idx.size)

    # External edges: between ring-adjacent communities only.
    if m_ext > 0:
        comm_src = rng.integers(0, n_communities, size=m_ext)
        comm_dst = (comm_src + rng.choice([-1, 1], size=m_ext)) % n_communities
        for k in range(m_ext):
            rows[m_int + k] = rng.choice(members[comm_src[k]])
            cols[m_int + k] = rng.choice(members[comm_dst[k]])

    return _edges_to_csr(n, rows, cols)


def preferential_attachment_graph(n: int, avg_degree: float,
                                  seed: int = 0) -> sp.csr_matrix:
    """Barabási–Albert-style citation graph (the Papers stand-in).

    Vertices arrive one at a time and attach ``m`` edges to existing
    vertices with probability proportional to degree (implemented with the
    standard repeated-endpoint trick, fully vectorised per arrival batch).
    """
    m = max(1, int(round(avg_degree / 2.0)))
    if n <= m:
        raise ValueError(f"need n > m (= {m}), got n = {n}")
    rng = np.random.default_rng(seed)

    # Target list: every time an edge (u, v) is added, u and v are appended;
    # sampling uniformly from it is preferential attachment.
    targets = list(range(m))
    rows = []
    cols = []
    repeated = []
    for v in range(m, n):
        chosen = rng.choice(targets if not repeated else repeated + targets,
                            size=m, replace=False) \
            if len(set(targets)) >= m else rng.choice(targets, size=m)
        chosen = np.unique(np.asarray(chosen, dtype=np.int64))
        for u in chosen:
            rows.append(v)
            cols.append(int(u))
        targets.extend(int(u) for u in chosen)
        targets.extend([v] * len(chosen))

    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    # Permute ids so arrival order (and hence hub locality) is hidden.
    perm = rng.permutation(n)
    return _edges_to_csr(n, perm[rows], perm[cols])


def erdos_renyi_graph(n: int, avg_degree: float, seed: int = 0) -> sp.csr_matrix:
    """Uniform random graph, mostly used by tests as a structureless input."""
    rng = np.random.default_rng(seed)
    m = int(avg_degree * n / 2.0)
    m = max(m, 1)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    return _edges_to_csr(n, rows, cols)


def grid_graph(side: int, periodic: bool = False) -> sp.csr_matrix:
    """2-D grid graph with ``side * side`` vertices (4-neighbour stencil).

    A perfectly regular graph; useful for partitioner sanity checks (the
    optimal edgecut is known to scale with the perimeter of the blocks).
    """
    if side <= 1:
        raise ValueError("side must be at least 2")
    n = side * side
    idx = np.arange(n).reshape(side, side)
    rows = []
    cols = []
    # Horizontal edges
    rows.append(idx[:, :-1].ravel())
    cols.append(idx[:, 1:].ravel())
    # Vertical edges
    rows.append(idx[:-1, :].ravel())
    cols.append(idx[1:, :].ravel())
    if periodic:
        rows.append(idx[:, -1].ravel())
        cols.append(idx[:, 0].ravel())
        rows.append(idx[-1, :].ravel())
        cols.append(idx[0, :].ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return _edges_to_csr(n, rows, cols)
