"""Adjacency-matrix utilities for GCN training.

Covers the preprocessing every GCN implementation performs on the input
graph (Kipf & Welling normalisation), plus the symmetric permutation used
to apply a partitioner's vertex relabelling to both the sparse matrix and
the dense feature matrix, matching Section 6.3.1 of the paper.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "add_self_loops",
    "gcn_normalize",
    "symmetric_permutation",
    "permutation_from_parts",
    "is_symmetric",
    "validate_adjacency",
    "degrees",
]


def validate_adjacency(adj: sp.spmatrix) -> sp.csr_matrix:
    """Canonicalise an adjacency matrix to CSR and sanity check it."""
    if not sp.issparse(adj):
        raise TypeError(f"expected a scipy sparse matrix, got {type(adj)!r}")
    adj = adj.tocsr()
    if adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    if adj.nnz and np.any(adj.data < 0):
        raise ValueError("adjacency weights must be non-negative")
    return adj


def degrees(adj: sp.spmatrix) -> np.ndarray:
    """Row degree (number of stored neighbours) of each vertex."""
    adj = validate_adjacency(adj)
    return np.diff(adj.indptr)


def is_symmetric(adj: sp.spmatrix) -> bool:
    """Whether the adjacency is exactly symmetric."""
    adj = validate_adjacency(adj)
    diff = (adj - adj.T).tocsr()
    return bool(diff.nnz == 0 or not np.any(diff.data))


def add_self_loops(adj: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I`` (the \\tilde{A} of Kipf & Welling)."""
    adj = validate_adjacency(adj)
    n = adj.shape[0]
    return (adj + sp.identity(n, format="csr", dtype=adj.dtype)).tocsr()


def gcn_normalize(adj: sp.spmatrix) -> sp.csr_matrix:
    """Symmetric GCN normalisation ``D^{-1/2} (A + I) D^{-1/2}``.

    This is the "modified adjacency matrix" ``A`` of the paper's notation
    table; its sparsity pattern is what the partitioners and the
    sparsity-aware algorithms operate on.
    """
    adj = add_self_loops(adj)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        d_inv_sqrt = 1.0 / np.sqrt(deg)
    d_inv_sqrt[~np.isfinite(d_inv_sqrt)] = 0.0
    d_mat = sp.diags(d_inv_sqrt)
    return (d_mat @ adj @ d_mat).tocsr()


def permutation_from_parts(parts: np.ndarray, nparts: int) -> np.ndarray:
    """Vertex relabelling that makes each part's vertices contiguous.

    Returns ``perm`` such that ``perm[old_id] = new_id``: vertices of part 0
    come first (in old-id order), then part 1, and so on.  This is the
    relabelling the paper applies after partitioning so the block-row
    distribution aligns with the partitioner's output.
    """
    parts = np.asarray(parts)
    if parts.ndim != 1:
        raise ValueError("parts must be a 1-D array")
    if parts.size and (parts.min() < 0 or parts.max() >= nparts):
        raise ValueError(f"part ids must lie in [0, {nparts})")
    order = np.argsort(parts, kind="stable")  # new_id -> old_id
    perm = np.empty_like(order)
    perm[order] = np.arange(parts.size)       # old_id -> new_id
    return perm


def symmetric_permutation(adj: sp.spmatrix, perm: np.ndarray
                          ) -> sp.csr_matrix:
    """Apply a symmetric permutation ``P A P^T`` given ``perm[old] = new``."""
    adj = validate_adjacency(adj)
    n = adj.shape[0]
    perm = np.asarray(perm)
    if perm.shape != (n,):
        raise ValueError(f"perm must have shape ({n},), got {perm.shape}")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    coo = adj.tocoo()
    out = sp.coo_matrix((coo.data, (perm[coo.row], perm[coo.col])),
                        shape=adj.shape)
    return out.tocsr()


def permute_rows(matrix: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Reorder the rows of a dense matrix with ``perm[old] = new``."""
    matrix = np.asarray(matrix)
    perm = np.asarray(perm)
    if matrix.shape[0] != perm.shape[0]:
        raise ValueError("row count and permutation length differ")
    out = np.empty_like(matrix)
    out[perm] = matrix
    return out


__all__.append("permute_rows")
