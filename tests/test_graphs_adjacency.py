"""Tests for adjacency utilities (normalisation, permutation)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import adjacency as A
from repro.graphs.generators import (chung_lu_graph, community_ring_graph,
                                     degree_corrected_sbm, erdos_renyi_graph,
                                     grid_graph, preferential_attachment_graph,
                                     rmat_graph)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(30, avg_degree=4, seed=2)


def _weighted_with_isolated():
    """Two weighted components plus isolated vertices 3 and 6."""
    rows = [0, 1, 1, 2, 4, 5]
    cols = [1, 0, 2, 1, 5, 4]
    data = [1.0, 1.0, 2.5, 2.5, 0.5, 0.5]
    return sp.csr_matrix((data, (rows, cols)), shape=(7, 7))


#: Structurally different symmetric inputs: skewed, community, regular,
#: weighted, with isolated vertices, and edgeless.
GRAPHS = {
    "erdos_renyi": lambda: erdos_renyi_graph(40, avg_degree=4, seed=0),
    "erdos_renyi_dense": lambda: erdos_renyi_graph(25, avg_degree=8, seed=1),
    "rmat": lambda: rmat_graph(48, avg_degree=6, seed=3),
    "chung_lu": lambda: chung_lu_graph(50, avg_degree=5, seed=4),
    "dcsbm": lambda: degree_corrected_sbm(48, avg_degree=6, n_communities=4,
                                          seed=5),
    "community_ring": lambda: community_ring_graph(
        40, avg_degree=6, n_communities=4, p_external=0.05, seed=6),
    "preferential": lambda: preferential_attachment_graph(45, avg_degree=4,
                                                          seed=7),
    "grid": lambda: grid_graph(6),
    "grid_periodic": lambda: grid_graph(5, periodic=True),
    "weighted_isolated": _weighted_with_isolated,
    "edgeless": lambda: sp.csr_matrix((5, 5)),
}


@pytest.fixture(params=sorted(GRAPHS))
def any_graph(request):
    return GRAPHS[request.param]().tocsr()


def _dense_gcn_normalize(dense):
    dense = dense + np.eye(dense.shape[0])
    deg = dense.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return inv_sqrt[:, None] * dense * inv_sqrt[None, :]


class TestAdjacencyProperties:
    """Invariants of the preprocessing on every input in ``GRAPHS``."""

    def test_gcn_normalize_matches_dense_formula(self, any_graph):
        norm = A.gcn_normalize(any_graph)
        assert np.all(np.isfinite(norm.data))
        np.testing.assert_allclose(norm.toarray(),
                                   _dense_gcn_normalize(any_graph.toarray()),
                                   atol=1e-12)

    def test_normalized_spectrum_lies_in_unit_interval(self, any_graph):
        # D^{-1/2} (A + I) D^{-1/2} is similar to a stochastic matrix, so
        # its eigenvalues lie in [-1, 1] and 1 is attained.
        eig = np.linalg.eigvalsh(A.gcn_normalize(any_graph).toarray())
        assert eig.min() >= -1.0 - 1e-10
        assert eig.max() == pytest.approx(1.0, abs=1e-10)

    def test_self_loops_and_degrees(self, any_graph):
        dense = any_graph.toarray()
        n = dense.shape[0]
        np.testing.assert_array_equal(A.add_self_loops(any_graph).toarray(),
                                      dense + np.eye(n))
        np.testing.assert_array_equal(A.degrees(any_graph),
                                      (dense != 0).sum(axis=1))
        assert A.is_symmetric(any_graph)

    def test_symmetric_permutation_relabels_and_inverts(self, any_graph):
        n = any_graph.shape[0]
        perm = np.random.default_rng(n).permutation(n)
        out = A.symmetric_permutation(any_graph, perm)
        assert out.nnz == any_graph.nnz
        expected = np.zeros((n, n))
        expected[np.ix_(perm, perm)] = any_graph.toarray()
        np.testing.assert_array_equal(out.toarray(), expected)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(n)
        back = A.symmetric_permutation(out, inverse)
        np.testing.assert_array_equal(back.toarray(), any_graph.toarray())

    def test_permuted_spmm_commutes(self, any_graph):
        n = any_graph.shape[0]
        rng = np.random.default_rng(n + 1)
        perm = rng.permutation(n)
        h = rng.normal(size=(n, 3))
        norm = A.gcn_normalize(any_graph)
        left = A.symmetric_permutation(norm, perm) @ A.permute_rows(h, perm)
        np.testing.assert_allclose(left, A.permute_rows(norm @ h, perm),
                                   atol=1e-12)

    def test_permutation_from_parts_is_a_stable_grouping(self, any_graph):
        n = any_graph.shape[0]
        nparts = min(4, n)
        parts = np.random.default_rng(n + 2).integers(0, nparts, size=n)
        perm = A.permutation_from_parts(parts, nparts)
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
        order = np.empty_like(perm)
        order[perm] = np.arange(n)          # new id -> old id
        # Parts become contiguous, in part order; old-id order is kept
        # inside each part.
        assert np.all(np.diff(parts[order]) >= 0)
        for p in range(nparts):
            members = order[parts[order] == p]
            assert np.all(np.diff(members) > 0)


class TestValidation:
    def test_rejects_dense_input(self):
        with pytest.raises(TypeError):
            A.validate_adjacency(np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            A.validate_adjacency(sp.csr_matrix(np.ones((2, 3))))

    def test_rejects_negative_weights(self):
        mat = sp.csr_matrix(np.array([[0, -1.0], [-1.0, 0]]))
        with pytest.raises(ValueError):
            A.validate_adjacency(mat)

    def test_degrees(self, graph):
        deg = A.degrees(graph)
        assert deg.shape == (30,)
        assert deg.sum() == graph.nnz

    def test_is_symmetric(self, graph):
        assert A.is_symmetric(graph)
        asym = sp.csr_matrix(np.array([[0, 1.0], [0, 0]]))
        assert not A.is_symmetric(asym)


class TestNormalisation:
    def test_add_self_loops(self, graph):
        out = A.add_self_loops(graph)
        assert np.all(out.diagonal() == 1.0)
        assert out.nnz == graph.nnz + graph.shape[0]

    def test_gcn_normalize_row_col_scaling(self, graph):
        norm = A.gcn_normalize(graph)
        # Symmetric normalisation keeps the matrix symmetric and bounded.
        np.testing.assert_allclose(norm.toarray(), norm.T.toarray(),
                                   atol=1e-12)
        assert norm.data.max() <= 1.0 + 1e-12
        assert norm.data.min() > 0
        # Exactly D^{-1/2} (A + I) D^{-1/2} on an irregular graph.
        dense = graph.toarray() + np.eye(graph.shape[0])
        inv_sqrt = 1.0 / np.sqrt(dense.sum(axis=1))
        np.testing.assert_allclose(norm.toarray(),
                                   inv_sqrt[:, None] * dense * inv_sqrt,
                                   atol=1e-12)

    def test_gcn_normalize_spectral_property(self):
        # For a k-regular graph with self loops, D^{-1/2} (A+I) D^{-1/2} has
        # constant row sums equal to 1.
        from repro.graphs.generators import grid_graph
        adj = grid_graph(5, periodic=True)
        norm = A.gcn_normalize(adj)
        row_sums = np.asarray(norm.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 1.0, rtol=1e-10)

    def test_gcn_normalize_handles_isolated_vertices(self):
        # An isolated vertex keeps only its self loop, scaled to 1.
        norm = A.gcn_normalize(sp.csr_matrix((3, 3)))
        np.testing.assert_array_equal(norm.toarray(), np.eye(3))
        # One edge plus an isolated vertex: finite, the pair scaled by 1/2.
        adj = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(3, 3))
        norm = A.gcn_normalize(adj)
        assert np.all(np.isfinite(norm.toarray()))
        np.testing.assert_allclose(norm.toarray(),
                                   [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]])


class TestPermutation:
    def test_permutation_from_parts_groups_contiguously(self):
        parts = np.array([1, 0, 1, 0, 2])
        perm = A.permutation_from_parts(parts, 3)
        # part 0 members (old ids 1, 3) must map to new ids {0, 1}
        assert sorted(perm[[1, 3]]) == [0, 1]
        assert sorted(perm[[0, 2]]) == [2, 3]
        assert perm[4] == 4

    def test_permutation_from_parts_validates(self):
        with pytest.raises(ValueError):
            A.permutation_from_parts(np.array([[0, 1]]), 2)
        with pytest.raises(ValueError):
            A.permutation_from_parts(np.array([0, 3]), 2)

    def test_symmetric_permutation_preserves_structure(self, graph):
        rng = np.random.default_rng(0)
        perm = rng.permutation(graph.shape[0])
        out = A.symmetric_permutation(graph, perm)
        assert out.nnz == graph.nnz
        assert A.is_symmetric(out)
        # Degrees are preserved up to reordering.
        np.testing.assert_array_equal(np.sort(A.degrees(out)),
                                      np.sort(A.degrees(graph)))

    def test_symmetric_permutation_roundtrip(self, graph):
        rng = np.random.default_rng(1)
        perm = rng.permutation(graph.shape[0])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        back = A.symmetric_permutation(
            A.symmetric_permutation(graph, perm), inv)
        assert (back != graph).nnz == 0

    def test_symmetric_permutation_validates_perm(self, graph):
        with pytest.raises(ValueError):
            A.symmetric_permutation(graph, np.zeros(graph.shape[0], dtype=int))
        with pytest.raises(ValueError):
            A.symmetric_permutation(graph, np.arange(graph.shape[0] - 1))

    def test_permute_rows_matches_symmetric_permutation(self, graph):
        rng = np.random.default_rng(3)
        perm = rng.permutation(graph.shape[0])
        h = rng.normal(size=(graph.shape[0], 3))
        permuted_adj = A.symmetric_permutation(graph, perm)
        permuted_h = A.permute_rows(h, perm)
        # (P A P^T)(P H) == P (A H)
        left = permuted_adj @ permuted_h
        right = A.permute_rows(graph @ h, perm)
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_permute_rows_validates_length(self):
        with pytest.raises(ValueError):
            A.permute_rows(np.ones((3, 2)), np.array([0, 1]))
