"""Tests for NnzCols analysis and the distributed matrix containers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (BlockRowDistribution, DistDenseMatrix, DistSparseMatrix,
                        split_block_row)
from repro.graphs import gcn_normalize
from repro.graphs.generators import (chung_lu_graph, community_ring_graph,
                                     erdos_renyi_graph, grid_graph, rmat_graph)


@pytest.fixture(scope="module")
def matrix():
    return gcn_normalize(erdos_renyi_graph(48, avg_degree=5, seed=0))


def _isolated_vertices():
    """A path 0-1-2 plus isolated vertices (empty rows and columns)."""
    adj = sp.csr_matrix(([1.0, 1.0, 1.0, 1.0], ([0, 1, 1, 2], [1, 0, 2, 1])),
                        shape=(9, 9))
    return gcn_normalize(adj, add_loops=False)


GRAPHS = {
    "erdos_renyi": lambda: gcn_normalize(erdos_renyi_graph(40, 5, seed=1)),
    "rmat": lambda: gcn_normalize(rmat_graph(48, avg_degree=6, seed=3)),
    "chung_lu": lambda: gcn_normalize(chung_lu_graph(50, 5, seed=4)),
    "community_ring": lambda: gcn_normalize(community_ring_graph(
        40, avg_degree=6, n_communities=4, p_external=0.05, seed=6)),
    "grid": lambda: gcn_normalize(grid_graph(6)),
    "isolated": _isolated_vertices,
}


def _bounds(scheme, n):
    if scheme == "one_block":
        return np.array([0, n])
    if scheme == "uniform2":
        return BlockRowDistribution.uniform(n, 2).bounds
    if scheme == "uniform5":
        return BlockRowDistribution.uniform(n, 5).bounds
    if scheme == "random4":
        cuts = np.random.default_rng(n).choice(np.arange(1, n), size=3,
                                               replace=False)
        return np.concatenate([[0], np.sort(cuts), [n]])
    assert scheme == "empty_block"
    return np.array([0, n // 3, n // 3, n])


BOUNDS = ["one_block", "uniform2", "uniform5", "random4", "empty_block"]


@pytest.fixture(params=[(g, b) for g in sorted(GRAPHS) for b in BOUNDS],
                ids="-".join)
def blocked(request):
    """(A, DistSparseMatrix over A) for every graph x block layout."""
    graph_name, scheme = request.param
    adj = GRAPHS[graph_name]().tocsr()
    bounds = _bounds(scheme, adj.shape[0])
    dist = BlockRowDistribution(np.diff(bounds))
    return adj, DistSparseMatrix(adj, dist)


class TestNnzColsProperties:
    """NnzCols invariants over every graph and block layout."""

    def test_nnz_cols_match_brute_force(self, blocked):
        adj, dm = blocked
        dense = adj.toarray()
        bounds = dm.dist.bounds
        for i in range(dm.nblocks):
            for j in range(dm.nblocks):
                block = dense[bounds[i]:bounds[i + 1], bounds[j]:bounds[j + 1]]
                local = np.flatnonzero((block != 0).any(axis=0))
                info = dm.block(i, j)
                np.testing.assert_array_equal(info.nnz_cols_local, local)
                np.testing.assert_array_equal(info.nnz_cols_global,
                                              local + bounds[j])

    def test_compact_blocks_reassemble_the_product(self, blocked):
        adj, dm = blocked
        h = np.random.default_rng(adj.shape[0]).normal(size=(adj.shape[0], 3))
        expected = adj @ h
        bounds = dm.dist.bounds
        for i in range(dm.nblocks):
            acc = np.zeros((dm.dist.block_size(i), 3))
            for j in range(dm.nblocks):
                info = dm.block(i, j)
                acc += info.compact @ h[bounds[j]:bounds[j + 1]][
                    info.nnz_cols_local]
            np.testing.assert_allclose(acc, expected[bounds[i]:bounds[i + 1]],
                                       atol=1e-12)

    def test_full_block_is_the_direct_slice(self, blocked):
        adj, dm = blocked
        bounds = dm.dist.bounds
        for i in range(dm.nblocks):
            for j in range(dm.nblocks):
                info = dm.block(i, j)
                assert info.compact.shape == (dm.dist.block_size(i),
                                              info.n_needed_rows)
                assert not info.full_materialized
                direct = adj[bounds[i]:bounds[i + 1], bounds[j]:bounds[j + 1]]
                np.testing.assert_array_equal(info.full.toarray(),
                                              direct.toarray())
                assert info.full_materialized
                assert np.shares_memory(info.full.data, info.compact.data) \
                    or info.nnz == 0

    def test_needed_rows_never_exceed_oblivious(self, blocked):
        adj, dm = blocked
        needed = dm.needed_rows_matrix()
        sizes = dm.dist.block_sizes
        assert np.all(np.diag(needed) == 0)
        # The oblivious algorithm ships all of block j to every i != j.
        assert np.all(needed <= sizes[None, :])
        assert sum(dm.block(i, j).nnz for i in range(dm.nblocks)
                   for j in range(dm.nblocks)) == adj.nnz
        if dm.nblocks == 1:
            assert needed.sum() == 0


class TestBlockRowDistribution:
    def test_uniform_sizes(self):
        dist = BlockRowDistribution.uniform(10, 3)
        assert dist.block_sizes.tolist() == [4, 3, 3]
        assert dist.bounds.tolist() == [0, 4, 7, 10]
        assert dist.n == 10 and dist.nblocks == 3

    def test_from_partition_sizes(self):
        dist = BlockRowDistribution.from_partition([2, 5, 3])
        assert dist.block_range(1) == (2, 7)
        assert dist.block_size(2) == 3

    def test_equality(self):
        assert BlockRowDistribution([2, 2]) == BlockRowDistribution([2, 2])
        assert BlockRowDistribution([2, 2]) != BlockRowDistribution([1, 3])

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockRowDistribution([])
        with pytest.raises(ValueError):
            BlockRowDistribution([3, -1])
        with pytest.raises(ValueError):
            BlockRowDistribution.uniform(5, 3).block_range(3)


class TestSplitBlockRow:
    def test_nnz_cols_identify_needed_rows(self):
        # Handcrafted 2x6 block row with nonzeros in columns 0, 3, 5.
        block = sp.csr_matrix(np.array([[1.0, 0, 0, 2.0, 0, 0],
                                        [0, 0, 0, 0, 0, 3.0]]))
        infos = split_block_row(block, [0, 2, 4, 6])
        assert infos[0].nnz_cols_global.tolist() == [0]
        assert infos[1].nnz_cols_global.tolist() == [3]
        assert infos[2].nnz_cols_global.tolist() == [5]
        assert infos[1].nnz_cols_local.tolist() == [1]
        assert infos[2].nnz_cols_local.tolist() == [1]

    def test_compact_times_packed_equals_full_times_block(self, matrix):
        dist = BlockRowDistribution.uniform(48, 4)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(48, 5))
        lo, hi = dist.block_range(1)
        infos = split_block_row(matrix[lo:hi, :], dist.bounds)
        for j, info in enumerate(infos):
            jlo, jhi = dist.block_range(j)
            h_j = h[jlo:jhi]
            full_result = info.full @ h_j
            compact_result = info.compact @ h_j[info.nnz_cols_local]
            np.testing.assert_allclose(full_result, compact_result, atol=1e-12)

    def test_needed_rows_counts(self, matrix):
        dist = BlockRowDistribution.uniform(48, 4)
        lo, hi = dist.block_range(0)
        infos = split_block_row(matrix[lo:hi, :], dist.bounds)
        for info in infos:
            assert info.n_needed_rows == info.nnz_cols_global.size
            assert info.nnz == info.compact.nnz == info.full.nnz

    def test_bounds_validation(self, matrix):
        block = matrix[:10, :]
        with pytest.raises(ValueError):
            split_block_row(block, [0, 10])       # does not end at n
        with pytest.raises(ValueError):
            split_block_row(block, [5, 48])       # does not start at 0
        with pytest.raises(ValueError):
            split_block_row(block, [0, 30, 20, 48])  # decreasing


class TestDistSparseMatrix:
    def test_construction_and_reassembly(self, matrix):
        dist = BlockRowDistribution.uniform(48, 4)
        dm = DistSparseMatrix(matrix, dist)
        assert dm.nblocks == 4
        assert dm.nnz == matrix.nnz
        np.testing.assert_allclose(dm.to_dense_global(), matrix.toarray(),
                                   atol=1e-12)

    def test_block_access(self, matrix):
        dist = BlockRowDistribution.uniform(48, 4)
        dm = DistSparseMatrix(matrix, dist)
        info = dm.block(1, 2)
        assert info.block == 2
        np.testing.assert_array_equal(dm.nnz_cols(1, 2), info.nnz_cols_local)

    def test_needed_rows_matrix_zero_diagonal(self, matrix):
        dm = DistSparseMatrix(matrix, BlockRowDistribution.uniform(48, 4))
        needed = dm.needed_rows_matrix()
        assert needed.shape == (4, 4)
        assert np.all(np.diag(needed) == 0)
        # Each off-diagonal count is bounded by the destination block size.
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert needed[i, j] <= dm.dist.block_size(j)

    def test_shape_validation(self, matrix):
        with pytest.raises(ValueError):
            DistSparseMatrix(matrix[:10, :], BlockRowDistribution.uniform(10, 2))
        with pytest.raises(ValueError):
            DistSparseMatrix(matrix, BlockRowDistribution.uniform(40, 4))


class TestDistDenseMatrix:
    def test_from_global_roundtrip(self):
        dist = BlockRowDistribution([3, 4, 5])
        mat = np.arange(12 * 2, dtype=np.float64).reshape(12, 2)
        dm = DistDenseMatrix.from_global(mat, dist)
        assert dm.width == 2
        np.testing.assert_array_equal(dm.to_global(), mat)
        np.testing.assert_array_equal(dm.block(1), mat[3:7])

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_from_global_converts_into_owned_blocks(self, dtype):
        """Each block is converted on its own: bit-identical to casting
        the global matrix first, and never a view of the caller's."""
        dist = BlockRowDistribution([3, 4, 5])
        mat = np.random.default_rng(0).standard_normal((12, 5))
        dm = DistDenseMatrix.from_global(mat, dist, dtype=dtype)
        whole = mat.astype(dtype)
        for i, (lo, hi) in enumerate(((0, 3), (3, 7), (7, 12))):
            assert dm.block(i).dtype == np.dtype(dtype)
            assert dm.block(i).tobytes() == whole[lo:hi].tobytes()
            assert not np.shares_memory(dm.block(i), mat)

    def test_block_shape_validation(self):
        dist = BlockRowDistribution([2, 2])
        with pytest.raises(ValueError):
            DistDenseMatrix([np.zeros((2, 3)), np.zeros((1, 3))], dist)
        with pytest.raises(ValueError):
            DistDenseMatrix([np.zeros((2, 3)), np.zeros((2, 4))], dist)
        with pytest.raises(ValueError):
            DistDenseMatrix([np.zeros((2, 3))], dist)
        with pytest.raises(ValueError):
            DistDenseMatrix.from_global(np.zeros((5, 2)), dist)

    def test_like_builds_over_same_distribution(self):
        dist = BlockRowDistribution([2, 3])
        dm = DistDenseMatrix.from_global(np.ones((5, 2)), dist)
        other = dm.like([np.zeros((2, 4)), np.zeros((3, 4))])
        assert other.dist == dist
        assert other.width == 4
