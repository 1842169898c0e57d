"""Tests for the 1D distributed SpMM algorithms (sparsity-oblivious and
sparsity-aware)."""

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.core import (BlockRowDistribution, DistDenseMatrix, DistSparseMatrix,
                        spmm)
from repro.graphs import gcn_normalize
from repro.graphs.generators import community_ring_graph, erdos_renyi_graph


def make_problem(n=60, p=4, f=7, seed=0, generator=erdos_renyi_graph,
                 **kwargs):
    adj = gcn_normalize(generator(n, avg_degree=6, seed=seed, **kwargs))
    dist = BlockRowDistribution.uniform(n, p)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, f))
    return (adj, DistSparseMatrix(adj, dist),
            DistDenseMatrix.from_global(h, dist), h)


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8])
    def test_oblivious_matches_serial(self, p):
        adj, dm, dh, h = make_problem(p=p)
        comm = make_communicator(p)
        result = spmm(dm, dh, comm, sparsity_aware=False)
        np.testing.assert_allclose(result.to_global(), adj @ h, atol=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8])
    def test_sparsity_aware_matches_serial(self, p):
        adj, dm, dh, h = make_problem(p=p)
        comm = make_communicator(p)
        result = spmm(dm, dh, comm)
        np.testing.assert_allclose(result.to_global(), adj @ h, atol=1e-10)

    def test_both_algorithms_agree(self):
        adj, dm, dh, h = make_problem(p=5, seed=3)
        a = spmm(dm, dh, make_communicator(5), sparsity_aware=False)
        b = spmm(dm, dh, make_communicator(5))
        np.testing.assert_allclose(a.to_global(), b.to_global(), atol=1e-10)

    def test_variable_block_sizes(self):
        n, f = 50, 4
        adj = gcn_normalize(erdos_renyi_graph(n, avg_degree=5, seed=1))
        dist = BlockRowDistribution([5, 20, 10, 15])
        rng = np.random.default_rng(0)
        h = rng.normal(size=(n, f))
        dm = DistSparseMatrix(adj, dist)
        dh = DistDenseMatrix.from_global(h, dist)
        result = spmm(dm, dh, make_communicator(4))
        np.testing.assert_allclose(result.to_global(), adj @ h, atol=1e-10)

    def test_mismatched_communicator_rejected(self):
        adj, dm, dh, _ = make_problem(p=4)
        with pytest.raises(ValueError):
            spmm(dm, dh, make_communicator(3))

    def test_mismatched_distribution_rejected(self):
        adj, dm, _, h = make_problem(p=4)
        other = DistDenseMatrix.from_global(h, BlockRowDistribution.uniform(60, 3))
        with pytest.raises(ValueError):
            spmm(dm, other, make_communicator(4), sparsity_aware=False)


class TestCommunicationVolume:
    def test_sparsity_aware_sends_no_more_than_oblivious(self):
        adj, dm, dh, _ = make_problem(n=80, p=5, seed=2)
        comm_ob = make_communicator(5)
        comm_sa = make_communicator(5)
        spmm(dm, dh, comm_ob, sparsity_aware=False)
        spmm(dm, dh, comm_sa)
        assert comm_sa.stats.total_bytes() <= comm_ob.stats.total_bytes()

    def test_sparsity_aware_volume_matches_nnzcols_prediction(self):
        adj, dm, dh, _ = make_problem(n=80, p=5, seed=4)
        comm = make_communicator(5)
        spmm(dm, dh, comm)
        f = dh.width
        predicted = dm.needed_rows_matrix().sum() * f * 8
        assert comm.stats.total_bytes("alltoall") == predicted

    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_exchange_volume_is_the_needed_rows_at_every_rank_count(self, p):
        """The sparsity-aware all-to-all moves exactly the rows the
        nonzero columns name, whether or not p divides n."""
        adj, dm, dh, _ = make_problem(n=80, p=p, seed=8)
        comm = make_communicator(p)
        spmm(dm, dh, comm)
        predicted = int(dm.needed_rows_matrix().sum()) * dh.width * 8
        assert comm.stats.total_bytes("alltoall") == predicted
        assert comm.stats.total_bytes("bcast") == 0

    def test_oblivious_volume_is_full_blocks(self):
        adj, dm, dh, _ = make_problem(n=80, p=4, seed=5)
        comm = make_communicator(4)
        spmm(dm, dh, comm, sparsity_aware=False)
        f = dh.width
        n = 80
        expected = sum(dm.dist.block_size(j) * f * 8 * 3 for j in range(4))
        assert comm.stats.total_bytes("bcast") == expected

    def test_block_diagonal_graph_is_communication_free(self):
        """If the graph has no edges across blocks, the sparsity-aware
        algorithm must send nothing at all — the 'communication-free'
        extreme the paper reaches on Protein."""
        import scipy.sparse as sp
        blocks = [gcn_normalize(erdos_renyi_graph(20, avg_degree=4, seed=s))
                  for s in range(3)]
        adj = sp.block_diag(blocks, format="csr")
        dist = BlockRowDistribution.uniform(60, 3)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(60, 5))
        dm = DistSparseMatrix(adj, dist)
        dh = DistDenseMatrix.from_global(h, dist)
        comm = make_communicator(3)
        result = spmm(dm, dh, comm)
        np.testing.assert_allclose(result.to_global(), adj @ h, atol=1e-12)
        assert comm.stats.total_bytes("alltoall") == 0
        # The oblivious algorithm still pays the full price.
        comm_ob = make_communicator(3)
        spmm(dm, dh, comm_ob, sparsity_aware=False)
        assert comm_ob.stats.total_bytes("bcast") > 0

    def test_categories_are_disjoint(self):
        adj, dm, dh, _ = make_problem(p=4, seed=6)
        comm = make_communicator(4)
        spmm(dm, dh, comm)
        assert comm.stats.total_bytes("bcast") == 0
        comm2 = make_communicator(4)
        spmm(dm, dh, comm2, sparsity_aware=False)
        assert comm2.stats.total_bytes("alltoall") == 0

    def test_compute_time_charged(self):
        adj, dm, dh, _ = make_problem(p=4, seed=7)
        comm = make_communicator(4)
        spmm(dm, dh, comm)
        assert comm.timeline.breakdown()["local"] > 0
