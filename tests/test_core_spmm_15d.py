"""Tests for the 1.5D distributed SpMM algorithms and the process grid."""

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.comm.simulator import SimCommunicator
from repro.core import (BlockRowDistribution, DistDenseMatrix, DistSparseMatrix,
                        ProcessGrid, SpmmEngine, spmm)
from repro.core.spmm_15d import _stage_block
from repro.graphs import gcn_normalize
from repro.graphs.generators import erdos_renyi_graph


def make_problem(n, nblocks, f=5, seed=0):
    adj = gcn_normalize(erdos_renyi_graph(n, avg_degree=6, seed=seed))
    dist = BlockRowDistribution.uniform(n, nblocks)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, f))
    return adj, DistSparseMatrix(adj, dist), \
        DistDenseMatrix.from_global(h, dist), h


class TestProcessGrid:
    def test_valid_grid(self):
        grid = ProcessGrid(nranks=8, replication=2)
        assert grid.nrows == 4
        assert grid.stages == 2

    def test_rank_and_coords_roundtrip(self):
        grid = ProcessGrid(nranks=8, replication=2)
        for r in range(8):
            i, j = grid.coords(r)
            assert grid.rank(i, j) == r

    def test_groups(self):
        grid = ProcessGrid(nranks=8, replication=2)
        assert grid.row_group(1) == [2, 3]
        assert grid.col_group(0) == [0, 2, 4, 6]
        assert grid.col_group(1) == [1, 3, 5, 7]

    @pytest.mark.parametrize("p,c", [(1, 1), (4, 1), (4, 2), (8, 2),
                                     (9, 3), (16, 4), (18, 3)])
    def test_groups_tile_the_grid(self, p, c):
        """Row groups and column groups each partition the ranks, meet in
        exactly one rank, and the c columns split the P/c block rows into
        s = P/c^2 contiguous stages each."""
        grid = ProcessGrid(nranks=p, replication=c)
        assert grid.nrows * c == p and grid.stages * c == grid.nrows
        rows = [grid.row_group(i) for i in range(grid.nrows)]
        cols = [grid.col_group(j) for j in range(c)]
        assert sorted(r for g in rows for r in g) == list(range(p))
        assert sorted(r for g in cols for r in g) == list(range(p))
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                assert set(row) & set(col) == {grid.rank(i, j)}
                assert grid.coords(grid.rank(i, j)) == (i, j)
        consumed = [_stage_block(grid, col, k) for col in range(c)
                    for k in range(grid.stages)]
        assert consumed == list(range(grid.nrows))

    def test_invalid_replication(self):
        with pytest.raises(ValueError):
            ProcessGrid(nranks=8, replication=3)    # does not divide
        with pytest.raises(ValueError):
            ProcessGrid(nranks=8, replication=4)    # c does not divide P/c
        with pytest.raises(ValueError):
            ProcessGrid(nranks=8, replication=0)

    def test_out_of_range_access(self):
        grid = ProcessGrid(nranks=4, replication=2)
        with pytest.raises(ValueError):
            grid.rank(5, 0)
        with pytest.raises(ValueError):
            grid.coords(4)

    def test_c1_degenerates_to_1d_layout(self):
        grid = ProcessGrid(nranks=4, replication=1)
        assert grid.nrows == 4
        assert grid.stages == 4
        assert grid.row_group(2) == [2]


class TestCorrectness:
    @pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (8, 1), (8, 2),
                                     (9, 3), (16, 2), (16, 4), (18, 3)])
    def test_oblivious_matches_serial(self, p, c):
        grid = ProcessGrid(nranks=p, replication=c)
        adj, dm, dh, h = make_problem(n=64, nblocks=grid.nrows, seed=1)
        comm = make_communicator(p)
        result = spmm(dm, dh, comm, algorithm="1.5d", sparsity_aware=False,
                      grid=grid)
        np.testing.assert_allclose(result.to_global(), adj @ h, atol=1e-10)

    @pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (8, 1), (8, 2),
                                     (9, 3), (16, 2), (16, 4), (18, 3)])
    def test_sparsity_aware_matches_serial(self, p, c):
        grid = ProcessGrid(nranks=p, replication=c)
        adj, dm, dh, h = make_problem(n=64, nblocks=grid.nrows, seed=2)
        comm = make_communicator(p)
        result = spmm(dm, dh, comm, algorithm="1.5d", grid=grid)
        np.testing.assert_allclose(result.to_global(), adj @ h, atol=1e-10)

    def test_15d_c1_matches_1d(self):
        """With replication factor 1 the 1.5D algorithm computes the same
        result as the 1D algorithm (the paper notes they coincide)."""
        p = 4
        grid = ProcessGrid(nranks=p, replication=1)
        adj, dm, dh, h = make_problem(n=48, nblocks=p, seed=3)
        a = spmm(dm, dh, make_communicator(p), algorithm="1.5d", grid=grid)
        b = spmm(dm, dh, make_communicator(p))
        np.testing.assert_allclose(a.to_global(), b.to_global(), atol=1e-10)

    def test_grid_matrix_mismatch_rejected(self):
        grid = ProcessGrid(nranks=8, replication=2)   # 4 block rows
        adj, dm, dh, h = make_problem(n=64, nblocks=8, seed=0)
        with pytest.raises(ValueError):
            spmm(dm, dh, make_communicator(8), algorithm="1.5d",
                 sparsity_aware=False, grid=grid)

    def test_comm_size_mismatch_rejected(self):
        grid = ProcessGrid(nranks=8, replication=2)
        adj, dm, dh, h = make_problem(n=64, nblocks=4, seed=0)
        with pytest.raises(ValueError):
            spmm(dm, dh, make_communicator(4), algorithm="1.5d", grid=grid)


class TestCommunicationBehaviour:
    def test_sparsity_aware_sends_fewer_bytes_for_h(self):
        grid = ProcessGrid(nranks=8, replication=2)
        adj, dm, dh, _ = make_problem(n=96, nblocks=4, seed=4)
        comm_ob = make_communicator(8)
        comm_sa = make_communicator(8)
        spmm(dm, dh, comm_ob, algorithm="1.5d", sparsity_aware=False,
             grid=grid)
        spmm(dm, dh, comm_sa, algorithm="1.5d", grid=grid)
        assert comm_sa.stats.total_bytes("alltoall") <= \
            comm_ob.stats.total_bytes("bcast")

    def test_allreduce_volume_identical_between_variants(self):
        grid = ProcessGrid(nranks=8, replication=2)
        adj, dm, dh, _ = make_problem(n=96, nblocks=4, seed=5)
        comm_ob = make_communicator(8)
        comm_sa = make_communicator(8)
        spmm(dm, dh, comm_ob, algorithm="1.5d", sparsity_aware=False,
             grid=grid)
        spmm(dm, dh, comm_sa, algorithm="1.5d", grid=grid)
        assert comm_ob.stats.total_bytes("allreduce") == \
            comm_sa.stats.total_bytes("allreduce")
        assert comm_ob.stats.total_bytes("allreduce") > 0

    @pytest.mark.parametrize("p,c", [(4, 2), (9, 3), (16, 4), (18, 3)])
    def test_modes_differ_only_in_the_h_exchange(self, p, c):
        """At every replicated grid both modes all-reduce the same
        partial sums and agree on the product; only the H exchange
        differs, and the sparsity-aware one moves no more bytes."""
        grid = ProcessGrid(nranks=p, replication=c)
        adj, dm, dh, h = make_problem(n=72, nblocks=grid.nrows, seed=9)
        comm_ob = make_communicator(p)
        comm_sa = make_communicator(p)
        z_ob = spmm(dm, dh, comm_ob, algorithm="1.5d", sparsity_aware=False,
                    grid=grid)
        z_sa = spmm(dm, dh, comm_sa, algorithm="1.5d", grid=grid)
        np.testing.assert_allclose(z_sa.to_global(), z_ob.to_global(),
                                   atol=1e-10)
        assert comm_ob.stats.total_bytes("allreduce") == \
            comm_sa.stats.total_bytes("allreduce") > 0
        assert comm_sa.stats.total_bytes("alltoall") <= \
            comm_ob.stats.total_bytes("bcast")

    def test_no_allreduce_traffic_when_c_is_1(self):
        grid = ProcessGrid(nranks=4, replication=1)
        adj, dm, dh, _ = make_problem(n=48, nblocks=4, seed=6)
        comm = make_communicator(4)
        spmm(dm, dh, comm, algorithm="1.5d", grid=grid)
        # A single-member group all-reduce moves no data.
        assert comm.stats.total_bytes("allreduce") == 0

    def test_replication_reduces_exchange_volume(self):
        """Increasing c reduces the amount of H data moved between ranks
        (each replica handles fewer stages) — the communication-avoiding
        effect of the 1.5D algorithm."""
        adj, _, _, h = make_problem(n=96, nblocks=1, seed=7)
        volumes = {}
        for c in (1, 2):
            nranks = 8
            grid = ProcessGrid(nranks=nranks, replication=c)
            dist = BlockRowDistribution.uniform(96, grid.nrows)
            dm = DistSparseMatrix(adj, dist)
            dh = DistDenseMatrix.from_global(h, dist)
            comm = make_communicator(nranks)
            spmm(dm, dh, comm, algorithm="1.5d", sparsity_aware=False,
                 grid=grid)
            volumes[c] = comm.stats.total_bytes("bcast")
        assert volumes[2] < volumes[1]


class _PerturbingSim(SimCommunicator):
    """A simulator whose point-to-point transport corrupts every payload
    that crosses ranks (adds 1); blocking and nonblocking exchanges share
    the one lowering."""

    def _lower_exchange(self, category, messages, sync):
        ranks, times, delivered = super()._lower_exchange(category, messages,
                                                          sync)
        return ranks, times, {
            (src, dst): payload if src == dst else payload + 1.0
            for (src, dst), payload in delivered.items()}


class TestDeliveredPayloads:
    @pytest.mark.parametrize("pipeline_depth", (1, 2))
    def test_sparsity_aware_multiplies_what_the_transport_delivered(
            self, pipeline_depth):
        """The multiply reads the exchange's result, not the sender's pack
        buffer: a transport that corrupts payloads changes the product."""
        grid = ProcessGrid(nranks=8, replication=2)
        adj, dm, dh, h = make_problem(n=96, nblocks=grid.nrows, seed=8)
        results = []
        for comm in (SimCommunicator(8), _PerturbingSim(8)):
            op = SpmmEngine(comm, algorithm="1.5d", grid=grid).compile(
                dm, pipeline_depth=pipeline_depth)
            results.append(op(dh).to_global())
        clean, corrupted = results
        np.testing.assert_allclose(clean, adj @ h, atol=1e-10)
        assert np.abs(corrupted - clean).max() > 0.1
