"""Property-based tests (hypothesis) for the core data structures and
invariants.

These cover the properties the whole reproduction rests on:

* the sparsity-aware SpMM is exact for arbitrary sparse matrices, block
  distributions and feature widths;
* the sparsity-aware algorithm never communicates more than the oblivious
  one, and its volume equals the NnzCols prediction;
* partition metrics are internally consistent for arbitrary partitions;
* the volume-refinement bookkeeping stays consistent under arbitrary move
  sequences;
* the collective cost formulas are monotone in message size.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm import make_communicator, perlmutter
from repro.comm.collectives import allreduce_time, broadcast_time
from repro.core import (BlockRowDistribution, DistDenseMatrix, DistSparseMatrix,
                        predicted_bytes_per_spmm, spmm)
from repro.partition import communication_volumes_1d, edgecut
from repro.partition.refine import edgecut_refine, weighted_edgecut
from repro.partition.volume_refine import VolumeState

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def sparse_graph(draw, max_n=40):
    """Random symmetric sparse matrix with zero diagonal."""
    n = draw(st.integers(min_value=4, max_value=max_n))
    density = draw(st.floats(min_value=0.02, max_value=0.3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    mat = sp.random(n, n, density=density, random_state=rng, format="csr")
    mat = mat + mat.T
    mat.setdiag(0)
    mat.eliminate_zeros()
    return mat.tocsr()


@st.composite
def graph_with_blocks(draw):
    """A graph plus a random block-row distribution and feature width."""
    adj = draw(sparse_graph())
    n = adj.shape[0]
    nblocks = draw(st.integers(min_value=1, max_value=min(6, n)))
    f = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=1000))
    # Random positive block sizes summing to n.
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=nblocks - 1,
                              replace=False)) if nblocks > 1 else np.array([], int)
    sizes = np.diff(np.concatenate([[0], cuts, [n]]))
    return adj, sizes, f, seed


@st.composite
def graph_with_partition(draw):
    """A graph, with self-loops on a random subset of vertices or none,
    plus a random partition vector."""
    adj = draw(sparse_graph())
    n = adj.shape[0]
    nparts = draw(st.integers(min_value=1, max_value=min(6, n)))
    seed = draw(st.integers(min_value=0, max_value=1000))
    rng = np.random.default_rng(seed)
    parts = rng.integers(0, nparts, size=n)
    if draw(st.booleans()):
        adj = (adj + sp.diags((rng.random(n) < 0.5).astype(float))).tocsr()
        adj.eliminate_zeros()
    return adj, parts, nparts


# ----------------------------------------------------------------------
# Distributed SpMM properties
# ----------------------------------------------------------------------
class TestSpMMProperties:
    @given(problem=graph_with_blocks())
    @settings(**SETTINGS)
    def test_sparsity_aware_spmm_is_exact(self, problem):
        adj, sizes, f, seed = problem
        dist = BlockRowDistribution(sizes)
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(adj.shape[0], f))
        dm = DistSparseMatrix(adj, dist)
        dh = DistDenseMatrix.from_global(h, dist)
        comm = make_communicator(dist.nblocks)
        out = spmm(dm, dh, comm)
        np.testing.assert_allclose(out.to_global(), adj @ h, atol=1e-9)

    @given(problem=graph_with_blocks())
    @settings(**SETTINGS)
    def test_sparsity_aware_never_communicates_more(self, problem):
        adj, sizes, f, seed = problem
        dist = BlockRowDistribution(sizes)
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(adj.shape[0], f))
        dm = DistSparseMatrix(adj, dist)
        dh = DistDenseMatrix.from_global(h, dist)
        comm_sa = make_communicator(dist.nblocks)
        comm_ob = make_communicator(dist.nblocks)
        spmm(dm, dh, comm_sa)
        spmm(dm, dh, comm_ob, sparsity_aware=False)
        assert comm_sa.events.total_bytes() <= comm_ob.events.total_bytes()

    @given(problem=graph_with_blocks())
    @settings(**SETTINGS)
    def test_measured_volume_equals_prediction(self, problem):
        adj, sizes, f, seed = problem
        dist = BlockRowDistribution(sizes)
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(adj.shape[0], f))
        dm = DistSparseMatrix(adj, dist)
        dh = DistDenseMatrix.from_global(h, dist)
        comm = make_communicator(dist.nblocks)
        spmm(dm, dh, comm)
        predicted = predicted_bytes_per_spmm(dm, f, sparsity_aware=True)
        measured = comm.events.bytes_sent_by_rank(dist.nblocks,
                                                  category="alltoall")
        np.testing.assert_array_equal(measured, predicted)


# ----------------------------------------------------------------------
# Partition metric properties
# ----------------------------------------------------------------------
class TestPartitionProperties:
    @given(problem=graph_with_partition())
    @settings(**SETTINGS)
    def test_volume_consistency(self, problem):
        adj, parts, nparts = problem
        vol = communication_volumes_1d(adj, parts, nparts)
        assert vol.send_volume.sum() == vol.recv_volume.sum() == vol.total
        assert np.all(vol.send_volume >= 0)
        assert np.all(np.diag(vol.pairwise) == 0)
        assert vol.total <= 2 * edgecut(adj, parts)
        # Each part's send volume is bounded by (its vertices) x (nparts-1).
        sizes = np.bincount(parts, minlength=nparts)
        assert np.all(vol.send_volume <= sizes * max(0, nparts - 1))

    @given(problem=graph_with_partition())
    @settings(**SETTINGS)
    def test_refinement_never_increases_edgecut(self, problem):
        # The refiner's move gain is computed on edge *weights*, so the
        # invariant is on the weighted cut; the unweighted edge count can
        # legitimately grow when a heavy edge is traded for several light
        # ones (hypothesis found such a graph).
        adj, parts, nparts = problem
        before = weighted_edgecut(adj, parts)
        refined, _ = edgecut_refine(adj, parts, nparts, balance_factor=1.5,
                                    max_passes=3, seed=0)
        assert weighted_edgecut(adj, refined) <= before + 1e-9
        # Still a valid partition vector.
        assert refined.shape == parts.shape
        assert refined.min() >= 0 and refined.max() < nparts

    @given(problem=graph_with_partition(),
           moves=st.lists(st.tuples(st.integers(0, 10**6),
                                    st.integers(0, 10**6)),
                          min_size=1, max_size=8))
    @settings(**SETTINGS)
    def test_volume_state_consistent_under_random_moves(self, problem, moves):
        adj, parts, nparts = problem
        if nparts < 2:
            return
        csr = adj.tocsr()
        state = VolumeState.build(csr, parts, nparts, np.ones(adj.shape[0]))
        for raw_v, raw_q in moves:
            v = raw_v % adj.shape[0]
            q = raw_q % nparts
            if q == state.parts[v]:
                continue
            delta = state.move_deltas(csr.indptr, csr.indices, v, q)
            state.apply_move(csr.indptr, csr.indices, v, q,
                             np.ones(adj.shape[0]), delta)
        rebuilt = VolumeState.build(csr, state.parts, nparts,
                                    np.ones(adj.shape[0]))
        np.testing.assert_array_equal(state.send_volume, rebuilt.send_volume)
        np.testing.assert_array_equal(state.recv_volume, rebuilt.recv_volume)
        np.testing.assert_array_equal(state.send_count, rebuilt.send_count)
        np.testing.assert_array_equal(state.nbr_part_count,
                                      rebuilt.nbr_part_count)


# ----------------------------------------------------------------------
# Cost model properties
# ----------------------------------------------------------------------
class TestCostModelProperties:
    @given(nbytes=st.integers(min_value=1, max_value=10**9),
           extra=st.integers(min_value=1, max_value=10**6),
           group=st.integers(min_value=2, max_value=64))
    @settings(**SETTINGS)
    def test_collective_costs_monotone_in_bytes(self, nbytes, extra, group):
        machine = perlmutter()
        ranks = list(range(group))
        assert broadcast_time(machine, ranks, nbytes + extra) >= \
            broadcast_time(machine, ranks, nbytes)
        assert allreduce_time(machine, ranks, nbytes + extra) >= \
            allreduce_time(machine, ranks, nbytes)

    @given(nbytes=st.integers(min_value=0, max_value=10**8))
    @settings(**SETTINGS)
    def test_costs_are_non_negative(self, nbytes):
        machine = perlmutter()
        assert broadcast_time(machine, [0, 1, 2], nbytes) >= 0.0
        assert allreduce_time(machine, [0, 5, 9], nbytes) >= 0.0


# ----------------------------------------------------------------------
# Simulator conservation properties
# ----------------------------------------------------------------------
class TestSimulatorProperties:
    @given(sizes=st.lists(st.integers(min_value=0, max_value=64),
                          min_size=4, max_size=4),
           f=st.integers(min_value=1, max_value=6))
    @settings(**SETTINGS)
    def test_alltoallv_conserves_bytes(self, sizes, f):
        """Total bytes logged equal the bytes handed to the exchange, and
        every payload is delivered unchanged."""
        p = 2
        comm = make_communicator(p)
        rng = np.random.default_rng(0)
        send = [[None, rng.normal(size=(sizes[0], f))],
                [rng.normal(size=(sizes[1], f)), None]]
        recv = comm.alltoallv(send)
        expected = sum(arr.nbytes for row in send for arr in row
                       if arr is not None and arr.size)
        assert comm.events.total_bytes() == expected
        if send[1][0] is not None and send[1][0].size:
            np.testing.assert_array_equal(recv[0][1], send[1][0])
