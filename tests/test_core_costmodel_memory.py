"""Tests for the analytical cost model and the memory/OOM model."""

import numpy as np
import pytest

from repro.comm import make_communicator, perlmutter
from repro.core import (BlockRowDistribution, DistDenseMatrix, DistSparseMatrix,
                        DistTrainConfig, MemoryEstimate,
                        epoch_cost, epoch_spmm_widths, estimate_rank_memory,
                        fits_in_memory,
                        spmm, spmm_cost_15d_oblivious,
                        spmm_cost_15d_sparsity_aware, spmm_cost_1d_oblivious,
                        spmm_cost_1d_sparsity_aware)
from repro.core.analysis import ELEMENT_BYTES
from repro.graphs import (community_ring_graph, erdos_renyi_graph,
                          gcn_normalize)
from repro.partition import get_partitioner
from repro.plan import Planner


@pytest.fixture(scope="module")
def graph():
    return gcn_normalize(community_ring_graph(80, avg_degree=8,
                                              n_communities=8,
                                              p_external=0.05, seed=2))


def dist_matrix(graph, nblocks):
    dist = BlockRowDistribution.uniform(graph.shape[0], nblocks)
    return DistSparseMatrix(graph, dist)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestSpMMCosts:
    def test_sparsity_aware_never_costs_more_bandwidth(self, graph):
        for p in (2, 4, 8):
            matrix = dist_matrix(graph, p)
            aware = spmm_cost_1d_sparsity_aware(matrix, 16, "perlmutter")
            oblivious = spmm_cost_1d_oblivious(matrix, 16, "perlmutter")
            # The SA bandwidth term uses (P-1) * max pairwise cut, which by
            # construction is at most the full block-row broadcast volume.
            assert aware.bandwidth_s <= oblivious.bandwidth_s * (1 + 1e-9)

    def test_oblivious_bandwidth_independent_of_p(self, graph):
        costs = [spmm_cost_1d_oblivious(dist_matrix(graph, p), 16,
                                        "perlmutter").bandwidth_s
                 for p in (2, 4, 8)]
        assert costs[0] == pytest.approx(costs[1], rel=1e-9)
        assert costs[1] == pytest.approx(costs[2], rel=1e-9)

    def test_partitioning_reduces_predicted_sa_cost(self, graph):
        """A good partition shrinks cut_P(G) and hence the predicted SA time."""
        p = 8
        natural = dist_matrix(graph, p)
        part = get_partitioner("gvb", seed=0).partition(graph, p)
        from repro.graphs.adjacency import (permutation_from_parts,
                                            symmetric_permutation)
        perm = permutation_from_parts(part.parts, p)
        permuted = symmetric_permutation(graph, perm)
        partitioned = DistSparseMatrix(
            permuted, BlockRowDistribution.from_partition(part.part_sizes()))
        cost_natural = spmm_cost_1d_sparsity_aware(natural, 16, "perlmutter")
        cost_partitioned = spmm_cost_1d_sparsity_aware(partitioned, 16,
                                                       "perlmutter")
        assert cost_partitioned.bandwidth_s <= cost_natural.bandwidth_s

    def test_feature_width_scales_bandwidth_linearly(self, graph):
        matrix = dist_matrix(graph, 4)
        narrow = spmm_cost_1d_sparsity_aware(matrix, 8, "perlmutter")
        wide = spmm_cost_1d_sparsity_aware(matrix, 16, "perlmutter")
        assert wide.bandwidth_s == pytest.approx(2 * narrow.bandwidth_s)
        assert wide.latency_s == pytest.approx(narrow.latency_s)

    def test_single_rank_is_communication_free(self, graph):
        matrix = dist_matrix(graph, 1)
        cost = spmm_cost_1d_sparsity_aware(matrix, 16, "perlmutter")
        assert cost.communication_s == 0.0
        assert cost.compute_s > 0.0

    def test_15d_replication_reduces_bandwidth_term(self, graph):
        p = 16
        cost_c2 = spmm_cost_15d_sparsity_aware(dist_matrix(graph, p // 2), 16,
                                               p, 2, "perlmutter")
        cost_c4 = spmm_cost_15d_sparsity_aware(dist_matrix(graph, p // 4), 16,
                                               p, 4, "perlmutter")
        # More replication -> fewer stages -> smaller point-to-point term,
        # at the price of a bigger all-reduce.
        assert cost_c4.bandwidth_s <= cost_c2.bandwidth_s
        assert cost_c4.reduction_s >= cost_c2.reduction_s * 0.99

    def test_15d_validation(self, graph):
        with pytest.raises(ValueError):
            spmm_cost_15d_oblivious(dist_matrix(graph, 8), 16, 16, 3,
                                    "perlmutter")
        with pytest.raises(ValueError):
            spmm_cost_15d_sparsity_aware(dist_matrix(graph, 4), 16, 16, 2,
                                         "perlmutter")

    def test_invalid_feature_width(self, graph):
        with pytest.raises(ValueError):
            spmm_cost_1d_oblivious(dist_matrix(graph, 4), 0, "perlmutter")

    def test_breakdown_dict(self, graph):
        cost = spmm_cost_1d_sparsity_aware(dist_matrix(graph, 4), 16,
                                           "perlmutter")
        d = cost.as_dict()
        assert d["total_s"] == pytest.approx(cost.total_s)
        assert d["communication_s"] == pytest.approx(
            cost.latency_s + cost.bandwidth_s + cost.reduction_s)


class TestPredictedVsSimulated:
    def test_sa_bandwidth_prediction_brackets_simulated_alltoall_bytes(self, graph):
        """The model's bandwidth term uses the max pairwise cut; the
        simulator's per-rank all-to-all traffic must be consistent with it
        (no rank exchanges more than (P-1) * cut * f * 8 bytes)."""
        p, f = 8, 6
        matrix = dist_matrix(graph, p)
        dense = DistDenseMatrix.from_global(
            np.random.default_rng(0).normal(size=(graph.shape[0], f)),
            matrix.dist)
        comm = make_communicator(p, machine="perlmutter")
        spmm(matrix, dense, comm)
        cut = matrix.needed_rows_matrix().max()
        bound = (p - 1) * cut * f * ELEMENT_BYTES
        sends = comm.events.bytes_sent_by_rank(p, category="alltoall")
        assert sends.max() <= bound + 1e-6


class TestEpochCost:
    def test_epoch_cost_sums_two_spmms_per_layer(self, graph):
        matrix = dist_matrix(graph, 4)
        dims = [12, 16, 4]
        epoch = epoch_cost(matrix, dims, "perlmutter")
        singles = sum(
            spmm_cost_1d_sparsity_aware(matrix, f, "perlmutter").total_s
            for l in range(1, len(dims)) for f in (dims[l - 1], dims[l]))
        assert epoch.total_s == pytest.approx(singles)

    def test_cached_input_propagation_drops_the_layer0_forward(self, graph):
        dims = [12, 16, 4]
        # Layer 0 runs no SpMM once A X is kept (its forward is the
        # one-off, its backward reads the kept product); the output layer
        # propagates at min(16, 4) either way.
        assert epoch_spmm_widths(dims) == [12, 16, 16, 4]
        assert epoch_spmm_widths(dims, True) == [16, 4]
        assert epoch_spmm_widths([300, 16, 16, 24], True) == [16] * 4
        assert epoch_spmm_widths([5, 3], True) == []
        matrix = dist_matrix(graph, 4)
        for kwargs, single in (
                (dict(), lambda f: spmm_cost_1d_sparsity_aware(
                    matrix, f, "perlmutter")),
                (dict(algorithm="1.5d", nranks=8, replication=2),
                 lambda f: spmm_cost_15d_sparsity_aware(
                     matrix, f, 8, 2, "perlmutter"))):
            paper = epoch_cost(matrix, dims, "perlmutter", **kwargs)
            cached = epoch_cost(matrix, dims, "perlmutter",
                                cache_input_propagation=True, **kwargs)
            for term in ("latency_s", "bandwidth_s", "reduction_s",
                         "compute_s"):
                assert getattr(cached, term) == pytest.approx(
                    getattr(paper, term) - getattr(single(12), term)
                    - getattr(single(16), term))

    def test_epoch_cost_15d_requires_nranks(self, graph):
        with pytest.raises(ValueError):
            epoch_cost(dist_matrix(graph, 4), [8, 4], "perlmutter",
                       algorithm="1.5d")

    def test_epoch_cost_unknown_algorithm(self, graph):
        with pytest.raises(ValueError):
            epoch_cost(dist_matrix(graph, 4), [8, 4], "perlmutter",
                       algorithm="2.5d")

    def test_layer_dims_validation(self, graph):
        with pytest.raises(ValueError):
            epoch_cost(dist_matrix(graph, 4), [8], "perlmutter")


class TestCrossoverAndReplication:
    """The crossover p and the best 1.5D c are the planner's picks over a
    pinned space (what ``repro cost`` prints), priced on the raw graph."""

    @pytest.fixture(scope="class")
    def raw_graph(self):
        return community_ring_graph(80, avg_degree=8, n_communities=8,
                                    p_external=0.05, seed=2)

    @staticmethod
    def pick(adjacency, n_ranks, **space):
        return Planner("perlmutter", use_cache=False, **space).plan(
            adjacency, [16, 16, 4], n_ranks)

    def test_crossover_exists_for_community_graph(self, raw_graph):
        winners = [self.pick(raw_graph, p, algorithms=["1d"],
                             partitioners=[None]).plan
                   for p in (2, 4, 8, 16)]
        assert any(plan.sparsity_aware for plan in winners)
        assert [plan.n_ranks for plan in winners] == [2, 4, 8, 16]

    def test_crossover_none_when_never_better(self):
        # A dense-ish small graph at tiny p: SA pays p2p latency and the cut
        # is nearly the whole block, so it may never win; accept either
        # outcome but make sure the planner prices both variants cleanly.
        graph = erdos_renyi_graph(16, avg_degree=12, seed=0)
        report = self.pick(graph, 2, algorithms=["1d"], partitioners=[None])
        assert report.plan.n_ranks == 2
        assert sorted(row["mode"] for row in report.table) \
            == ["oblivious", "sparsity_aware"]

    def test_best_replication_factor(self, raw_graph):
        report = self.pick(raw_graph, 16, modes=["sparsity_aware"],
                           partitioners=[None], replication_candidates=(2, 4))
        assert report.plan.replication_factor in (1, 2, 4)
        assert {row["c"] for row in report.table} == {1, 2, 4}
        assert report.plan.simulated_s \
            == min(row["simulated_s"] for row in report.table)

    def test_best_replication_factor_no_candidates(self, raw_graph):
        with pytest.raises(ValueError):
            self.pick(raw_graph, 6, algorithms=["1.5d"],
                      replication_candidates=(4,))


# ----------------------------------------------------------------------
# Memory model
# ----------------------------------------------------------------------
class TestMemoryModel:
    def paper_scale_config(self, p, **kwargs):
        return DistTrainConfig(n_ranks=p, epochs=1, **kwargs)

    def test_estimate_fields_positive(self):
        est = estimate_rank_memory(100_000, 5_000_000, 300, 24,
                                   self.paper_scale_config(16))
        assert est.total_bytes > 0
        for value in est.as_dict().values():
            assert value >= 0

    def test_more_ranks_less_memory_per_rank(self):
        est4 = estimate_rank_memory(1_000_000, 50_000_000, 300, 24,
                                    self.paper_scale_config(4))
        est64 = estimate_rank_memory(1_000_000, 50_000_000, 300, 24,
                                     self.paper_scale_config(64))
        assert est64.total_bytes < est4.total_bytes

    def test_amazon_at_p4_exceeds_a100_but_p16_fits(self):
        """Reproduces the paper's missing data point: Amazon (14.2M vertices,
        231M edges, f=300) does not fit on 4 A100s but fits on 16 — under
        the paper's schedule, which recomputes A X every epoch."""
        vertices, edges_stored = 14_249_639, 2 * 230_788_269
        paper = dict(cache_input_propagation=False)
        small = estimate_rank_memory(vertices, edges_stored, 300, 24,
                                     self.paper_scale_config(4, **paper))
        large = estimate_rank_memory(vertices, edges_stored, 300, 24,
                                     self.paper_scale_config(16, **paper))
        assert not fits_in_memory(small, "perlmutter")
        assert fits_in_memory(large, "perlmutter")

    def test_cached_input_propagation_is_one_resident_input_block(self):
        cached = estimate_rank_memory(100_000, 5_000_000, 300, 24,
                                      self.paper_scale_config(16))
        paper = estimate_rank_memory(
            100_000, 5_000_000, 300, 24,
            self.paper_scale_config(16, cache_input_propagation=False))
        rows_per_rank = 1.15 * 100_000 / 16
        # A X, plus the A H^2 copy the widening 16 -> 24 output layer
        # keeps for its narrow-side backward.
        resident = rows_per_rank * (300 + 16) * ELEMENT_BYTES
        assert cached.activation_bytes - paper.activation_bytes == \
            pytest.approx(resident)
        # Buffers follow each schedule's widest SpMM: f_0 = 300 for the
        # paper's, the hidden width (16) for [300, 16, 16, 24] once A X
        # is kept.
        assert max(epoch_spmm_widths([300, 16, 16, 24], True)) == 16
        assert paper.buffer_bytes == \
            pytest.approx(2 * rows_per_rank * 300 * ELEMENT_BYTES)
        assert cached.buffer_bytes == \
            pytest.approx(2 * rows_per_rank * 16 * ELEMENT_BYTES)
        assert cached.total_bytes - paper.total_bytes == pytest.approx(
            resident - 2 * rows_per_rank * (300 - 16) * ELEMENT_BYTES)

    def test_cached_schedule_fits_amazon_at_p4(self):
        """The paper's out-of-memory point at p = 4 is a property of its
        schedule: keeping A X adds one resident f_0 block but drops the
        f_0-wide exchange buffers, and the model then fits."""
        vertices, edges_stored = 14_249_639, 2 * 230_788_269
        cached = estimate_rank_memory(vertices, edges_stored, 300, 24,
                                      self.paper_scale_config(4))
        paper = estimate_rank_memory(
            vertices, edges_stored, 300, 24,
            self.paper_scale_config(4, cache_input_propagation=False))
        assert cached.total_bytes < paper.total_bytes
        assert fits_in_memory(cached, "perlmutter")
        assert not fits_in_memory(paper, "perlmutter")

    def test_replication_increases_footprint(self):
        base = estimate_rank_memory(100_000, 5_000_000, 128, 16,
                                    self.paper_scale_config(16))
        replicated = estimate_rank_memory(
            100_000, 5_000_000, 128, 16,
            self.paper_scale_config(16, algorithm="1.5d",
                                    replication_factor=2))
        assert replicated.total_bytes > base.total_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_rank_memory(0, 10, 8, 2, self.paper_scale_config(2))
        est = MemoryEstimate(1, 1, 1, 1, 1, 0, 0)
        with pytest.raises(ValueError):
            fits_in_memory(est, "perlmutter", safety_factor=0.0)
