"""Tests for the partition base classes, the block/random baselines and
the partitioner registry."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import community_ring_graph, erdos_renyi_graph
from repro.partition import (PARTITIONERS, BlockPartitioner,
                             RandomPartitioner, balanced_block_bounds,
                             communication_volumes_1d, contiguous_parts,
                             get_partitioner, validate_parts)
from repro.partition.base import PartitionResult


class TestValidateParts:
    def test_accepts_valid(self):
        parts = validate_parts(np.array([0, 1, 1]), 2)
        assert parts.dtype == np.int64

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_parts(np.array([0, 2]), 2)
        with pytest.raises(ValueError):
            validate_parts(np.array([-1, 0]), 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            validate_parts(np.array([0, 1]), 2, n_vertices=3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            validate_parts(np.zeros((2, 2), dtype=int), 2)

    def test_rejects_nonpositive_nparts(self):
        with pytest.raises(ValueError):
            validate_parts(np.array([0]), 0)


class TestPartitionResult:
    def test_part_sizes_and_members(self):
        result = PartitionResult(parts=np.array([0, 1, 0, 2]), nparts=3)
        assert result.part_sizes().tolist() == [2, 1, 1]
        assert result.members(0).tolist() == [0, 2]
        assert result.n_vertices == 4

    def test_members_out_of_range(self):
        result = PartitionResult(parts=np.array([0, 1]), nparts=2)
        with pytest.raises(ValueError):
            result.members(5)

    def test_relabeling_groups_parts(self):
        result = PartitionResult(parts=np.array([1, 0, 1, 0]), nparts=2)
        perm = result.relabeling()
        # Part-0 vertices (ids 1, 3) map to new ids 0, 1.
        assert sorted(perm[[1, 3]].tolist()) == [0, 1]
        assert sorted(perm[[0, 2]].tolist()) == [2, 3]

    def test_block_sizes_alias(self):
        result = PartitionResult(parts=np.array([0, 0, 1]), nparts=2)
        assert result.block_sizes().tolist() == [2, 1]


class TestBlockHelpers:
    def test_balanced_block_bounds(self):
        bounds = balanced_block_bounds(10, 3)
        assert bounds.tolist() == [0, 4, 7, 10]

    def test_contiguous_parts_cover_everything(self):
        parts = contiguous_parts(11, 4)
        assert parts.shape == (11,)
        assert np.bincount(parts).tolist() == [3, 3, 3, 2]

    def test_bounds_reject_nonpositive_parts(self):
        with pytest.raises(ValueError):
            balanced_block_bounds(5, 0)


class TestBaselinePartitioners:
    @pytest.fixture(scope="class")
    def graph(self, small_graph=None):
        from repro.graphs.generators import erdos_renyi_graph
        return erdos_renyi_graph(50, avg_degree=4, seed=0)

    def test_block_partitioner_contiguous(self, graph):
        result = BlockPartitioner().partition(graph, 5)
        assert result.method == "block"
        # Contiguous: part id is non-decreasing in vertex id.
        assert np.all(np.diff(result.parts) >= 0)
        assert result.part_sizes().max() - result.part_sizes().min() <= 1

    def test_random_partitioner_balanced(self, graph):
        result = RandomPartitioner(seed=1).partition(graph, 5)
        sizes = result.part_sizes()
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == graph.shape[0]

    def test_random_partitioner_deterministic_per_seed(self, graph):
        a = RandomPartitioner(seed=2).partition(graph, 4).parts
        b = RandomPartitioner(seed=2).partition(graph, 4).parts
        c = RandomPartitioner(seed=3).partition(graph, 4).parts
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_stats_populated(self, graph):
        result = RandomPartitioner(seed=0).partition(graph, 4)
        for key in ("edgecut", "total_volume", "max_send_volume",
                    "nnz_imbalance"):
            assert key in result.stats

    def test_input_validation(self, graph):
        with pytest.raises(ValueError):
            BlockPartitioner().partition(graph, 0)
        with pytest.raises(ValueError):
            BlockPartitioner().partition(graph, graph.shape[0] + 1)
        with pytest.raises(TypeError):
            BlockPartitioner().partition(np.eye(4), 2)
        with pytest.raises(ValueError):
            BlockPartitioner().partition(sp.csr_matrix(np.ones((2, 3))), 2)

    def test_callable_interface(self, graph):
        partitioner = BlockPartitioner()
        assert np.array_equal(partitioner(graph, 3).parts,
                              partitioner.partition(graph, 3).parts)


class TestRegistry:
    def test_registry_is_the_papers_distributions(self):
        assert sorted(PARTITIONERS) == ["block", "gvb", "metis_like",
                                        "random"]

    def test_get_partitioner_names(self):
        for name in ("block", "random", "metis_like", "gvb"):
            assert get_partitioner(name) is not None

    def test_get_partitioner_kwargs(self):
        p = get_partitioner("random", seed=7)
        assert p.seed == 7

    def test_get_partitioner_unknown(self):
        with pytest.raises(KeyError):
            get_partitioner("patoh")

    @pytest.mark.parametrize("name", ["spectral", "label_prop",
                                      "hypergraph"])
    def test_deleted_partitioners_are_unknown(self, name):
        from repro.plan import enumerate_candidates
        with pytest.raises(KeyError, match="available"):
            get_partitioner(name)
        with pytest.raises(ValueError, match="unknown partitioners"):
            enumerate_candidates(4, partitioners=[name])


# ----------------------------------------------------------------------
# Every registered partitioner
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def community_graph():
    return community_ring_graph(96, avg_degree=10, n_communities=8,
                                p_external=0.05, seed=3)


@pytest.fixture(scope="module")
def irregular_graph():
    return erdos_renyi_graph(80, avg_degree=6, seed=7)


REGISTERED = sorted(PARTITIONERS)


class TestEveryRegisteredPartitioner:
    @pytest.mark.parametrize("name", REGISTERED)
    def test_name_matches_registry_key(self, name):
        assert get_partitioner(name, seed=1).name == name

    @pytest.mark.parametrize("nparts", [2, 3, 4, 8])
    @pytest.mark.parametrize("name", REGISTERED)
    def test_produces_valid_partitions(self, community_graph, name, nparts):
        result = get_partitioner(name, seed=0).partition(community_graph,
                                                         nparts)
        assert result.parts.shape == (community_graph.shape[0],)
        assert result.nparts == nparts
        assert result.parts.min() >= 0 and result.parts.max() < nparts
        assert np.all(result.part_sizes() > 0)

    @pytest.mark.parametrize("name", REGISTERED)
    def test_single_part(self, community_graph, name):
        result = get_partitioner(name, seed=0).partition(community_graph, 1)
        assert np.all(result.parts == 0)

    @pytest.mark.parametrize("name", REGISTERED)
    def test_stats_filled(self, community_graph, name):
        result = get_partitioner(name, seed=0).partition(community_graph, 4)
        for key in ("edgecut", "total_volume", "max_send_volume"):
            assert key in result.stats

    @pytest.mark.parametrize("name", REGISTERED)
    def test_train_distributed_accepts_every_partitioner(self, name):
        from repro import DistTrainConfig, load_dataset, train_distributed
        dataset = load_dataset("reddit", scale=0.05, n_features=8,
                               n_classes=3, seed=0)
        config = DistTrainConfig(n_ranks=4, partitioner=name, epochs=2,
                                 machine="laptop", seed=0)
        result = train_distributed(dataset, config, eval_every=0)
        assert result.avg_epoch_time_s > 0
        assert np.isfinite(result.final_loss)


@pytest.mark.parametrize("nparts,seed", [(4, 0), (8, 1), (5, 2)])
def test_volume_is_connectivity_minus_one(irregular_graph, nparts, seed):
    """The 1D volume is the column-net connectivity-1 metric: vertex ``v``
    is sent once to every other part that owns one of its neighbours."""
    adj = irregular_graph.tocsr()
    parts = np.random.default_rng(seed).integers(0, nparts,
                                                 size=adj.shape[0])
    send = np.zeros(nparts, dtype=np.int64)
    for v in range(adj.shape[0]):
        neighbours = adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
        send[parts[v]] += len(set(parts[neighbours].tolist()) - {parts[v]})
    vol = communication_volumes_1d(adj, parts, nparts)
    assert vol.total == send.sum()
    np.testing.assert_array_equal(vol.send_volume, send)
