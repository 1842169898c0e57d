"""Tests for the multilevel driver and the METIS-like / GVB partitioners."""

import numpy as np
import pytest

from repro.graphs.generators import (community_ring_graph, degree_corrected_sbm,
                                     erdos_renyi_graph, grid_graph)
from repro.partition import (GVBPartitioner, MetisLikePartitioner,
                             MultilevelPartitioner, RandomPartitioner,
                             communication_volumes_1d, edgecut)


@pytest.fixture(scope="module")
def structured_graph():
    return community_ring_graph(240, avg_degree=10, n_communities=12, seed=0)


@pytest.fixture(scope="module")
def irregular_graph():
    return degree_corrected_sbm(400, avg_degree=10, n_communities=10,
                                p_internal=0.75, exponent=2.1, seed=0)


class TestMultilevelDriver:
    def test_single_part_trivial(self, structured_graph):
        result = MultilevelPartitioner().partition(structured_graph, 1)
        assert np.all(result.parts == 0)
        assert result.stats["edgecut"] == 0

    def test_every_part_nonempty(self, structured_graph):
        for nparts in (2, 5, 8, 16):
            result = MultilevelPartitioner().partition(structured_graph, nparts)
            sizes = result.part_sizes()
            assert sizes.min() >= 1, f"empty part for nparts={nparts}"
            assert sizes.sum() == structured_graph.shape[0]

    def test_deterministic_given_seed(self, structured_graph):
        a = MultilevelPartitioner(seed=4).partition(structured_graph, 6).parts
        b = MultilevelPartitioner(seed=4).partition(structured_graph, 6).parts
        np.testing.assert_array_equal(a, b)

    def test_reports_levels(self, structured_graph):
        result = MultilevelPartitioner().partition(structured_graph, 4)
        assert "coarsening_levels" in result.stats

    def test_handles_graph_smaller_than_coarsening_target(self):
        adj = erdos_renyi_graph(40, avg_degree=4, seed=1)
        result = MultilevelPartitioner().partition(adj, 4)
        assert set(np.unique(result.parts)) == set(range(4))

    def test_nparts_equal_to_n(self):
        adj = grid_graph(4)  # 16 vertices
        result = MultilevelPartitioner().partition(adj, 16)
        assert result.part_sizes().max() == 1

    @pytest.mark.parametrize("factor", [0.5, 0.99, float("nan")])
    def test_gvb_rejects_a_volume_balance_below_one(self, factor):
        # The volume pass cannot meet a balance below 1.0 and would
        # silently make no move.
        with pytest.raises(ValueError, match="volume_balance_factor"):
            GVBPartitioner(volume_balance_factor=factor)

    @pytest.mark.parametrize("cls", [MultilevelPartitioner,
                                     MetisLikePartitioner, GVBPartitioner])
    def test_class_constants_are_ones_the_refiners_can_honour(self, cls):
        # A balance below 1.0 made rebalance churn; a negative pass or
        # level count silently skipped a refinement.
        assert cls.BALANCE_FACTOR >= 1.0
        assert cls.REFINE_PASSES >= 1
        assert cls.VOLUME_REFINE_LEVELS >= 0
        assert cls.COARSE_TO >= 1 and cls.MIN_COARSE_VERTICES >= 1
        if cls.VOLUME_REFINE_LEVELS:
            assert cls().volume_balance_factor >= 1.0


class TestMetisLike:
    def test_beats_random_on_structured_graph(self, structured_graph):
        metis = MetisLikePartitioner(seed=0).partition(structured_graph, 8)
        rand = RandomPartitioner(seed=0).partition(structured_graph, 8)
        assert metis.stats["edgecut"] < 0.7 * rand.stats["edgecut"]

    def test_vertex_balance_tight(self, structured_graph):
        result = MetisLikePartitioner(seed=0).partition(structured_graph, 8)
        assert result.stats["vertex_imbalance"] <= 1.25

    def test_grid_bisection_quality(self):
        adj = grid_graph(12)   # 144 vertices, optimal bisection cut = 12
        result = MetisLikePartitioner(seed=0).partition(adj, 2)
        assert result.stats["edgecut"] <= 3 * 12

    def test_method_label(self, structured_graph):
        assert MetisLikePartitioner().partition(structured_graph, 4).method \
            == "metis_like"


class TestGVB:
    def test_reduces_bottleneck_vs_metis(self, irregular_graph):
        """On an irregular graph GVB should not have a larger communication
        bottleneck (max send/recv volume) than the METIS-like partitioner."""
        nparts = 12
        metis = MetisLikePartitioner(seed=0).partition(irregular_graph, nparts)
        gvb = GVBPartitioner(seed=0).partition(irregular_graph, nparts)
        vol_m = communication_volumes_1d(irregular_graph, metis.parts, nparts)
        vol_g = communication_volumes_1d(irregular_graph, gvb.parts, nparts)
        bottleneck_m = max(vol_m.max_send, vol_m.max_recv)
        bottleneck_g = max(vol_g.max_send, vol_g.max_recv)
        assert bottleneck_g <= bottleneck_m * 1.05

    def test_total_volume_still_far_below_random(self, irregular_graph):
        nparts = 12
        gvb = GVBPartitioner(seed=0).partition(irregular_graph, nparts)
        rand = RandomPartitioner(seed=0).partition(irregular_graph, nparts)
        assert gvb.stats["total_volume"] < rand.stats["total_volume"]

    def test_balance_is_looser_but_bounded(self, irregular_graph):
        gvb = GVBPartitioner(volume_balance_factor=1.2, seed=0)
        result = gvb.partition(irregular_graph, 8)
        assert result.stats["vertex_imbalance"] <= 1.45

    def test_method_label(self, structured_graph):
        assert GVBPartitioner().partition(structured_graph, 4).method == "gvb"

    def test_near_zero_cut_on_regular_graph(self, structured_graph):
        """The Protein-style regular graph should partition almost
        perfectly (the mechanism behind the paper's 14x best case)."""
        nparts = 12
        gvb = GVBPartitioner(seed=0).partition(structured_graph, nparts)
        rand = RandomPartitioner(seed=0).partition(structured_graph, nparts)
        assert gvb.stats["total_volume"] < 0.5 * rand.stats["total_volume"]

    def test_deterministic(self, irregular_graph):
        a = GVBPartitioner(seed=1).partition(irregular_graph, 6).parts
        b = GVBPartitioner(seed=1).partition(irregular_graph, 6).parts
        np.testing.assert_array_equal(a, b)
