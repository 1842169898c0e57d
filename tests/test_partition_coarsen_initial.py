"""Tests for the coarsening and initial-partitioning phases."""

import numpy as np
import pytest

from repro.graphs.generators import community_ring_graph, erdos_renyi_graph, grid_graph
from repro.partition.coarsen import (coarsen_graph, contract_graph,
                                     heavy_edge_matching)
from repro.partition.initial import fix_empty_parts, greedy_graph_growing


class TestMatching:
    def test_matching_is_symmetric_and_valid(self):
        adj = erdos_renyi_graph(60, avg_degree=5, seed=0).astype(float)
        rng = np.random.default_rng(0)
        match = heavy_edge_matching(adj, rng)
        for v, u in enumerate(match):
            assert match[u] == v  # symmetric
        # Matched pairs must be actual edges.
        for v, u in enumerate(match):
            if u != v:
                assert adj[v, u] != 0

    def test_matching_respects_weight_cap(self):
        adj = erdos_renyi_graph(40, avg_degree=5, seed=1).astype(float)
        rng = np.random.default_rng(0)
        weights = np.full(40, 3.0)
        match = heavy_edge_matching(adj, rng, vertex_weights=weights,
                                    max_vertex_weight=5.0)
        # Nothing can be matched: any pair would weigh 6 > 5.
        assert np.all(match == np.arange(40))

    def test_matching_is_maximal(self):
        """No edge may have both endpoints unmatched (greedy maximality)."""
        adj = erdos_renyi_graph(80, avg_degree=4, seed=3).astype(float)
        rng = np.random.default_rng(2)
        match = heavy_edge_matching(adj, rng)
        coo = adj.tocoo()
        for v, u in zip(coo.row, coo.col):
            if v < u:
                assert not (match[v] == v and match[u] == u), \
                    f"edge ({v}, {u}) has both endpoints unmatched"

    def test_isolated_pair_gets_matched(self):
        import scipy.sparse as sp
        dense = np.array([[0, 10.0], [10.0, 0]])
        adj = sp.csr_matrix(dense)
        match = heavy_edge_matching(adj, np.random.default_rng(0))
        assert match[0] == 1 and match[1] == 0


class TestContraction:
    def test_contract_halves_vertices(self):
        adj = grid_graph(6).astype(float)
        rng = np.random.default_rng(0)
        weights = np.ones(36)
        match = heavy_edge_matching(adj, rng)
        level = contract_graph(adj, match, weights)
        matched_pairs = sum(1 for v, u in enumerate(match) if u > v)
        assert level.n_vertices == 36 - matched_pairs
        # Total vertex weight is conserved.
        assert level.vertex_weights.sum() == pytest.approx(36.0)

    def test_contract_preserves_connectivity_weight(self):
        adj = grid_graph(4).astype(float)
        rng = np.random.default_rng(1)
        match = heavy_edge_matching(adj, rng)
        level = contract_graph(adj, match, np.ones(16))
        # Sum of coarse edge weights + contracted (self-loop) weight equals
        # the original total edge weight.
        contracted_weight = sum(adj[v, u] for v, u in enumerate(match) if u > v)
        assert level.adj.sum() / 2 + contracted_weight == \
            pytest.approx(adj.sum() / 2)

    def test_coarse_map_is_total(self):
        adj = erdos_renyi_graph(50, avg_degree=4, seed=2).astype(float)
        rng = np.random.default_rng(0)
        match = heavy_edge_matching(adj, rng)
        level = contract_graph(adj, match, np.ones(50))
        assert level.coarse_map.shape == (50,)
        assert level.coarse_map.min() == 0
        assert level.coarse_map.max() == level.n_vertices - 1

    @pytest.mark.parametrize("seed", range(5))
    def test_coarse_ids_follow_lower_endpoint_order(self, seed):
        # Reference: the sequential id assignment the vectorised one
        # replaced, on a random (not heavy-edge) matching.
        rng = np.random.default_rng(seed)
        n = 60
        match = np.arange(n)
        order = rng.permutation(n)
        for a, b in zip(order[0:40:2], order[1:40:2]):
            match[a], match[b] = b, a
        expected = np.full(n, -1, dtype=np.int64)
        next_id = 0
        for v in range(n):
            if expected[v] < 0:
                expected[v] = expected[match[v]] = next_id
                next_id += 1
        adj = erdos_renyi_graph(n, avg_degree=4, seed=seed).astype(float)
        level = contract_graph(adj, match, np.ones(n))
        np.testing.assert_array_equal(level.coarse_map, expected)
        assert level.coarse_map.dtype == np.int64
        assert level.n_vertices == next_id


class TestCoarsenGraph:
    def test_hierarchy_shrinks(self):
        adj = community_ring_graph(300, avg_degree=8, n_communities=10, seed=0)
        levels = coarsen_graph(adj, target_vertices=50, seed=0)
        assert levels, "expected at least one coarsening level"
        sizes = [adj.shape[0]] + [lvl.n_vertices for lvl in levels]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_respects_target(self):
        adj = community_ring_graph(300, avg_degree=8, n_communities=10, seed=0)
        levels = coarsen_graph(adj, target_vertices=250, seed=0)
        assert levels[-1].n_vertices <= 300

    def test_no_levels_for_small_graph(self):
        adj = erdos_renyi_graph(30, avg_degree=3, seed=0)
        assert coarsen_graph(adj, target_vertices=64, seed=0) == []

    def test_invalid_target(self):
        adj = erdos_renyi_graph(30, avg_degree=3, seed=0)
        with pytest.raises(ValueError):
            coarsen_graph(adj, target_vertices=0)


class TestInitialPartition:
    def test_covers_all_vertices_and_parts(self):
        adj = community_ring_graph(200, avg_degree=8, n_communities=8, seed=0)
        parts = greedy_graph_growing(adj.astype(float), 8, seed=0)
        assert parts.shape == (200,)
        assert set(np.unique(parts)) == set(range(8))

    def test_reasonable_balance(self):
        adj = community_ring_graph(240, avg_degree=8, n_communities=8, seed=1)
        parts = greedy_graph_growing(adj.astype(float), 6, seed=0)
        sizes = np.bincount(parts, minlength=6)
        assert sizes.max() <= 2.5 * sizes.mean()

    def test_handles_disconnected_graph(self):
        import scipy.sparse as sp
        # Two disjoint paths.
        a = np.zeros((8, 8))
        for i in range(3):
            a[i, i + 1] = a[i + 1, i] = 1
        for i in range(4, 7):
            a[i, i + 1] = a[i + 1, i] = 1
        adj = sp.csr_matrix(a)
        parts = greedy_graph_growing(adj, 4, seed=0)
        assert set(np.unique(parts)) == set(range(4))

    def test_rejects_too_many_parts(self):
        adj = erdos_renyi_graph(10, avg_degree=2, seed=0)
        with pytest.raises(ValueError):
            greedy_graph_growing(adj.astype(float), 11, seed=0)

    def test_fix_empty_parts(self):
        adj = erdos_renyi_graph(20, avg_degree=3, seed=0)
        parts = np.zeros(20, dtype=np.int64)  # everything in part 0
        fixed = fix_empty_parts(adj, parts, 4)
        assert set(np.unique(fixed)) == set(range(4))

    def test_fix_empty_parts_noop_when_fine(self):
        adj = erdos_renyi_graph(12, avg_degree=3, seed=0)
        parts = np.arange(12) % 3
        fixed = fix_empty_parts(adj, parts, 3)
        np.testing.assert_array_equal(fixed, parts)
