"""Tests for partition quality metrics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.partition import (communication_volumes_1d, edgecut,
                             load_imbalance, part_nonzeros, part_sizes,
                             partition_report)
from repro.graphs.generators import erdos_renyi_graph, grid_graph


def path_graph(n: int) -> sp.csr_matrix:
    """0-1-2-...-(n-1) path."""
    rows = np.arange(n - 1)
    cols = rows + 1
    data = np.ones(n - 1)
    adj = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    return (adj + adj.T).tocsr()


class TestBasicMetrics:
    def test_part_sizes(self):
        sizes = part_sizes(np.array([0, 0, 1, 2, 2, 2]), 3)
        assert sizes.tolist() == [2, 1, 3]

    def test_part_nonzeros(self):
        adj = path_graph(4)
        parts = np.array([0, 0, 1, 1])
        nnz = part_nonzeros(adj, parts, 2)
        # degrees: 1, 2, 2, 1
        assert nnz.tolist() == [3, 3]

    def test_load_imbalance(self):
        assert load_imbalance(np.array([2, 2, 2])) == pytest.approx(1.0)
        assert load_imbalance(np.array([1, 3])) == pytest.approx(1.5)
        assert load_imbalance(np.array([])) == 1.0
        assert load_imbalance(np.zeros(3)) == 1.0


class TestEdgecut:
    def test_path_graph_cut(self):
        adj = path_graph(6)
        parts = np.array([0, 0, 0, 1, 1, 1])
        assert edgecut(adj, parts) == 1

    def test_all_one_part_is_zero(self):
        adj = path_graph(5)
        assert edgecut(adj, np.zeros(5, dtype=int)) == 0

    def test_alternating_cut_counts_every_edge(self):
        adj = path_graph(5)
        parts = np.array([0, 1, 0, 1, 0])
        assert edgecut(adj, parts) == 4

    def test_grid_block_cut(self):
        side = 6
        adj = grid_graph(side)
        # Split the grid into top / bottom halves: cut = side edges.
        parts = (np.arange(side * side) // (side * side // 2)).astype(int)
        assert edgecut(adj, parts) == side


class TestCommunicationVolumes:
    def test_path_graph_volumes(self):
        adj = path_graph(6)
        parts = np.array([0, 0, 0, 1, 1, 1])
        vol = communication_volumes_1d(adj, parts, 2)
        # Vertex 2 (part 0) has a neighbour in part 1 and vice versa.
        assert vol.total == 2
        assert vol.send_volume.tolist() == [1, 1]
        assert vol.recv_volume.tolist() == [1, 1]
        assert vol.pairwise[0, 1] == 1 and vol.pairwise[1, 0] == 1

    def test_star_graph_asymmetry(self):
        # Star: hub 0 connected to 1..4; hub alone in part 0.
        n = 5
        rows = np.zeros(4, dtype=int)
        cols = np.arange(1, 5)
        adj = sp.coo_matrix((np.ones(4), (rows, cols)), shape=(n, n))
        adj = (adj + adj.T).tocsr()
        parts = np.array([0, 1, 1, 2, 2])
        vol = communication_volumes_1d(adj, parts, 3)
        # Hub must be sent to parts 1 and 2 -> send volume of part 0 is 2;
        # each leaf must be sent to part 0 -> parts 1 and 2 send 2 each.
        assert vol.send_volume.tolist() == [2, 2, 2]
        assert vol.recv_volume.tolist() == [4, 1, 1]
        assert vol.max_recv == 4
        assert vol.total == 6

    def test_totals_consistent(self):
        adj = erdos_renyi_graph(60, avg_degree=5, seed=1)
        parts = np.random.default_rng(0).integers(0, 4, size=60)
        vol = communication_volumes_1d(adj, parts, 4)
        assert vol.send_volume.sum() == vol.recv_volume.sum() == vol.total
        assert vol.pairwise.sum() == vol.total
        assert np.all(np.diag(vol.pairwise) == 0)

    def test_volume_bounded_by_edgecut(self):
        """Each cut edge creates at most two (vertex, part) pairs, and the
        volume can never exceed twice the edgecut (counting both ends)."""
        adj = erdos_renyi_graph(80, avg_degree=6, seed=2)
        parts = np.random.default_rng(1).integers(0, 5, size=80)
        vol = communication_volumes_1d(adj, parts, 5)
        assert vol.total <= 2 * edgecut(adj, parts)

    def test_imbalance_properties(self):
        adj = path_graph(8)
        parts = np.array([0, 0, 0, 0, 1, 1, 2, 2])
        vol = communication_volumes_1d(adj, parts, 3)
        assert vol.send_imbalance >= 1.0
        assert vol.send_imbalance_pct == pytest.approx(
            (vol.send_imbalance - 1.0) * 100.0)

    def test_empty_graph(self):
        adj = sp.csr_matrix((4, 4))
        vol = communication_volumes_1d(adj, np.array([0, 1, 0, 1]), 2)
        assert vol.total == 0
        assert vol.max_send == 0


class TestPartitionReport:
    def test_report_keys_and_consistency(self):
        adj = erdos_renyi_graph(40, avg_degree=4, seed=3)
        parts = np.random.default_rng(2).integers(0, 4, size=40)
        report = partition_report(adj, parts, 4)
        assert report["nparts"] == 4
        assert report["edgecut"] == edgecut(adj, parts)
        vol = communication_volumes_1d(adj, parts, 4)
        assert report["total_volume"] == vol.total
        assert report["max_send_volume"] == vol.max_send
        assert report["vertex_imbalance"] >= 1.0
