"""Tests for the edgecut and volume refinement passes."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.generators import (community_ring_graph, erdos_renyi_graph,
                                     grid_graph)
from repro.partition import communication_volumes_1d, edgecut
from repro.partition.refine import (edgecut_refine, part_weight_vector,
                                    rebalance, weighted_edgecut)
from repro.partition.volume_refine import VolumeState, volume_refine


class TestHelpers:
    def test_part_weight_vector(self):
        parts = np.array([0, 1, 1, 2])
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        assert part_weight_vector(parts, weights, 3).tolist() == [1.0, 5.0, 4.0]

    def test_weighted_edgecut_matches_unweighted_for_unit_weights(self):
        adj = erdos_renyi_graph(40, avg_degree=4, seed=0)
        parts = np.random.default_rng(0).integers(0, 3, size=40)
        assert weighted_edgecut(adj, parts) == pytest.approx(
            float(edgecut(adj, parts)))


class TestEdgecutRefine:
    def test_never_increases_cut(self):
        adj = community_ring_graph(160, avg_degree=8, n_communities=8, seed=0)
        parts = np.random.default_rng(0).integers(0, 8, size=160)
        before = edgecut(adj, parts)
        refined, moves = edgecut_refine(adj, parts, 8, seed=0)
        after = edgecut(adj, refined)
        assert after <= before
        assert moves >= 0

    def test_improves_bad_partition_of_structured_graph(self):
        adj = community_ring_graph(160, avg_degree=10, n_communities=4, seed=1)
        parts = np.random.default_rng(1).integers(0, 4, size=160)
        refined, moves = edgecut_refine(adj, parts, 4, balance_factor=1.3,
                                        max_passes=10, seed=0)
        assert edgecut(adj, refined) < edgecut(adj, parts)
        assert moves > 0

    def test_respects_balance_constraint(self):
        adj = erdos_renyi_graph(100, avg_degree=6, seed=2)
        parts = np.random.default_rng(2).integers(0, 4, size=100)
        refined, _ = edgecut_refine(adj, parts, 4, balance_factor=1.10, seed=0)
        sizes = np.bincount(refined, minlength=4)
        before_max = np.bincount(parts, minlength=4).max()
        # The constraint only restricts *receiving* parts, so the maximum
        # cannot grow beyond max(initial max, tolerance).
        assert sizes.max() <= max(before_max, int(np.ceil(1.10 * 25)))

    def test_perfect_partition_is_fixed_point(self):
        adj = grid_graph(6)
        parts = (np.arange(36) // 18).astype(np.int64)  # top/bottom halves
        refined, moves = edgecut_refine(adj, parts, 2, seed=0)
        assert edgecut(adj, refined) <= edgecut(adj, parts)

    def test_invalid_balance_factor(self):
        adj = grid_graph(4)
        with pytest.raises(ValueError):
            edgecut_refine(adj, np.zeros(16, dtype=int), 1, balance_factor=0.9)

    def test_connectivity_is_summed_in_csr_order(self):
        # Vertex 0's internal weight is (0.1 + 0.2) + 0.3 in CSR order, one
        # ulp above its 0.6 edge to part 1, so moving it loses weight; any
        # other order sums to 0.6 and the balance tie-break would move it.
        assert (0.1 + 0.2) + 0.3 > 0.6 == 0.3 + 0.2 + 0.1
        dense = np.zeros((5, 5))
        dense[0, 1:] = dense[1:, 0] = [0.1, 0.2, 0.3, 0.6]
        parts = np.array([0, 0, 0, 0, 1])
        refined, moves = edgecut_refine(sp.csr_matrix(dense), parts, 2, seed=0)
        assert moves == 0
        np.testing.assert_array_equal(refined, parts)

    def test_output_is_new_array(self):
        adj = grid_graph(4)
        parts = (np.arange(16) % 2).astype(np.int64)
        refined, _ = edgecut_refine(adj, parts, 2, seed=0)
        assert refined is not parts


class TestRebalance:
    def test_fixes_gross_imbalance(self):
        adj = community_ring_graph(120, avg_degree=6, n_communities=6, seed=0)
        parts = np.zeros(120, dtype=np.int64)
        parts[:10] = np.arange(10) % 4  # parts 0..3 exist, 0 is huge
        out = rebalance(adj, parts, 4, balance_factor=1.2, seed=0)
        sizes = np.bincount(out, minlength=4)
        assert sizes.max() <= 1.2 * 120 / 4 + 1

    def test_balanced_input_untouched(self):
        adj = grid_graph(4)
        parts = (np.arange(16) % 4).astype(np.int64)
        out = rebalance(adj, parts, 4, balance_factor=1.25, seed=0)
        np.testing.assert_array_equal(out, parts)


class TestVolumeState:
    def _state(self, adj, parts, nparts):
        return VolumeState.build(adj.tocsr(), parts, nparts,
                                 np.ones(adj.shape[0]))

    def test_build_matches_metrics(self):
        adj = erdos_renyi_graph(50, avg_degree=5, seed=3)
        parts = np.random.default_rng(3).integers(0, 4, size=50)
        state = self._state(adj, parts, 4)
        vol = communication_volumes_1d(adj, parts, 4)
        np.testing.assert_array_equal(state.send_volume, vol.send_volume)
        np.testing.assert_array_equal(state.recv_volume, vol.recv_volume)
        assert state.total_volume == vol.total

    def test_move_deltas_match_recomputation(self):
        adj = erdos_renyi_graph(40, avg_degree=5, seed=4)
        parts = np.random.default_rng(4).integers(0, 3, size=40)
        state = self._state(adj, parts, 3)
        indptr, indices = adj.tocsr().indptr, adj.tocsr().indices
        # Try a handful of moves and check the incremental deltas agree
        # with a full recomputation.
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = int(rng.integers(0, 40))
            p = parts[v]
            q = int((p + 1) % 3)
            delta = state.move_deltas(indptr, indices, v, q)
            new_parts = state.parts.copy()
            new_parts[v] = q
            vol_new = communication_volumes_1d(adj, new_parts, 3)
            np.testing.assert_array_equal(
                state.send_volume + delta.delta_send, vol_new.send_volume)
            np.testing.assert_array_equal(
                state.recv_volume + delta.delta_recv, vol_new.recv_volume)
            # Apply and keep going so later moves start from a new state.
            state.apply_move(indptr, indices, v, q, np.ones(40), delta)
            parts = state.parts

    def test_apply_move_keeps_state_consistent(self):
        adj = erdos_renyi_graph(30, avg_degree=4, seed=5)
        parts = np.random.default_rng(5).integers(0, 3, size=30)
        state = self._state(adj, parts, 3)
        csr = adj.tocsr()
        v = int(np.flatnonzero(np.diff(csr.indptr) > 0)[0])
        q = int((parts[v] + 1) % 3)
        delta = state.move_deltas(csr.indptr, csr.indices, v, q)
        state.apply_move(csr.indptr, csr.indices, v, q, np.ones(30), delta)
        rebuilt = VolumeState.build(csr, state.parts, 3, np.ones(30))
        np.testing.assert_array_equal(state.send_volume, rebuilt.send_volume)
        np.testing.assert_array_equal(state.recv_volume, rebuilt.recv_volume)
        np.testing.assert_array_equal(state.send_count, rebuilt.send_count)
        np.testing.assert_array_equal(state.nbr_part_count,
                                      rebuilt.nbr_part_count)

    def test_move_to_part_without_neighbours_matches_recomputation(self):
        adj = erdos_renyi_graph(40, avg_degree=3, seed=8)
        csr = adj.tocsr()
        parts = np.random.default_rng(8).integers(0, 5, size=40)
        state = self._state(adj, parts, 5)
        counts = state.nbr_part_count
        v, q = next((v, q) for v in range(40) for q in range(5)
                    if q != parts[v] and counts[v, q] == 0 and
                    csr.indptr[v + 1] > csr.indptr[v])
        delta = state.move_deltas(csr.indptr, csr.indices, v, q)
        new_parts = parts.copy()
        new_parts[v] = q
        vol = communication_volumes_1d(adj, new_parts, 5)
        np.testing.assert_array_equal(state.send_volume + delta.delta_send,
                                      vol.send_volume)
        np.testing.assert_array_equal(state.recv_volume + delta.delta_recv,
                                      vol.recv_volume)

    def test_self_loops_do_not_drift(self):
        # A vertex's own diagonal entry is not a neighbour: every single
        # move must leave the state equal to a rebuild and to the metric.
        adj = (erdos_renyi_graph(30, avg_degree=4, seed=5) +
               sp.eye(30)).tocsr()
        parts = np.random.default_rng(5).integers(0, 3, size=30)
        for v in range(30):
            state = self._state(adj, parts, 3)
            q = int((parts[v] + 1) % 3)
            delta = state.move_deltas(adj.indptr, adj.indices, v, q)
            state.apply_move(adj.indptr, adj.indices, v, q, np.ones(30), delta)
            rebuilt = self._state(adj, state.parts, 3)
            vol = communication_volumes_1d(adj, state.parts, 3)
            np.testing.assert_array_equal(state.send_volume, vol.send_volume)
            np.testing.assert_array_equal(state.recv_volume, vol.recv_volume)
            np.testing.assert_array_equal(state.nbr_part_count,
                                          rebuilt.nbr_part_count)


@pytest.mark.parametrize("refiner, setting", [
    (refiner, setting)
    for refiner in (edgecut_refine, volume_refine, rebalance)
    for setting in ({"balance_factor": 0.9}, {"balance_factor": float("nan")},
                    {"max_passes": -1})
    if refiner is not rebalance or "max_passes" not in setting])
def test_refiners_reject_invalid_settings_before_any_work(refiner, setting):
    # A partition vector of the wrong length: the setting is rejected
    # before the inputs are even read.
    name = next(iter(setting))
    with pytest.raises(ValueError, match=name):
        refiner(grid_graph(4), np.zeros(3, dtype=int), 2, **setting)


@pytest.mark.parametrize("refiner", [edgecut_refine, volume_refine])
def test_refiners_return_new_int64_vector(refiner):
    adj = community_ring_graph(120, avg_degree=6, n_communities=4, seed=9)
    parts = np.random.default_rng(9).integers(0, 4, size=120).astype(np.int32)
    before = parts.copy()
    refined, moves = refiner(adj, parts, 4, seed=0)
    assert moves > 0
    assert refined.dtype == np.int64 and refined.shape == parts.shape
    np.testing.assert_array_equal(parts, before)


class TestVolumeRefine:
    def test_never_worsens_objective(self):
        adj = community_ring_graph(160, avg_degree=8, n_communities=8, seed=2)
        parts = np.random.default_rng(2).integers(0, 8, size=160)
        before = communication_volumes_1d(adj, parts, 8)
        refined, moves = volume_refine(adj, parts, 8, seed=0)
        after = communication_volumes_1d(adj, refined, 8)
        w = 8 / 2.0
        cost_before = before.total + w * max(before.max_send, before.max_recv)
        cost_after = after.total + w * max(after.max_send, after.max_recv)
        assert cost_after <= cost_before

    def test_reduces_bottleneck_on_structured_graph(self):
        adj = community_ring_graph(200, avg_degree=10, n_communities=8, seed=3)
        parts = np.random.default_rng(3).integers(0, 8, size=200)
        before = communication_volumes_1d(adj, parts, 8)
        refined, _ = volume_refine(adj, parts, 8, max_passes=10, seed=0)
        after = communication_volumes_1d(adj, refined, 8)
        assert max(after.max_send, after.max_recv) <= \
            max(before.max_send, before.max_recv)

    def test_respects_compute_balance(self):
        adj = erdos_renyi_graph(120, avg_degree=6, seed=6)
        parts = np.arange(120) % 6
        refined, _ = volume_refine(adj, parts, 6, balance_factor=1.15, seed=0)
        sizes = np.bincount(refined, minlength=6)
        assert sizes.max() <= np.ceil(1.15 * 20) + 1

    def test_partition_stays_valid(self):
        adj = erdos_renyi_graph(80, avg_degree=5, seed=7)
        parts = np.random.default_rng(7).integers(0, 5, size=80)
        refined, _ = volume_refine(adj, parts, 5, seed=0)
        assert refined.shape == (80,)
        assert refined.min() >= 0 and refined.max() < 5
