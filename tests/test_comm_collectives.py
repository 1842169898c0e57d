"""Tests for the collective cost formulas (repro.comm.collectives)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import collectives as coll
from repro.comm.machine import MachineModel, perlmutter


MACHINE = perlmutter()


class TestBroadcast:
    def test_zero_for_single_rank_or_empty_payload(self):
        assert coll.broadcast_time(MACHINE, [0], 1e6) == 0.0
        assert coll.broadcast_time(MACHINE, [0, 1], 0) == 0.0

    def test_latency_grows_logarithmically(self):
        t2 = coll.broadcast_time(MACHINE, [0, 1], 8)
        t8 = coll.broadcast_time(MACHINE, [0, 1, 2, 3, 8, 9, 10, 11], 8)
        # 8 ranks -> 3 latency terms vs 1; payload term negligible here.
        assert t8 > t2

    def test_bandwidth_term_linear_in_bytes(self):
        small = coll.broadcast_time(MACHINE, [0, 1], 1e6)
        large = coll.broadcast_time(MACHINE, [0, 1], 2e6)
        assert large - small == pytest.approx(1e6 * MACHINE.beta_intra)

    def test_intra_node_group_uses_fast_link(self):
        intra = coll.broadcast_time(MACHINE, [0, 1, 2, 3], 1e6)
        inter = coll.broadcast_time(MACHINE, [0, 4, 8, 12], 1e6)
        assert inter >= intra


class TestAllreduce:
    def test_zero_cases(self):
        assert coll.allreduce_time(MACHINE, [3], 100) == 0.0
        assert coll.allreduce_time(MACHINE, [0, 1], 0) == 0.0

    def test_bandwidth_term_approaches_2x_payload(self):
        # For large P the ring all-reduce moves ~2x the payload.
        payload = 1e8
        t = coll.allreduce_time(MACHINE, list(range(64)), payload)
        bandwidth_only = 2 * payload * MACHINE.beta_inter * 63 / 64
        assert t == pytest.approx(bandwidth_only +
                                  2 * math.log2(64) * MACHINE.alpha_inter)

    def test_monotone_in_bytes(self):
        t1 = coll.allreduce_time(MACHINE, [0, 1, 2, 3], 1e5)
        t2 = coll.allreduce_time(MACHINE, [0, 1, 2, 3], 2e5)
        assert t2 > t1


class TestReduceAndAllgather:
    def test_reduce_zero_cases(self):
        assert coll.reduce_time(MACHINE, [0], 10) == 0.0
        assert coll.reduce_time(MACHINE, [0, 1], 0) == 0.0

    def test_reduce_smaller_than_allgather_for_same_payload(self):
        ranks = list(range(8))
        payload = 1e6
        assert coll.reduce_time(MACHINE, ranks, payload) < \
            coll.allgather_time(MACHINE, ranks, payload)

    def test_allgather_scales_with_group_size(self):
        t4 = coll.allgather_time(MACHINE, [0, 1, 2, 3], 1e5)
        t8 = coll.allgather_time(MACHINE, list(range(8)), 1e5)
        assert t8 > t4


class TestAlltoallv:
    def test_per_rank_times_shape(self):
        ranks = [0, 1, 2]
        sizes = [[0, 10, 10], [10, 0, 10], [10, 10, 0]]
        times = coll.alltoallv_time_per_rank(MACHINE, ranks, sizes)
        assert len(times) == 3
        assert all(t > 0 for t in times)

    def test_empty_exchange_costs_nothing(self):
        sizes = [[0, 0], [0, 0]]
        assert coll.alltoallv_time_per_rank(MACHINE, [0, 1], sizes) == [0.0, 0.0]

    def test_bottleneck_rank_pays_most(self):
        # Rank 0 sends a lot to everyone; it should be the slowest.
        ranks = [0, 1, 2, 3]
        sizes = [[0, 1e6, 1e6, 1e6],
                 [10, 0, 10, 10],
                 [10, 10, 0, 10],
                 [10, 10, 10, 0]]
        times = coll.alltoallv_time_per_rank(MACHINE, ranks, sizes)
        assert times[0] == max(times)

    def test_receive_side_counts_too(self):
        # Rank 3 receives a lot even though it sends almost nothing.
        ranks = [0, 1, 2, 3]
        sizes = [[0, 0, 0, 1e6],
                 [0, 0, 0, 1e6],
                 [0, 0, 0, 1e6],
                 [1, 1, 1, 0]]
        times = coll.alltoallv_time_per_rank(MACHINE, ranks, sizes)
        assert times[3] == max(times)

    def test_diagonal_is_ignored(self):
        ranks = [0, 1]
        sizes = [[5e6, 10], [10, 5e6]]
        times = coll.alltoallv_time_per_rank(MACHINE, ranks, sizes)
        expected = MACHINE.alpha_intra + 10 * MACHINE.beta_intra
        assert times[0] == pytest.approx(expected)


def _pairwise_group_link(machine, ranks):
    """The worst link over every pair of the group, by brute force: the
    reference the closed-form ``_group_link`` must equal."""
    ranks = list(ranks)
    if len(ranks) <= 1:
        return (0.0, 0.0)
    if len({machine.node_of(r) for r in ranks}) == 1:
        return (machine.alpha_intra, machine.beta_intra)
    worst_alpha, worst_beta = machine.alpha_inter, machine.beta_inter
    for idx, r in enumerate(ranks):
        for s in ranks[idx + 1:]:
            alpha, beta = machine.link(r, s)
            worst_alpha = max(worst_alpha, alpha)
            worst_beta = max(worst_beta, beta)
    return (worst_alpha, worst_beta)


_cost = st.floats(min_value=1e-12, max_value=1e-3, allow_nan=False)


class TestGroupLink:
    @given(gpus_per_node=st.integers(1, 8), alpha_intra=_cost,
           alpha_inter=_cost, beta_intra=_cost, beta_inter=_cost,
           ranks=st.lists(st.integers(0, 40), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_the_pairwise_worst_link(
            self, gpus_per_node, alpha_intra, alpha_inter, beta_intra,
            beta_inter, ranks):
        machine = MachineModel(gpus_per_node=gpus_per_node,
                               alpha_intra=alpha_intra,
                               alpha_inter=alpha_inter,
                               beta_intra=beta_intra, beta_inter=beta_inter)
        assert coll._group_link(machine, ranks) == \
            _pairwise_group_link(machine, ranks)

    #: Intra-node latency above inter-node but intra-node bandwidth below
    #: it, so a group that mixes both link kinds takes one term of each.
    SKEWED = MachineModel(gpus_per_node=4, alpha_intra=5e-5,
                          alpha_inter=1e-5, beta_intra=1e-11,
                          beta_inter=1e-10)

    @pytest.mark.parametrize("ranks,want", [
        pytest.param([], (0.0, 0.0), id="empty"),
        pytest.param([5], (0.0, 0.0), id="singleton"),
        pytest.param([2, 2], (5e-5, 1e-11), id="repeated-rank"),
        pytest.param([0, 1, 2, 3], (5e-5, 1e-11), id="one-node"),
        pytest.param([0, 4, 8], (1e-5, 1e-10), id="one-rank-per-node"),
        pytest.param([4, 4, 8], (1e-5, 1e-10),
                     id="repeated-rank-across-nodes"),
        pytest.param([0, 1, 4], (5e-5, 1e-10), id="shared-node-and-cross"),
    ])
    def test_worst_link_of_a_group(self, ranks, want):
        assert coll._group_link(self.SKEWED, ranks) == want
        assert _pairwise_group_link(self.SKEWED, ranks) == want
