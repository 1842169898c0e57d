"""Tests for the simulated communicator (repro.comm.simulator)."""

import numpy as np
import pytest

from repro.comm import make_communicator


class TestConstruction:
    def test_requires_positive_ranks(self):
        with pytest.raises(ValueError):
            make_communicator(0)

    def test_stats_facade(self):
        comm = make_communicator(2)
        assert comm.events.total_bytes() == 0
        assert comm.elapsed() == 0.0

    def test_reset(self):
        comm = make_communicator(2)
        comm.charge_seconds(0, 1.0)
        comm.broadcast(np.ones(4), root=0)
        comm.reset()
        assert comm.elapsed() == 0.0
        assert len(comm.events) == 0

    def test_group_validation(self):
        comm = make_communicator(4)
        with pytest.raises(ValueError):
            comm.barrier(ranks=[0, 0])
        with pytest.raises(ValueError):
            comm.barrier(ranks=[0, 7])


class TestComputeCharging:
    def test_charges_accumulate_per_category(self):
        comm = make_communicator(2)
        comm.charge_spmm(0, comm.machine.spmm_flop_rate)  # exactly 1 second
        comm.charge_gemm(1, comm.machine.gemm_flop_rate)
        assert comm.timeline.now(0) == pytest.approx(1.0)
        assert comm.timeline.now(1) == pytest.approx(1.0)
        assert comm.timeline.breakdown()["local"] == pytest.approx(1.0)

    def test_elementwise_and_seconds(self):
        comm = make_communicator(1)
        dt = comm.charge_elementwise(0, comm.machine.elementwise_rate)
        assert dt == pytest.approx(1.0)
        comm.charge_seconds(0, 0.5, category="misc")
        assert comm.timeline.breakdown()["misc"] == pytest.approx(0.5)

    def test_barrier_synchronises(self):
        comm = make_communicator(3)
        comm.charge_seconds(1, 2.0)
        comm.barrier()
        assert np.allclose(comm.timeline.clocks, 2.0)


class TestBroadcast:
    def test_data_is_delivered_to_every_rank(self):
        comm = make_communicator(3)
        data = np.arange(6.0)
        out = comm.broadcast(data, root=1)
        assert len(out) == 3
        for arr in out:
            np.testing.assert_array_equal(arr, data)

    def test_non_root_receives_a_copy(self):
        comm = make_communicator(2)
        data = np.zeros(4)
        out = comm.broadcast(data, root=0)
        out[1][0] = 99.0
        assert data[0] == 0.0
        assert out[0] is data

    def test_records_events_and_time(self):
        comm = make_communicator(4)
        comm.broadcast(np.ones(128), root=0, category="bcast")
        assert comm.events.message_count("bcast") == 3
        assert comm.timeline.breakdown()["bcast"] > 0

    def test_root_must_be_in_group(self):
        comm = make_communicator(4)
        with pytest.raises(ValueError):
            comm.broadcast(np.ones(2), root=3, ranks=[0, 1])

    def test_subgroup_broadcast_leaves_others_untouched(self):
        comm = make_communicator(4)
        comm.broadcast(np.ones(8), root=0, ranks=[0, 1])
        assert comm.timeline.now(2) == 0.0


class TestAllreduce:
    def test_sum_result(self):
        comm = make_communicator(3)
        arrays = [np.full(4, float(i)) for i in range(3)]
        out = comm.allreduce(arrays)
        for arr in out:
            np.testing.assert_allclose(arr, 3.0)

    def test_max_and_min_ops(self):
        comm = make_communicator(2)
        arrays = [np.array([1.0, 5.0]), np.array([3.0, 2.0])]
        np.testing.assert_allclose(comm.allreduce(arrays, op="max")[0],
                                   [3.0, 5.0])
        np.testing.assert_allclose(comm.allreduce(arrays, op="min")[1],
                                   [1.0, 2.0])

    def test_unknown_op(self):
        comm = make_communicator(2)
        with pytest.raises(ValueError):
            comm.allreduce([np.ones(2), np.ones(2)], op="prod")

    def test_shape_mismatch_rejected(self):
        comm = make_communicator(2)
        with pytest.raises(ValueError):
            comm.allreduce([np.ones(2), np.ones(3)])

    def test_wrong_count_rejected(self):
        comm = make_communicator(3)
        with pytest.raises(ValueError):
            comm.allreduce([np.ones(2)] * 2)

    def test_subgroup_allreduce(self):
        comm = make_communicator(4)
        out = comm.allreduce([np.ones(2), 2 * np.ones(2)], ranks=[1, 3])
        np.testing.assert_allclose(out[0], 3.0)
        assert comm.timeline.now(0) == 0.0

    def test_results_are_independent_copies(self):
        comm = make_communicator(2)
        out = comm.allreduce([np.ones(2), np.ones(2)])
        out[0][0] = 42.0
        assert out[1][0] == pytest.approx(2.0)


class TestReduceAndAllgather:
    def test_reduce_only_root_gets_result(self):
        comm = make_communicator(3)
        out = comm.reduce([np.ones(2)] * 3, root=2)
        assert out[0] is None and out[1] is None
        np.testing.assert_allclose(out[2], 3.0)

    def test_allgather_everyone_gets_everything(self):
        comm = make_communicator(2)
        out = comm.allgather([np.array([1.0]), np.array([2.0])])
        assert out[0][1][0] == 2.0
        assert out[1][0][0] == 1.0


class TestAlltoallv:
    def _payloads(self, p, size=4):
        return [[np.full(size, 10 * i + j, dtype=np.float64)
                 if i != j else None for j in range(p)] for i in range(p)]

    def test_transpose_delivery(self):
        comm = make_communicator(3)
        send = self._payloads(3)
        recv = comm.alltoallv(send)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                np.testing.assert_array_equal(recv[i][j], send[j][i])

    def test_event_volume_matches_payloads(self):
        comm = make_communicator(3)
        send = self._payloads(3, size=8)
        comm.alltoallv(send)
        total = sum(arr.nbytes for row in send for arr in row if arr is not None)
        assert comm.events.total_bytes("alltoall") == total

    def test_none_payloads_cost_nothing(self):
        comm = make_communicator(2)
        recv = comm.alltoallv([[None, None], [None, None]])
        assert recv[0][1] is None
        assert comm.events.total_bytes() == 0
        assert comm.timeline.elapsed() == 0.0

    def test_shape_validation(self):
        comm = make_communicator(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[None, None]])
        with pytest.raises(ValueError):
            comm.alltoallv([[None], [None]])

    def test_clocks_synchronised_after_exchange(self):
        comm = make_communicator(3)
        comm.alltoallv(self._payloads(3))
        clocks = comm.timeline.clocks
        assert np.allclose(clocks, clocks[0])


class TestExchange:
    def test_delivery_and_events(self):
        comm = make_communicator(4)
        msgs = [(0, 1, np.ones(16)), (2, 3, np.zeros(8))]
        out = comm.exchange(msgs, category="p2p")
        np.testing.assert_array_equal(out[(0, 1)], np.ones(16))
        assert comm.events.message_count("p2p") == 2

    def test_self_message_is_free(self):
        comm = make_communicator(2)
        comm.exchange([(1, 1, np.ones(100))])
        assert comm.events.total_bytes() == 0

    def test_invalid_rank_rejected(self):
        comm = make_communicator(2)
        with pytest.raises(ValueError):
            comm.exchange([(0, 5, np.ones(2))])

    def test_sender_with_many_messages_is_bottleneck(self):
        comm = make_communicator(4)
        msgs = [(0, j, np.ones(100000)) for j in range(1, 4)]
        comm.exchange(msgs)
        per_rank = comm.timeline.per_rank_breakdown()["p2p"]
        assert per_rank[0] == pytest.approx(per_rank.max())
