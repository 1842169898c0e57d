"""Tests for repro.comm.events."""

import numpy as np
import pytest

from repro.comm.events import CommEvent, EventLog


class TestCommEvent:
    def test_valid_event(self):
        e = CommEvent("p2p", 0, 1, 128, "alltoall", 0)
        assert e.nbytes == 128

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CommEvent("p2p", 0, 1, -1, "alltoall", 0)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            CommEvent("p2p", -1, 1, 10, "alltoall", 0)


class TestEventLog:
    def test_record_and_len(self):
        log = EventLog()
        log.record_message("bcast", 0, 1, 100, "bcast")
        log.record_message("bcast", 0, 2, 100, "bcast")
        assert len(log) == 2
        assert log.message_count() == 2

    def test_steps_monotone(self):
        log = EventLog()
        s0 = log.next_step()
        s1 = log.next_step()
        assert s1 == s0 + 1

    def test_record_message_shares_step_when_given(self):
        log = EventLog()
        step = log.next_step()
        e1 = log.record_message("alltoallv", 0, 1, 10, "alltoall", step)
        e2 = log.record_message("alltoallv", 1, 0, 20, "alltoall", step)
        assert e1.step == e2.step == step

    def test_filtered_by_kind_and_category(self):
        log = EventLog()
        log.record_message("bcast", 0, 1, 5, "bcast")
        log.record_message("p2p", 1, 2, 7, "alltoall")
        assert len(log.filtered(kind="bcast")) == 1
        assert len(log.filtered(category="alltoall")) == 1
        assert len(log.filtered(src=1, dst=2)) == 1
        assert log.filtered(kind="allreduce") == []

    def test_total_bytes_and_per_category(self):
        log = EventLog()
        log.record_message("bcast", 0, 1, 5, "bcast")
        log.record_message("p2p", 1, 2, 7, "alltoall")
        assert log.total_bytes() == 12
        assert log.total_bytes("bcast") == 5

    def test_bytes_by_rank_vectors(self):
        log = EventLog()
        log.record_message("p2p", 0, 1, 10, "x")
        log.record_message("p2p", 0, 2, 30, "x")
        log.record_message("p2p", 2, 0, 5, "x")
        sent = log.bytes_sent_by_rank(3)
        assert sent.tolist() == [40, 0, 5]

    def test_traffic_matrix_matches_vectors(self):
        log = EventLog()
        log.record_message("p2p", 0, 1, 10, "x")
        log.record_message("p2p", 1, 0, 3, "x")
        log.record_message("p2p", 0, 1, 2, "x")
        mat = log.traffic_matrix(2)
        assert mat[0, 1] == 12
        assert mat[1, 0] == 3
        assert mat.sum() == log.total_bytes()

    def test_clear_resets_everything(self):
        log = EventLog()
        log.record_message("p2p", 0, 1, 10, "x")
        log.clear()
        assert len(log) == 0
        assert log.next_step() == 0

    def test_iteration_yields_events_in_order(self):
        log = EventLog()
        log.record_message("p2p", 0, 1, 1, "x")
        log.record_message("p2p", 0, 1, 2, "x")
        sizes = [e.nbytes for e in log]
        assert sizes == [1, 2]


class TestRunningTotals:
    """``total_bytes`` / ``message_count`` answer from counters kept at
    record time; a scan of the log is the oracle."""

    CATEGORIES = ("alltoall", "bcast", "allreduce", "never-recorded")

    @staticmethod
    def assert_totals_match_a_scan(log):
        for category in (None,) + TestRunningTotals.CATEGORIES:
            kept = [e for e in log
                    if category is None or e.category == category]
            assert log.total_bytes(category) == sum(e.nbytes for e in kept)
            assert log.message_count(category) == len(kept)
        assert log.message_count() == len(log)

    @pytest.mark.parametrize("seed", range(5))
    def test_totals_equal_a_scan_after_random_operations(self, seed):
        rng = np.random.default_rng(seed)

        def record_random(log):
            log.record_message(
                "p2p", int(rng.integers(4)), int(rng.integers(4)),
                int(rng.integers(0, 1000)),
                self.CATEGORIES[int(rng.integers(3))])

        log = EventLog()
        for _ in range(200):
            op = rng.random()
            if op < 0.7:
                record_random(log)
            elif op < 0.8:
                log.record(CommEvent("bcast", 0, 1, int(rng.integers(50)),
                                     "bcast", log.next_step()))
            elif op < 0.95:
                for _ in range(int(rng.integers(0, 6))):
                    record_random(log)
            else:
                log.clear()
            self.assert_totals_match_a_scan(log)

    def test_clear_zeroes_every_category(self):
        log = EventLog()
        log.record_message("p2p", 0, 1, 10, "alltoall")
        log.clear()
        assert log.total_bytes() == log.total_bytes("alltoall") == 0
        assert log.message_count() == log.message_count("alltoall") == 0
        log.record_message("p2p", 0, 1, 3, "bcast")
        assert (log.total_bytes(), log.message_count()) == (3, 1)
