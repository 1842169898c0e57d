"""Tests for repro.comm.timeline."""

import numpy as np
import pytest

from repro.comm.timeline import Timeline, WAIT_CATEGORY


class TestAdvance:
    def test_initial_clocks_zero(self):
        t = Timeline(3)
        assert t.elapsed() == 0.0
        assert t.now(1) == 0.0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Timeline(0)

    def test_advance_single_rank(self):
        t = Timeline(2)
        t.advance(0, 1.5, "local")
        assert t.now(0) == pytest.approx(1.5)
        assert t.now(1) == 0.0
        assert t.elapsed() == pytest.approx(1.5)

    def test_advance_negative_rejected(self):
        t = Timeline(2)
        with pytest.raises(ValueError):
            t.advance(0, -1.0, "local")

    def test_advance_all_default_ranks(self):
        t = Timeline(3)
        t.advance_all([1.0, 2.0, 3.0], "alltoall")
        assert t.clocks.tolist() == [1.0, 2.0, 3.0]

    def test_advance_all_subset(self):
        t = Timeline(4)
        t.advance_all([1.0, 2.0], "x", ranks=[1, 3])
        assert t.now(1) == 1.0
        assert t.now(3) == 2.0
        assert t.now(0) == 0.0


class TestSynchronize:
    def test_sync_brings_all_to_max(self):
        t = Timeline(3)
        t.advance(0, 5.0, "local")
        target = t.synchronize()
        assert target == pytest.approx(5.0)
        assert np.allclose(t.clocks, 5.0)

    def test_sync_subset_only(self):
        t = Timeline(3)
        t.advance(0, 5.0, "local")
        t.synchronize(ranks=[0, 1])
        assert t.now(1) == pytest.approx(5.0)
        assert t.now(2) == 0.0

    def test_wait_time_attributed_to_wait_category(self):
        t = Timeline(2)
        t.advance(0, 3.0, "local")
        t.synchronize()
        waited = t.per_rank_breakdown()[WAIT_CATEGORY]
        assert waited[1] == pytest.approx(3.0)
        assert waited[0] == 0.0


class TestBreakdown:
    def test_breakdown_max_mean_sum(self):
        t = Timeline(2)
        t.advance(0, 1.0, "local")
        t.advance(1, 3.0, "local")
        assert t.breakdown("max")["local"] == pytest.approx(3.0)
        assert t.breakdown("mean")["local"] == pytest.approx(2.0)
        assert t.breakdown("sum")["local"] == pytest.approx(4.0)

    def test_breakdown_unknown_reducer(self):
        t = Timeline(2)
        with pytest.raises(ValueError):
            t.breakdown("median")

    def test_wait_excluded_by_default(self):
        t = Timeline(2)
        t.advance(0, 1.0, "local")
        t.synchronize()
        assert WAIT_CATEGORY not in t.breakdown()
        assert WAIT_CATEGORY in t.breakdown(include_wait=True)

    def test_per_rank_breakdown_shapes(self):
        t = Timeline(3)
        t.advance(1, 2.0, "bcast")
        per = t.per_rank_breakdown()
        assert per["bcast"].shape == (3,)
        assert per["bcast"][1] == 2.0

    def test_reset(self):
        t = Timeline(2)
        t.advance(0, 1.0, "local")
        t.reset()
        assert t.elapsed() == 0.0
        assert t.breakdown() == {}
