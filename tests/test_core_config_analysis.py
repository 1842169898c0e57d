"""Tests for DistTrainConfig validation and the volume-analysis helpers."""

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.core import (Algorithm, BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, DistTrainConfig,
                        predicted_bytes_per_spmm, predicted_rows_oblivious_1d,
                        predicted_rows_sparsity_aware_1d,
                        single_spmm_volume_table, spmm)
from repro.graphs import gcn_normalize, load_dataset
from repro.graphs.generators import erdos_renyi_graph


class TestDistTrainConfig:
    def test_defaults_valid(self):
        cfg = DistTrainConfig()
        assert cfg.algorithm == Algorithm.ONE_D
        assert cfg.n_block_rows == cfg.n_ranks

    def test_block_rows_for_15d(self):
        cfg = DistTrainConfig(n_ranks=16, algorithm="1.5d",
                              replication_factor=2)
        assert cfg.n_block_rows == 8

    def test_replication_must_divide(self):
        with pytest.raises(ValueError):
            DistTrainConfig(n_ranks=10, algorithm="1.5d", replication_factor=3)

    def test_15d_requires_c_divides_p_over_c(self):
        with pytest.raises(ValueError):
            DistTrainConfig(n_ranks=8, algorithm="1.5d", replication_factor=4)

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            DistTrainConfig(n_ranks=0)
        with pytest.raises(ValueError):
            DistTrainConfig(algorithm="2d")
        with pytest.raises(ValueError):
            DistTrainConfig(n_layers=0)
        with pytest.raises(ValueError):
            DistTrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            DistTrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            DistTrainConfig(replication_factor=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf"), -0.1])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            DistTrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("hidden", [0, -4])
    def test_hidden_width_must_be_positive(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            DistTrainConfig(hidden=hidden)
        assert DistTrainConfig(hidden=1).hidden == 1

    def test_scheme_labels(self):
        assert DistTrainConfig(sparsity_aware=False).scheme_label == "CAGNET"
        assert DistTrainConfig(sparsity_aware=True,
                               partitioner=None).scheme_label == "SA"
        assert DistTrainConfig(sparsity_aware=True,
                               partitioner="gvb").scheme_label == "SA+GVB"
        assert DistTrainConfig(sparsity_aware=True,
                               partitioner="metis_like").scheme_label == \
            "SA+METIS"


class TestPredictedVolumes:
    @pytest.fixture(scope="class")
    def problem(self):
        adj = gcn_normalize(erdos_renyi_graph(60, avg_degree=6, seed=0))
        dist = BlockRowDistribution.uniform(60, 4)
        dm = DistSparseMatrix(adj, dist)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(60, 6))
        dh = DistDenseMatrix.from_global(h, dist)
        return dm, dh

    def test_oblivious_prediction_matches_measurement(self, problem):
        dm, dh = problem
        comm = make_communicator(4)
        spmm(dm, dh, comm, sparsity_aware=False)
        predicted = predicted_bytes_per_spmm(dm, dh.width, sparsity_aware=False)
        measured = comm.events.bytes_sent_by_rank(4, category="bcast")
        np.testing.assert_array_equal(predicted, measured)

    def test_sparsity_aware_prediction_matches_measurement(self, problem):
        dm, dh = problem
        comm = make_communicator(4)
        spmm(dm, dh, comm)
        predicted = predicted_bytes_per_spmm(dm, dh.width, sparsity_aware=True)
        measured = comm.events.bytes_sent_by_rank(4, category="alltoall")
        np.testing.assert_array_equal(predicted, measured)

    def test_sparsity_aware_never_exceeds_oblivious(self, problem):
        dm, _ = problem
        sa = predicted_rows_sparsity_aware_1d(dm)
        ob = predicted_rows_oblivious_1d(dm)
        assert np.all(sa <= ob)

    def test_invalid_feature_width(self, problem):
        dm, _ = problem
        with pytest.raises(ValueError):
            predicted_bytes_per_spmm(dm, 0, sparsity_aware=True)


class TestVolumeTable:
    def test_table2_style_output(self):
        ds = load_dataset("amazon", scale=0.05, seed=0)
        rows = single_spmm_volume_table(ds.adjacency, p_values=(2, 4), f=32,
                                        partitioner="metis_like", seed=0)
        assert [r.nparts for r in rows] == [2, 4]
        for row in rows:
            assert row.max_mb >= row.avg_mb
            assert row.imbalance_pct >= 0
            d = row.as_dict()
            assert set(d) == {"p", "average_MB", "max_MB",
                              "load_imbalance_pct", "total_MB"}

    def test_volume_scales_with_f(self):
        ds = load_dataset("amazon", scale=0.05, seed=0)
        small = single_spmm_volume_table(ds.adjacency, (4,), f=10, seed=0)[0]
        large = single_spmm_volume_table(ds.adjacency, (4,), f=20, seed=0)[0]
        assert large.total_mb == pytest.approx(2 * small.total_mb)

    def test_invalid_f(self):
        ds = load_dataset("amazon", scale=0.05, seed=0)
        with pytest.raises(ValueError):
            single_spmm_volume_table(ds.adjacency, (2,), f=0)
