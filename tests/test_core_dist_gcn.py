"""Tests for the distributed GCN model (forward/backward/step mechanics)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm import make_communicator
from repro.core import (Algorithm, BlockRowDistribution,
                        DistSparseMatrix, DistributedGCN, ProcessGrid)
from repro.gcn import GCNModel
from repro.graphs import gcn_normalize, load_dataset


@pytest.fixture(scope="module")
def problem():
    ds = load_dataset("reddit", scale=0.05, n_features=10, n_classes=4, seed=2)
    matrix = gcn_normalize(ds.adjacency)
    return ds, matrix


def build_model(ds, matrix, p=4, algorithm=Algorithm.ONE_D, c=1,
                sparsity_aware=True, seed=0):
    nblocks = p // c if algorithm == Algorithm.ONE_POINT_FIVE_D else p
    dist = BlockRowDistribution.uniform(matrix.shape[0], nblocks)
    comm = make_communicator(p)
    grid = ProcessGrid(p, c) if algorithm == Algorithm.ONE_POINT_FIVE_D else None
    model = DistributedGCN(
        adjacency_dist=DistSparseMatrix(matrix, dist),
        features=ds.node_data.features.astype(np.float64),
        labels=ds.node_data.labels,
        train_mask=ds.node_data.train_mask,
        layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
        comm=comm,
        algorithm=algorithm,
        sparsity_aware=sparsity_aware,
        grid=grid,
        seed=seed,
    )
    return model, comm


class TestConstruction:
    def test_requires_grid_for_15d(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
                comm=make_communicator(4),
                algorithm=Algorithm.ONE_POINT_FIVE_D,
                grid=None,
            )

    def test_cached_schedule_requires_an_exactly_symmetric_adjacency(
            self, problem):
        """The narrow-side backward reassociates through ``A = A^T``, so
        the cached schedule checks symmetry once, at construction."""
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 4)
        skewed = matrix.tolil(copy=True)
        i, j = matrix.nonzero()
        off = np.flatnonzero(i != j)[0]
        skewed[i[off], j[off]] = 2.0 * matrix[i[off], j[off]]
        asymmetric = DistSparseMatrix(skewed.tocsr(), dist)
        assert asymmetric.asymmetric_entries() == 2
        assert DistSparseMatrix(matrix, dist).asymmetric_entries() == 0

        def build(adjacency, cached):
            return DistributedGCN(
                adjacency_dist=adjacency,
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8,
                            ds.node_data.n_classes],
                comm=make_communicator(4),
                cache_input_propagation=cached)

        with pytest.raises(ValueError, match="adjacency_dist is not exactly "
                                             r"symmetric \(2 entries"):
            build(asymmetric, cached=True)
        build(asymmetric, cached=False)      # the paper's schedule: no check
        build(DistSparseMatrix(matrix, dist), cached=True)

    def test_symmetry_is_checked_once_per_matrix(self, problem, monkeypatch):
        """A ``DistSparseMatrix`` never changes, so every model built over
        one matrix shares a single symmetry check (one stacked copy)."""
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 4)
        stacks = []
        vstack = sp.vstack

        def counting_vstack(*args, **kwargs):
            stacks.append(args)
            return vstack(*args, **kwargs)

        monkeypatch.setattr(sp, "vstack", counting_vstack)
        adjacency = DistSparseMatrix(matrix, dist)
        for _ in range(2):
            DistributedGCN(
                adjacency_dist=adjacency,
                features=ds.node_data.features,
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8,
                            ds.node_data.n_classes],
                comm=make_communicator(4),
                cache_input_propagation=True)
        assert len(stacks) == 1
        assert adjacency.asymmetric_entries() == 0
        assert len(stacks) == 1

    def test_rejects_block_rank_mismatch_for_1d(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
                comm=make_communicator(4),   # 4 ranks but only 2 block rows
                algorithm=Algorithm.ONE_D,
            )

    def test_rejects_feature_width_mismatch(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[999, 8, ds.node_data.n_classes],
                comm=make_communicator(2),
            )

    def test_rejects_empty_train_mask(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=np.zeros(matrix.shape[0], dtype=bool),
                layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
                comm=make_communicator(2),
            )

    def test_unknown_algorithm(self, problem):
        ds, matrix = problem
        dist = BlockRowDistribution.uniform(matrix.shape[0], 2)
        with pytest.raises(ValueError):
            DistributedGCN(
                adjacency_dist=DistSparseMatrix(matrix, dist),
                features=ds.node_data.features.astype(np.float64),
                labels=ds.node_data.labels,
                train_mask=ds.node_data.train_mask,
                layer_dims=[ds.node_data.n_features, 8, ds.node_data.n_classes],
                comm=make_communicator(2),
                algorithm="3d",
            )


class TestForwardBackward:
    def test_forward_matches_reference(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        ref = GCNModel([ds.node_data.n_features, 8, ds.node_data.n_classes],
                       seed=0)
        ref_state = ref.forward(matrix, ds.node_data.features.astype(np.float64))
        caches = dist_model.forward()
        np.testing.assert_allclose(caches[-1].h_out.to_global(),
                                   ref_state.logits, atol=1e-9)

    def test_loss_matches_reference(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        ref = GCNModel([ds.node_data.n_features, 8, ds.node_data.n_classes],
                       seed=0)
        feats = ds.node_data.features.astype(np.float64)
        ref_state = ref.forward(matrix, feats)
        ref_loss, _ = ref.loss_and_logits_grad(
            ref_state.logits, ds.node_data.labels, ds.node_data.train_mask)
        caches = dist_model.forward()
        dist_loss, _ = dist_model.loss_and_logits_grad(caches[-1].h_out)
        assert dist_loss == pytest.approx(ref_loss, rel=1e-9)

    def test_weight_gradients_match_reference(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        ref = GCNModel([ds.node_data.n_features, 8, ds.node_data.n_classes],
                       seed=0)
        feats = ds.node_data.features.astype(np.float64)
        ref_state = ref.forward(matrix, feats)
        _, ref_grad_logits = ref.loss_and_logits_grad(
            ref_state.logits, ds.node_data.labels, ds.node_data.train_mask)
        ref_grads = ref.backward(matrix, ref_state, ref_grad_logits)

        caches = dist_model.forward()
        _, grad_logits = dist_model.loss_and_logits_grad(caches[-1].h_out)
        dist_grads = dist_model.backward(caches, grad_logits)
        for ref_g, dist_g in zip(ref_grads, dist_grads):
            np.testing.assert_allclose(dist_g, ref_g, atol=1e-9)

    def test_train_epoch_updates_weights_and_returns_loss(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        before = [w.copy() for w in dist_model.weights]
        loss = dist_model.train_epoch(lr=0.1)
        assert np.isfinite(loss)
        assert any(not np.allclose(b, w)
                   for b, w in zip(before, dist_model.weights))

    def test_apply_gradients_validation(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        with pytest.raises(ValueError):
            dist_model.apply_gradients([np.zeros((2, 2))], lr=0.1)

    def test_predictions_shape_and_range(self, problem):
        ds, matrix = problem
        dist_model, _ = build_model(ds, matrix, p=4)
        preds = dist_model.predictions()
        assert preds.shape == (ds.n_vertices,)
        assert preds.min() >= 0 and preds.max() < ds.node_data.n_classes


class TestTimingSideEffects:
    def test_epoch_advances_simulated_time(self, problem):
        ds, matrix = problem
        dist_model, comm = build_model(ds, matrix, p=4)
        dist_model.train_epoch(lr=0.05)
        assert comm.timeline.elapsed() > 0
        breakdown = comm.timeline.breakdown()
        assert "alltoall" in breakdown
        assert "allreduce" in breakdown
        assert "local" in breakdown

    def test_oblivious_uses_bcast_category(self, problem):
        ds, matrix = problem
        dist_model, comm = build_model(ds, matrix, p=4, sparsity_aware=False)
        dist_model.train_epoch(lr=0.05)
        breakdown = comm.timeline.breakdown()
        assert breakdown.get("bcast", 0) > 0
        assert breakdown.get("alltoall", 0) == 0

    def test_predictions_do_not_advance_clock(self, problem):
        ds, matrix = problem
        dist_model, comm = build_model(ds, matrix, p=4)
        before = comm.timeline.elapsed()
        dist_model.predictions()
        assert comm.timeline.elapsed() == before

    def test_15d_charges_every_replica(self, problem):
        ds, matrix = problem
        dist_model, comm = build_model(ds, matrix, p=4,
                                       algorithm=Algorithm.ONE_POINT_FIVE_D,
                                       c=2)
        dist_model.train_epoch(lr=0.05)
        local = comm.timeline.per_rank_breakdown()["local"]
        assert np.all(local > 0)
