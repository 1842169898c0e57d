"""Tests for the reference GCN layer/model/training loop."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gcn import (GCNModel, ReferenceTrainConfig, train_reference)
from repro.gcn.layers import GraphConvLayer
from repro.gcn.loss import masked_cross_entropy
from repro.graphs import gcn_normalize, load_dataset, make_node_data
from repro.graphs.generators import community_ring_graph


@pytest.fixture(scope="module")
def setup():
    adj = community_ring_graph(80, avg_degree=8, n_communities=4, seed=0)
    data = make_node_data(adj, n_features=10, n_classes=3, seed=0)
    return gcn_normalize(adj), data


class TestLayer:
    def test_forward_shapes(self, setup):
        adj, data = setup
        layer = GraphConvLayer(np.random.default_rng(0).normal(size=(10, 6)))
        cache = layer.forward(adj, data.features)
        assert cache.z.shape == (80, 6)
        assert cache.h_out.shape == (80, 6)
        assert np.all(cache.h_out >= 0)  # relu

    def test_forward_feature_mismatch(self, setup):
        adj, data = setup
        layer = GraphConvLayer(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            layer.forward(adj, data.features)

    def test_identity_layer_keeps_sign(self, setup):
        adj, data = setup
        layer = GraphConvLayer(np.random.default_rng(1).normal(size=(10, 2)),
                               activation="identity")
        cache = layer.forward(adj, data.features)
        np.testing.assert_array_equal(cache.h_out, cache.z)

    def test_backward_shapes(self, setup):
        adj, data = setup
        layer = GraphConvLayer(np.random.default_rng(2).normal(size=(10, 5)))
        cache = layer.forward(adj, data.features)
        grads = layer.backward(adj, cache, np.ones_like(cache.z))
        assert grads.weight_grad.shape == (10, 5)
        assert grads.input_grad.shape == (80, 10)

    def test_backward_shape_mismatch(self, setup):
        adj, data = setup
        layer = GraphConvLayer(np.zeros((10, 5)))
        cache = layer.forward(adj, data.features)
        with pytest.raises(ValueError):
            layer.backward(adj, cache, np.ones((80, 4)))

    def test_apply_gradient_sgd(self):
        layer = GraphConvLayer(np.ones((2, 2)))
        layer.apply_gradient(np.ones((2, 2)), lr=0.1)
        np.testing.assert_allclose(layer.weight, 0.9)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            GraphConvLayer(np.zeros(3))


class TestModelGradients:
    def test_weight_gradients_numerically(self, setup):
        """Finite-difference check of the full backward pass — this pins the
        four training equations of the paper (Section 2.1)."""
        adj, data = setup
        model = GCNModel([10, 8, 3], seed=0)
        feats = data.features.astype(np.float64)
        labels = data.labels
        mask = data.train_mask

        state = model.forward(adj, feats)
        loss, grad_logits = model.loss_and_logits_grad(state.logits, labels, mask)
        grads = model.backward(adj, state, grad_logits)

        rng = np.random.default_rng(0)
        eps = 1e-6
        for l, layer in enumerate(model.layers):
            for _ in range(4):  # spot-check a few entries per layer
                i = rng.integers(0, layer.weight.shape[0])
                j = rng.integers(0, layer.weight.shape[1])
                original = layer.weight[i, j]
                layer.weight[i, j] = original + eps
                bumped_logits = model.forward(adj, feats).logits
                bumped_loss = masked_cross_entropy(bumped_logits, labels, mask)
                layer.weight[i, j] = original
                numeric = (bumped_loss - loss) / eps
                assert grads[l][i, j] == pytest.approx(numeric, rel=1e-3,
                                                       abs=1e-5)

    def test_forward_deterministic(self, setup):
        adj, data = setup
        a = GCNModel([10, 8, 3], seed=1).forward(adj, data.features).logits
        b = GCNModel([10, 8, 3], seed=1).forward(adj, data.features).logits
        np.testing.assert_array_equal(a, b)

    def test_apply_gradients_validation(self):
        model = GCNModel([6, 4, 2], seed=0)
        with pytest.raises(ValueError):
            model.apply_gradients([np.zeros((6, 4))], lr=0.1)

    def test_layer_dims_validation(self):
        with pytest.raises(ValueError):
            GCNModel([5], seed=0)


class TestReferenceTraining:
    def test_loss_decreases(self, setup):
        adj, data = setup
        result = train_reference(adj, data, ReferenceTrainConfig(
            epochs=30, learning_rate=0.1, seed=0, normalize_adjacency=False))
        losses = [h.loss for h in result.history]
        assert losses[-1] < losses[0]

    def test_learns_better_than_chance(self):
        adj = community_ring_graph(120, avg_degree=10, n_communities=6, seed=1)
        data = make_node_data(adj, n_features=16, n_classes=4, seed=1)
        result = train_reference(adj, data, ReferenceTrainConfig(
            epochs=60, learning_rate=0.1, seed=0))
        assert result.test_accuracy > 0.4   # chance is 0.25

    def test_history_and_result_fields(self, setup):
        adj, data = setup
        result = train_reference(adj, data,
                                 ReferenceTrainConfig(epochs=5, seed=0))
        assert len(result.history) == 5
        assert result.history[0].epoch == 0
        assert 0.0 <= result.test_accuracy <= 1.0
        assert result.final_loss == result.history[-1].loss

    def test_single_layer_configuration(self, setup):
        adj, data = setup
        result = train_reference(adj, data, ReferenceTrainConfig(
            epochs=3, n_layers=1, seed=0))
        assert result.model.n_layers == 1

    def test_dataset_end_to_end(self):
        ds = load_dataset("protein", scale=0.05, n_features=8, n_classes=3,
                          seed=2)
        result = train_reference(ds.adjacency, ds.node_data,
                                 ReferenceTrainConfig(epochs=10, seed=0))
        assert np.isfinite(result.final_loss)
