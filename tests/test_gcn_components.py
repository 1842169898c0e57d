"""Tests for the reference GCN building blocks (activations, init, loss,
metrics)."""

import numpy as np
import pytest

from repro.gcn import (accuracy, glorot_normal, glorot_uniform, init_weights,
                       layer_seeds, loss_and_grad, masked_accuracy,
                       masked_cross_entropy, masked_cross_entropy_grad,
                       softmax)
from repro.gcn.activations import get_activation, identity, relu, relu_grad, sigmoid


class TestActivations:
    def test_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 3.0])

    def test_relu_grad_is_indicator(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu_grad(x), [0.0, 0.0, 1.0])

    def test_identity(self):
        x = np.array([1.0, -1.0])
        np.testing.assert_array_equal(identity(x), x)

    def test_sigmoid_bounds_and_symmetry(self):
        x = np.array([-50.0, 0.0, 50.0])
        s = sigmoid(x)
        assert 0 <= s.min() and s.max() <= 1
        assert s[1] == pytest.approx(0.5)

    def test_sigmoid_grad_numerical(self):
        from repro.gcn.activations import sigmoid_grad
        x = np.array([0.3, -0.7])
        eps = 1e-6
        numeric = (sigmoid(x + eps) - sigmoid(x - eps)) / (2 * eps)
        np.testing.assert_allclose(sigmoid_grad(x), numeric, atol=1e-5)

    def test_get_activation_registry(self):
        act, grad = get_activation("relu")
        assert act is relu
        with pytest.raises(KeyError):
            get_activation("gelu")


class TestInit:
    def test_glorot_uniform_bounds(self):
        w = glorot_uniform(100, 50, seed=0)
        limit = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.abs(w).max() <= limit

    def test_glorot_normal_scale(self):
        w = glorot_normal(2000, 2000, seed=0)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 4000), rel=0.1)

    def test_deterministic(self):
        np.testing.assert_array_equal(glorot_uniform(8, 4, seed=3),
                                      glorot_uniform(8, 4, seed=3))
        assert not np.array_equal(glorot_uniform(8, 4, seed=3),
                                  glorot_uniform(8, 4, seed=4))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            glorot_uniform(0, 4, seed=0)

    def test_layer_seeds_distinct(self):
        seeds = layer_seeds(7, 4)
        assert len(set(seeds)) == 4

    def test_init_weights_shapes(self):
        weights = init_weights([10, 16, 16, 3], seed=0)
        assert [w.shape for w in weights] == [(10, 16), (16, 16), (16, 3)]

    def test_init_weights_validation(self):
        with pytest.raises(ValueError):
            init_weights([5], seed=0)
        with pytest.raises(KeyError):
            init_weights([5, 2], scheme="he")


class TestLoss:
    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(7, 5))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert probs.min() >= 0

    def test_softmax_shift_invariance(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0),
                                   atol=1e-12)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([0, 1])
        assert masked_cross_entropy(logits, labels) < 1e-6

    def test_uniform_prediction_log_k(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        assert masked_cross_entropy(logits, labels) == pytest.approx(np.log(3))

    def test_mask_restricts_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([1, 1])  # first prediction is wrong
        mask = np.array([False, True])
        assert masked_cross_entropy(logits, labels, mask) < 1e-6

    def test_grad_zero_outside_mask(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        mask = np.array([True, False, True, False, False])
        grad = masked_cross_entropy_grad(logits, labels, mask)
        assert np.all(grad[~mask] == 0)
        assert np.any(grad[mask] != 0)

    def test_integer_mask_equals_bool_mask(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        int_mask = np.array([1, 0, 1, 0])
        bool_mask = int_mask.astype(bool)
        assert masked_cross_entropy(logits, labels, int_mask) == \
            masked_cross_entropy(logits, labels, bool_mask)
        np.testing.assert_array_equal(
            masked_cross_entropy_grad(logits, labels, int_mask),
            masked_cross_entropy_grad(logits, labels, bool_mask))

    def test_grad_matches_numerical(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        mask = np.array([True, True, False, True])
        loss, grad = loss_and_grad(logits, labels, mask)
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                bumped = logits.copy()
                bumped[i, j] += eps
                numeric = (masked_cross_entropy(bumped, labels, mask) - loss) / eps
                assert grad[i, j] == pytest.approx(numeric, abs=1e-4)

    def test_validation_errors(self):
        logits = np.zeros((3, 2))
        with pytest.raises(ValueError):
            masked_cross_entropy(logits, np.array([0, 1]))           # length
        with pytest.raises(ValueError):
            masked_cross_entropy(logits, np.array([0, 1, 5]))        # range
        with pytest.raises(ValueError):
            masked_cross_entropy(logits, np.array([0, 1, 1]),
                                 np.zeros(3, dtype=bool))            # empty mask
        with pytest.raises(ValueError):
            masked_cross_entropy(np.zeros(3), np.array([0, 1, 1]))   # 1-D logits


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == \
            pytest.approx(2 / 3)
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_masked_accuracy(self):
        preds = np.array([0, 1, 1, 0])
        labels = np.array([0, 1, 0, 1])
        mask = np.array([True, True, False, False])
        assert masked_accuracy(preds, labels, mask) == 1.0
        assert masked_accuracy(preds, labels, np.zeros(4, dtype=bool)) == 0.0
