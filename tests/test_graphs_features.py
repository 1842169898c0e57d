"""Tests for synthetic features / labels / splits."""

import numpy as np
import pytest

from repro.graphs.features import (NodeData, make_features, make_node_data,
                                   planted_labels, train_val_test_split)
from repro.graphs.generators import community_ring_graph, erdos_renyi_graph


@pytest.fixture(scope="module")
def graph():
    return community_ring_graph(120, avg_degree=8, n_communities=6, seed=0)


class TestPlantedLabels:
    def test_shape_and_range(self, graph):
        labels = planted_labels(graph, n_classes=5, seed=0)
        assert labels.shape == (120,)
        assert labels.min() >= 0 and labels.max() < 5

    def test_every_class_present(self, graph):
        labels = planted_labels(graph, n_classes=7, seed=1)
        assert set(np.unique(labels)) == set(range(7))

    def test_deterministic(self, graph):
        a = planted_labels(graph, 4, seed=3)
        b = planted_labels(graph, 4, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_labels_correlate_with_structure(self, graph):
        """Label propagation should make neighbours more likely to share a
        label than random assignment would."""
        labels = planted_labels(graph, n_classes=4, seed=0,
                                smoothing_rounds=3)
        coo = graph.tocoo()
        same = (labels[coo.row] == labels[coo.col]).mean()
        assert same > 0.4  # random baseline would be ~0.25

    def test_needs_two_classes(self, graph):
        with pytest.raises(ValueError):
            planted_labels(graph, n_classes=1)


class TestFeatures:
    def test_shape_dtype(self):
        labels = np.array([0, 1, 2, 0])
        feats = make_features(labels, n_features=8, seed=0)
        assert feats.shape == (4, 8)
        assert feats.dtype == np.float32

    def test_class_separation(self):
        labels = np.repeat([0, 1], 200)
        feats = make_features(labels, n_features=16, seed=0,
                              class_separation=3.0, noise=0.5)
        c0 = feats[labels == 0].mean(axis=0)
        c1 = feats[labels == 1].mean(axis=0)
        assert np.linalg.norm(c0 - c1) > 1.0

    def test_invalid_feature_count(self):
        with pytest.raises(ValueError):
            make_features(np.array([0, 1]), n_features=0)


class TestSplit:
    def test_masks_partition_all_vertices(self):
        train, val, test = train_val_test_split(100, seed=0)
        total = train.astype(int) + val.astype(int) + test.astype(int)
        assert np.all(total == 1)

    def test_fractions_respected(self):
        train, val, test = train_val_test_split(1000, train_frac=0.5,
                                                val_frac=0.25, seed=0)
        assert abs(train.sum() - 500) <= 1
        assert abs(val.sum() - 250) <= 1

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            train_val_test_split(10, train_frac=0.0)
        with pytest.raises(ValueError):
            train_val_test_split(10, train_frac=0.8, val_frac=0.3)


class TestNodeData:
    def test_make_node_data_valid(self, graph):
        data = make_node_data(graph, n_features=6, n_classes=4, seed=0)
        data.validate()
        assert data.n_vertices == 120
        assert data.n_features == 6
        assert data.n_classes == 4

    def test_validate_catches_overlap(self, graph):
        data = make_node_data(graph, 4, 3, seed=0)
        data.val_mask[:] = data.train_mask
        with pytest.raises(ValueError):
            data.validate()

    def test_validate_catches_length_mismatch(self, graph):
        data = make_node_data(graph, 4, 3, seed=0)
        data.labels = data.labels[:-1]
        with pytest.raises(ValueError):
            data.validate()

    def test_permuted_roundtrip(self, graph):
        data = make_node_data(graph, 5, 3, seed=0)
        perm = np.random.default_rng(0).permutation(data.n_vertices)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        back = data.permuted(perm).permuted(inv)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.features is data.features
        np.testing.assert_array_equal(back.feature_order,
                                      np.arange(data.n_vertices))
        np.testing.assert_array_equal(back.train_mask, data.train_mask)

    def test_permuted_moves_rows_consistently(self, graph):
        data = make_node_data(graph, 5, 3, seed=0)
        perm = np.random.default_rng(1).permutation(data.n_vertices)
        permuted = data.permuted(perm)
        permuted.validate()
        # Vertex v ends up at position perm[v] with all its attributes;
        # its features stay in place and the order points at them.
        v = 17
        assert permuted.features is data.features
        assert permuted.feature_order[perm[v]] == v
        assert permuted.labels[perm[v]] == data.labels[v]
        assert permuted.train_mask[perm[v]] == data.train_mask[v]
