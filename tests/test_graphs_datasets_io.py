"""Tests for the dataset registry and .npz I/O."""

import numpy as np
import pytest

from repro.graphs import (DATASET_NAMES, PAPER_SPECS, dataset_summary,
                          load_dataset, load_dataset_file, load_partition,
                          save_dataset, save_partition)


class TestRegistry:
    def test_all_four_datasets_listed(self):
        assert set(DATASET_NAMES) == {"reddit", "amazon", "protein", "papers"}

    def test_paper_specs_match_table3(self):
        assert PAPER_SPECS["reddit"].vertices == 232_965
        assert PAPER_SPECS["papers"].edges == 3_231_371_744
        assert PAPER_SPECS["amazon"].features == 300
        assert PAPER_SPECS["protein"].labels == 24

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("citeseer")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("reddit", scale=0.0)


class TestLoadDataset:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_loads_and_validates(self, name):
        ds = load_dataset(name, scale=0.05, n_features=8, n_classes=3, seed=0)
        ds.node_data.validate()
        assert ds.n_vertices == ds.adjacency.shape[0]
        assert ds.node_data.features.shape == (ds.n_vertices, 8)
        assert ds.spec is PAPER_SPECS[name]

    def test_deterministic(self):
        a = load_dataset("amazon", scale=0.05, seed=9)
        b = load_dataset("amazon", scale=0.05, seed=9)
        assert (a.adjacency != b.adjacency).nnz == 0
        np.testing.assert_allclose(a.node_data.features, b.node_data.features)

    def test_scale_changes_size(self):
        small = load_dataset("papers", scale=0.05, seed=0)
        large = load_dataset("papers", scale=0.2, seed=0)
        assert large.n_vertices > small.n_vertices

    def test_relative_character_preserved(self):
        datasets = {name: load_dataset(name, scale=0.3, seed=0)
                    for name in DATASET_NAMES}
        # Reddit densest, papers largest — as in Table 3.
        assert datasets["reddit"].avg_degree == max(
            d.avg_degree for d in datasets.values())
        assert datasets["papers"].n_vertices == max(
            d.n_vertices for d in datasets.values())

    def test_feature_label_defaults_follow_table3(self):
        ds = load_dataset("amazon", scale=0.1, seed=0)
        assert ds.n_features == 300
        assert ds.n_classes <= 24

    def test_dataset_summary_fields(self):
        ds = load_dataset("protein", scale=0.05, seed=0)
        row = dataset_summary(ds)
        for key in ("name", "vertices", "edges", "features", "labels",
                    "paper_vertices", "paper_edges"):
            assert key in row
        assert row["paper_vertices"] == PAPER_SPECS["protein"].vertices


class TestIO:
    def test_dataset_roundtrip(self, tmp_path):
        ds = load_dataset("reddit", scale=0.05, n_features=7, n_classes=3,
                          seed=1)
        path = save_dataset(ds, tmp_path / "reddit_small.npz")
        loaded = load_dataset_file(path)
        assert loaded.name == "reddit"
        assert (loaded.adjacency != ds.adjacency).nnz == 0
        np.testing.assert_allclose(loaded.node_data.features,
                                   ds.node_data.features)
        np.testing.assert_array_equal(loaded.node_data.labels,
                                      ds.node_data.labels)
        np.testing.assert_array_equal(loaded.node_data.test_mask,
                                      ds.node_data.test_mask)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset_file(tmp_path / "nope.npz")

    def test_partition_roundtrip(self, tmp_path):
        parts = np.array([0, 1, 2, 1, 0], dtype=np.int64)
        path = save_partition(parts, 3, tmp_path / "parts.npz")
        loaded, nparts = load_partition(path)
        np.testing.assert_array_equal(loaded, parts)
        assert nparts == 3

    def test_partition_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_partition(tmp_path / "missing.npz")

    def test_partition_rejects_corrupt_range(self, tmp_path):
        path = save_partition(np.array([0, 5]), 3, tmp_path / "bad.npz")
        with pytest.raises(ValueError):
            load_partition(path)
