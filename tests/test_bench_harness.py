"""Tests for the benchmark harness, experiment entry points and reporting."""

import math

import numpy as np
import pytest

from repro.bench import (STANDARD_SCHEMES, Scheme, format_kv, format_series,
                         format_table, run_scheme_grid, run_single,
                         speedup_table, table2_metis_comm_stats,
                         table3_dataset_stats)
from repro.graphs import load_dataset


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("protein", scale=0.05, n_features=10, n_classes=3,
                        seed=0)


class TestReporting:
    def test_format_table_alignment_and_content(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.000123}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text.splitlines()[1]
        assert "10" in text
        assert "1.230e-04" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_respects_column_selection(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert "c" in header and "a" in header and "b" not in header

    def test_format_series_groups(self):
        rows = [{"scheme": "SA", "p": 4, "t": 1.0},
                {"scheme": "SA", "p": 8, "t": 0.5},
                {"scheme": "CAGNET", "p": 4, "t": 2.0}]
        text = format_series(rows, group_by="scheme", x="p", y="t")
        assert "SA" in text and "CAGNET" in text
        assert "(4, 1)" in text

    def test_format_kv(self):
        text = format_kv({"x": 1.5, "name": "amazon"}, title="facts")
        assert "facts" in text and "x = 1.5" in text


class TestHarness:
    def test_standard_schemes_cover_paper_lines(self):
        assert {"CAGNET", "SA", "SA+GVB", "SA+METIS"} <= set(STANDARD_SCHEMES)
        assert STANDARD_SCHEMES["CAGNET"].sparsity_aware is False
        assert STANDARD_SCHEMES["SA+GVB"].partitioner == "gvb"

    def test_run_single_row_fields(self, dataset):
        row = run_single(dataset, STANDARD_SCHEMES["SA"], n_ranks=4, epochs=1)
        for key in ("dataset", "scheme", "p", "epoch_time_s", "test_accuracy",
                    "comm_total_MB_per_epoch"):
            assert key in row
        assert row["scheme"] == "SA"
        assert row["p"] == 4
        assert row["epoch_time_s"] > 0

    def test_run_single_includes_partition_stats_when_partitioned(self, dataset):
        row = run_single(dataset, STANDARD_SCHEMES["SA+GVB"], n_ranks=4,
                         epochs=1)
        assert "edgecut" in row and "max_send_volume" in row

    def test_run_scheme_grid_shapes(self, dataset):
        schemes = [STANDARD_SCHEMES["CAGNET"], STANDARD_SCHEMES["SA"]]
        rows = run_scheme_grid(dataset, schemes, p_values=(2, 4), epochs=1)
        assert len(rows) == 4
        assert {r["p"] for r in rows} == {2, 4}

    def test_run_scheme_grid_skips_infeasible(self, dataset):
        scheme = Scheme("SA-15d", sparsity_aware=True, partitioner=None,
                        algorithm="1.5d", replication_factor=4)
        rows = run_scheme_grid(dataset, [scheme], p_values=(8,), epochs=1)
        assert len(rows) == 1
        assert "skipped" in rows[0]
        assert math.isnan(rows[0]["epoch_time_s"])

    def test_speedup_table(self, dataset):
        schemes = [STANDARD_SCHEMES["CAGNET"], STANDARD_SCHEMES["SA"]]
        rows = run_scheme_grid(dataset, schemes, p_values=(4,), epochs=1)
        speedups = speedup_table(rows, baseline_scheme="CAGNET",
                                 target_scheme="SA")
        assert len(speedups) == 1
        assert speedups[0]["speedup"] > 0


class TestExperimentEntryPoints:
    def test_table3_rows(self):
        rows = table3_dataset_stats(scale=0.05)
        assert {r["name"] for r in rows} == {"reddit", "amazon", "protein",
                                             "papers"}
        for row in rows:
            assert row["vertices"] > 0
            assert row["paper_vertices"] > row["vertices"]

    def test_table2_rows_small(self):
        rows = table2_metis_comm_stats(p_values=(2, 4), scale=0.05)
        assert [r["p"] for r in rows] == [2.0, 4.0]
        for row in rows:
            assert row["max_MB"] >= row["average_MB"]
