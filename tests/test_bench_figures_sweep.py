"""Tests for the figure rendering, CSV persistence and sweep utilities."""

import csv
import math
import os

import numpy as np
import pytest

from repro.bench import (ascii_bar_chart, ascii_line_plot, feature_width_sweep,
                         grid_points, partitioner_sweep, replication_sweep,
                         run_grid, save_results, write_csv)
from repro.partition import PARTITIONERS


SAMPLE_ROWS = [
    {"scheme": "CAGNET", "p": 4, "epoch_time_s": 0.4},
    {"scheme": "CAGNET", "p": 16, "epoch_time_s": 0.5},
    {"scheme": "SA", "p": 4, "epoch_time_s": 0.35},
    {"scheme": "SA", "p": 16, "epoch_time_s": 0.2},
    {"scheme": "SA", "p": 64, "epoch_time_s": float("nan")},   # OOM point
]


# ----------------------------------------------------------------------
# ASCII figures
# ----------------------------------------------------------------------
class TestAsciiLinePlot:
    def test_contains_every_scheme_and_legend(self):
        out = ascii_line_plot(SAMPLE_ROWS, "scheme", "p", "epoch_time_s",
                              title="fig3")
        assert "fig3" in out
        assert "o = CAGNET" in out and "x = SA" in out
        # Marker characters appear in the grid body.
        body = out.splitlines()[1:-3]
        assert any("o" in line for line in body)
        assert any("x" in line for line in body)

    def test_skips_non_finite_points(self):
        out = ascii_line_plot(SAMPLE_ROWS, "scheme", "p", "epoch_time_s")
        # Only 4 finite points; nothing blows up and the output is bounded.
        assert len(out.splitlines()) < 30

    def test_no_data(self):
        out = ascii_line_plot([{"scheme": "A", "p": float("nan"),
                                "epoch_time_s": 1.0}],
                              "scheme", "p", "epoch_time_s", title="empty")
        assert "no finite data" in out

    def test_linear_axes(self):
        out = ascii_line_plot(SAMPLE_ROWS, "scheme", "p", "epoch_time_s",
                              log_x=False, log_y=False)
        assert "epoch_time_s vs p" in out

    def test_single_point_degenerate_span(self):
        out = ascii_line_plot([{"scheme": "A", "p": 4, "epoch_time_s": 1.0}],
                              "scheme", "p", "epoch_time_s")
        assert "A" in out

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ascii_line_plot(SAMPLE_ROWS, "scheme", "p", "epoch_time_s", width=4)


class TestAsciiBarChart:
    def test_bars_scale_with_values(self):
        out = ascii_bar_chart({"bcast": 4.0, "local": 1.0}, width=40)
        lines = out.splitlines()
        bcast = next(l for l in lines if "bcast" in l)
        local = next(l for l in lines if "local" in l)
        assert bcast.count("#") > local.count("#")

    def test_empty_and_title(self):
        out = ascii_bar_chart({}, title="breakdown")
        assert "breakdown" in out and "no data" in out

    def test_width_validation(self):
        with pytest.raises(ValueError):
            ascii_bar_chart({"a": 1.0}, width=2)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
class TestPersistence:
    def test_write_csv_round_trip(self, tmp_path):
        path = write_csv(SAMPLE_ROWS, str(tmp_path / "out" / "fig3.csv"))
        assert os.path.exists(path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(SAMPLE_ROWS)
        assert rows[0]["scheme"] == "CAGNET"

    def test_write_csv_union_of_columns(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        path = write_csv(rows, str(tmp_path / "x.csv"))
        with open(path) as handle:
            reader = csv.DictReader(handle)
            assert set(reader.fieldnames) == {"a", "b"}

    def test_save_results_writes_csv_and_text(self, tmp_path):
        paths = save_results(SAMPLE_ROWS, str(tmp_path / "results"), "fig3",
                             text="hello table")
        assert os.path.exists(paths["csv"])
        assert os.path.exists(paths["txt"])
        assert "hello table" in open(paths["txt"]).read()

    def test_save_results_csv_only(self, tmp_path):
        paths = save_results(SAMPLE_ROWS, str(tmp_path), "fig3")
        assert "txt" not in paths


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class TestGrid:
    def test_grid_points_cartesian_product(self):
        points = grid_points({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(points) == 6
        assert {"a": 2, "b": "z"} in points

    def test_empty_grid(self):
        assert grid_points({}) == [{}]

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            grid_points({"a": []})

    def test_run_grid_collects_and_skips(self):
        def fn(x):
            if x == 2:
                raise ValueError("infeasible")
            return {"x": x, "y": x * x}

        rows = run_grid(fn, {"x": [1, 2, 3]})
        assert len(rows) == 3
        assert rows[0]["y"] == 1
        assert "skipped" in rows[1]
        assert rows[2]["y"] == 9

    def test_run_grid_raises_when_asked(self):
        def fn(x):
            raise ValueError("boom")
        with pytest.raises(ValueError):
            run_grid(fn, {"x": [1]}, skip_errors=False)


class TestConcreteSweeps:
    """Small-scale smoke runs of the ablation sweeps (tiny graphs)."""

    def test_feature_width_sweep_shows_widening_gap(self):
        rows = feature_width_sweep(dataset_name="amazon", widths=(8, 64),
                                   p=8, scale=0.05, epochs=1, seed=0)
        assert len(rows) == 4
        by_key = {(r["f"], r["scheme"]): r["epoch_time_s"] for r in rows
                  if "epoch_time_s" in r}
        # The sparsity-aware advantage at the wide setting is at least as
        # large as at the narrow setting (both measured as CAGNET / SA+GVB).
        narrow = by_key[(8, "CAGNET")] / by_key[(8, "SA+GVB")]
        wide = by_key[(64, "CAGNET")] / by_key[(64, "SA+GVB")]
        assert wide >= narrow * 0.8   # allow latency noise at tiny scale

    def test_replication_sweep_rows(self):
        rows = replication_sweep(dataset_name="protein", p=16,
                                 replication_factors=(1, 2), scale=0.05,
                                 epochs=1, seed=0)
        assert len(rows) == 4
        assert all("replication" in r or "skipped" in r for r in rows)

    def test_partitioner_sweep_defaults_to_the_registry(self):
        rows = partitioner_sweep(dataset_name="reddit", p=4, scale=0.05,
                                 epochs=1, seed=0)
        assert [r["partitioner"] for r in rows] == sorted(PARTITIONERS)
        for row in rows:
            assert math.isfinite(row["epoch_time_s"])
