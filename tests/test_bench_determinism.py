"""Seeded determinism of the benchmark pipeline on the sim backend.

``scripts/record_baseline.py`` relies on the simulator being a pure
function of (dataset seed, config): a change diffs its sweeps against
``BENCH_spmm.json`` and ``BENCH_paper.json`` cell by cell, and the paper's
claims (``tests/test_paper_claims.py``) are read off those records, so any
nondeterminism in the
pipeline (partitioner tie-breaking, dict ordering, RNG reuse) would show
up as phantom perf regressions.  These tests pin that property: the same
seed must reproduce the identical BENCH-style row structure — every
simulated timing, volume and accuracy field — across repeated runs in one
process (wall-clock-derived fields, which only exist on the real
backends' rows and in the recorder's ``recorder_wall_s``, are exempt by
construction: sim rows contain none).
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.bench import (figure3_1d_scaling, figure5_papers_breakdown,
                         figure6_partitioner_comparison, figure7_15d_scaling,
                         table2_metis_comm_stats, table3_dataset_stats)
from repro.bench.harness import STANDARD_SCHEMES, run_single
from repro.core import DistTrainConfig, train_distributed
from repro.graphs import load_dataset

ROOT = pathlib.Path(__file__).resolve().parents[1]
QUICK = dict(datasets=("reddit",), p_values=(2, 4), scale=0.05, epochs=1,
             backend="sim", seed=0)


def _assert_rows_identical(rows_a, rows_b):
    assert len(rows_a) == len(rows_b)
    for a, b in zip(rows_a, rows_b):
        assert set(a) == set(b), "row schemas must match"
        for key in a:
            va, vb = a[key], b[key]
            if isinstance(va, float):
                assert va == vb or (np.isnan(va) and np.isnan(vb)), \
                    f"{key}: {va!r} != {vb!r}"
            else:
                assert va == vb, f"{key}: {va!r} != {vb!r}"


class TestSimBackendDeterminism:
    def test_figure3_rows_identical_across_runs(self):
        first = figure3_1d_scaling(**QUICK)
        second = figure3_1d_scaling(**QUICK)
        assert len(first) >= 6  # 3 schemes x 2 process counts
        _assert_rows_identical(first, second)

    def test_rows_are_json_stable(self):
        """The exact serialized BENCH payload is reproducible."""
        dumps = [json.dumps(figure3_1d_scaling(**QUICK), sort_keys=True)
                 for _ in range(2)]
        assert dumps[0] == dumps[1]

    def test_run_single_deterministic_across_seeds_only(self):
        dataset = load_dataset("reddit", scale=0.05, seed=3)
        row_a = run_single(dataset, STANDARD_SCHEMES["SA+GVB"], 4, epochs=2,
                           seed=3)
        row_b = run_single(dataset, STANDARD_SCHEMES["SA+GVB"], 4, epochs=2,
                           seed=3)
        _assert_rows_identical([row_a], [row_b])
        # A different seed must actually change the (random) dataset run —
        # guarding against a seed that is silently ignored.
        other = run_single(load_dataset("reddit", scale=0.05, seed=4),
                           STANDARD_SCHEMES["SA+GVB"], 4, epochs=2, seed=4)
        assert other["final_loss"] != row_a["final_loss"]

    def test_training_internals_deterministic(self):
        """Timings, volumes and breakdowns — not just losses — repeat."""
        dataset = load_dataset("protein", scale=0.05, n_features=10,
                               n_classes=3, seed=1)
        config = DistTrainConfig(n_ranks=4, epochs=3, seed=1,
                                 partitioner="gvb", backend="sim")
        res_a = train_distributed(dataset, config, eval_every=0)
        res_b = train_distributed(dataset, config, eval_every=0)
        assert [h.loss for h in res_a.history] == \
            [h.loss for h in res_b.history]
        assert [h.epoch_time_s for h in res_a.history] == \
            [h.epoch_time_s for h in res_b.history]
        assert res_a.breakdown == res_b.breakdown
        assert res_a.comm_summary == res_b.comm_summary
        assert res_a.total_time_s == res_b.total_time_s


class TestBaselineRecorderContract:
    """The checked-in baseline file stays consistent with the recorder."""

    BASELINE = ROOT / "BENCH_spmm.json"

    @pytest.fixture(scope="class")
    def payload(self):
        if not self.BASELINE.exists():
            pytest.skip("no BENCH_spmm.json baseline recorded")
        return json.loads(self.BASELINE.read_text())

    def test_baseline_schema(self, payload):
        assert payload["benchmark"] == "fig3_1d_scaling"
        assert payload["backend"] == "sim"
        assert payload["rows"], "baseline must contain rows"
        for row in payload["rows"]:
            assert "recorder_wall_s" not in row, \
                "wall-clock fields must stay out of the diffable rows"

    def test_baseline_rows_reproducible(self, payload):
        """Re-running one cell of the recorded sweep reproduces it exactly
        (the recorder is deterministic, so cell-level diffs are real)."""
        cfg = payload["config"]
        rows = figure3_1d_scaling(datasets=(payload["rows"][0]["dataset"],),
                                  p_values=(payload["rows"][0]["p"],),
                                  scale=cfg["scale"], epochs=cfg["epochs"],
                                  backend="sim", seed=cfg["seed"])
        recorded = [r for r in payload["rows"]
                    if r["dataset"] == payload["rows"][0]["dataset"]
                    and r["p"] == payload["rows"][0]["p"]
                    and r["scheme"] == rows[0]["scheme"]]
        assert recorded, "recorded baseline missing the probed cell"
        for key in ("epoch_time_s", "comm_total_MB_per_epoch", "final_loss"):
            assert rows[0][key] == pytest.approx(recorded[0][key], rel=1e-12)

    def test_protein_p4_rows_reproducible(self, payload):
        """Every scheme of the protein p = 4 cell re-runs to its recorded
        sim clock, ``time_*`` breakdown and ``comm_*`` volumes exactly."""
        cfg = payload["config"]
        rows = figure3_1d_scaling(datasets=("protein",), p_values=(4,),
                                  scale=cfg["scale"], epochs=cfg["epochs"],
                                  backend="sim", seed=cfg["seed"])
        recorded = {r["scheme"]: r for r in payload["rows"]
                    if r["dataset"] == "protein" and r["p"] == 4}
        assert sorted(recorded) == sorted(r["scheme"] for r in rows)
        for row in rows:
            want = recorded[row["scheme"]]
            exact = [k for k in want if k == "epoch_time_s"
                     or k.startswith(("time_", "comm_"))]
            assert {k: row[k] for k in exact} == {k: want[k] for k in exact}
            assert sorted(k for k in row if k.startswith("time_")) \
                == sorted(k for k in want if k.startswith("time_"))
            assert row["final_loss"] == pytest.approx(want["final_loss"],
                                                      rel=1e-12)


#: One cheap row (or a few) per section of ``BENCH_paper.json``, through
#: the entry point or recorder function that recorded it.
PAPER_CELLS = {
    "table2": lambda rec, cfg, run: table2_metis_comm_stats(
        p_values=(4,), scale=cfg["scale"], seed=cfg["seed"]),
    "table3": lambda rec, cfg, run: table3_dataset_stats(
        scale=cfg["scale"], seed=cfg["seed"]),
    "fig5": lambda rec, cfg, run: figure5_papers_breakdown(
        scale=cfg["scale"], **run),
    "fig6": lambda rec, cfg, run: [
        row for row in figure6_partitioner_comparison(
            datasets=("protein",), p_values=(16,), scale=cfg["scale"], **run)
        if row["scheme"] == "SA+METIS"],
    "fig7": lambda rec, cfg, run: figure7_15d_scaling(
        datasets=("protein",), p_values=(16,), replication_factors=(2,),
        scale=cfg["scale"], **run),
    "feature_width": lambda rec, cfg, run: rec.feature_width_rows(
        widths=(32,), schemes=("CAGNET",), **run),
    "partitioners": lambda rec, cfg, run: rec.partitioner_rows(
        partitioners=("block",), **run),
    "replication": lambda rec, cfg, run: rec.replication_rows(
        factors=(2,), schemes=("SA+GVB",), **run),
    "balance": lambda rec, cfg, run: rec.balance_rows(
        factors=(1.02,), seed=cfg["seed"]),
    "costmodel": lambda rec, cfg, run: rec.costmodel_rows(
        p_values=(4,), seed=cfg["seed"]),
}


def _host_free(row):
    """The fields that do not depend on the host: everything but the loss
    and accuracy, which can move in the last bit with the BLAS."""
    return {k: v for k, v in row.items()
            if k not in ("final_loss", "test_accuracy")}


class TestPaperRecordReproducible:
    """Re-running a cell of ``BENCH_paper.json`` reproduces its sim clock,
    ``time_*`` breakdown, bytes and partition statistics exactly."""

    @pytest.fixture(scope="class")
    def paper(self):
        return json.loads((ROOT / "BENCH_paper.json").read_text())

    @pytest.fixture(scope="class")
    def recorder(self):
        spec = importlib.util.spec_from_file_location(
            "record_baseline", ROOT / "scripts" / "record_baseline.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_header(self, paper):
        assert paper["backend"] == "sim" and paper["deterministic"] is True
        assert set(paper["figures"]) == set(PAPER_CELLS)
        assert paper["blas"]["numpy"] and paper["blas"]["name"]

    @pytest.mark.parametrize("section", sorted(PAPER_CELLS))
    def test_rows_reproduce(self, paper, recorder, section):
        cfg = paper["config"]
        run = {"epochs": cfg["epochs"], "machine": cfg["machine"],
               "seed": cfg["seed"]}
        rows = PAPER_CELLS[section](recorder, cfg, run)
        recorded = [_host_free(r) for r in paper["figures"][section]]
        assert rows
        for row in rows:
            assert _host_free(row) in recorded, row
