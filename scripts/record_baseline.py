#!/usr/bin/env python
"""Record the BENCH_spmm*.json and BENCH_paper.json baselines.

Every mode runs the default bench config: dataset scale 0.4, two epochs
(``--epochs``), machine ``perlmutter-scaled`` (``--machine`` or
``REPRO_MACHINE``), seed 0.

* Default: the Figure-3 1D scaling sweep
  (``repro.bench.figure3_1d_scaling``), one row of epoch times and
  communication volumes per (dataset, scheme, p).
  * ``BENCH_spmm.json`` — the deterministic ``sim`` backend.  The
    simulator is a pure function of its inputs, so a change can diff its
    sweep against this file cell by cell
    (``tests/test_bench_determinism.py`` guards that property).
  * ``BENCH_spmm_process.json`` — the real multi-process backend on a
    smaller grid at six epochs, so the record also covers parallel
    wall-clock execution.  These rows depend on the hardware: compare
    shapes and ratios, not cells.
* ``--plan auto``: the planner-chosen configuration per (dataset, p)
  instead of the fixed schemes (one ``scheme="AUTO"`` row each, with the
  planned algorithm / mode / partitioner), by default into
  ``BENCH_spmm_plan.json``.
* ``--paper``: ``BENCH_paper.json``, every row the paper's claims
  (``repro.bench.claims``) read that ``BENCH_spmm.json`` does not hold:
  Tables 2 and 3, Figure 5, Figure 6's SA+METIS rows (its SA+GVB rows are
  Figure 3's), Figure 7, and the ablation and cost-model cells no paper
  row covers, run as the ablation benches ran them.  The header records
  numpy's BLAS: ``final_loss`` and ``test_accuracy`` can differ in the
  last bit with it, while the sim clock, bytes and partition statistics
  do not.  The claims compare these rows with ``BENCH_spmm.json``'s, so
  this mode refuses any other config than that file's, and any
  ``--datasets`` / ``--p-values``.  Prints which claims hold afterwards.

Usage::

    PYTHONPATH=src python scripts/record_baseline.py
    PYTHONPATH=src python scripts/record_baseline.py --backend process \
        --p-values 2 4 8 16 --epochs 6 --output BENCH_spmm_process.json
    PYTHONPATH=src python scripts/record_baseline.py --plan auto
    PYTHONPATH=src python scripts/record_baseline.py --paper
"""

import argparse
import dataclasses
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench import (STANDARD_SCHEMES, Scheme, auto_plan_rows,  # noqa: E402
                         bench_machine, evaluate, figure3_1d_scaling,
                         figure5_papers_breakdown,
                         figure6_partitioner_comparison, figure7_15d_scaling,
                         format_claims, load_figures, run_single,
                         table2_metis_comm_stats, table3_dataset_stats)
from repro.comm import make_communicator  # noqa: E402
from repro.core import (DistDenseMatrix, predicted_bytes_per_spmm,  # noqa: E402
                        spmm, spmm_cost_1d_oblivious,
                        spmm_cost_1d_sparsity_aware)
from repro.core.distribute import distribute  # noqa: E402
from repro.graphs import load_dataset  # noqa: E402
from repro.partition import (PARTITIONERS, GVBPartitioner,  # noqa: E402
                             partition_report)

SCALE = 0.4
#: The ablation and cost-model cells ran at scale 0.3.
ABLATION_SCALE = 0.3
#: The cost-model cells' feature width and (unscaled) machine preset.
COSTMODEL_F = 64
COSTMODEL_MACHINE = "perlmutter"
P_VALUES = (4, 16, 32, 64)
DATASETS = ("reddit", "amazon", "protein")
KEEP_COLUMNS = (
    "dataset", "scheme", "algorithm", "backend", "c", "p", "epoch_time_s",
    "time_local_s", "time_alltoall_s", "time_bcast_s", "time_allreduce_s",
    "comm_total_MB_per_epoch", "comm_max_MB_per_rank_per_epoch",
    "comm_imbalance_pct", "final_loss", "test_accuracy", "skipped",
    "planned_algorithm", "planned_mode", "planned_partitioner",
)


# ----------------------------------------------------------------------
# Cells no paper row covers (amazon / protein at p = 16 unless stated)
# ----------------------------------------------------------------------
def feature_width_rows(widths=(32, 128, 300), schemes=("CAGNET", "SA+GVB"),
                       **run):
    """CAGNET and SA+GVB on amazon as the feature width grows."""
    rows = []
    for f in widths:
        dataset = load_dataset("amazon", scale=ABLATION_SCALE, n_features=f,
                               seed=run["seed"])
        for label in schemes:
            row = run_single(dataset, STANDARD_SCHEMES[label], 16, **run)
            rows.append(dict(row, f=f))
    return rows


def partitioner_rows(partitioners=tuple(sorted(PARTITIONERS)), **run):
    """Every registered partitioner driving sparsity-aware 1D on amazon."""
    dataset = load_dataset("amazon", scale=ABLATION_SCALE, seed=run["seed"])
    return [dict(run_single(dataset, Scheme(f"SA+{name}", True, name), 16,
                            **run), partitioner=name)
            for name in partitioners]


def replication_rows(factors=(1, 2, 4), schemes=("CAGNET", "SA+GVB"), **run):
    """CAGNET and SA+GVB on protein at P = 16 and c = 1 (1D), 2 and 4."""
    dataset = load_dataset("protein", scale=ABLATION_SCALE, seed=run["seed"])
    return [run_single(dataset, dataclasses.replace(
                STANDARD_SCHEMES[label], replication_factor=c,
                algorithm="1d" if c == 1 else "1.5d"), 16, **run)
            for c in factors for label in schemes]


def balance_rows(factors=(1.02, 1.10, 1.30), seed=0):
    """GVB on amazon at p = 32 with a looser and looser balance tolerance."""
    dataset = load_dataset("amazon", scale=SCALE, seed=seed)
    rows = []
    for factor in factors:
        parts = GVBPartitioner(volume_balance_factor=factor, seed=seed) \
            .partition(dataset.adjacency, 32).parts
        rows.append({"dataset": dataset.name, "p": 32,
                     "balance_factor": factor,
                     **partition_report(dataset.adjacency, parts, 32)})
    return rows


def costmodel_rows(p_values=(4, 8, 16), seed=0):
    """One SpMM per scheme on GVB-partitioned amazon: the bytes each rank
    sends, predicted from NnzCols and logged by the simulator, and the
    alpha-beta model's communication time."""
    dataset = load_dataset("amazon", scale=ABLATION_SCALE, seed=seed)
    rows = []
    for p in p_values:
        matrix = distribute(dataset.adjacency, "gvb", p, seed=seed)[0]
        f = COSTMODEL_F
        h = np.random.default_rng(seed).normal(size=(dataset.n_vertices, f))
        dense = DistDenseMatrix.from_global(h, matrix.dist)
        for label, aware in (("SA", True), ("CAGNET", False)):
            comm = make_communicator(p, backend="sim",
                                     machine=COSTMODEL_MACHINE)
            spmm(matrix, dense, comm, sparsity_aware=aware)
            model = (spmm_cost_1d_sparsity_aware if aware
                     else spmm_cost_1d_oblivious)(matrix, f,
                                                  COSTMODEL_MACHINE)
            rows.append({
                "dataset": dataset.name, "scheme": label, "p": p, "f": f,
                "predicted_bytes": predicted_bytes_per_spmm(
                    matrix, f, sparsity_aware=aware).tolist(),
                "measured_bytes": comm.events.bytes_sent_by_rank(p).tolist(),
                "model_comm_s": model.communication_s,
                "sim_elapsed_s": comm.timeline.elapsed(),
            })
    return rows


def paper_figures(epochs: int, machine: str, seed: int) -> dict:
    run = {"epochs": epochs, "machine": machine, "seed": seed}
    fig6 = figure6_partitioner_comparison(scale=SCALE, **run)
    return {
        "table2": table2_metis_comm_stats(scale=SCALE, seed=seed),
        "table3": table3_dataset_stats(scale=SCALE, seed=seed),
        "fig5": figure5_papers_breakdown(scale=SCALE, **run),
        "fig6": [r for r in fig6 if r["scheme"] == "SA+METIS"],
        "fig7": figure7_15d_scaling(scale=SCALE, **run),
        "feature_width": feature_width_rows(**run),
        "partitioners": partitioner_rows(**run),
        "replication": replication_rows(**run),
        "balance": balance_rows(seed=seed),
        "costmodel": costmodel_rows(seed=seed),
    }


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 only prints its build config
        return {"numpy": np.__version__}
    return {"numpy": np.__version__, "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="record a paper sweep as a BENCH baseline JSON")
    parser.add_argument("output", nargs="?", default=None,
                        help="output path (default: BENCH_paper.json with "
                             "--paper, else BENCH_spmm.json for the sim "
                             "backend, BENCH_spmm_<backend>.json otherwise)")
    parser.add_argument("--output", dest="output_flag", default=None,
                        help="same as the positional output path")
    parser.add_argument("--backend", default="sim",
                        help="communicator backend for the sweep "
                             "(default: sim)")
    parser.add_argument("--p-values", type=int, nargs="+", default=None,
                        help=f"process counts (default: {P_VALUES})")
    parser.add_argument("--datasets", nargs="+", default=None,
                        help=f"datasets (default: {DATASETS})")
    parser.add_argument("--plan", choices=("fixed", "auto"), default="fixed",
                        help="'fixed' sweeps the Figure-3 schemes; 'auto' "
                             "records the planner-chosen configuration per "
                             "(dataset, p)")
    parser.add_argument("--paper", action="store_true",
                        help="record BENCH_paper.json (the rows the paper's "
                             "claims read) and print which claims hold")
    parser.add_argument("--epochs", type=int, default=2,
                        help="epochs per timing run (default: 2)")
    parser.add_argument("--machine", default=None,
                        help="machine-model preset (default: REPRO_MACHINE "
                             "or perlmutter-scaled)")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    backend = args.backend
    if args.paper and (backend != "sim" or args.plan != "fixed"):
        parser.error("--paper records the sim backend's fixed schemes")
    if args.paper and (args.datasets or args.p_values):
        parser.error("--paper records its own datasets and p values")
    p_values = tuple(args.p_values) if args.p_values else P_VALUES
    datasets = tuple(args.datasets) if args.datasets else DATASETS
    out = args.output_flag or args.output
    if out is None:
        if args.paper:
            out = "BENCH_paper.json"
        elif args.plan == "auto":
            out = "BENCH_spmm_plan.json" if backend == "sim" \
                else f"BENCH_spmm_plan_{backend}.json"
        else:
            out = "BENCH_spmm.json" if backend == "sim" \
                else f"BENCH_spmm_{backend}.json"
    out_path = pathlib.Path(out)
    if not out_path.is_absolute():
        out_path = REPO_ROOT / out_path

    epochs = args.epochs
    machine = args.machine if args.machine is not None else bench_machine()
    config = {"scale": SCALE, "epochs": epochs, "machine": machine,
              "seed": args.seed}
    if args.paper:
        # The claims compare these rows with BENCH_spmm.json's.
        spmm = json.loads((REPO_ROOT / "BENCH_spmm.json").read_text())
        spmm = {k: spmm["config"][k] for k in config}
        if spmm != config:
            parser.error(f"--paper records at BENCH_spmm.json's config "
                         f"{spmm}, not {config}")
    start = time.time()
    if args.paper:
        figures = paper_figures(epochs, machine, args.seed)
    elif args.plan == "auto":
        rows = auto_plan_rows(datasets, p_values, scale=SCALE, epochs=epochs,
                              backend=backend, machine=machine,
                              seed=args.seed)
    else:
        rows = figure3_1d_scaling(datasets=datasets, p_values=p_values,
                                  scale=SCALE, epochs=epochs, backend=backend,
                                  machine=machine, seed=args.seed)
    wall_s = time.time() - start
    if args.paper:
        payload = {
            "benchmark": "paper",
            "source": "scripts/record_baseline.py --paper",
            "backend": backend,
            "deterministic": True,
            "config": config,
            "blas": blas_info(),
            "recorder_wall_s": round(wall_s, 2),
            "figures": figures,
        }
        count = sum(len(rows) for rows in figures.values())
    else:
        payload = {
            "benchmark": "fig3_1d_scaling" if args.plan == "fixed"
            else "fig3_auto_plan",
            "source": "repro.bench.figure3_1d_scaling" if args.plan == "fixed"
            else "repro.bench.auto_plan_rows",
            "plan": args.plan,
            "backend": backend,
            # Wall-clock rows (threaded/process backends) are hardware
            # dependent; sim rows are exactly reproducible.
            "deterministic": backend == "sim",
            "config": {"datasets": list(datasets),
                       "p_values": list(p_values), **config},
            "recorder_wall_s": round(wall_s, 2),
            "rows": [
                {k: row[k] for k in KEEP_COLUMNS if k in row} for row in rows
            ],
        }
        count = len(rows)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    print(f"wrote {count} rows to {out_path} (backend={backend}, "
          f"scale={SCALE}, epochs={epochs}, {wall_s:.1f}s wall)")
    if args.paper:
        print()
        print(format_claims(evaluate(load_figures(REPO_ROOT, out_path))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
