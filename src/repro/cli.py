"""Command-line interface of the reproduction.

``python -m repro <command>`` (or the ``repro`` console script when
installed) exposes the library's main entry points without writing any
Python:

* ``repro datasets``   — Table-3 style statistics of the synthetic datasets,
* ``repro partition``  — partition a dataset and print the quality report,
* ``repro train``      — run simulated distributed training and print the
  timing / accuracy summary,
* ``repro bench``      — regenerate one of the paper's tables/figures,
* ``repro tune``       — autotune the distributed configuration (variant,
  backend, partitioner, replication factor, pipeline depth) for a dataset
  and machine,
* ``repro cost``       — the paper's closed-form cost of one SpMM, and the
  planner's crossover p and best 1.5D c with the closed form beside them,
* ``repro calibrate``  — measure per-backend message overheads on this
  host and persist them for the planner (see docs/tuning.md),
* ``repro memory``     — per-rank memory footprint / OOM check under the
  paper's schedule,
* ``repro trace``      — summarize a recorded Chrome/Perfetto trace
  (written by ``repro train/bench --trace``; see docs/observability.md),
* ``repro serve``      — serve inference from a trained checkpoint with
  a warm compiled plan and dynamic micro-batching; ``--bench`` runs the
  offered-QPS sweep behind ``BENCH_serve.json`` (see docs/serving.md).

``repro train``/``repro bench`` take ``--auto`` to run planner-chosen
configurations; every simulated command takes ``--machine`` (defaulting
to the ``REPRO_MACHINE`` environment variable when set).

Every command prints plain text (the same formatting the benchmark suite
uses) and returns a process exit code, so the CLI is scriptable.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import bench
from .bench.reporting import format_kv, format_series, format_table
from .comm.factory import available_backends
from .comm.machine import PRESETS
from .core import (AUTO, GRAD_DTYPES, DistTrainConfig, estimate_rank_memory,
                   fits_in_memory, spmm_cost_1d_oblivious,
                   spmm_cost_1d_sparsity_aware, train_distributed)
from .graphs.datasets import DATASET_NAMES, dataset_summary, load_dataset
from .obs import (TRACE, metrics_from_spans, percentile, prometheus_text,
                  save_trace, trace_summary)
from .partition import PARTITIONERS, get_partitioner, partition_report
from .partition.multilevel import PHASES

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sparsity-aware distributed GNN training — reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=list(DATASET_NAMES),
                       default="amazon", help="synthetic dataset stand-in")
        p.add_argument("--scale", type=float, default=0.3,
                       help="dataset scale factor")
        p.add_argument("--seed", type=int, default=0)

    # The run configuration train and serve share; _run_config maps it.
    def add_run_config_args(p: argparse.ArgumentParser, ranks: int,
                            backend: str) -> None:
        add_dataset_args(p)
        p.add_argument("--ranks", type=int, default=ranks)
        p.add_argument("--algorithm", choices=["1d", "1.5d"], default="1d")
        p.add_argument("--replication", type=int, default=1)
        p.add_argument("--oblivious", action="store_true",
                       help="use the sparsity-oblivious (CAGNET) baseline")
        p.add_argument("--partitioner",
                       choices=sorted(PARTITIONERS) + ["none"], default="gvb")
        p.add_argument("--hidden", type=int, default=16)
        p.add_argument("--layers", type=int, default=3)
        p.add_argument("--machine", choices=sorted(PRESETS),
                       default=bench.bench_machine("perlmutter-scaled"))
        p.add_argument("--backend", choices=available_backends(),
                       default=backend,
                       help="communicator backend (sim = deterministic "
                            "simulation, threaded = real worker threads, "
                            "process = one OS process per rank; default: "
                            "%(default)s)")
        p.add_argument("--dtype", choices=["float64", "float32"],
                       default="float64",
                       help="precision (float32 halves the communication "
                            "volume; see docs/performance.md)")
        p.add_argument("--pipeline", type=int, default=1, metavar="DEPTH",
                       help="pipeline depth of the compiled SpMM stage "
                            "schedules (1 = synchronous exchanges, 2 = "
                            "double-buffered overlap; bit-identical "
                            "results — see docs/performance.md)")

    def add_output_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record runtime spans and write a "
                            "Chrome/Perfetto trace JSON (open at "
                            "ui.perfetto.dev; see docs/observability.md)")
        p.add_argument("--metrics", default=None, metavar="PATH",
                       help="write run metrics (Prometheus text "
                            "exposition; see docs/observability.md)")

    p_datasets = sub.add_parser("datasets", help="print dataset statistics")
    p_datasets.add_argument("--scale", type=float, default=0.3)
    p_datasets.add_argument("--seed", type=int, default=0)

    p_partition = sub.add_parser("partition", help="partition a dataset")
    add_dataset_args(p_partition)
    p_partition.add_argument("--nparts", type=int, default=8)
    p_partition.add_argument("--partitioner", choices=sorted(PARTITIONERS),
                             default="gvb")

    p_train = sub.add_parser("train", help="run simulated distributed training")
    add_run_config_args(p_train, ranks=8, backend="sim")
    p_train.add_argument("--epochs", type=int, default=5)
    p_train.add_argument("--auto", action="store_true",
                         help="let the autotuning planner pick algorithm, "
                              "sparsity mode, partitioner and replication "
                              "factor for --backend (overrides those flags)")
    p_train.add_argument("--grad-overlap", action="store_true",
                         help="wait-free backward pass: post each layer's "
                              "weight-gradient all-reduce nonblocking and "
                              "drain at the optimizer step (bit-identical "
                              "results at full wire precision — see "
                              "docs/performance.md)")
    p_train.add_argument("--grad-dtype", choices=list(GRAD_DTYPES),
                         default=None, metavar="DTYPE",
                         help="wire precision of the gradient exchange "
                              "(float32 / float16 / bfloat16; default: the "
                              "training dtype; weights stay in the training "
                              "dtype — see docs/performance.md)")
    p_train.add_argument("--grad-bucket-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="tensor-fusion bucket size for the gradient "
                              "exchange (0 = one reduce per layer; default: "
                              "sized from the backend's calibrated "
                              "per-message overhead when overlap or a "
                              "reduced wire dtype is on)")
    p_train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="directory for atomic training checkpoints "
                              "(weights, optimizer/RNG state, epoch, plan "
                              "fingerprint — see docs/backends.md)")
    p_train.add_argument("--checkpoint-every", type=int, default=0,
                         metavar="N",
                         help="save a checkpoint every N epochs (requires "
                              "--checkpoint-dir; 0 disables)")
    p_train.add_argument("--resume", action="store_true",
                         help="resume from the newest intact checkpoint in "
                              "--checkpoint-dir (bit-identical to the "
                              "uninterrupted run on the same plan)")
    p_train.add_argument("--max-restarts", type=int, default=0, metavar="N",
                         help="supervised retry budget on a detected rank "
                              "loss (restores the last checkpoint when one "
                              "exists; 0 propagates the failure)")
    p_train.add_argument("--elastic", action="store_true",
                         help="on restart after a rank loss, re-partition "
                              "and re-plan at the surviving rank count "
                              "instead of retrying the same configuration")
    add_output_args(p_train)

    p_bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    p_bench.add_argument("experiment", nargs="?", default=None,
                         choices=["table2", "table3", "fig3", "fig4", "fig5",
                                  "fig6", "fig7"])
    p_bench.add_argument("--scale", type=float, default=None)
    p_bench.add_argument("--epochs", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--backend", choices=available_backends(),
                         default=None,
                         help="communicator backend for the timing runs")
    # Default None (not the env var): the REPRO_MACHINE fallback is applied
    # by bench_machine() inside the timed experiments, so exporting the env
    # var never counts as an explicit flag on static tables.
    p_bench.add_argument("--machine", choices=sorted(PRESETS),
                         default=None,
                         help="machine-model preset for the timing runs "
                              "(default: REPRO_MACHINE or perlmutter-scaled)")
    p_bench.add_argument("--auto", action="store_true",
                         help="append scheme=AUTO rows running the "
                              "planner-chosen configuration per (dataset, p)")
    p_bench.add_argument("--quick", action="store_true",
                         help="CI smoke mode: tiny scale, one epoch, small "
                              "process counts (defaults to fig3 when no "
                              "experiment is named)")
    add_output_args(p_bench)

    p_tune = sub.add_parser(
        "tune", help="autotune the distributed training configuration")
    add_dataset_args(p_tune)
    p_tune.add_argument("--nranks", type=int, nargs="+", default=[8],
                        help="candidate rank counts the planner considers")
    p_tune.add_argument("--machine", choices=sorted(PRESETS),
                        default=bench.bench_machine("perlmutter-scaled"))
    p_tune.add_argument("--backend", choices=available_backends(),
                        default="sim",
                        help="communicator backend the plan will run on "
                             "(prices its per-message overhead and "
                             "gradient buckets)")
    p_tune.add_argument("--partitioner",
                        choices=sorted(PARTITIONERS) + ["none", AUTO],
                        default=AUTO,
                        help="pin the partitioner (default: let the "
                             "planner choose)")
    p_tune.add_argument("--hidden", type=int, default=16)
    p_tune.add_argument("--layers", type=int, default=3)
    p_tune.add_argument("--cache", default=None,
                        help="plan cache path (default: REPRO_PLAN_CACHE or "
                             "~/.cache/repro/plan_cache.json)")
    p_tune.add_argument("--no-cache", action="store_true",
                        help="do not read or write the plan cache")
    p_tune.add_argument("--limit", type=int, default=15,
                        help="maximum ranked candidates to print")
    p_tune.add_argument("--pipeline-depths", type=int, nargs="+",
                        default=[1], metavar="DEPTH",
                        help="compiled-execution pipeline depths the "
                             "planner enumerates (default: 1 = synchronous "
                             "only; '1 2' weighs double-buffered overlap "
                             "against it)")
    p_tune.add_argument("--grad-overlap", action="store_true",
                        help="add the wait-free backward pass to the plan "
                             "space: the planner weighs overlapped bucketed "
                             "gradient exchange against synchronous "
                             "per-layer reduces")
    p_tune.add_argument("--quick", action="store_true",
                        help="CI smoke mode: tiny scale, p=4")

    p_cal = sub.add_parser(
        "calibrate",
        help="measure per-backend message overheads on this host")
    p_cal.add_argument("--backends", nargs="+",
                       choices=available_backends(), default=None,
                       help="backends to measure (default: all registered)")
    p_cal.add_argument("--nranks", type=int, default=2,
                       help="ranks per measurement communicator")
    p_cal.add_argument("--rounds", type=int, default=40,
                       help="timed broadcast rounds per backend")
    p_cal.add_argument("--payload-floats", type=int, default=128,
                       help="float64 elements per broadcast payload")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--output", default=None,
                       help="calibration file path (default: "
                            "REPRO_CALIBRATION or "
                            "~/.cache/repro/calibration.json)")
    p_cal.add_argument("--dry-run", action="store_true",
                       help="measure and print, but do not write the file")
    p_cal.add_argument("--quick", action="store_true",
                       help="CI smoke mode: short bursts (noisier numbers, "
                            "right order of magnitude)")

    p_cost = sub.add_parser(
        "cost", help="closed-form cost of one SpMM; the planner's crossover "
                     "p and best c beside the closed form")
    add_dataset_args(p_cost)
    p_cost.add_argument("--ranks", type=int, default=16)
    p_cost.add_argument("--partitioner",
                        choices=sorted(PARTITIONERS) + ["none"], default="gvb")
    p_cost.add_argument("--machine", choices=sorted(PRESETS),
                        default=bench.bench_machine("perlmutter"))

    p_trace = sub.add_parser("trace",
                             help="inspect a recorded Chrome/Perfetto trace")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_view = trace_sub.add_parser(
        "view", help="summarize a trace: top slices by self-time, "
                     "per-rank balance")
    p_view.add_argument("path", help="trace JSON written by --trace")
    p_view.add_argument("--top", type=int, default=12,
                        help="slice rows to show (default 12)")

    p_serve = sub.add_parser(
        "serve", help="serve inference from a trained checkpoint "
                      "(dynamic micro-batching; see docs/serving.md)")
    add_run_config_args(p_serve, ranks=4, backend="process")
    p_serve.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="trained checkpoint: a .ckpt file or a "
                              "--checkpoint-dir directory (newest intact "
                              "wins); default: train --train-epochs epochs "
                              "in-process first and serve that")
    p_serve.add_argument("--train-epochs", type=int, default=3, metavar="N",
                         help="epochs of the in-process warmup training "
                              "used when --checkpoint is not given")
    p_serve.add_argument("--max-batch-width", type=int, default=None,
                         metavar="COLS",
                         help="column budget of one coalesced forward "
                              "(default: input width x max(2, --clients))")
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0,
                         help="batching window after the first queued "
                              "request (already-queued requests never wait)")
    p_serve.add_argument("--queue-depth", type=int, default=256,
                         help="admission bound; beyond it requests are "
                              "rejected with a structured error")
    p_serve.add_argument("--max-restarts", type=int, default=1, metavar="N",
                         help="supervised-recovery budget: worker losses "
                              "tolerated (warm state rebuilt in place) "
                              "before the engine fails permanently")
    p_serve.add_argument("--deadline-ms", type=float, default=None,
                         metavar="MS",
                         help="demo: per-request deadline; requests still "
                              "queued past it are shed before any SpMM work")
    p_serve.add_argument("--health", action="store_true",
                         help="print the engine health snapshot "
                              "(ready/failed/stopped, restarts, last "
                              "failure) after the run")
    p_serve.add_argument("--no-batch", action="store_true",
                         help="demo: serve one request per forward "
                              "(--bench sweeps this baseline itself)")
    p_serve.add_argument("--requests", type=int, default=None, metavar="N",
                         help="concurrent demo requests (default 24; not "
                              "with --bench)")
    p_serve.add_argument("--tenants", type=int, default=2,
                         help="distinct tenants requests are spread over")
    p_serve.add_argument("--bench", action="store_true",
                         help="load sweep: an open loop per offered QPS "
                              "(timed from each request's due time) and a "
                              "closed loop for saturation -> p50/p99 "
                              "latency + achieved throughput, batched vs "
                              "no-batch")
    p_serve.add_argument("--clients", type=int, default=8,
                         help="--bench: requests kept in flight by the "
                              "unpaced (closed-loop) step (also sizes the "
                              "default --max-batch-width)")
    p_serve.add_argument("--qps", type=float, nargs="+", default=None,
                         metavar="QPS",
                         help="--bench: offered-QPS steps (0 = unpaced, "
                              "finds saturation; default: 50 100 200 0)")
    p_serve.add_argument("--duration", type=float, default=None,
                         help="--bench: seconds per offered-QPS step "
                              "(default 3.0)")
    p_serve.add_argument("--output", default=None, metavar="PATH",
                         help="--bench: write the sweep in the "
                              "BENCH_serve.json format (run header + "
                              "the sweep under \"serve\")")
    p_serve.add_argument("--quick", action="store_true",
                         help="CI smoke mode: tiny scale, short steps")
    add_output_args(p_serve)

    p_mem = sub.add_parser("memory", help="per-rank memory estimate "
                                          "(the paper's schedule)")
    p_mem.add_argument("--vertices", type=int, required=True)
    p_mem.add_argument("--edges", type=int, required=True,
                       help="number of undirected edges")
    p_mem.add_argument("--features", type=int, default=300)
    p_mem.add_argument("--classes", type=int, default=24)
    p_mem.add_argument("--ranks", type=int, default=16)
    p_mem.add_argument("--hidden", type=int, default=16)
    p_mem.add_argument("--layers", type=int, default=3)
    p_mem.add_argument("--machine", choices=sorted(PRESETS),
                       default=bench.bench_machine("perlmutter"))
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_datasets(args) -> int:
    rows = [dataset_summary(load_dataset(name, scale=args.scale,
                                         seed=args.seed))
            for name in DATASET_NAMES]
    print(format_table(rows, title="Datasets (scaled stand-ins vs paper scale)"))
    return 0


def _cmd_partition(args) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    partitioner = get_partitioner(args.partitioner, seed=args.seed)
    result = partitioner.partition(dataset.adjacency, args.nparts)
    report = partition_report(dataset.adjacency, result.parts, args.nparts)
    print(format_kv(report,
                    title=f"{args.partitioner} on {dataset.name} "
                          f"(n={dataset.n_vertices}, nparts={args.nparts})"))
    phases = {f"{phase}_s": result.stats[f"{phase}_s"] for phase in PHASES
              if f"{phase}_s" in result.stats}
    if phases:
        print(format_kv(phases, title="wall seconds per phase"))
    return 0


def _run_config(args, **fields) -> DistTrainConfig:
    """The :class:`DistTrainConfig` the run-config flags describe;
    ``fields`` add the command's own fields or override shared ones."""
    shared = dict(
        n_ranks=args.ranks, algorithm=args.algorithm,
        sparsity_aware=not args.oblivious,
        partitioner=None if args.partitioner == "none" else args.partitioner,
        replication_factor=args.replication, hidden=args.hidden,
        n_layers=args.layers, machine=args.machine, backend=args.backend,
        seed=args.seed, dtype=args.dtype, pipeline_depth=args.pipeline)
    return DistTrainConfig(**{**shared, **fields})


def _write_outputs(args, metrics: dict) -> None:
    """Write ``--trace`` (the spans) and ``--metrics`` (``metrics``)."""
    if args.trace:
        save_trace(args.trace)
        print(f"\nwrote trace: {args.trace} ({len(TRACE)} spans)")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(metrics))
        print(f"wrote metrics: {args.metrics}")


def _cmd_train(args) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    auto = {"algorithm": AUTO, "partitioner": AUTO} if args.auto else {}
    config = _run_config(
        args, epochs=args.epochs, grad_overlap=args.grad_overlap,
        grad_bucket_bytes=args.grad_bucket_bytes, grad_dtype=args.grad_dtype,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every, resume=args.resume,
        max_restarts=args.max_restarts, elastic=args.elastic, **auto)
    if args.trace:
        TRACE.enable()
    result = train_distributed(dataset, config, eval_every=0)
    config = result.config      # planner-resolved when --auto / "auto"
    if args.auto:
        print(f"planner chose: algorithm={config.algorithm} "
              f"mode={'sparsity_aware' if config.sparsity_aware else 'oblivious'} "
              f"partitioner={config.partitioner or 'none'} "
              f"c={config.replication_factor}\n")
    summary = {
        "dataset": dataset.name,
        "scheme": config.scheme_label,
        "algorithm": config.algorithm,
        "backend": config.backend,
        "partitioner": config.partitioner or "none",
        "ranks": config.n_ranks,
        "epochs": config.epochs,
        "avg_epoch_time_s": result.avg_epoch_time_s,
        "total_time_s": result.total_time_s,
        "input_propagation_s": result.input_propagation_s,
        "final_loss": result.final_loss,
        "test_accuracy": result.test_accuracy,
    }
    if result.restarts or result.resumed_from_epoch is not None:
        summary["restarts"] = result.restarts
        summary["resumed_from_epoch"] = (
            "-" if result.resumed_from_epoch is None
            else result.resumed_from_epoch)
    summary.update({f"time_{k}_s_per_epoch": v
                    for k, v in result.breakdown.items()})
    summary.update({f"comm_{k}": v for k, v in result.comm_summary.items()
                    if k in ("total_MB", "max_MB_per_rank", "imbalance_pct")})
    print(format_kv(summary, title="simulated distributed training"))
    if result.grad_summary:
        # Every number below comes from result.metrics (the trainer's
        # metrics registry) — the same source the --metrics export
        # serializes, so the two can never disagree.
        m = result.metrics
        breakdown = {
            "comm_s_per_epoch": m.get("gradsync_comm_s_per_epoch", 0.0),
            "compute_s_per_epoch":
                m.get("gradsync_compute_s_per_epoch", 0.0),
            "overlap_window_s_per_epoch":
                m.get("overlap_hidden_s_per_epoch", 0.0),
        }
        for key, value in result.grad_summary.items():
            breakdown[key] = m.get(f"gradsync_{key}", value)
        print()
        print(format_kv(breakdown, title="gradient exchange (per epoch)"))
    _write_outputs(args, result.metrics)
    return 0


_BENCH_DISPATCH = {
    "table2": (bench.table2_metis_comm_stats, "Table 2 — METIS comm stats"),
    "table3": (bench.table3_dataset_stats, "Table 3 — datasets"),
    "fig3": (bench.figure3_1d_scaling, "Figure 3 — 1D scaling"),
    "fig4": (bench.figure4_1d_breakdown, "Figure 4 — 1D breakdown"),
    "fig5": (bench.figure5_papers_breakdown, "Figure 5 — Papers at p=16"),
    "fig6": (bench.figure6_partitioner_comparison, "Figure 6 — GVB vs METIS"),
    "fig7": (bench.figure7_15d_scaling, "Figure 7 — 1.5D"),
}


def _auto_sweep_defaults(fn) -> tuple:
    """The (datasets, p_values) grid an experiment sweeps by default, read
    from its keyword defaults so the ``--auto`` planner rows always align
    with the experiment's own grid (``fig5`` hardcodes the Papers dataset
    and exposes a single ``p``)."""
    params = inspect.signature(fn).parameters
    datasets = params["datasets"].default if "datasets" in params \
        else ("papers",)
    if "p_values" in params:
        p_values = params["p_values"].default
    else:
        p_values = (params["p"].default,)
    return datasets, p_values


def _cmd_bench(args) -> int:
    experiment = args.experiment
    if experiment is None:
        if not args.quick:
            raise ValueError(
                "bench needs an experiment name (or --quick for the smoke run)")
        experiment = "fig3"
    if args.trace or args.metrics:
        # Bench metrics are span-derived, so --metrics needs tracing too.
        TRACE.enable()
    fn, title = _BENCH_DISPATCH[experiment]
    kwargs = {"seed": args.seed}
    timed = experiment not in ("table2", "table3")
    for flag, given in (("--backend", args.backend is not None),
                        ("--machine", args.machine is not None),
                        ("--auto", args.auto)):
        if given and not timed:
            raise ValueError(
                f"{flag} has no effect on {experiment} (a static analysis "
                f"that runs no distributed training)")
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.epochs is not None and timed:
        kwargs["epochs"] = args.epochs
    if args.backend is not None:
        kwargs["backend"] = args.backend
    if args.machine is not None and timed:
        kwargs["machine"] = args.machine
    if args.quick:
        # CI smoke settings: tiny stand-ins, one epoch, small p sweeps.
        kwargs.setdefault("scale", 0.05)
        if timed:
            kwargs.setdefault("epochs", 1)
            if experiment in ("fig3", "fig4", "fig6"):
                kwargs["p_values"] = (2, 4)
                kwargs["datasets"] = ("reddit",)
            elif experiment == "fig5":
                kwargs["p"] = 4
            elif experiment == "fig7":
                kwargs["p_values"] = (4, 8)
                kwargs["replication_factors"] = (2,)
                kwargs["datasets"] = ("protein",)
        title += " [quick smoke]"
    rows = fn(**kwargs)
    if args.auto:
        datasets, p_values = _auto_sweep_defaults(fn)
        datasets = kwargs.get("datasets", datasets)
        p_values = (kwargs["p"],) if "p" in kwargs \
            else kwargs.get("p_values", p_values)
        rows = rows + bench.auto_plan_rows(
            datasets, p_values, seed=args.seed,
            **{k: kwargs[k] for k in ("scale", "epochs", "backend", "machine")
               if k in kwargs})
        title += " + planner AUTO rows"
    print(format_table(rows, title=title))
    if experiment in ("fig3", "fig6", "fig7"):
        print()
        print(format_series(rows, group_by="scheme", x="p", y="epoch_time_s",
                            title="epoch time per scheme"))
    _write_outputs(args, metrics_from_spans().as_dict())
    return 0


def _cmd_cost(args) -> int:
    from .core.distribute import distribute
    from .plan import Planner
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    part_name = None if args.partitioner == "none" else args.partitioner
    # The same distribution the planner prices with.
    matrix = distribute(dataset.adjacency, part_name, args.ranks,
                        seed=args.seed)[0]
    f = dataset.n_features
    aware = spmm_cost_1d_sparsity_aware(matrix, f, args.machine)
    oblivious = spmm_cost_1d_oblivious(matrix, f, args.machine)
    print(format_kv(aware.as_dict(),
                    title=f"sparsity-aware 1D SpMM cost ({dataset.name}, "
                          f"p={args.ranks}, f={f})"))
    print(format_kv(oblivious.as_dict(), title="sparsity-oblivious (CAGNET)"))
    ratio = oblivious.communication_s / aware.communication_s \
        if aware.communication_s > 0 else float("inf")
    print(f"\npredicted communication speedup of sparsity-aware: {ratio:.2f}x")

    # "Which configuration" is the planner's question: each answer is its
    # pick over a pinned space (the trainer's epoch simulated), with the
    # closed form priced beside it.  Nothing is cached.
    def pick(n_ranks: int, **space):
        return Planner(args.machine, seed=args.seed, use_cache=False,
                       **space).plan_for_dataset(dataset, n_ranks).plan

    def prices(plan) -> str:
        return (f"simulated {plan.simulated_s:.3e} s, "
                f"closed form {plan.predicted_s:.3e} s")

    p_values = [p for p in sorted({2, 4, 8, 16, 32, 64} | {args.ranks})
                if p <= dataset.n_vertices]
    xover = next((plan for plan in
                  (pick(p, algorithms=["1d"], partitioners=[None])
                   for p in p_values) if plan.sparsity_aware), None)
    xover_str = f"p = {xover.n_ranks} ({prices(xover)})" if xover \
        else f"never for p in {p_values}"
    print(f"crossover (planner: sparsity-aware 1D wins from, natural "
          f"blocks): {xover_str}")

    best = pick(args.ranks, modes=["sparsity_aware"],
                partitioners=[part_name], replication_candidates=(2, 4))
    print(f"best replication factor (planner: P={args.ranks}, "
          f"c in (1, 2, 4)): c = {best.replication_factor} "
          f"({prices(best)})")
    return 0


def _cmd_tune(args) -> int:
    from .plan import PlanCache, Planner
    scale = args.scale
    nranks: List[int] = list(args.nranks)
    if args.quick:
        scale = min(scale, 0.05)
        nranks = [4]
    dataset = load_dataset(args.dataset, scale=scale, seed=args.seed)

    if args.partitioner == AUTO:
        partitioners = None
    else:
        partitioners = [None if args.partitioner == "none"
                        else args.partitioner]
    cache = None if args.no_cache else PlanCache(args.cache)
    planner = Planner(
        machine=args.machine,
        backend=args.backend,
        partitioners=partitioners,
        pipeline_depths=args.pipeline_depths,
        grad_overlaps=(False, True) if args.grad_overlap else (False,),
        seed=args.seed,
        # Tune for what `repro train` runs (and shares a cache key with).
        cache_input_propagation=True,
        cache=cache,
        use_cache=not args.no_cache,
    )
    report = planner.plan_for_dataset(
        dataset, nranks[0] if len(nranks) == 1 else nranks,
        hidden=args.hidden, n_layers=args.layers)

    shown = [{**row,
              "partitioner": row.get("partitioner") or "none",
              "simulated_s": "-" if row.get("simulated_s") is None
              else row["simulated_s"]}
             for row in report.table[:max(1, args.limit)]]
    title = (f"Autotuned plan space — {dataset.name} "
             f"(machine={args.machine}, p={','.join(map(str, nranks))})")
    if args.quick:
        title += " [quick smoke]"
    print(format_table(shown, title=title))
    if len(report.table) > len(shown):
        print(f"... ({len(report.table) - len(shown)} more candidates; "
              f"--limit to show them)")

    plan = report.plan
    print()
    print(format_kv({"algorithm": plan.algorithm, "mode": plan.mode,
                     "scheme": plan.scheme_label, **plan.as_dict(),
                     "partitioner": plan.partitioner or "none",
                     "simulated_s": "-" if plan.simulated_s is None
                     else plan.simulated_s}, title="chosen plan"))
    status = "HIT (0 candidates priced)" if report.cache_hit \
        else f"MISS ({report.candidates_priced} candidates priced)"
    location = report.cache_path or "disabled"
    print(f"\nplan cache: {status} [{location}]")
    return 0


def _cmd_calibrate(args) -> int:
    from .plan import (calibration_path, effective_message_overheads,
                       run_calibration, write_calibration)
    payload = run_calibration(backends=args.backends, nranks=args.nranks,
                              rounds=args.rounds,
                              payload_floats=args.payload_floats,
                              seed=args.seed, quick=args.quick)
    rows = [detail for detail in payload["details"]]
    title = f"measured per-message backend overheads (host={payload['host']})"
    if args.quick:
        title += " [quick smoke]"
    print(format_table(rows, title=title))
    if args.dry_run:
        print("\ndry run: calibration not written "
              f"(would go to {calibration_path(args.output)})")
        return 0
    target = write_calibration(payload, args.output)
    print(f"\nwrote {target}")
    effective = effective_message_overheads()
    print("planner now scores with: " +
          ", ".join(f"{b}={effective[b]:.3g}s/msg"
                    for b in sorted(effective)))
    print("(cached plans keyed on the old table are invalidated "
          "automatically)")
    return 0


def _cmd_trace(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        trace = json.load(fh)
    summary = trace_summary(trace, top=args.top)
    if not summary["tracks"]:
        print(f"{args.path}: no slices found (is this a Chrome trace?)")
        return 1
    rows = [{**row, "self_ms": f"{row['self_ms']:.3f}"}
            for row in summary["slices"]]
    print(format_table(rows, title=f"top slices by self time — {args.path}"))
    print()
    tracks = [{**row, "busy_ms": f"{row['busy_ms']:.3f}"}
              for row in summary["tracks"]]
    print(format_table(tracks, title="per-track busy time"))
    print(f"\nbusy-time imbalance across tracks (max/mean - 1): "
          f"{summary['imbalance']:.1%}")
    return 0


def _cmd_memory(args) -> int:
    # The paper's out-of-memory points are for its schedule (A X
    # recomputed every epoch).
    config = DistTrainConfig(n_ranks=args.ranks, hidden=args.hidden,
                             n_layers=args.layers, epochs=1,
                             cache_input_propagation=False)
    estimate = estimate_rank_memory(args.vertices, 2 * args.edges,
                                    args.features, args.classes, config)
    print(format_kv(estimate.as_dict(),
                    title=f"per-rank memory estimate (p={args.ranks})"))
    fits = fits_in_memory(estimate, args.machine)
    print(f"\nfits in one {args.machine} rank's memory: {fits}")
    return 0 if fits else 1


def _cmd_serve(args) -> int:
    import tempfile
    import time

    from .serve import (RequestExpired, RequestRejected, ServeError,
                        ServeOptions, ServingEngine, prepare_checkpoint,
                        run_serve_bench)

    # A flag of the other mode would be dropped without a word.
    demo_only = {"--requests": args.requests is not None,
                 "--deadline-ms": args.deadline_ms is not None,
                 "--no-batch": args.no_batch}
    bench_only = {"--output": args.output is not None,
                  "--qps": args.qps is not None,
                  "--duration": args.duration is not None}
    for flag, given in (demo_only if args.bench else bench_only).items():
        if given:
            raise ValueError(f"{flag} has no effect "
                             f"{'with' if args.bench else 'without'} --bench")
    scale = args.scale
    duration = 3.0 if args.duration is None else args.duration
    clients = args.clients
    requests = 24 if args.requests is None else args.requests
    train_epochs = max(1, args.train_epochs)
    qps_steps = (tuple(None if q <= 0 else float(q) for q in args.qps)
                 if args.qps else (50.0, 100.0, 200.0, None))
    if args.quick:
        # Keep the whole command (training warmup included) in a smoke
        # budget: tiny graph, short steps, one paced + one unpaced leg.
        scale = min(scale, 0.05)
        duration = min(duration, 1.2)
        clients = min(clients, 6)
        requests = min(requests, 12)
        train_epochs = min(train_epochs, 2)
        if not args.qps:
            qps_steps = (60.0, None)
    tenants = tuple(f"tenant-{i}" for i in range(max(1, args.tenants)))

    dataset = load_dataset(args.dataset, scale=scale, seed=args.seed)
    config = _run_config(args, epochs=train_epochs)
    width = dataset.n_features
    max_batch_width = (args.max_batch_width
                       if args.max_batch_width is not None
                       else width * max(2, clients))
    if args.trace:
        TRACE.enable()

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmpdir:
        checkpoint = args.checkpoint
        if checkpoint is None:
            checkpoint = f"{tmpdir}/serve.ckpt"
            prepare_checkpoint(dataset, config, checkpoint,
                               epochs=train_epochs)
            print(f"no --checkpoint given: trained {train_epochs} warmup "
                  f"epoch(s) on sim -> {checkpoint}\n")

        if args.bench:
            payload = run_serve_bench(
                dataset, config, checkpoint,
                qps_steps=qps_steps, duration_s=duration, clients=clients,
                tenants=tenants, max_batch_width=max_batch_width,
                max_wait_ms=args.max_wait_ms, queue_depth=args.queue_depth,
                max_restarts=args.max_restarts, seed=args.seed)
            rows = [{
                "mode": row["mode"],
                "offered_qps": ("unpaced" if row["offered_qps"] is None
                                else f"{row['offered_qps']:.0f}"),
                "achieved_qps": f"{row['achieved_qps']:.1f}",
                "p50_ms": f"{row['p50_ms']:.2f}",
                "p99_ms": f"{row['p99_ms']:.2f}",
                "completed": row["completed"],
                "rejected": row["rejected"],
                "failed": row.get("failed", 0),
            } for row in payload["rows"]]
            print(format_table(
                rows, title=f"serve bench — {dataset.name} "
                            f"({config.backend}, p={config.n_ranks})"))
            sat = payload["saturation"]
            identity = payload["identity"]
            print()
            print(format_kv({
                "batched_saturation_qps": sat["batched_qps"],
                "no_batch_saturation_qps": sat["no_batch_qps"],
                "speedup": sat["speedup"],
                "bit_identical": identity["bit_identical"],
                "identity_requests": identity["requests"],
                "batched_max_batch_size": identity["batched_max_batch_size"],
            }, title="saturation (batched vs no-batch)"))
            health = payload["health"]      # the batched sweep's engine
            if args.output:
                record = {
                    "benchmark": "serve_throughput",
                    "source": "repro.serve.run_serve_bench",
                    "backend": config.backend,
                    # Throughput/latency rows are hardware dependent; the
                    # identity verdict is exact and must hold everywhere.
                    "deterministic": False,
                    "config": dict(
                        dataset=args.dataset, scale=scale,
                        ranks=config.n_ranks, hidden=config.hidden,
                        layers=config.n_layers, clients=clients,
                        duration_s=duration,
                        qps_steps=[q or 0 for q in qps_steps],
                        max_wait_ms=args.max_wait_ms,
                        queue_depth=args.queue_depth,
                        machine=config.machine, seed=args.seed),
                    "recorder_wall_s": round(time.perf_counter() - start, 2),
                    "serve": payload,
                }
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, indent=2) + "\n")
                print(f"\nwrote bench payload: {args.output}")
            metrics = {**payload["serve_stats"], **payload["tenant_stats"]}
        else:
            options = ServeOptions(
                max_batch_width=max_batch_width,
                max_wait_ms=args.max_wait_ms,
                queue_depth=args.queue_depth,
                batching=not args.no_batch,
                max_restarts=args.max_restarts,
                default_deadline_ms=args.deadline_ms)
            engine = ServingEngine.from_checkpoint(dataset, config,
                                                   checkpoint,
                                                   options=options)
            rng = np.random.default_rng(args.seed)
            rejected = 0
            failed = 0
            with engine:
                futures = []
                for i in range(requests):
                    features = rng.standard_normal((dataset.n_vertices,
                                                    width))
                    try:
                        futures.append(engine.submit(
                            features, tenant=tenants[i % len(tenants)]))
                    except RequestRejected:
                        rejected += 1
                results = []
                for future in futures:
                    try:
                        results.append(future.result(timeout=120.0))
                    except (ServeError, RequestExpired):
                        failed += 1
                metrics = engine.stats()
                health = engine.health()
            latencies = [r.latency_s for r in results]
            print(format_kv({
                "dataset": dataset.name,
                "backend": config.backend,
                "ranks": config.n_ranks,
                "checkpoint_epoch": engine.checkpoint_epoch,
                "batching": not args.no_batch,
                "requests_completed": len(results),
                "requests_rejected": rejected,
                "requests_failed": failed,
                "batches": metrics.get("serve_batches_total", 0),
                "max_batch_size": metrics.get("serve_batch_size_max", 1.0),
                "mean_batch_size": metrics.get("serve_batch_size_mean", 1.0),
                "p50_latency_ms": percentile(latencies, 0.50) * 1e3,
                "p99_latency_ms": percentile(latencies, 0.99) * 1e3,
                "plans_retained": metrics.get("serve_plans_retained", 0),
                "plan_hits": metrics.get("serve_plan_hits", 0),
                "plan_misses": metrics.get("serve_plan_misses", 0),
            }, title="serving demo"))
            tenant_rows = []
            for tenant in tenants:
                label = f'{{tenant="{tenant}"}}'
                tenant_rows.append({
                    "tenant": tenant,
                    "requests": metrics.get(
                        f"serve_requests_total{label}", 0),
                    "comm_MB": f"{metrics.get(f'tenant_comm_bytes_total{label}', 0.0) / 1e6:.3f}",
                    "messages": f"{metrics.get(f'tenant_comm_messages_total{label}', 0.0):.1f}",
                })
            print()
            print(format_table(tenant_rows, title="per-tenant accounting"))

    if args.health:
        print()
        print(format_kv(health, title="engine health"))
    _write_outputs(args, metrics)
    if args.bench and not payload["identity"]["bit_identical"]:
        print("error: batched serving is NOT bit-identical to sequential",
              file=sys.stderr)
        return 1
    return 0


_DISPATCH = {
    "datasets": _cmd_datasets,
    "partition": _cmd_partition,
    "train": _cmd_train,
    "bench": _cmd_bench,
    "tune": _cmd_tune,
    "cost": _cmd_cost,
    "calibrate": _cmd_calibrate,
    "memory": _cmd_memory,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
