"""One entry point per table / figure of the paper.

Every function returns the rows that regenerate the corresponding table or
figure (and the benchmark scripts under ``benchmarks/`` print them).  The
experiments run on scaled-down synthetic stand-ins of the paper's datasets
(see DESIGN.md); process counts are scaled accordingly.  Two environment
variables let users trade fidelity for runtime without editing code:

* ``REPRO_BENCH_SCALE``   — dataset scale factor (default ``0.4``);
* ``REPRO_BENCH_EPOCHS``  — epochs per timing run (default ``2``; the
  simulated per-epoch time is deterministic, so a couple of epochs is
  enough for the timing figures);
* ``REPRO_BENCH_BACKEND`` — communicator backend (default ``"sim"``; any
  name from :func:`repro.comm.available_backends`, e.g. ``"threaded"``
  for real shared-memory worker threads or ``"process"`` for one OS
  process per rank, both timed by wall clock);
* ``REPRO_MACHINE``       — machine-model preset for the simulated runs
  (default ``"perlmutter-scaled"``; any name from
  :data:`repro.comm.machine.PRESETS`).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from ..core.analysis import single_spmm_volume_table
from ..graphs.datasets import dataset_summary, load_dataset
from .harness import STANDARD_SCHEMES, Scheme, run_scheme_grid, run_single

__all__ = [
    "bench_scale", "bench_epochs", "bench_backend", "bench_machine",
    "table2_metis_comm_stats", "table3_dataset_stats",
    "figure3_1d_scaling", "figure4_1d_breakdown", "figure5_papers_breakdown",
    "figure6_partitioner_comparison", "figure7_15d_scaling",
    "ablation_balance_constraint", "ablation_crossover",
    "auto_plan_rows",
]


def bench_scale(default: float = 0.4) -> float:
    """Dataset scale used by the benchmarks (env ``REPRO_BENCH_SCALE``)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


def bench_epochs(default: int = 2) -> int:
    """Epochs per timing run (env ``REPRO_BENCH_EPOCHS``)."""
    return int(os.environ.get("REPRO_BENCH_EPOCHS", default))


def bench_backend(default: str = "sim") -> str:
    """Communicator backend used by the benchmarks (env ``REPRO_BENCH_BACKEND``)."""
    return os.environ.get("REPRO_BENCH_BACKEND", default)


def bench_machine(default: str = "perlmutter-scaled") -> str:
    """Machine-model preset used by the benchmarks (env ``REPRO_MACHINE``)."""
    return os.environ.get("REPRO_MACHINE", default)


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def table2_metis_comm_stats(p_values: Sequence[int] = (4, 8, 16, 32, 64),
                            scale: Optional[float] = None,
                            seed: int = 0) -> List[Dict[str, object]]:
    """Table 2: per-process data of one SpMM under the METIS-like partitioner.

    Paper: Amazon, f = 300, p in {16..256}; average and maximum MB sent by a
    process and the resulting load imbalance.  The shape to reproduce is a
    *growing* imbalance percentage as p grows.
    """
    scale = bench_scale() if scale is None else scale
    dataset = load_dataset("amazon", scale=scale, seed=seed)
    f = dataset.n_features
    rows = []
    for entry in single_spmm_volume_table(dataset.adjacency, p_values, f=f,
                                          partitioner="metis_like", seed=seed):
        row = entry.as_dict()
        row["dataset"] = dataset.name
        row["f"] = f
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 3
# ----------------------------------------------------------------------
def table3_dataset_stats(scale: Optional[float] = None, seed: int = 0
                         ) -> List[Dict[str, object]]:
    """Table 3: vertex/edge/feature/label counts of every dataset.

    Reports both the scaled synthetic stand-in actually used by the
    benchmarks and the paper's full-scale statistics side by side.
    """
    scale = bench_scale() if scale is None else scale
    rows = []
    for name in ("reddit", "amazon", "protein", "papers"):
        rows.append(dataset_summary(load_dataset(name, scale=scale, seed=seed)))
    return rows


# ----------------------------------------------------------------------
# Figures 3 and 4 (1D scaling and breakdown)
# ----------------------------------------------------------------------
def figure3_1d_scaling(datasets: Sequence[str] = ("reddit", "amazon", "protein"),
                       p_values: Sequence[int] = (4, 16, 32, 64),
                       scale: Optional[float] = None,
                       epochs: Optional[int] = None,
                       backend: Optional[str] = None,
                       machine: Optional[str] = None,
                       seed: int = 0) -> List[Dict[str, object]]:
    """Figure 3: per-epoch time vs process count for CAGNET / SA / SA+GVB."""
    scale = bench_scale() if scale is None else scale
    epochs = bench_epochs() if epochs is None else epochs
    backend = bench_backend() if backend is None else backend
    machine = bench_machine() if machine is None else machine
    schemes = [STANDARD_SCHEMES["CAGNET"], STANDARD_SCHEMES["SA"],
               STANDARD_SCHEMES["SA+GVB"]]
    rows: List[Dict[str, object]] = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale, seed=seed)
        rows.extend(run_scheme_grid(dataset, schemes, p_values,
                                    epochs=epochs, backend=backend,
                                    machine=machine, seed=seed))
    return rows


def figure4_1d_breakdown(datasets: Sequence[str] = ("reddit", "amazon", "protein"),
                         p_values: Sequence[int] = (16, 64),
                         scale: Optional[float] = None,
                         epochs: Optional[int] = None,
                         backend: Optional[str] = None,
                         machine: Optional[str] = None,
                         seed: int = 0) -> List[Dict[str, object]]:
    """Figure 4: per-epoch timing breakdown (local / alltoall / bcast).

    The breakdown columns (``time_local_s``, ``time_alltoall_s``,
    ``time_bcast_s``, ``time_allreduce_s``) are exactly the stacked bars of
    the figure.
    """
    return figure3_1d_scaling(datasets=datasets, p_values=p_values,
                              scale=scale, epochs=epochs, backend=backend,
                              machine=machine, seed=seed)


# ----------------------------------------------------------------------
# Figure 5 (Papers dataset)
# ----------------------------------------------------------------------
def figure5_papers_breakdown(p: int = 16,
                             scale: Optional[float] = None,
                             epochs: Optional[int] = None,
                             backend: Optional[str] = None,
                             machine: Optional[str] = None,
                             seed: int = 0) -> List[Dict[str, object]]:
    """Figure 5: Papers dataset at p = 16, all three schemes with breakdown.

    The paper reports roughly a 2.3x improvement of SA+GVB over the
    sparsity-oblivious baseline at this configuration.
    """
    scale = bench_scale() if scale is None else scale
    epochs = bench_epochs() if epochs is None else epochs
    backend = bench_backend() if backend is None else backend
    machine = bench_machine() if machine is None else machine
    dataset = load_dataset("papers", scale=scale, seed=seed)
    schemes = [STANDARD_SCHEMES["CAGNET"], STANDARD_SCHEMES["SA"],
               STANDARD_SCHEMES["SA+GVB"]]
    return run_scheme_grid(dataset, schemes, [p], epochs=epochs,
                           backend=backend, machine=machine, seed=seed)


# ----------------------------------------------------------------------
# Figure 6 (GVB vs METIS)
# ----------------------------------------------------------------------
def figure6_partitioner_comparison(datasets: Sequence[str] = ("amazon", "protein"),
                                   p_values: Sequence[int] = (4, 16, 32, 64),
                                   scale: Optional[float] = None,
                                   epochs: Optional[int] = None,
                                   backend: Optional[str] = None,
                                   machine: Optional[str] = None,
                                   seed: int = 0) -> List[Dict[str, object]]:
    """Figure 6: SA+GVB vs SA+METIS per-epoch time.

    Expected shape: GVB clearly ahead on the irregular Amazon graph (it
    fixes the communication load imbalance METIS leaves behind), the two
    roughly tied on the regular Protein graph.
    """
    scale = bench_scale() if scale is None else scale
    epochs = bench_epochs() if epochs is None else epochs
    backend = bench_backend() if backend is None else backend
    machine = bench_machine() if machine is None else machine
    schemes = [STANDARD_SCHEMES["SA+METIS"], STANDARD_SCHEMES["SA+GVB"]]
    rows: List[Dict[str, object]] = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale, seed=seed)
        rows.extend(run_scheme_grid(dataset, schemes, p_values,
                                    epochs=epochs, backend=backend,
                                    machine=machine, seed=seed))
    return rows


# ----------------------------------------------------------------------
# Figure 7 (1.5D)
# ----------------------------------------------------------------------
def figure7_15d_scaling(datasets: Sequence[str] = ("amazon", "protein"),
                        p_values: Sequence[int] = (16, 32, 64),
                        replication_factors: Sequence[int] = (2, 4),
                        scale: Optional[float] = None,
                        epochs: Optional[int] = None,
                        backend: Optional[str] = None,
                        machine: Optional[str] = None,
                        seed: int = 0) -> List[Dict[str, object]]:
    """Figure 7: 1.5D per-epoch time for c in {2, 4}.

    Expected shape: plain SA does not beat the oblivious baseline (the
    all-reduce dominates once the send volume shrinks), while SA+GVB does;
    with graph partitioning there is an optimal process count after which
    times increase again.
    """
    scale = bench_scale() if scale is None else scale
    epochs = bench_epochs() if epochs is None else epochs
    backend = bench_backend() if backend is None else backend
    machine = bench_machine() if machine is None else machine
    rows: List[Dict[str, object]] = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale, seed=seed)
        for c in replication_factors:
            schemes = [
                Scheme("CAGNET", sparsity_aware=False, partitioner=None,
                       algorithm="1.5d", replication_factor=c),
                Scheme("SA", sparsity_aware=True, partitioner=None,
                       algorithm="1.5d", replication_factor=c),
                Scheme("SA+GVB", sparsity_aware=True, partitioner="gvb",
                       algorithm="1.5d", replication_factor=c),
            ]
            valid_p = [p for p in p_values
                       if p % c == 0 and (p // c) % c == 0]
            rows.extend(run_scheme_grid(dataset, schemes, valid_p,
                                        epochs=epochs, backend=backend,
                                        machine=machine, seed=seed))
    return rows


# ----------------------------------------------------------------------
# Ablations (design-choice benches beyond the paper's headline results)
# ----------------------------------------------------------------------
def ablation_balance_constraint(p: int = 32,
                                factors: Sequence[float] = (1.02, 1.10, 1.30),
                                scale: Optional[float] = None,
                                seed: int = 0) -> List[Dict[str, object]]:
    """How the GVB balance tolerance trades compute balance for volume."""
    from ..partition import GVBPartitioner, partition_report
    scale = bench_scale() if scale is None else scale
    dataset = load_dataset("amazon", scale=scale, seed=seed)
    rows = []
    for factor in factors:
        part = GVBPartitioner(volume_balance_factor=factor, seed=seed)
        result = part.partition(dataset.adjacency, p)
        row = {"dataset": dataset.name, "p": p, "balance_factor": factor}
        row.update(partition_report(dataset.adjacency, result.parts, p))
        rows.append(row)
    return rows


def ablation_crossover(p_values: Sequence[int] = (2, 4, 8, 16, 32, 64),
                       scale: Optional[float] = None,
                       epochs: Optional[int] = None,
                       backend: Optional[str] = None,
                       machine: Optional[str] = None,
                       seed: int = 0) -> List[Dict[str, object]]:
    """Where the SA all-to-allv overtakes the oblivious broadcast.

    The paper observes that at small p the sparsity-aware algorithm can be
    slower than the broadcast-based oblivious one (point-to-point costs
    scale linearly while broadcasts scale logarithmically); this ablation
    sweeps p on the Protein stand-in to locate that crossover.
    """
    scale = bench_scale() if scale is None else scale
    epochs = bench_epochs() if epochs is None else epochs
    backend = bench_backend() if backend is None else backend
    machine = bench_machine() if machine is None else machine
    dataset = load_dataset("protein", scale=scale, seed=seed)
    schemes = [STANDARD_SCHEMES["CAGNET"], STANDARD_SCHEMES["SA"]]
    return run_scheme_grid(dataset, schemes, p_values, epochs=epochs,
                           backend=backend, machine=machine, seed=seed)


# ----------------------------------------------------------------------
# Planner-chosen configurations (``--auto`` / ``--plan auto``)
# ----------------------------------------------------------------------
def auto_plan_rows(datasets: Sequence[str],
                   p_values: Sequence[int],
                   scale: Optional[float] = None,
                   epochs: Optional[int] = None,
                   backend: Optional[str] = None,
                   machine: Optional[str] = None,
                   seed: int = 0) -> List[Dict[str, object]]:
    """One ``scheme="AUTO"`` row per (dataset, p): run the configuration the
    autotuning planner picks (see :mod:`repro.plan`).

    Plotted next to the fixed CAGNET / SA / SA+GVB lines this shows
    whether the planner tracks the lower envelope of the figure.  The
    planner prices its candidates for the sweep's ``backend`` so the rows
    stay comparable; it runs every candidate on the simulator, which is
    deterministic, and writes no plan cache.
    """
    from ..plan import Planner
    scale = bench_scale() if scale is None else scale
    epochs = bench_epochs() if epochs is None else epochs
    backend = bench_backend() if backend is None else backend
    machine = bench_machine() if machine is None else machine
    rows: List[Dict[str, object]] = []
    for name in datasets:
        dataset = load_dataset(name, scale=scale, seed=seed)
        planner = Planner(machine=machine, backend=backend,
                          use_cache=False, seed=seed)
        for p in p_values:
            try:
                report = planner.plan_for_dataset(dataset, p)
                plan = report.plan
                scheme = Scheme("AUTO", sparsity_aware=plan.sparsity_aware,
                                partitioner=plan.partitioner,
                                algorithm=plan.algorithm,
                                replication_factor=plan.replication_factor)
                # Reuse the planner's partitioning instead of repeating it.
                row = run_single(dataset, scheme, p, epochs=epochs,
                                 backend=backend, machine=machine, seed=seed,
                                 partition=report.partition)
                row["planned_algorithm"] = plan.algorithm
                row["planned_mode"] = plan.mode
                row["planned_partitioner"] = plan.partitioner or "none"
                rows.append(row)
            except ValueError as exc:
                rows.append({"dataset": dataset.name, "scheme": "AUTO",
                             "p": p, "epoch_time_s": float("nan"),
                             "skipped": str(exc)})
    return rows
