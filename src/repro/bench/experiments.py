"""One entry point per table / figure of the paper.

Every function returns the rows that regenerate the corresponding table or
figure: ``repro bench`` prints them and ``scripts/record_baseline.py``
records them (``BENCH_spmm.json``, ``BENCH_paper.json``), where
:mod:`repro.bench.claims` checks the paper's conclusions against them
(docs/performance.md, "Paper claims").
The experiments run on scaled-down synthetic stand-ins of the paper's
datasets (:mod:`repro.graphs.generators`); process counts are scaled
accordingly.  The defaults are the recorded bench config: scale ``0.4``,
two epochs (the simulated per-epoch time is deterministic, so a couple of
epochs is enough) and the ``"sim"`` backend.  The machine-model preset
defaults to ``REPRO_MACHINE``, else ``"perlmutter-scaled"`` (any name from
:data:`repro.comm.machine.PRESETS`).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from ..core.analysis import single_spmm_volume_table
from ..core.spmm_15d import ProcessGrid
from ..graphs.datasets import dataset_summary, load_dataset
from .harness import STANDARD_SCHEMES, Scheme, run_scheme_grid, run_single

__all__ = [
    "bench_machine",
    "table2_metis_comm_stats", "table3_dataset_stats",
    "figure3_1d_scaling", "figure4_1d_breakdown", "figure5_papers_breakdown",
    "figure6_partitioner_comparison", "figure7_15d_scaling",
    "auto_plan_rows",
]


def bench_machine(default: str = "perlmutter-scaled") -> str:
    """Machine-model preset used by the benchmarks (env ``REPRO_MACHINE``)."""
    return os.environ.get("REPRO_MACHINE", default)


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------
def table2_metis_comm_stats(p_values: Sequence[int] = (4, 8, 16, 32, 64),
                            scale: float = 0.4,
                            seed: int = 0) -> List[Dict[str, object]]:
    """Table 2: per-process data of one SpMM under the METIS-like partitioner.

    Paper: Amazon, f = 300, p in {16..256}; average and maximum MB sent by a
    process and the resulting load imbalance.  The shape to reproduce is a
    *growing* imbalance percentage as p grows.
    """
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
def table3_dataset_stats(scale: float = 0.4, seed: int = 0
                         ) -> List[Dict[str, object]]:
    """Table 3: vertex/edge/feature/label counts of every dataset.

    Reports both the scaled synthetic stand-in actually used by the
    benchmarks and the paper's full-scale statistics side by side.
    """
    rows = []
    for name in ("reddit", "amazon", "protein", "papers"):
        rows.append(dataset_summary(load_dataset(name, scale=scale, seed=seed)))
    return rows


# ----------------------------------------------------------------------
# Figures 3 and 4 (1D scaling and breakdown)
# ----------------------------------------------------------------------
def figure3_1d_scaling(datasets: Sequence[str] = ("reddit", "amazon", "protein"),
                       p_values: Sequence[int] = (4, 16, 32, 64),
                       scale: float = 0.4,
                       epochs: int = 2,
                       backend: str = "sim",
                       machine: Optional[str] = None,
                       seed: int = 0) -> List[Dict[str, object]]:
    """Figure 3: per-epoch time vs process count for CAGNET / SA / SA+GVB."""
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
                         scale: float = 0.4,
                         epochs: int = 2,
                         backend: str = "sim",
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
                             scale: float = 0.4,
                             epochs: int = 2,
                             backend: str = "sim",
                             machine: Optional[str] = None,
                             seed: int = 0) -> List[Dict[str, object]]:
    """Figure 5: Papers dataset at p = 16, all three schemes with breakdown.

    The paper reports roughly a 2.3x improvement of SA+GVB over the
    sparsity-oblivious baseline at this configuration.
    """
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
                                   scale: float = 0.4,
                                   epochs: int = 2,
                                   backend: str = "sim",
                                   machine: Optional[str] = None,
                                   seed: int = 0) -> List[Dict[str, object]]:
    """Figure 6: SA+GVB vs SA+METIS per-epoch time.

    Expected shape: GVB clearly ahead on the irregular Amazon graph (it
    fixes the communication load imbalance METIS leaves behind), the two
    roughly tied on the regular Protein graph.
    """
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
                        scale: float = 0.4,
                        epochs: int = 2,
                        backend: str = "sim",
                        machine: Optional[str] = None,
                        seed: int = 0) -> List[Dict[str, object]]:
    """Figure 7: 1.5D per-epoch time for c in {2, 4}.

    The paper: plain SA does not beat the oblivious baseline, SA+GVB does,
    and with partitioning there is an optimal process count.  Measured at
    the default config (``BENCH_paper.json``): plain SA is slower than
    CAGNET in all 12 (dataset, c, p) cells, but SA+GVB is faster in only
    2 of 12.  The all-reduce is the same for SA and CAGNET, so it decides
    neither.  What loses is the stage schedule: in each stage one rank
    sends its block to the other ``P/c - 1`` block rows, one message
    after another (``Compiled15DSparsityAware``'s stage loop, ROADMAP
    item 23).
    """
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
            valid_p = [p for p in p_values if ProcessGrid.fits(p, c)]
            rows.extend(run_scheme_grid(dataset, schemes, valid_p,
                                        epochs=epochs, backend=backend,
                                        machine=machine, seed=seed))
    return rows


# ----------------------------------------------------------------------
# Planner-chosen configurations (``--auto`` / ``--plan auto``)
# ----------------------------------------------------------------------
def auto_plan_rows(datasets: Sequence[str],
                   p_values: Sequence[int],
                   scale: float = 0.4,
                   epochs: int = 2,
                   backend: str = "sim",
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
