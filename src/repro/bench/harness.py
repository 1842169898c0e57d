"""Generic experiment grid runner.

The paper's figures sweep (dataset, scheme, process count, replication
factor); :func:`run_scheme_grid` executes those sweeps against the
simulated runtime and returns one flat row dict per configuration, ready
for :mod:`repro.bench.reporting` or a ``BENCH_*.json`` record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.config import Algorithm, DistTrainConfig
from ..core.trainer import train_distributed
from ..graphs.datasets import GraphDataset, load_dataset

__all__ = ["Scheme", "STANDARD_SCHEMES", "run_single", "run_scheme_grid",
           "speedup_table"]


@dataclass(frozen=True)
class Scheme:
    """A named training scheme (one line in the paper's figures)."""

    label: str
    sparsity_aware: bool
    partitioner: Optional[str]
    algorithm: str = Algorithm.ONE_D
    replication_factor: int = 1


#: The three schemes compared throughout the paper's 1D evaluation.
STANDARD_SCHEMES: Dict[str, Scheme] = {
    "CAGNET": Scheme("CAGNET", sparsity_aware=False, partitioner=None),
    "SA": Scheme("SA", sparsity_aware=True, partitioner=None),
    "SA+GVB": Scheme("SA+GVB", sparsity_aware=True, partitioner="gvb"),
    "SA+METIS": Scheme("SA+METIS", sparsity_aware=True, partitioner="metis_like"),
}


def run_single(dataset: GraphDataset, scheme: Scheme, n_ranks: int,
               epochs: int = 2, hidden: int = 16, n_layers: int = 3,
               learning_rate: float = 0.05, machine: str = "perlmutter-scaled",
               backend: str = "sim", seed: int = 0,
               partition=None) -> Dict[str, object]:
    """Run one configuration and flatten the result into a table row.

    ``partition`` forwards a precomputed
    :class:`~repro.partition.base.PartitionResult` to the trainer (used by
    the planner-driven AUTO rows to avoid partitioning twice).
    """
    config = DistTrainConfig(
        n_ranks=n_ranks,
        algorithm=scheme.algorithm,
        sparsity_aware=scheme.sparsity_aware,
        partitioner=scheme.partitioner,
        replication_factor=scheme.replication_factor,
        hidden=hidden,
        n_layers=n_layers,
        epochs=epochs,
        learning_rate=learning_rate,
        machine=machine,
        backend=backend,
        seed=seed,
        # The paper's figures count the layer-0 exchange every epoch.
        cache_input_propagation=False,
    )
    result = train_distributed(dataset, config, eval_every=0,
                               partition=partition)
    n_epochs = max(1, epochs)
    row: Dict[str, object] = {
        "dataset": dataset.name,
        "scheme": scheme.label,
        "algorithm": scheme.algorithm,
        "backend": backend,
        "c": scheme.replication_factor,
        "p": n_ranks,
        "epoch_time_s": result.avg_epoch_time_s,
        "test_accuracy": result.test_accuracy,
        "final_loss": result.final_loss,
    }
    for cat, secs in result.breakdown.items():
        row[f"time_{cat}_s"] = secs
    row["comm_total_MB_per_epoch"] = \
        result.comm_summary.get("total_MB", 0.0) / n_epochs
    row["comm_max_MB_per_rank_per_epoch"] = \
        result.comm_summary.get("max_MB_per_rank", 0.0) / n_epochs
    row["comm_imbalance_pct"] = result.comm_summary.get("imbalance_pct", 0.0)
    if result.partition_stats:
        row["edgecut"] = result.partition_stats.get("edgecut")
        row["max_send_volume"] = result.partition_stats.get("max_send_volume")
        row["total_volume"] = result.partition_stats.get("total_volume")
    return row


def run_scheme_grid(dataset: GraphDataset,
                    schemes: Sequence[Scheme],
                    p_values: Sequence[int],
                    epochs: int = 2,
                    seed: int = 0,
                    **kwargs) -> List[Dict[str, object]]:
    """Run every (scheme, p) combination on one dataset.

    Configurations that are infeasible (e.g. more block rows than vertices,
    or a 1.5D grid that does not divide) are skipped — mirroring the
    paper's missing data points for out-of-memory runs.
    """
    rows: List[Dict[str, object]] = []
    for scheme in schemes:
        for p in p_values:
            try:
                rows.append(run_single(dataset, scheme, p, epochs=epochs,
                                       seed=seed, **kwargs))
            except ValueError as exc:
                rows.append({
                    "dataset": dataset.name,
                    "scheme": scheme.label,
                    "algorithm": scheme.algorithm,
                    "c": scheme.replication_factor,
                    "p": p,
                    "epoch_time_s": float("nan"),
                    "skipped": str(exc),
                })
    return rows


def speedup_table(rows: Sequence[Dict[str, object]],
                  baseline_scheme: str,
                  target_scheme: str) -> List[Dict[str, object]]:
    """Per-(dataset, p) speedup of ``target_scheme`` over ``baseline_scheme``."""
    index: Dict[tuple, Dict[str, object]] = {}
    for row in rows:
        index[(row.get("dataset"), row.get("p"), row.get("scheme"),
               row.get("c"))] = row
    out: List[Dict[str, object]] = []
    for (dataset, p, scheme, c), row in index.items():
        if scheme != target_scheme:
            continue
        base = index.get((dataset, p, baseline_scheme, c)) or \
            index.get((dataset, p, baseline_scheme, 1))
        if not base:
            continue
        t_base = base.get("epoch_time_s")
        t_new = row.get("epoch_time_s")
        if not (isinstance(t_base, float) and isinstance(t_new, float)) or \
                t_new != t_new or t_base != t_base or t_new <= 0:
            continue
        out.append({
            "dataset": dataset,
            "p": p,
            "c": c,
            "baseline": baseline_scheme,
            "scheme": target_scheme,
            "speedup": t_base / t_new,
        })
    return out
