"""Benchmark harness: experiment grids, per-table/figure entry points and
plain-text reporting used by the ``benchmarks/`` scripts."""

from .experiments import (ablation_balance_constraint, ablation_crossover,
                          auto_plan_rows,
                          bench_backend, bench_epochs, bench_machine,
                          bench_scale,
                          figure3_1d_scaling,
                          figure4_1d_breakdown, figure5_papers_breakdown,
                          figure6_partitioner_comparison, figure7_15d_scaling,
                          table2_metis_comm_stats, table3_dataset_stats)
from .harness import (STANDARD_SCHEMES, Scheme, run_scheme_grid, run_single,
                      speedup_table)
from .reporting import format_kv, format_series, format_table
from .sweep import (feature_width_sweep, grid_points, partitioner_sweep,
                    replication_sweep, run_grid)

__all__ = [
    "ablation_balance_constraint", "ablation_crossover", "auto_plan_rows",
    "bench_backend", "bench_epochs", "bench_machine", "bench_scale",
    "figure3_1d_scaling", "figure4_1d_breakdown", "figure5_papers_breakdown",
    "figure6_partitioner_comparison", "figure7_15d_scaling",
    "table2_metis_comm_stats", "table3_dataset_stats",
    "STANDARD_SCHEMES", "Scheme", "run_scheme_grid", "run_single",
    "speedup_table",
    "format_kv", "format_series", "format_table",
    "feature_width_sweep", "grid_points", "partitioner_sweep",
    "replication_sweep", "run_grid",
]
