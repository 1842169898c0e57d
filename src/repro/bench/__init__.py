"""Benchmark harness: the paper's table/figure entry points, the
predicates that check its conclusions, and plain-text reporting used by
``repro bench`` and ``scripts/record_baseline.py``."""

from .claims import CLAIMS, Claim, evaluate, format_claims, load_figures
from .experiments import (auto_plan_rows, bench_machine,
                          figure3_1d_scaling,
                          figure4_1d_breakdown, figure5_papers_breakdown,
                          figure6_partitioner_comparison, figure7_15d_scaling,
                          table2_metis_comm_stats, table3_dataset_stats)
from .harness import (STANDARD_SCHEMES, Scheme, run_scheme_grid, run_single,
                      speedup_table)
from .reporting import format_kv, format_series, format_table

__all__ = [
    "CLAIMS", "Claim", "evaluate", "format_claims", "load_figures",
    "auto_plan_rows", "bench_machine",
    "figure3_1d_scaling", "figure4_1d_breakdown", "figure5_papers_breakdown",
    "figure6_partitioner_comparison", "figure7_15d_scaling",
    "table2_metis_comm_stats", "table3_dataset_stats",
    "STANDARD_SCHEMES", "Scheme", "run_scheme_grid", "run_single",
    "speedup_table",
    "format_kv", "format_series", "format_table",
]
