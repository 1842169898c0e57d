"""Generic parameter-sweep utilities for ablation studies.

The paper's evaluation fixes most hyper-parameters (3 layers, 16 hidden
units, f from the dataset); the ablation benchmarks vary them to probe the
design space — feature width (the ``f`` multiplier in every bandwidth
term), replication factor, partitioner choice, machine model.  This
module provides the cartesian-product runner those benches share.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.config import DistTrainConfig
from ..core.trainer import train_distributed
from ..graphs.datasets import GraphDataset, load_dataset
from ..partition import PARTITIONERS
from .harness import Scheme, run_single

__all__ = ["grid_points", "run_grid", "feature_width_sweep",
           "replication_sweep", "partitioner_sweep"]


def grid_points(grid: Mapping[str, Sequence]) -> List[Dict[str, object]]:
    """Cartesian product of a ``{name: values}`` grid as a list of dicts."""
    if not grid:
        return [{}]
    names = list(grid)
    for name in names:
        values = list(grid[name])
        if not values:
            raise ValueError(f"sweep dimension {name!r} has no values")
    combos = itertools.product(*(list(grid[name]) for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def run_grid(fn: Callable[..., Dict[str, object]],
             grid: Mapping[str, Sequence],
             skip_errors: bool = True) -> List[Dict[str, object]]:
    """Call ``fn(**point)`` for every grid point; collect row dicts.

    Infeasible points (``ValueError`` from the config validation, e.g. a
    1.5D grid that does not divide) are recorded with a ``skipped`` column
    when ``skip_errors`` is True, mirroring the paper's missing data points.
    """
    rows: List[Dict[str, object]] = []
    for point in grid_points(grid):
        try:
            row = dict(fn(**point))
        except ValueError as exc:
            if not skip_errors:
                raise
            row = dict(point)
            row["skipped"] = str(exc)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Concrete sweeps used by the ablation benchmarks
# ----------------------------------------------------------------------
def feature_width_sweep(dataset_name: str = "amazon",
                        widths: Sequence[int] = (32, 128, 300),
                        p: int = 16, scale: float = 0.3, epochs: int = 2,
                        seed: int = 0) -> List[Dict[str, object]]:
    """Epoch time of CAGNET vs SA+GVB as the feature width grows.

    The bandwidth terms of both algorithms scale linearly with ``f`` but the
    sparsity-aware one multiplies the (much smaller) cut — the wider the
    features, the bigger the win.
    """
    def one(width: int, scheme_label: str) -> Dict[str, object]:
        dataset = load_dataset(dataset_name, scale=scale, n_features=width,
                               seed=seed)
        scheme = Scheme(scheme_label, sparsity_aware=scheme_label != "CAGNET",
                        partitioner="gvb" if scheme_label == "SA+GVB" else None)
        row = run_single(dataset, scheme, p, epochs=epochs, seed=seed)
        row["f"] = width
        return row

    return run_grid(one, {"width": widths, "scheme_label": ("CAGNET", "SA+GVB")})


def replication_sweep(dataset_name: str = "amazon",
                      p: int = 16,
                      replication_factors: Sequence[int] = (1, 2, 4),
                      scale: float = 0.3, epochs: int = 2,
                      seed: int = 0) -> List[Dict[str, object]]:
    """1.5D replication-factor sweep at a fixed process count.

    ``c = 1`` degenerates to the 1D algorithm; larger ``c`` trades
    all-to-all volume for all-reduce volume (Figure 7's tradeoff).
    """
    dataset = load_dataset(dataset_name, scale=scale, seed=seed)

    def one(c: int, sparsity_aware: bool) -> Dict[str, object]:
        algorithm = "1d" if c == 1 else "1.5d"
        scheme = Scheme(
            ("SA+GVB" if sparsity_aware else "CAGNET") + f" c={c}",
            sparsity_aware=sparsity_aware,
            partitioner="gvb" if sparsity_aware else None,
            algorithm=algorithm, replication_factor=c)
        row = run_single(dataset, scheme, p, epochs=epochs, seed=seed)
        row["replication"] = c
        return row

    return run_grid(one, {"c": replication_factors,
                          "sparsity_aware": (False, True)})


def partitioner_sweep(dataset_name: str = "amazon",
                      partitioners: Sequence[str] = tuple(sorted(PARTITIONERS)),
                      p: int = 16, scale: float = 0.3, epochs: int = 2,
                      seed: int = 0) -> List[Dict[str, object]]:
    """Every registered partitioner driving sparsity-aware 1D training."""
    dataset = load_dataset(dataset_name, scale=scale, seed=seed)

    def one(partitioner: str) -> Dict[str, object]:
        scheme = Scheme(f"SA+{partitioner}", sparsity_aware=True,
                        partitioner=partitioner)
        row = run_single(dataset, scheme, p, epochs=epochs, seed=seed)
        row["partitioner"] = partitioner
        return row

    return run_grid(one, {"partitioner": partitioners})
