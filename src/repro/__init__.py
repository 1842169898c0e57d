"""repro — reproduction of "Sparsity-Aware Communication for Distributed
Graph Neural Network Training" (Mukhodopadhyay et al., ICPP 2024).

The package is organised as:

* :mod:`repro.core`      — sparsity-aware / oblivious 1D and 1.5D
  distributed SpMM, the distributed GCN trainer built on them (the paper's
  contribution), the closed-form alpha-beta cost model and the per-rank
  memory/OOM model.  The local multiply (the paper's cuSPARSE call) is
  ``scipy.sparse`` CSR @ dense;
* :mod:`repro.comm`      — pluggable multi-rank communicator backends
  behind one :class:`~repro.comm.Communicator` interface (deterministic
  alpha-beta simulation, real shared-memory worker threads, one OS
  process per rank; machine models, collectives, per-rank clocks,
  event log) — see ``docs/backends.md``;
* :mod:`repro.partition` — the paper's three distributions (random/block,
  METIS-like, GVB-like partitioners) plus quality metrics;
* :mod:`repro.graphs`    — synthetic stand-ins for the paper's datasets,
  adjacency utilities, features and I/O;
* :mod:`repro.gcn`       — the single-process reference GCN and its
  plain-SGD trainer (the correctness baseline);
* :mod:`repro.plan`      — the autotuning planner: every variant,
  partitioner and replication factor priced by a run on the simulator,
  backends by their message overhead, with a persisted plan cache
  (``docs/tuning.md``);
* :mod:`repro.bench`     — the experiment harness regenerating every table
  and figure of the paper plus the ablation studies;
* :mod:`repro.cli`       — the ``python -m repro`` command-line interface.

Quickstart::

    from repro import load_dataset, DistTrainConfig, train_distributed

    dataset = load_dataset("reddit", scale=0.1)
    config = DistTrainConfig(n_ranks=8, algorithm="1d", sparsity_aware=True,
                             partitioner="gvb", epochs=20)
    result = train_distributed(dataset, config)
    print(result.avg_epoch_time_s, result.test_accuracy)
"""

from .comm import (Communicator, MachineModel, available_backends,
                   make_communicator, perlmutter)
from .core import (Algorithm, DistTrainConfig, DistTrainResult, DistributedGCN,
                   ProcessGrid, setup_distributed,
                   single_spmm_volume_table, spmm, train_distributed)
from .gcn import GCNModel, ReferenceTrainConfig, train_reference
from .graphs import GraphDataset, load_dataset
from .plan import ExecutionPlan, PlanCache, Planner, resolve_config
from .partition import (BlockPartitioner, GVBPartitioner, MetisLikePartitioner,
                        RandomPartitioner, get_partitioner, partition_report)

__version__ = "1.0.0"

__all__ = [
    "Communicator", "MachineModel", "available_backends", "make_communicator",
    "perlmutter",
    "Algorithm", "DistTrainConfig", "DistTrainResult", "DistributedGCN",
    "ProcessGrid", "setup_distributed",
    "single_spmm_volume_table", "spmm", "train_distributed",
    "GCNModel", "ReferenceTrainConfig", "train_reference",
    "GraphDataset", "load_dataset",
    "ExecutionPlan", "PlanCache", "Planner", "resolve_config",
    "BlockPartitioner", "GVBPartitioner", "MetisLikePartitioner",
    "RandomPartitioner", "get_partitioner", "partition_report",
    "__version__",
]
