"""High-level distributed training entry point.

:func:`train_distributed` is the public API of the reproduction: it takes a
:class:`~repro.graphs.GraphDataset` and a :class:`~repro.core.DistTrainConfig`,
performs the preprocessing the paper describes (partition the graph, apply
the symmetric permutation, distribute block rows), runs the distributed
training loop on the configured communicator backend (``backend="sim"``
for deterministic simulation, ``"threaded"`` for real shared-memory
worker threads, ``"process"`` for one OS process per rank — see
``docs/backends.md``) and returns timings, communication
statistics and accuracy — everything the benchmark harness needs to
regenerate the paper's tables and figures.

Fault tolerance: when ``config.checkpoint_dir`` is set the loop saves
atomic checkpoints (:mod:`repro.core.checkpoint`) every
``checkpoint_every`` epochs, and ``config.resume`` continues from the
newest intact one — bit-identically to the uninterrupted run on the same
plan.  A detected rank loss (:class:`~repro.comm.faults.WorkerFailure`)
is retried by a supervised loop up to ``config.max_restarts`` times,
restoring the last checkpoint; with ``config.elastic`` the retry
re-partitions and re-plans at the surviving rank count (the dead
configuration is recorded in the plan cache so it is never served
again).  Deterministic failures for tests come from
:class:`~repro.comm.faults.FaultPlan` via the ``fault_plan`` argument.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..comm.base import Communicator
from ..comm.factory import make_communicator
from ..comm.faults import FaultPlan, WorkerFailure
from ..gcn.metrics import masked_accuracy
from ..graphs.adjacency import gcn_normalize, permutation_from_parts
from ..graphs.datasets import GraphDataset
from ..graphs.features import NodeData
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TRACE
from ..partition import get_partitioner
from ..partition.base import PartitionResult
from .checkpoint import (CheckpointManager, TrainingCheckpoint,
                         config_fingerprint)
from .config import Algorithm, DistTrainConfig, training_layer_dims
from .dist_gcn import DistributedGCN
from .dist_matrix import BlockRowDistribution, DistDenseMatrix, DistSparseMatrix
from .spmm_15d import ProcessGrid

__all__ = ["DistEpochRecord", "DistTrainResult", "DistributedSetup",
           "setup_distributed", "train_distributed"]


@dataclass
class DistEpochRecord:
    """Per-epoch trace entry of a distributed run."""

    epoch: int
    loss: float
    epoch_time_s: float
    train_accuracy: Optional[float] = None
    val_accuracy: Optional[float] = None


@dataclass
class DistTrainResult:
    """Everything a benchmark or an example needs from one training run."""

    config: DistTrainConfig
    history: List[DistEpochRecord]
    test_accuracy: float
    #: ``total_time_s`` and per-category ``breakdown`` divided by the
    #: epochs run: both amortise the one-off ``input_propagation_s``
    #: (``history[*].epoch_time_s`` does not contain it).
    avg_epoch_time_s: float
    total_time_s: float
    breakdown: Dict[str, float]
    comm_summary: Dict[str, float]
    partition_stats: Dict[str, float]
    model: DistributedGCN
    #: Per-epoch gradient-exchange accounting (wire precision, fusion
    #: buckets, drain wait) from :class:`~repro.core.gradsync
    #: .GradientExchanger`; empty for runs predating the field.
    grad_summary: Dict[str, object] = field(default_factory=dict)
    #: Number of supervised restarts it took to finish (0 = no rank loss).
    restarts: int = 0
    #: Completed-epoch count of the checkpoint the final attempt resumed
    #: from, or ``None`` when it started at epoch 0.
    resumed_from_epoch: Optional[int] = None
    #: Flat metrics-registry snapshot (``repro.obs.metrics``) of this
    #: run: per-category time and byte totals, gradient-exchange
    #: accounting, checkpoint-save histograms, restart counters.  The
    #: same numbers ``repro train --metrics`` exports — the CLI reads
    #: this field, so the two can never disagree.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: One-off cost of layer 0's cached ``A X`` (``config
    #: .cache_input_propagation``), paid before the first epoch's clock
    #: starts and in no ``history[*].epoch_time_s``; 0.0 with the cache
    #: off.  Also exported as ``metrics["input_propagation_s"]``.
    input_propagation_s: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.history[-1].loss if self.history else float("nan")


@dataclass
class DistributedSetup:
    """The distributed state built by :func:`setup_distributed`."""

    model: DistributedGCN
    comm: Communicator
    node_data: NodeData            # in permuted vertex order
    partition: Optional[PartitionResult]
    distribution: BlockRowDistribution
    grid: Optional[ProcessGrid]
    #: The fully concrete config the setup was built from.  Identical to
    #: the caller's config unless that one had ``"auto"`` fields, in which
    #: case this is the planner-resolved version (and ``plan`` records the
    #: chosen :class:`~repro.plan.planner.ExecutionPlan`).
    config: Optional[DistTrainConfig] = None
    plan: Optional[object] = None


def setup_distributed(dataset: GraphDataset, config: DistTrainConfig,
                      partition: Optional[PartitionResult] = None
                      ) -> DistributedSetup:
    """Partition, permute and distribute a dataset for simulated training.

    A config with ``"auto"`` fields (``algorithm`` / ``backend`` /
    ``partitioner``) is first resolved by the autotuning planner; the
    concrete configuration actually used is returned as ``setup.config``.
    Training with an auto config is bit-identical to passing the resolved
    values explicitly — the planner only selects, it never changes the
    execution path.

    ``partition`` lets a caller supply a precomputed
    :class:`~repro.partition.base.PartitionResult` for ``config.partitioner``
    over ``config.n_block_rows`` parts (e.g. the planner's own) instead of
    partitioning again; partitioners are seed-deterministic, so supplying
    the matching result is bit-identical to recomputation.
    """
    plan = None
    plan_partition: Optional[PartitionResult] = partition
    if config.needs_planning:
        # Imported lazily: repro.plan depends on repro.core, not vice versa.
        from ..plan import resolve_config
        config, plan, plan_partition = resolve_config(dataset, config,
                                                      return_partition=True)

    node_data = dataset.node_data
    node_data.validate()
    adjacency = dataset.adjacency

    nblocks = config.n_block_rows
    if nblocks > adjacency.shape[0]:
        raise ValueError(
            f"cannot distribute {adjacency.shape[0]} vertices over "
            f"{nblocks} block rows")

    partition: Optional[PartitionResult] = None
    if config.partitioner is not None:
        if plan_partition is not None:
            sizes = plan_partition.part_sizes()
            if len(sizes) != nblocks or int(np.sum(sizes)) != \
                    adjacency.shape[0]:
                raise ValueError(
                    f"supplied partition has {len(sizes)} parts over "
                    f"{int(np.sum(sizes))} vertices; this configuration "
                    f"needs {nblocks} parts over {adjacency.shape[0]}")
            # Reuse the planner's partitioning (same partitioner, seed and
            # block count — partitioners are seed-deterministic, so this is
            # bit-identical to recomputing, just not paid for twice).
            partition = plan_partition
        else:
            partitioner = get_partitioner(config.partitioner, seed=config.seed)
            partition = partitioner.partition(adjacency, nblocks)
        perm = permutation_from_parts(partition.parts, nblocks)
        dataset = dataset.permuted(perm)
        node_data = dataset.node_data
        adjacency = dataset.adjacency
        distribution = BlockRowDistribution.from_partition(partition.part_sizes())
    else:
        distribution = BlockRowDistribution.uniform(adjacency.shape[0], nblocks)

    matrix = gcn_normalize(adjacency) if config.normalize_adjacency \
        else adjacency.tocsr().astype(config.np_dtype)

    comm = make_communicator(config.n_ranks, backend=config.backend,
                             machine=config.machine)
    try:
        setup = _build_setup(dataset, config, comm, node_data, matrix,
                             partition, distribution)
        setup.plan = plan
        return setup
    except BaseException:
        # Never leak worker threads/processes or shared memory when the
        # distributed state cannot be built (bad grid, incompatible
        # operands, ...): the communicator is ours until handed over.
        comm.close()
        raise


def _resolve_grad_bucket_bytes(config: DistTrainConfig,
                               comm: Communicator) -> int:
    """Concrete fusion bucket size for this run.

    Explicit sizes pass through.  ``None`` (auto) sizes buckets from the
    backend's calibrated per-message overhead — but only when the
    gradient-exchange subsystem is engaged (overlap or a reduced wire
    precision); otherwise auto resolves to 0 so the default configuration
    keeps the synchronous trainer's exact per-layer schedule.
    """
    if config.grad_bucket_bytes is not None:
        return config.grad_bucket_bytes
    engaged = config.grad_overlap or (
        config.grad_dtype is not None and config.grad_dtype != config.dtype)
    if not engaged:
        return 0
    from .gradsync import default_bucket_bytes
    return default_bucket_bytes(comm)


def _build_setup(dataset: GraphDataset, config: DistTrainConfig,
                 comm: Communicator, node_data: NodeData, matrix,
                 partition: Optional[PartitionResult],
                 distribution: BlockRowDistribution) -> DistributedSetup:
    dtype = config.np_dtype
    adjacency_dist = DistSparseMatrix(matrix, distribution, dtype=dtype)
    features_dist = DistDenseMatrix.from_global(node_data.features,
                                                distribution, dtype=dtype)

    grid = None
    if config.algorithm == Algorithm.ONE_POINT_FIVE_D:
        grid = ProcessGrid(nranks=config.n_ranks,
                           replication=config.replication_factor)

    dims = training_layer_dims(node_data.n_features, node_data.n_classes,
                               config.hidden, config.n_layers)
    model = DistributedGCN(
        adjacency_dist=adjacency_dist,
        features_dist=features_dist,
        labels=node_data.labels,
        train_mask=node_data.train_mask,
        layer_dims=dims,
        comm=comm,
        algorithm=config.algorithm,
        sparsity_aware=config.sparsity_aware,
        grid=grid,
        seed=config.seed,
        dtype=dtype,
        pipeline_depth=config.pipeline_depth,
        grad_overlap=config.grad_overlap,
        grad_bucket_bytes=_resolve_grad_bucket_bytes(config, comm),
        grad_dtype=config.grad_dtype,
        cache_input_propagation=config.cache_input_propagation,
    )
    return DistributedSetup(model=model, comm=comm, node_data=node_data,
                            partition=partition, distribution=distribution,
                            grid=grid, config=config)


def _build_checkpoint(model: DistributedGCN, epoch: int,
                      history: List[DistEpochRecord], fingerprint: str,
                      config: DistTrainConfig) -> TrainingCheckpoint:
    """Snapshot the resumable state after ``epoch`` completed epochs."""
    return TrainingCheckpoint(
        epoch=epoch,
        weights=model.weight_state(),
        optimizer_state={"name": "sgd",
                         "learning_rate": config.learning_rate},
        rng_state=np.random.get_state(),
        plan_fingerprint=fingerprint,
        history=[dataclasses.asdict(rec) for rec in history],
        meta={"n_ranks": config.n_ranks, "backend": config.backend,
              "dtype": config.dtype},
    )


def _build_metrics(comm: Communicator,
                   per_epoch_breakdown: Dict[str, float],
                   grad_summary: Dict[str, object],
                   ckpt_saves_s: List[float],
                   restarts: int,
                   input_propagation_s: float) -> Dict[str, object]:
    """Flat metrics snapshot of one finished run (``repro.obs.metrics``).

    This is the single source of the derived comm/compute/overlap
    numbers: the CLI's per-epoch breakdown print and the ``--metrics``
    Prometheus export both read the returned dict.
    """
    reg = MetricsRegistry()
    for cat, sec in per_epoch_breakdown.items():
        reg.gauge("time_s_per_epoch", sec, category=cat)
    for event in comm.events:
        reg.counter("comm_bytes_total", event.nbytes, category=event.category)
        reg.counter("comm_messages_total", 1, category=event.category)
    compute_s = per_epoch_breakdown.get("local", 0.0)
    comm_s = sum(v for k, v in per_epoch_breakdown.items() if k != "local")
    reg.gauge("gradsync_comm_s_per_epoch", comm_s)
    reg.gauge("gradsync_compute_s_per_epoch", compute_s)
    # The overlap window is the span the wait-free drain actually had
    # available: everything not spent blocked at the drain point.
    drain_s = float(grad_summary.get("drain_wait_s_per_epoch", 0.0) or 0.0)
    reg.gauge("overlap_hidden_s_per_epoch", max(0.0, comm_s - drain_s))
    for key, value in grad_summary.items():
        reg.gauge(f"gradsync_{key}", value)
    for duration in ckpt_saves_s:
        reg.observe("checkpoint_save_seconds", duration)
    reg.counter("restarts_total", restarts)
    reg.gauge("input_propagation_s", input_propagation_s)
    for key, value in comm.cache_stats().items():
        reg.counter(f"comm_plan_cache_{key}", value)
    return reg.as_dict()


def _recover_config(dataset: GraphDataset, config: DistTrainConfig,
                    failure: WorkerFailure
                    ) -> Tuple[DistTrainConfig, Optional[PartitionResult]]:
    """The configuration the supervised retry should run with.

    Non-elastic: retry the same configuration (the failed worker pool is
    simply rebuilt), which keeps the restart bit-identical to the
    uninterrupted run.  Elastic: record the dead ``(backend, n_ranks)``
    in the plan cache (so it is never served again for this matrix) and
    re-plan at the surviving rank count — the planner's candidate space
    already covers every p, so this is a lookup, not new machinery.  The
    partition is recomputed by :func:`setup_distributed` either way.
    """
    if not config.elastic or config.n_ranks <= 1:
        return config, None
    # Imported lazily: repro.plan depends on repro.core, not vice versa.
    from ..plan import PlanCache, Planner, matrix_fingerprint
    from ..plan.space import DEFAULT_REPLICATION_CANDIDATES
    from .engine import mode_name

    cache = PlanCache()
    fingerprint = matrix_fingerprint(dataset.adjacency)
    cache.mark_dead(fingerprint, config.backend, config.n_ranks)

    survivors = config.n_ranks - 1
    planner = Planner(
        machine=config.machine,
        backends=[config.backend],
        partitioners=[config.partitioner],
        algorithms=[config.algorithm],
        modes=[mode_name(config.sparsity_aware)],
        replication_candidates=DEFAULT_REPLICATION_CANDIDATES,
        pipeline_depths=[config.pipeline_depth],
        grad_overlaps=[config.grad_overlap],
        cache_input_propagation=config.cache_input_propagation,
        seed=config.seed,
        cache=cache,
        cache_read_only=True,
    )
    dims = training_layer_dims(dataset.node_data.n_features,
                               dataset.node_data.n_classes, config.hidden,
                               config.n_layers)
    report = planner.plan(dataset.adjacency, dims, survivors)
    return dataclasses.replace(config, **report.plan.as_config_kwargs()), None


def train_distributed(dataset: GraphDataset, config: DistTrainConfig,
                      eval_every: int = 25,
                      partition: Optional[PartitionResult] = None,
                      fault_plan: Optional[FaultPlan] = None
                      ) -> DistTrainResult:
    """Run simulated distributed full-graph GCN training end to end.

    Parameters
    ----------
    eval_every:
        Evaluate train/val accuracy every this many epochs (evaluation is a
        host-side diagnostic and does not contribute to simulated time).
        Set to 0 to skip intermediate evaluation entirely.
    partition:
        Optional precomputed partition, forwarded to
        :func:`setup_distributed`.
    fault_plan:
        Optional :class:`~repro.comm.faults.FaultPlan` injected into the
        communicator of every attempt (chaos testing: each scheduled
        fault fires exactly once across the whole supervised run).

    A :class:`~repro.comm.faults.WorkerFailure` (rank loss) is retried up
    to ``config.max_restarts`` times, resuming from the newest checkpoint
    when ``config.checkpoint_dir`` has one; see the module docstring.
    """
    attempt = 0
    current_config = config
    current_partition = partition
    resume = config.resume
    while True:
        try:
            return _train_attempt(dataset, current_config, eval_every,
                                  current_partition, fault_plan,
                                  resume=resume, restarts=attempt)
        except WorkerFailure as failure:
            attempt += 1
            if attempt > config.max_restarts:
                raise
            current_config, current_partition = _recover_config(
                dataset, current_config, failure)
            # Restart from the newest checkpoint when there is one;
            # _train_attempt starts from scratch when the dir is empty.
            resume = current_config.checkpoint_dir is not None


def _train_attempt(dataset: GraphDataset, config: DistTrainConfig,
                   eval_every: int,
                   partition: Optional[PartitionResult],
                   fault_plan: Optional[FaultPlan],
                   resume: bool, restarts: int) -> DistTrainResult:
    """One supervised attempt of the training loop (may raise
    :class:`WorkerFailure`; the supervisor in :func:`train_distributed`
    decides whether to retry)."""
    setup = setup_distributed(dataset, config, partition=partition)
    if setup.config is not None:
        config = setup.config    # planner-resolved when the input was auto
    model, comm, node_data = setup.model, setup.comm, setup.node_data

    manager: Optional[CheckpointManager] = None
    if config.checkpoint_dir:
        manager = CheckpointManager(config.checkpoint_dir)
    fingerprint = config_fingerprint(config)

    history: List[DistEpochRecord] = []
    start_epoch = 0
    resumed_from: Optional[int] = None
    # The context manager releases backend resources (worker threads /
    # processes, shared memory) even when an SpMM variant raises mid-epoch;
    # the returned model's host-side diagnostics keep working after close.
    with comm:
        if resume and manager is not None:
            # A first-attempt resume must land on the exact same plan
            # (bit-identical continuation); a supervised restart may
            # legitimately have changed the rank count (elastic), and the
            # replicated weights are rank-count independent.
            ckpt = manager.load_latest(
                expect_fingerprint=fingerprint if restarts == 0 else None)
            if ckpt is not None:
                model.load_weight_state(ckpt.weights)
                if ckpt.rng_state is not None:
                    np.random.set_state(ckpt.rng_state)
                start_epoch = ckpt.epoch
                resumed_from = ckpt.epoch
                history = [DistEpochRecord(**rec) for rec in ckpt.history]
        # Prime the layer-0 cache before the first epoch's clock (and
        # before faults are armed: FaultPlan addresses collectives of an
        # epoch), so every epoch_time_s measures the same schedule.
        input_propagation_s = 0.0
        if model.cache_input_propagation and start_epoch < config.epochs:
            start = comm.elapsed()
            with TRACE.span("input_propagation", cat="train"):
                model.input_propagation()
            input_propagation_s = comm.elapsed() - start
        if fault_plan is not None:
            comm.inject_faults(fault_plan)
        ckpt_saves_s: List[float] = []
        for epoch in range(start_epoch, config.epochs):
            if fault_plan is not None:
                fault_plan.start_epoch(epoch)
            comm.note_epoch(epoch)
            start = comm.elapsed()
            if TRACE.enabled:
                with TRACE.span("epoch", cat="train",
                                args={"epoch": epoch}):
                    loss = model.train_epoch(config.learning_rate)
                # Ship worker-side spans at every epoch boundary so a
                # killed run still has a trace up to its last epoch.
                comm.collect_trace_spans()
            else:
                loss = model.train_epoch(config.learning_rate)
            epoch_time = comm.elapsed() - start

            train_acc = val_acc = None
            if eval_every and (epoch % eval_every == 0
                               or epoch == config.epochs - 1):
                preds = model.predictions()
                train_acc = masked_accuracy(preds, node_data.labels,
                                            node_data.train_mask)
                val_acc = masked_accuracy(preds, node_data.labels,
                                          node_data.val_mask)
            history.append(DistEpochRecord(epoch=epoch, loss=loss,
                                           epoch_time_s=epoch_time,
                                           train_accuracy=train_acc,
                                           val_accuracy=val_acc))
            if manager is not None and config.checkpoint_every \
                    and (epoch + 1) % config.checkpoint_every == 0:
                save_start = perf_counter()
                manager.save(_build_checkpoint(model, epoch + 1, history,
                                               fingerprint, config))
                ckpt_saves_s.append(perf_counter() - save_start)

    preds = model.predictions()
    test_accuracy = masked_accuracy(preds, node_data.labels,
                                    node_data.test_mask)

    total_time = comm.elapsed()
    # Averages cover the epochs *this attempt* actually ran — restored
    # history rows carry times charged to a previous communicator's clocks.
    n_epochs = max(1, len(history) - start_epoch)
    breakdown = comm.breakdown(reduce="max")
    per_epoch_breakdown = {k: v / n_epochs for k, v in breakdown.items()}
    grad_summary = model.gradsync.summary(
        n_epochs=max(0, len(history) - start_epoch))
    result = DistTrainResult(
        config=config,
        history=history,
        test_accuracy=test_accuracy,
        avg_epoch_time_s=total_time / n_epochs,
        total_time_s=total_time,
        breakdown=per_epoch_breakdown,
        comm_summary=comm.stats_summary(),
        partition_stats=dict(setup.partition.stats) if setup.partition else {},
        model=model,
        grad_summary=grad_summary,
        restarts=restarts,
        resumed_from_epoch=resumed_from,
        metrics=_build_metrics(comm, per_epoch_breakdown, grad_summary,
                               ckpt_saves_s, restarts, input_propagation_s),
        input_propagation_s=input_propagation_s,
    )
    return result
