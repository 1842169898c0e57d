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
re-partitions and re-plans at the largest surviving rank count the
planner accepts (the dead
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

from ..comm.base import Communicator
from ..comm.factory import make_communicator
from ..comm.faults import FaultPlan, WorkerFailure
from ..gcn.metrics import masked_accuracy
from ..graphs.datasets import GraphDataset
from ..graphs.features import NodeData
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TRACE
from ..partition.base import PartitionResult
from .checkpoint import (CheckpointManager, TrainingCheckpoint,
                         config_fingerprint)
from .config import Algorithm, DistTrainConfig, training_layer_dims
from .dist_gcn import DistributedGCN
from .dist_matrix import BlockRowDistribution, DistSparseMatrix
from .distribute import distribute
from .spmm_15d import ProcessGrid

__all__ = ["DistEpochRecord", "DistTrainResult", "DistributedSetup",
           "build_setup", "resolve_grad_bucket_bytes", "setup_distributed",
           "train_distributed"]


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
    """The distributed state built by :func:`setup_distributed`.

    ``node_data`` is in the permuted vertex order, except its
    ``features``: they are the caller's ``dataset.node_data.features``
    itself, in the caller's order and never copied, and
    ``node_data.feature_order`` (``None`` with no partitioner) maps
    permuted vertex ``i`` to its row ``feature_order[i]``.  ``model``
    reads that one array (read-only, at its storage dtype), so writing
    it in place changes what the model reads.
    """

    model: DistributedGCN
    comm: Communicator
    node_data: NodeData            # permuted order; features: the caller's
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
    """Partition, permute and distribute a dataset on ``config.backend``.

    A config with ``"auto"`` fields (``algorithm`` / ``partitioner``) is
    first resolved by the autotuning planner; the concrete configuration
    actually used is returned as ``setup.config``.
    Training with an auto config is bit-identical to passing the resolved
    values explicitly — the planner only selects, it never changes the
    execution path.

    ``partition`` lets a caller supply a precomputed
    :class:`~repro.partition.base.PartitionResult` for ``config.partitioner``
    over ``config.n_block_rows`` parts instead of partitioning again
    (see :func:`~repro.core.distribute.distribute`).
    """
    plan = None
    if config.needs_planning:
        # Imported lazily: repro.plan depends on repro.core, not vice versa.
        from ..plan import resolve_config
        config, plan, partition = resolve_config(dataset, config)

    node_data = dataset.node_data
    node_data.validate()
    matrix, perm, partition = distribute(
        dataset.adjacency, config.partitioner, config.n_block_rows,
        seed=config.seed, dtype=config.np_dtype, partition=partition)
    if perm is not None:
        node_data = node_data.permuted(perm)

    comm = make_communicator(config.n_ranks, backend=config.backend,
                             machine=config.machine)
    try:
        setup = build_setup(config, comm, node_data, matrix, partition)
        setup.plan = plan
        return setup
    except BaseException:
        # Never leak worker threads/processes or shared memory when the
        # distributed state cannot be built (bad grid, incompatible
        # operands, ...): the communicator is ours until handed over.
        comm.close()
        raise


def resolve_grad_bucket_bytes(config: DistTrainConfig) -> int:
    """Concrete fusion bucket size for this run.

    Explicit sizes pass through.  ``None`` (auto) sizes buckets with
    :func:`~repro.core.gradsync.default_bucket_bytes`, the rule the
    planner prices — but only when the gradient-exchange subsystem is
    engaged (overlap or a reduced wire precision); otherwise auto
    resolves to 0 so the default configuration keeps the synchronous
    trainer's exact per-layer schedule.
    """
    if config.grad_bucket_bytes is not None:
        return config.grad_bucket_bytes
    engaged = config.grad_overlap or (
        config.grad_dtype is not None and config.grad_dtype != config.dtype)
    if not engaged:
        return 0
    from .gradsync import default_bucket_bytes
    return default_bucket_bytes(config.backend, config.machine,
                                config.n_ranks)


def build_setup(config: DistTrainConfig, comm: Communicator,
                node_data: NodeData, adjacency_dist: DistSparseMatrix,
                partition: Optional[PartitionResult] = None
                ) -> DistributedSetup:
    """Build the GCN a concrete ``config`` trains over
    ``adjacency_dist`` (already distributed, rows in ``node_data``'s
    order) on ``comm``.  :func:`setup_distributed` builds every training
    run through here, and the planner every candidate it prices
    (:mod:`repro.plan.score`), so both run the same model.

    Layer 0's input is not copied: the model holds ``node_data.features``
    itself (read-only, at its storage dtype) with
    ``node_data.feature_order``, and gathers and casts to
    ``config.dtype`` only the panels it reads
    (:meth:`DistributedGCN._read_input`)."""
    grid = None
    if config.algorithm == Algorithm.ONE_POINT_FIVE_D:
        grid = ProcessGrid(nranks=config.n_ranks,
                           replication=config.replication_factor)

    dims = training_layer_dims(node_data.n_features, node_data.n_classes,
                               config.hidden, config.n_layers)
    model = DistributedGCN(
        adjacency_dist=adjacency_dist,
        features=node_data.features,
        feature_order=node_data.feature_order,
        labels=node_data.labels,
        train_mask=node_data.train_mask,
        layer_dims=dims,
        comm=comm,
        algorithm=config.algorithm,
        sparsity_aware=config.sparsity_aware,
        grid=grid,
        seed=config.seed,
        dtype=config.np_dtype,
        pipeline_depth=config.pipeline_depth,
        grad_overlap=config.grad_overlap,
        grad_bucket_bytes=resolve_grad_bucket_bytes(config),
        grad_dtype=config.grad_dtype,
        cache_input_propagation=config.cache_input_propagation,
    )
    return DistributedSetup(model=model, comm=comm, node_data=node_data,
                            partition=partition,
                            distribution=adjacency_dist.dist,
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
                    partition: Optional[PartitionResult]
                    ) -> Tuple[DistTrainConfig, Optional[PartitionResult]]:
    """The configuration and partition the supervised retry should run
    with.

    Non-elastic: retry the same configuration on the same partition (the
    failed worker pool is simply rebuilt), which keeps the restart
    bit-identical to the uninterrupted run.  Elastic: record the dead
    ``(backend, n_ranks)`` in the plan cache (so it is never served again
    for this matrix) and re-plan over the axes ``config`` leaves free
    (:func:`~repro.plan.planner.planner_constraints`, the mapping
    :func:`~repro.plan.resolve_config` uses, so an ``"auto"`` axis is
    searched again) at the largest surviving rank count the planner
    accepts: ``n_ranks - 1``, else ``n_ranks - 2``, and so on — a pinned
    1.5D run fits no grid at most counts.  The retry runs on the
    re-plan's partition (``None`` on a plan-cache hit:
    :func:`setup_distributed` partitions).
    """
    if not config.elastic or config.n_ranks <= 1:
        return config, partition
    # Imported lazily: repro.plan depends on repro.core, not vice versa.
    from ..plan import (EmptyPlanSpace, PlanCache, Planner,
                        matrix_fingerprint, planner_constraints)

    cache = PlanCache()
    cache.mark_dead(matrix_fingerprint(dataset.adjacency), config.backend,
                    config.n_ranks)
    planner = Planner(**planner_constraints(config), cache=cache,
                      cache_read_only=True)
    for n_ranks in range(config.n_ranks - 1, 0, -1):
        try:
            report = planner.plan_for_dataset(dataset, n_ranks,
                                              hidden=config.hidden,
                                              n_layers=config.n_layers)
        except EmptyPlanSpace:
            if n_ranks == 1:
                raise
            continue
        return (dataclasses.replace(config, **report.plan.as_config_kwargs()),
                report.partition)


def train_distributed(dataset: GraphDataset, config: DistTrainConfig,
                      eval_every: int = 25,
                      partition: Optional[PartitionResult] = None,
                      fault_plan: Optional[FaultPlan] = None
                      ) -> DistTrainResult:
    """Run distributed full-graph GCN training end to end.

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
        except WorkerFailure:
            attempt += 1
            if attempt > config.max_restarts:
                raise
            current_config, current_partition = _recover_config(
                dataset, current_config, current_partition)
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
