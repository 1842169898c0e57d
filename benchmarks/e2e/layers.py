"""Per-layer probes shared by the train and serve runners.

Each function measures one of the repo's modules from outside, through
its public API, and returns ``{metric name: value}``.  Times that come
from spans are read off a :class:`spans.Tracer`; the rest are short
micro-runs made after the traced stretch, so they never disturb it.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import os
import resource
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from repro import (ReferenceTrainConfig, get_partitioner, partition_report,
                   setup_distributed, train_reference)
from repro.core.checkpoint import (TrainingCheckpoint, config_fingerprint,
                                   read_checkpoint, write_checkpoint)
from repro.core.dist_matrix import DistDenseMatrix
from repro.plan import plan_for_dataset

#: Names of the spans that are a blocking collective.
_BLOCKING = {"comm." + op for op in ("alltoallv", "broadcast", "allreduce",
                                     "reduce", "allgather", "exchange")}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - t0, result


def rss_mb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def median_setup_s(first_s: float, set_up_again, setups: int) -> float:
    """Median set-up time over ``setups`` set-ups.

    The first one built the objects the workload ran on; the others are
    built and torn down only to steady this number, *after* the workload
    and after ``peak_rss_mb`` was read, so they inflate neither.
    """
    seconds = [first_s]
    for _ in range(setups - 1):
        gc.collect()                # drop the previous set-up's cycles
        seconds.append(set_up_again())
    return median(seconds)


# ----------------------------------------------------------------------
# partition / plan
# ----------------------------------------------------------------------
def partition_graph(dataset, config):
    """``(seconds, PartitionResult)`` of the configured partitioner."""
    partitioner = get_partitioner(config.partitioner, seed=config.seed)
    return timed(partitioner.partition, dataset.adjacency,
                 config.n_block_rows)


def partition_metrics(dataset, config, partition, seconds: float) -> dict:
    report = partition_report(dataset.adjacency, partition.parts,
                              config.n_block_rows)
    return {
        "partition.time_s": seconds,
        "partition.total_volume_rows": report["total_volume"],
        "partition.max_send_rows": report["max_send_volume"],
        "partition.edgecut": report["edgecut"],
        "partition.nnz_imbalance": report["nnz_imbalance"],
    }


def plan_metrics(dataset, config) -> dict:
    """Cold, analytic-only planning of this workload's matrix (the plan
    cache the parent pointed ``REPRO_PLAN_CACHE`` at starts empty)."""
    seconds, report = timed(
        plan_for_dataset, dataset, config.n_ranks, machine=config.machine,
        hidden=config.hidden, n_layers=config.n_layers, probe=False,
        seed=config.seed)
    if report.cache_hit:
        raise RuntimeError("plan cache was not cold")
    return {"plan.resolve_s": seconds,
            "plan.candidates": float(len(report.table))}


# ----------------------------------------------------------------------
# comm
# ----------------------------------------------------------------------
def traffic_per_op(comm, start: int, stop: int, ops: int) -> dict:
    """Exact traffic counts of ``comm.events[start:stop]`` per operation,
    and how often the backend replayed a cached exchange plan so far."""
    sent = defaultdict(int)
    steps = set()
    messages = 0
    for event in itertools.islice(iter(comm.events), start, stop):
        sent[event.src] += event.nbytes
        steps.add(event.step)
        messages += 1
    ops = max(1, ops)
    cache = comm.cache_stats()
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {"comm.exchange_plan_hit_rate":
                cache.get("hits", 0) / lookups if lookups else 0.0,
            "comm.bytes_per_epoch": sum(sent.values()) / ops,
            "comm.max_send_bytes_per_epoch":
                max(sent.values(), default=0) / ops,
            "comm.messages_per_epoch": messages / ops,
            "comm.collectives_per_epoch": len(steps) / ops}


def comm_microbench(comm) -> dict:
    """Per-message latency and bandwidth of the live communicator."""
    p = comm.nranks

    def send_matrix(n_values: int):
        payload = np.ones(n_values)
        return [[None if i == j else payload for j in range(p)]
                for i in range(p)]

    small = send_matrix(1)                                  # 8 bytes
    small_s = [timed(comm.alltoallv, small, category="bench")[0]
               for _ in range(200)]
    big = send_matrix(4 * 2 ** 20 // 8)                     # 4 MB per pair
    big_s = [timed(comm.alltoallv, big, category="bench")[0]
             for _ in range(5)]
    moved_mb = p * (p - 1) * 4 * 2 ** 20 / 1e6
    return {"comm.us_per_small_alltoallv": median(small_s) * 1e6,
            "comm.alltoallv_mb_per_s": moved_mb / median(big_s)}


# ----------------------------------------------------------------------
# spans -> gcn / spmm / comm times per operation
# ----------------------------------------------------------------------
def span_metrics(tracer, model, f0: int):
    """Per-operation medians read off the traced stretch.

    An *operation* is one epoch (train) or one served batch (serve); the
    ``_per_epoch`` names keep the train wording on both.  Returns
    ``(metrics, ms in root spans, ms no layer span names)``.
    """
    covered = tracer.children_ms()
    nnz = model.adjacency.nnz
    per_op = defaultdict(lambda: defaultdict(float))
    wide, narrow = [], []
    root_ms = unattributed_ms = 0.0
    for op, spans in tracer.by_op().items():
        sums = per_op[op]
        for span in spans:
            sums[span.name] += span.ms
            self_ms = span.ms - covered.get(span.index, 0.0)
            if span.name == "spmm":
                sums["spmm.calls"] += 1
                sums["spmm.glue"] += self_ms
                sums["spmm.flops"] += 2.0 * nnz * span.width
                (wide if span.width >= f0 else narrow).append(span.ms)
            elif span.name in _BLOCKING:
                sums["comm.busy"] += span.ms
            elif span.name.endswith(".post"):
                sums["comm.post"] += span.ms
            elif span.name == "epoch" or (span.name.startswith("gcn.")
                                          and span.name != "gcn.dense"):
                # Driver Python between the wrapped calls: no layer span
                # names it.
                unattributed_ms += self_ms
            if span.parent is None:
                root_ms += span.ms

    def per_op_median(key: str) -> float:
        return median([sums[key] for sums in per_op.values()])

    return {
        "gcn.forward_ms": per_op_median("gcn.forward"),
        "gcn.loss_ms": per_op_median("gcn.loss"),
        "gcn.backward_ms": per_op_median("gcn.backward"),
        "gcn.optimizer_ms": per_op_median("gcn.optimizer"),
        "gcn.dense_self_ms": per_op_median("gcn.dense"),
        "spmm.calls_per_epoch": per_op_median("spmm.calls"),
        "spmm.ms_wide": median(wide),
        "spmm.ms_narrow": median(narrow),
        "spmm.compute_ms_per_epoch": per_op_median("spmm.compute"),
        "spmm.glue_ms_per_epoch": per_op_median("spmm.glue"),
        "spmm.flops_per_epoch": per_op_median("spmm.flops"),
        "comm.busy_ms_per_epoch": per_op_median("comm.busy"),
        "comm.post_ms_per_epoch": per_op_median("comm.post"),
        "comm.wait_ms_per_epoch": per_op_median("comm.wait"),
    }, root_ms, unattributed_ms


def spmm_widths_per_op(tracer) -> dict:
    """``width -> SpMM calls per operation`` (mean over operations: served
    batches differ in width, epochs do not)."""
    groups = tracer.by_op()
    counts = defaultdict(int)
    for spans in groups.values():
        for span in spans:
            if span.name == "spmm":
                counts[span.width] += 1
    return {width: count / len(groups) for width, count in counts.items()}


def spmm_replay(model, tracer, repeats: int = 3) -> dict:
    """Pack and multiply of every adjacency block, replayed here.

    Runs ``np.take`` on ``nnz_cols(i, j)`` and ``block(i, j).compact @
    rows`` with the operands the model last used at each width, then
    scales by how often an operation multiplies at that width.  This is
    the kernel time without the backend around it.
    """
    adjacency = model.adjacency
    blocks = range(adjacency.nblocks)
    pack_ms = mult_ms = 0.0
    for width, calls in spmm_widths_per_op(tracer).items():
        dense = tracer.operands[width]
        pack_s, mult_s = [], []
        for _ in range(repeats):
            pack = mult = 0.0
            for i in blocks:
                for j in blocks:
                    info = adjacency.block(i, j)
                    if info.compact.nnz == 0:
                        continue
                    t0 = perf_counter()
                    rows = np.take(dense.block(j), adjacency.nnz_cols(i, j),
                                   axis=0)
                    t1 = perf_counter()
                    info.compact @ rows
                    t2 = perf_counter()
                    pack += t1 - t0
                    mult += t2 - t1
            pack_s.append(pack)
            mult_s.append(mult)
        pack_ms += median(pack_s) * 1e3 * calls
        mult_ms += median(mult_s) * 1e3 * calls
    return {"spmm.pack_ms_per_epoch": pack_ms,
            "spmm.mult_ms_per_epoch": mult_ms}


def plan_cache_metrics(model) -> dict:
    stats = model.plan_stats()
    lookups = stats["plan_hits"] + stats["plan_misses"]
    return {"spmm.compiled_plans": float(stats["plans_retained"]),
            # the training forward peeks (uncounted): no lookup, no miss
            "spmm.plan_cache_hit_rate":
                stats["plan_hits"] / lookups if lookups else 1.0}


# ----------------------------------------------------------------------
# checkpoint / sim / reference
# ----------------------------------------------------------------------
def checkpoint_metrics(model, config, path) -> dict:
    """One write and one read of the model's weights as a checkpoint."""
    checkpoint = TrainingCheckpoint(
        epoch=1, weights=model.weight_state(),
        optimizer_state={"name": "sgd",
                         "learning_rate": config.learning_rate},
        rng_state=None, plan_fingerprint=config_fingerprint(config),
        history=[], meta={"purpose": "benchmark"})
    save_s, _ = timed(write_checkpoint, path, checkpoint)
    load_s, _ = timed(read_checkpoint, path)
    nbytes = os.path.getsize(path)
    os.remove(path)
    return {"checkpoint.save_ms": save_s * 1e3,
            "checkpoint.load_ms": load_s * 1e3,
            "checkpoint.bytes": float(nbytes)}


def live_probes(model, comm, config, tracer, checkpoint_path) -> dict:
    """The short probes both kinds of workload make on their live model
    and communicator once the traced stretch is over."""
    return {**spmm_replay(model, tracer),
            **plan_cache_metrics(model),
            **comm_microbench(comm),
            **checkpoint_metrics(model, config, checkpoint_path)}


def sim_metrics(dataset, config, partition, run) -> dict:
    """The same operation on the deterministic alpha-beta simulator:
    what the *algorithm* costs, whatever the implementation does."""
    setup = setup_distributed(
        dataset, dataclasses.replace(config, backend="sim"),
        partition=partition)
    with setup.comm as comm:
        ops = run(setup.model)
        breakdown = comm.breakdown(reduce="max")
        total = sum(breakdown.values())
        return {"sim.model_epoch_ms": comm.elapsed() / ops * 1e3,
                "sim.model_comm_share":
                    1.0 - breakdown.get("local", 0.0) / total
                    if total else 0.0}


def reference_train_ms(dataset, config, epochs: int = 10) -> float:
    """Epoch time of the plain single-process reference trainer."""
    seconds, _ = timed(
        train_reference, dataset.adjacency, dataset.node_data,
        ReferenceTrainConfig(hidden=config.hidden, n_layers=config.n_layers,
                             epochs=epochs,
                             learning_rate=config.learning_rate,
                             seed=config.seed))
    return seconds / epochs * 1e3


def random_operand(model, width: int, rng) -> DistDenseMatrix:
    return DistDenseMatrix.from_global(
        rng.standard_normal((model.dist.n, width)), model.dist,
        dtype=model.dtype)
