"""The train workloads: timed ``model.train_epoch`` on the process backend."""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import DistTrainConfig, load_dataset, setup_distributed

import layers
from layers import median, timed
from spans import Tracer
from workloads import (BASELINE_SHARE, COMMON, TRACED_SHARE, WARMUP_EPOCHS,
                       scaled)


def build_config(spec, seed: int) -> DistTrainConfig:
    return DistTrainConfig(n_ranks=spec.ranks, seed=seed, **COMMON,
                           **spec.config)


@dataclass
class TrainState:
    dataset: object
    partition: object
    model: object
    comm: object
    load_s: float
    partition_s: float
    distribute_s: float
    warmup_ms: list
    first_loss: float


def set_up(spec, config) -> TrainState:
    """Everything a user waits for before the first useful epoch."""
    load_s, dataset = timed(load_dataset, spec.dataset, scale=spec.scale,
                            seed=config.seed)
    partition_s, partition = layers.partition_graph(dataset, config)
    distribute_s, setup = timed(setup_distributed, dataset, config,
                                partition=partition)
    try:
        # Cold workers, arenas and exchange-plan misses land here, not in
        # the timed epochs.
        warm = [timed(setup.model.train_epoch, config.learning_rate)
                for _ in range(WARMUP_EPOCHS)]
    except BaseException:
        setup.comm.close()
        raise
    return TrainState(dataset, partition, setup.model, setup.comm, load_s,
                      partition_s, distribute_s,
                      [s * 1e3 for s, _ in warm], warm[0][1])


def run_epochs(model, lr: float, epochs: int, tracer=None):
    """``(per-epoch ms, losses, wall seconds)`` of ``epochs`` epochs."""
    epoch_ms, losses = [], []
    start = perf_counter()
    for epoch in range(epochs):
        t0 = perf_counter()
        if tracer is None:
            loss = model.train_epoch(lr)
        else:
            tracer.op = epoch
            span = tracer.begin("epoch")
            try:
                loss = model.train_epoch(lr)
            finally:
                tracer.end(span)
        epoch_ms.append((perf_counter() - t0) * 1e3)
        losses.append(float(loss))
    return epoch_ms, losses, perf_counter() - start


def check_outputs(model, first_loss: float, losses: list) -> dict:
    """Operation counts and output checks (an epoch is one operation)."""
    failed = sum(1 for loss in losses if not math.isfinite(loss))
    distributed = model.forward()[-1].h_out.to_global()
    logits_match = bool(np.allclose(distributed, model.global_logits(),
                                    rtol=1e-9, atol=1e-12))
    return {"attempted": len(losses), "failed": failed,
            "correct": failed == 0 and losses[-1] < first_loss
            and logits_match}


def run_untraced(spec, seed: int, seconds: float, setups: int) -> dict:
    config = build_config(spec, seed)
    first_setup_s, state = timed(set_up, spec, config)
    with state.comm:
        epoch_ms, losses, wall_s = run_epochs(
            state.model, config.learning_rate, scaled(spec.epochs, seconds))
        result = check_outputs(state.model, state.first_loss, losses)
    peak_mb = layers.peak_rss_mb()
    del state

    def set_up_again() -> float:
        seconds_taken, again = timed(set_up, spec, config)
        again.comm.close()
        return seconds_taken

    result["metrics"] = {
        "setup_s": layers.median_setup_s(first_setup_s, set_up_again, setups),
        "op_ms_p50": median(epoch_ms),
        "ops_per_s": len(epoch_ms) / wall_s,
        "peak_rss_mb": peak_mb,
    }
    return result


def run_traced(spec, seed: int, seconds: float, tmp_dir, out_dir) -> dict:
    config = build_config(spec, seed)
    state = set_up(spec, config)
    model, comm, lr = state.model, state.comm, config.learning_rate
    tracer = Tracer()
    with comm:
        base_ms, base_losses, _ = run_epochs(
            model, lr, scaled(spec.epochs, seconds, BASELINE_SHARE))
        tracer.install_comm(comm)
        tracer.install_model(model)
        first_event = len(comm.events)
        grad0 = model.gradsync.summary()
        try:
            epoch_ms, losses, _ = run_epochs(
                model, lr, scaled(spec.epochs, seconds, TRACED_SHARE),
                tracer)
        finally:
            tracer.uninstall()
        grad1 = model.gradsync.summary()
        metrics, epoch_total_ms, glue_ms = layers.span_metrics(
            tracer, model, model.layer_dims[0])
        metrics["trace.unattributed_pct"] = 100.0 * glue_ms / epoch_total_ms
        metrics.update(layers.traffic_per_op(
            comm, first_event, len(comm.events), len(epoch_ms)))
        result = check_outputs(model, state.first_loss, base_losses + losses)
        metrics.update(layers.live_probes(model, comm, config, tracer,
                                          tmp_dir / "probe.ckpt"))
        close_s, _ = timed(comm.close)

    epochs = len(epoch_ms)
    metrics.update({
        "graphs.load_s": state.load_s,
        "trainer.distribute_compile_s": state.distribute_s,
        "trainer.first_epoch_ms": state.warmup_ms[0],
        "trainer.epoch_ms_p95":
            float(np.percentile(epoch_ms, 95, method="higher")),
        "comm.close_s": close_s,
        "gradsync.reductions_per_epoch":
            (grad1["buckets_per_epoch"] - grad0["buckets_per_epoch"])
            / epochs,
        "gradsync.wire_bytes_per_epoch":
            (grad1["wire_MB_per_epoch"] - grad0["wire_MB_per_epoch"])
            * 1e6 / epochs,
        "gradsync.drain_wait_ms_per_epoch":
            (grad1["drain_wait_s_per_epoch"]
             - grad0["drain_wait_s_per_epoch"]) * 1e3 / epochs,
        "trace.overhead_pct":
            100.0 * (median(epoch_ms) / median(base_ms) - 1.0),
    })
    metrics.update(layers.partition_metrics(
        state.dataset, config, state.partition, state.partition_s))
    metrics.update(layers.plan_metrics(state.dataset, config))

    def two_epochs(sim_model) -> int:
        sim_model.train_epoch(lr)
        sim_model.train_epoch(lr)
        return 2

    metrics.update(layers.sim_metrics(state.dataset, config,
                                      state.partition, two_epochs))
    reference_ms = layers.reference_train_ms(state.dataset, config)
    metrics["ref.single_process_epoch_ms"] = reference_ms
    metrics["ref.speedup_vs_single"] = reference_ms / median(base_ms)
    tracer.dump(out_dir / f"trace-{spec.name}.json")
    result["metrics"] = metrics
    return result
