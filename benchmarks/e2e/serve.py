"""The serve workloads: a warm ``ServingEngine`` under generated load."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import load_dataset
from repro.core.dist_matrix import DistDenseMatrix
from repro.serve import ServeOptions, ServingEngine, prepare_checkpoint

import layers
import loadgen
from layers import median, timed
from spans import Tracer
from train import build_config
from workloads import (BASELINE_SHARE, IN_FLIGHT, MAX_BATCH, POOL_SIZE,
                       TRACED_SHARE, scaled)

#: Epochs of (sim-backend) training behind the served checkpoint.
CHECKPOINT_EPOCHS = 2


def make_inputs(spec, config, tmp_dir):
    """The generated inputs: a trained checkpoint and the request pool."""
    dataset = load_dataset(spec.dataset, scale=spec.scale, seed=config.seed)
    checkpoint = prepare_checkpoint(dataset, config,
                                    tmp_dir / "serve.ckpt",
                                    epochs=CHECKPOINT_EPOCHS)
    rng = np.random.default_rng(config.seed)
    pool = [np.ascontiguousarray(
        rng.standard_normal((dataset.n_vertices, dataset.n_features)),
        dtype=config.np_dtype) for _ in range(POOL_SIZE)]
    return checkpoint, pool


@dataclass
class ServeState:
    dataset: object
    engine: ServingEngine
    load_s: float
    build_s: float
    cold_batch_ms: list             # forced batch of size 1..MAX_BATCH


def forced_batch(engine, pool, size: int) -> float:
    """Serve ``size`` requests as one batch; returns its wall ms.

    Requests submitted while the drain thread is stopped are coalesced
    into a single batch at ``start()``.
    """
    futures = [engine.submit(pool[i]) for i in range(size)]
    engine.start()
    try:
        seconds, results = timed(
            lambda: [f.result(timeout=loadgen.RESULT_TIMEOUT_S)
                     for f in futures])
    finally:
        engine.stop()
    if results[0].batch_size != size:
        raise RuntimeError(f"forced batch of {size} was served as "
                           f"{results[0].batch_size}")
    return seconds * 1e3


def set_up(spec, config, checkpoint, pool) -> ServeState:
    """Everything a user waits for before the first useful request."""
    load_s, dataset = timed(load_dataset, spec.dataset, scale=spec.scale,
                            seed=config.seed)
    options = ServeOptions(max_batch_width=MAX_BATCH * dataset.n_features,
                           max_wait_ms=2.0, queue_depth=64)
    build_s, engine = timed(ServingEngine.from_checkpoint, dataset, config,
                            checkpoint, options=options)
    try:
        # Force every batch size once, so no timed request pays a
        # first-time compile at a new width: an unwarmed engine that met
        # one mid-run fed its own backlog (p50 16 ms -> 494 ms).
        cold = [forced_batch(engine, pool, size)
                for size in range(1, MAX_BATCH + 1)]
        engine.start()
    except BaseException:
        engine.close()
        raise
    return ServeState(dataset, engine, load_s, build_s, cold)


def host_logits(model, features: np.ndarray) -> np.ndarray:
    """The forward pass recomputed on the host from the global matrix."""
    adjacency = sp.vstack(model.adjacency.block_rows).tocsr()
    weights = model.weight_state()
    h = features
    for layer, weight in enumerate(weights):
        h = (adjacency @ h) @ weight
        if layer < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def reference_responses(engine, pool):
    """Each pool entry's batch-1 response, checked against the host-side
    recompute; every later response must equal it bit for bit."""
    refs, failed = [], 0
    for features in pool:
        result = engine.submit(features).result(
            timeout=loadgen.RESULT_TIMEOUT_S)
        if result.batch_size != 1 or not np.allclose(
                result.logits, host_logits(engine.model, features),
                rtol=1e-9, atol=1e-12):
            failed += 1
        refs.append(result.logits)
    return refs, failed


def summarize(phases, ref_failed: int) -> dict:
    for phase in phases:
        flag = "" if phase.valid else \
            f"  INVALID: generator {phase.late_ms_p99:.2f} ms late at p99"
        print(f"  phase {phase.name}: sent {phase.sent} succeeded "
              f"{phase.succeeded} failed {phase.failed}{flag}")
    failed = ref_failed + sum(p.failed for p in phases)
    # A late generator is flagged, not failed: its lateness is inside every
    # latency (timed from when the request was due), and the outputs the
    # engine returned are as correct as in any other run.
    return {"attempted": POOL_SIZE + sum(p.sent for p in phases),
            "failed": failed, "correct": failed == 0}


def run_untraced(spec, seed: int, seconds: float, setups: int,
                 tmp_dir) -> dict:
    config = build_config(spec, seed)
    checkpoint, pool = make_inputs(spec, config, tmp_dir)
    first_setup_s, state = timed(set_up, spec, config, checkpoint, pool)
    with state.engine as engine:
        refs, ref_failed = reference_responses(engine, pool)
        sat = loadgen.closed_loop(
            engine, pool, refs, scaled(spec.sat_requests, seconds),
            IN_FLIGHT)
        lo = loadgen.open_loop(
            engine, pool, refs, spec.lo_qps,
            scaled(spec.lo_requests, seconds), "lo")
    peak_mb = layers.peak_rss_mb()
    del state, engine

    def set_up_again() -> float:
        seconds_taken, again = timed(set_up, spec, config, checkpoint, pool)
        again.engine.close()
        return seconds_taken

    result = summarize([sat, lo], ref_failed)
    result["metrics"] = {
        "setup_s": layers.median_setup_s(first_setup_s, set_up_again, setups),
        "op_ms_p50": median(loadgen.window_percentile(lo, 50)),
        "ops_per_s": median(loadgen.window_qps(sat)),
        "peak_rss_mb": peak_mb,
    }
    return result


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def forward_probes(engine, pool) -> dict:
    """Direct calls on the stopped engine's model: what one batch costs
    without admission, batcher and accounting around it."""
    model = engine.model

    def assemble(size: int):
        operand = pool[0] if size == 1 else \
            np.concatenate(pool[:size], axis=1)
        return timed(DistDenseMatrix.from_global, operand, model.dist,
                     dtype=model.dtype)

    def forward_ms(size: int, repeats: int) -> float:
        operand = assemble(size)[1]
        return median([timed(model.forward, operand, streams=size)[0]
                       for _ in range(repeats)]) * 1e3

    k1 = forward_ms(1, 10)
    k8 = forward_ms(MAX_BATCH, 5)
    assemble_s = [assemble(MAX_BATCH)[0] for _ in range(5)]
    logits = layers.random_operand(model, MAX_BATCH * engine.output_width,
                                   np.random.default_rng(0))
    scatter_s = [timed(logits.to_global)[0] for _ in range(5)]
    return {"serve.forward_ms_k1": k1,
            "serve.forward_ms_k8": k8,
            "serve.batch_amortization": MAX_BATCH * k1 / k8,
            "serve.assemble_ms_k8": median(assemble_s) * 1e3,
            "serve.scatter_ms_k8": median(scatter_s) * 1e3}


def meets_limit(phase, limit_ms: float) -> bool:
    """p95 within the limit, nothing failed, and no growing backlog (the
    last third's median no more than twice the first third's)."""
    p50 = loadgen.window_percentile(phase, 50)
    p95 = loadgen.tail_percentile(phase.latencies_or_failed(), 95)
    return phase.failed == 0 and p95 <= limit_ms and p50[-1] <= 2 * p50[0]


def queue_wait_ms(spans: list, f0: int) -> list:
    """Submit-to-forward wait of every request among ``spans``.

    Requests are served in submit order, and a batch's first SpMM runs at
    ``batch size x f0`` columns, so each forward takes the next
    ``width / f0`` submits.
    """
    submits = [s for s in spans if s.name == "serve.submit"]
    first_width = {}
    for span in spans:
        if span.name == "spmm":
            first_width.setdefault(span.parent, span.width)
    waits, taken = [], 0
    for span in spans:
        if span.name == "gcn.forward" and span.parent is None:
            size = first_width[span.index] // f0
            waits.extend((span.start - submit.end) * 1e3
                         for submit in submits[taken:taken + size])
            taken += size
    return waits


def time_per_batch(sat) -> list:
    """Wall seconds per served batch in each third of the closed loop."""
    out = []
    start = 0.0
    for done, sizes in zip(loadgen.windows(sat.done_s),
                           loadgen.windows(sat.batch_size)):
        out.append((done[-1] - start) / sum(1.0 / size for size in sizes))
        start = done[-1]
    return out


class Marks:
    """Where each traced phase starts in the engine's counters, the span
    list and the event log (everything is drained between phases)."""

    def __init__(self, engine, tracer) -> None:
        self.engine = engine
        self.tracer = tracer
        self.stats, self.span, self.event = [], [], []
        self.mark()

    def mark(self) -> None:
        self.stats.append(self.engine.stats())
        self.span.append(len(self.tracer.spans))
        self.event.append(len(self.engine.comm.events))

    def delta(self, key: str, first: int, last: int = None) -> float:
        last = first + 1 if last is None else last
        return self.stats[last].get(key, 0.0) \
            - self.stats[first].get(key, 0.0)


def run_traced(spec, seed: int, seconds: float, tmp_dir, out_dir) -> dict:
    config = build_config(spec, seed)
    checkpoint, pool = make_inputs(spec, config, tmp_dir)
    state = set_up(spec, config, checkpoint, pool)
    engine, f0 = state.engine, state.engine.input_width
    tracer = Tracer()
    batch_ids = itertools.count()
    # One operation per served batch: the inference forward is the root
    # span on the serving thread.
    tracer.op = lambda name: next(batch_ids) if name == "gcn.forward" \
        else None
    with engine:
        engine.stop()
        metrics = forward_probes(engine, pool)
        engine.start()
        refs, ref_failed = reference_responses(engine, pool)
        base = loadgen.open_loop(
            engine, pool, refs, spec.lo_qps,
            scaled(spec.lo_requests, seconds, BASELINE_SHARE), "lo-untraced")

        rss0 = layers.rss_mb()
        marks = Marks(engine, tracer)
        tracer.install_comm(engine.comm)
        tracer.install_model(engine.model)
        tracer.install_engine(engine)
        try:
            sat = loadgen.closed_loop(
                engine, pool, refs,
                scaled(spec.sat_requests, seconds, TRACED_SHARE), IN_FLIGHT)
            marks.mark()
            lo = loadgen.open_loop(
                engine, pool, refs, spec.lo_qps,
                scaled(spec.lo_requests, seconds, TRACED_SHARE), "lo")
            marks.mark()
            hi = loadgen.open_loop(
                engine, pool, refs, spec.hi_qps,
                scaled(spec.hi_requests, seconds, TRACED_SHARE), "hi")
            marks.mark()
        finally:
            tracer.uninstall()
        rss_growth = layers.rss_mb() - rss0
        engine.stop()

        batches = marks.delta("serve_batches_total", 0, 3)
        batch_ms = marks.delta("serve_batch_seconds_sum", 0, 3) * 1e3
        span_metrics, forward_ms, glue_ms = layers.span_metrics(
            tracer, engine.model, f0)
        metrics.update(span_metrics)
        # Batch time outside the forward (assembly, scatter, accounting)
        # has no span at all; inside it, the driver Python has none.
        metrics["trace.unattributed_pct"] = \
            100.0 * (batch_ms - forward_ms + glue_ms) / batch_ms
        metrics.update(layers.traffic_per_op(
            engine.comm, marks.event[0], marks.event[3], int(batches)))
        lo_traffic = layers.traffic_per_op(
            engine.comm, marks.event[1], marks.event[2], lo.succeeded)
        metrics.update(layers.live_probes(engine.model, engine.comm, config,
                                          tracer, tmp_dir / "probe.ckpt"))
        reference_ms = median([timed(host_logits, engine.model, pool[0])[0]
                               for _ in range(5)]) * 1e3
        close_s, _ = timed(engine.close)

    result = summarize([base, sat, lo, hi], ref_failed)
    hi_ms = hi.latencies_or_failed()
    per_batch_s = time_per_batch(sat)
    waits = queue_wait_ms(tracer.spans[marks.span[1]:marks.span[2]], f0) \
        if lo.failed == 0 else []
    ok_rates = [rate for rate, phase in ((spec.lo_qps, lo), (spec.hi_qps, hi))
                if meets_limit(phase, spec.p95_limit_ms)]
    metrics.update({
        "graphs.load_s": state.load_s,
        "trainer.distribute_compile_s": state.build_s,
        "comm.close_s": close_s,
        "serve.cold_batch_ms": state.cold_batch_ms[-1],
        "serve.submit_us": median([s.ms * 1e3 for s in tracer.spans
                                   if s.name == "serve.submit"]),
        "serve.batch_ms_p50":
            marks.stats[-1]["serve_batch_seconds_p50"] * 1e3,
        "serve.batch_size_mean_sat":
            sat.succeeded / marks.delta("serve_batches_total", 0),
        "serve.batch_size_mean_lo":
            lo.succeeded / marks.delta("serve_batches_total", 1),
        "serve.queue_wait_ms_p50_lo": median(waits),
        "serve.p95_ms_lo":
            loadgen.tail_percentile(lo.latencies_or_failed(), 95),
        "serve.p50_ms_hi": loadgen.tail_percentile(hi_ms, 50),
        "serve.p95_ms_hi": loadgen.tail_percentile(hi_ms, 95),
        "serve.slo_share_hi":
            sum(1 for v in hi_ms if v <= spec.p95_limit_ms) / hi.sent,
        "serve.rejected_share_hi": hi.rejected / hi.sent,
        "serve.max_ok_qps": max(ok_rates, default=0.0),
        "serve.drift_ratio": per_batch_s[-1] / per_batch_s[0],
        "serve.rss_growth_mb": rss_growth,
        "serve.bytes_per_request": lo_traffic["comm.bytes_per_epoch"],
        "serve.messages_per_request": lo_traffic["comm.messages_per_epoch"],
        "serve.gen_late_ms_p99": max(lo.late_ms_p99, hi.late_ms_p99),
        "trace.overhead_pct": 100.0 * (
            median(loadgen.window_percentile(lo, 50))
            / median(loadgen.window_percentile(base, 50)) - 1.0),
        # The plain single-worker baseline of the same task: one
        # request's forward on the host, no distribution at all.
        "ref.single_process_epoch_ms": reference_ms,
        "ref.speedup_vs_single":
            reference_ms / metrics["serve.forward_ms_k1"],
    })

    partition_s, partition = layers.partition_graph(state.dataset, config)
    metrics.update(layers.partition_metrics(state.dataset, config, partition,
                                            partition_s))
    metrics.update(layers.plan_metrics(state.dataset, config))

    def one_forward(sim_model) -> int:
        sim_model.forward(sim_model.features)
        return 1

    metrics.update(layers.sim_metrics(state.dataset, config, partition,
                                      one_forward))
    tracer.dump(out_dir / f"trace-{spec.name}.json")
    result["metrics"] = metrics
    return result
