"""Load generation + the ``BENCH_serve.json`` payload.

:func:`run_load` drives the engine from the calling thread, two ways:

* **open loop** (a paced step) — send on a fixed schedule whatever has
  completed, so the queue can grow.  Each request is timed from when it
  was *due*: ``latency = (send - due) + ServeResult.latency_s``, which
  charges a stall to every request it delayed; how late the generator
  itself ran is reported as ``late_ms_p99``.
* **closed loop** (the unpaced step) — keep ``clients`` requests in
  flight; the next one is sent only when one completes, so a slower
  engine receives less load.  This finds saturation throughput.

Latency percentiles use the same nearest-rank estimator as the metrics
registry's histogram expansion (:func:`repro.obs.metrics.percentile`).

:func:`run_serve_bench` assembles the whole benchmark: train-or-load a
checkpoint, verify batched == sequential bit-identity, sweep offered
QPS once with dynamic batching and once with ``--no-batch``, and report
per-step p50/p99 + achieved throughput and the saturation speedup.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.analysis import predicted_bytes_per_forward
from ..core.config import Algorithm
from ..core.costmodel import inference_spmm_widths
from ..obs.metrics import percentile
from .engine import (RequestExpired, RequestRejected, ServeError,
                     ServeOptions, ServingEngine)

__all__ = ["LoadStep", "prepare_checkpoint", "run_load", "run_serve_bench",
           "serve_traffic", "verify_batched_identity"]

#: requests :func:`run_serve_bench` serves batched and one by one to
#: verify they agree bit for bit
VERIFY_REQUESTS = 6
#: Bound on any single result wait, so a wedged engine fails the run
#: instead of hanging it.
RESULT_TIMEOUT_S = 120.0


@dataclass
class LoadStep:
    """One offered-QPS step of the sweep."""

    offered_qps: Optional[float]        # None = unpaced (find saturation)
    achieved_qps: float
    completed: int
    rejected: int
    duration_s: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    #: Requests that failed serving (a failed batch, an expired
    #: deadline, or no result within ``RESULT_TIMEOUT_S``); counted, not
    #: retried.  Zero on every fault-free run.
    failed: int
    #: How late the generator sent, at p99 (0 for the closed loop).
    late_ms_p99: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_load(engine: ServingEngine,
             make_features: Callable[[int], np.ndarray],
             offered_qps: Optional[float], duration_s: float,
             clients: int = 8,
             tenants: Sequence[str] = ("default",)) -> LoadStep:
    """Drive ``engine`` from this thread for ``duration_s``.

    With ``offered_qps`` set, an open loop sends
    ``round(offered_qps * duration_s)`` requests, the i-th due at
    ``i / offered_qps`` seconds; with ``offered_qps=None``, a closed loop
    keeps ``clients`` requests in flight until ``duration_s`` has passed.
    Either way the step ends once every request sent has completed.

    ``make_features(i)`` supplies the i-th request's feature matrix
    (deterministic factories keep benchmark runs reproducible).  Tenants
    are assigned round-robin across requests.  The engine must already
    be started.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    inflight: deque = deque()               # (late_s, future), send order
    latencies: List[float] = []
    late: List[float] = []
    rejected = failed = 0

    def send(i: int, late_s: float) -> None:
        nonlocal rejected
        late.append(late_s)
        try:
            future = engine.submit(make_features(i),
                                   tenant=tenants[i % len(tenants)])
        except RequestRejected:
            rejected += 1
            return
        inflight.append((late_s, future))

    def harvest(block: bool) -> bool:
        """Collect the oldest in-flight request; False if none was ready."""
        nonlocal failed
        if not inflight or not (block or inflight[0][1].done()):
            return False
        late_s, future = inflight.popleft()
        try:
            result = future.result(timeout=RESULT_TIMEOUT_S)
            latencies.append(late_s + result.latency_s)
        except (ServeError, RequestExpired, TimeoutError):
            failed += 1
        return True

    t0 = perf_counter()
    if offered_qps is None:
        i = 0
        while perf_counter() - t0 < duration_s:
            for _ in range(clients - len(inflight)):
                send(i, 0.0)
                i += 1
            if not harvest(block=True):
                sleep(0.001)                # every request was rejected
            while harvest(block=False):
                pass
    else:
        period = 1.0 / offered_qps
        for i in range(round(offered_qps * duration_s)):
            due = t0 + i * period
            # One sleep per request: every wake-up contends with the
            # serving thread for the interpreter lock, so polling would
            # slow the engine being measured.
            ahead = due - perf_counter()
            if ahead > 0:
                sleep(ahead)
            send(i, max(0.0, perf_counter() - due))
            while harvest(block=False):
                pass
    while harvest(block=True):
        pass
    elapsed = perf_counter() - t0
    return LoadStep(
        offered_qps=offered_qps,
        achieved_qps=len(latencies) / elapsed,
        completed=len(latencies),
        rejected=rejected,
        duration_s=elapsed,
        p50_ms=percentile(latencies, 0.50) * 1e3,
        p99_ms=percentile(latencies, 0.99) * 1e3,
        mean_ms=(sum(latencies) / len(latencies)) * 1e3
        if latencies else float("nan"),
        failed=failed,
        late_ms_p99=percentile(late, 0.99) * 1e3,
    )


def verify_batched_identity(engine: ServingEngine,
                            features_list: Sequence[np.ndarray]) -> dict:
    """Prove batched serving bit-identical to sequential serving.

    Sequential reference: submit-and-wait one request at a time (every
    batch has width 1 even with batching enabled).  Batched run: stop
    the drain thread, queue every request, restart — the whole set
    coalesces deterministically (column budget permitting).  Returns the
    verdict plus the coalesced batch sizes actually observed, so callers
    can assert the batched path really ran.
    """
    was_running = engine.running
    if not was_running:
        engine.start()
    sequential = [engine.submit(f).result(timeout=RESULT_TIMEOUT_S)
                  for f in features_list]
    engine.stop()
    futures = [engine.submit(f) for f in features_list]
    engine.start()
    batched = [future.result(timeout=RESULT_TIMEOUT_S) for future in futures]
    if not was_running:
        engine.stop()
    identical = all(
        np.array_equal(s.logits, b.logits) and s.logits.dtype == b.logits.dtype
        for s, b in zip(sequential, batched))
    return {
        "bit_identical": bool(identical),
        "requests": len(features_list),
        "sequential_batch_sizes": sorted({r.batch_size for r in sequential}),
        "batched_max_batch_size": max(r.batch_size for r in batched),
    }


def serve_traffic(engine: ServingEngine) -> dict:
    """Exchange volume per served request against the schedule's.

    Every request moves the same bytes whatever batch it rode in (the
    exchange is linear in the stream count), so the engine's lifetime
    total over its served requests is exact.  ``predicted_*`` is the
    volume at :func:`~repro.core.costmodel.inference_spmm_widths`,
    ``paper_order_*`` what ``(A H) W`` on every layer would move (1D
    only: the 1.5D volume has no closed form here).  ``widest_plan`` (the
    width the model's plan grew its workspaces to) against
    ``input_width`` shows whether any SpMM workspace is as wide as a
    request.  Assumes a fault-free run on a communicator that
    has served nothing else.
    """
    model = engine.model
    served = int(engine.stats()["serve_request_seconds_count"])
    widths = inference_spmm_widths(model.layer_dims)
    report = {
        "input_width": engine.input_width,
        "spmm_widths": widths,
        "widest_plan": model.compiled_op(max(widths)).workspace_width,
        "requests": served,
        "bytes_per_request": engine.comm.events.total_bytes() / served,
    }
    if model.algorithm == Algorithm.ONE_D:
        for key, schedule in (("predicted", widths),
                              ("paper_order", model.layer_dims[:-1])):
            report[f"{key}_bytes_per_request"] = predicted_bytes_per_forward(
                model.adjacency, schedule, model.sparsity_aware,
                element_bytes=model.dtype.itemsize)
    return report


def prepare_checkpoint(dataset, config, path, epochs: int = 3) -> str:
    """Train briefly and publish a checkpoint for serving benchmarks.

    Training runs on the ``sim`` backend regardless of the serving
    backend — the checkpoint fingerprint deliberately excludes the
    backend (a proven bit-identical execution axis), so a sim-trained
    checkpoint serves anywhere, and sim training costs no worker
    processes.
    """
    from ..core.checkpoint import (TrainingCheckpoint, config_fingerprint,
                                   write_checkpoint)
    from ..core.trainer import setup_distributed
    train_config = dataclasses.replace(config, backend="sim")
    setup = setup_distributed(dataset, train_config)
    try:
        for _ in range(int(epochs)):
            setup.model.train_epoch(train_config.learning_rate)
        resolved = setup.config if setup.config is not None else train_config
        ckpt = TrainingCheckpoint(
            epoch=int(epochs),
            weights=setup.model.weight_state(),
            optimizer_state={"name": "sgd",
                             "learning_rate": resolved.learning_rate},
            rng_state=None,
            plan_fingerprint=config_fingerprint(resolved),
            history=[],
            meta={"purpose": "serve", "backend": resolved.backend},
        )
        write_checkpoint(path, ckpt)
    finally:
        setup.comm.close()
    return str(path)


def _feature_factory(dataset, dtype,
                     seed: int) -> Callable[[int], np.ndarray]:
    """Deterministic per-request feature matrices from one base seed.

    A small pool is pregenerated and cycled: request features must vary
    (identical payloads would hide batching bugs that mix columns up)
    but generating thousands of fresh matrices would make the *load
    generator* the bottleneck at high offered QPS.
    """
    rng = np.random.default_rng(seed)
    shape = (dataset.n_vertices, dataset.n_features)
    pool = [np.ascontiguousarray(rng.standard_normal(shape), dtype=dtype)
            for _ in range(16)]
    return lambda i: pool[i % len(pool)]


def run_serve_bench(dataset, config, checkpoint, *,
                    qps_steps: Sequence[Optional[float]],
                    duration_s: float, clients: int,
                    tenants: Sequence[str], max_batch_width: int,
                    max_wait_ms: float, queue_depth: int,
                    max_restarts: int, seed: int) -> dict:
    """The full ``repro serve --bench`` measurement (one backend).

    Sweeps ``qps_steps`` twice — dynamic batching vs the ``--no-batch``
    baseline — over the same checkpoint, config and request stream, and
    verifies batched/sequential bit-identity on the batched engine.
    Returns a JSON-able payload (the ``serve`` section of
    ``BENCH_serve.json``).
    """
    results: dict = {"backend": config.backend, "rows": []}
    saturation = {}
    for mode, batching in (("batched", True), ("no_batch", False)):
        options = ServeOptions(
            max_batch_width=max_batch_width,
            max_wait_ms=max_wait_ms,
            queue_depth=queue_depth,
            batching=batching,
            max_restarts=max_restarts)
        engine = ServingEngine.from_checkpoint(dataset, config, checkpoint,
                                               options=options)
        try:
            engine.start()
            dtype = engine.model.dtype
            if batching:
                verify = _feature_factory(dataset, dtype, seed + 1)
                results["identity"] = verify_batched_identity(
                    engine, [verify(i) for i in range(VERIFY_REQUESTS)])
            make_features = _feature_factory(dataset, dtype, seed)
            steps = [run_load(engine, make_features, qps, duration_s,
                              clients=clients, tenants=tenants)
                     for qps in qps_steps]
            results["rows"] += [{**step.as_dict(), "mode": mode}
                                for step in steps]
            saturation[mode] = max(step.achieved_qps for step in steps)
            if batching:
                stats = engine.stats()
                results["serve_stats"] = {
                    k: v for k, v in stats.items()
                    if not k.startswith("tenant_")}
                results["tenant_stats"] = {
                    k: v for k, v in stats.items()
                    if k.startswith("tenant_")}
                results["health"] = engine.health()
                results["traffic"] = serve_traffic(engine)
        finally:
            engine.close()

    results["saturation"] = {
        "batched_qps": saturation["batched"],
        "no_batch_qps": saturation["no_batch"],
        "speedup": (saturation["batched"] / saturation["no_batch"]
                    if saturation["no_batch"] else float("nan")),
    }
    return results
