"""Closed-loop load generation + the ``BENCH_serve.json`` payload.

The generator models ``clients`` concurrent closed-loop clients: each
submits a request, waits for its result, then paces itself to its share
of the aggregate offered QPS (an unpaced step — ``offered_qps=None`` —
submits back-to-back, which is how the sweep finds saturation).
Latency is measured submit-to-fulfil, queue wait included; percentiles
use the same nearest-rank estimator as the metrics registry's
histogram expansion (:func:`repro.obs.metrics.percentile`).

:func:`run_serve_bench` assembles the whole benchmark: train-or-load a
checkpoint, verify batched == sequential bit-identity, sweep offered
QPS once with dynamic batching and once with ``--no-batch``, and report
per-step p50/p99 + achieved throughput and the saturation speedup.
"""

from __future__ import annotations

import dataclasses
import random
import threading
from dataclasses import dataclass
from time import monotonic, perf_counter, sleep
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.analysis import predicted_bytes_per_forward
from ..core.config import Algorithm
from ..core.costmodel import inference_spmm_widths
from ..obs.metrics import percentile
from .admission import RequestRejected
from .engine import (RequestExpired, ServeError, ServeOptions, ServeResult,
                     ServingEngine)

__all__ = ["LoadStep", "prepare_checkpoint", "run_load", "run_serve_bench",
           "serve_traffic", "submit_with_retries", "verify_batched_identity"]

#: ceiling of one backoff sleep of :func:`submit_with_retries`, before
#: jitter
BACKOFF_CAP_S = 2.0
#: tries :func:`run_load`'s clients make per request
RETRY_ATTEMPTS = 3
#: requests :func:`run_serve_bench` serves batched and one by one to
#: verify they agree bit for bit
VERIFY_REQUESTS = 6


def submit_with_retries(engine: ServingEngine, features: np.ndarray,
                        tenant: str = "default", *,
                        attempts: int = 4,
                        backoff_s: float = 0.05,
                        timeout_s: float = 120.0,
                        rng: Optional[random.Random] = None) -> ServeResult:
    """Submit-and-wait with exponential backoff + jitter on retryables.

    The client-side half of the serving failure contract: a
    :class:`~repro.serve.engine.ServeError` marked ``retryable`` means
    the engine is restarting behind the failure (supervised recovery),
    so the right client move is to back off and resubmit — the delay
    doubles up to ``BACKOFF_CAP_S`` per attempt, and each sleep is
    jittered by a uniform factor in ``[0.5, 1.5)`` so a fleet of
    retrying clients does not stampede the freshly rebuilt engine.

    Non-retryable failures (recovery exhausted, expired deadline),
    result-wait timeouts and
    :class:`~repro.serve.admission.RequestRejected` propagate
    immediately; after ``attempts`` tries the last retryable error is
    re-raised.  ``rng`` pins the jitter for deterministic tests.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if rng is None:
        rng = random.Random()
    delay = float(backoff_s)
    last: Optional[BaseException] = None
    for attempt in range(int(attempts)):
        if attempt:
            sleep(min(BACKOFF_CAP_S, delay) * (0.5 + rng.random()))
            delay *= 2.0
        future = engine.submit(features, tenant=tenant)
        try:
            return future.result(timeout=timeout_s)
        except ServeError as exc:
            if not exc.retryable:
                raise
            last = exc
    assert last is not None
    raise last


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
    #: Requests that exhausted their serving-side retries (failed batch
    #: with recovery unavailable, or expired deadline).  Zero on every
    #: fault-free run.
    failed: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_load(engine: ServingEngine,
             make_features: Callable[[int], np.ndarray],
             offered_qps: Optional[float], duration_s: float,
             clients: int = 8,
             tenants: Sequence[str] = ("default",)) -> LoadStep:
    """Drive ``engine`` with closed-loop clients for ``duration_s``.

    ``make_features(i)`` supplies the i-th request's feature matrix
    (deterministic factories keep benchmark runs reproducible).  Tenants
    are assigned round-robin across requests.  The engine must already
    be started.

    Clients ride :func:`submit_with_retries` (``RETRY_ATTEMPTS`` tries
    with backoff+jitter), so a supervised engine restart mid-run costs
    latency, not correctness; requests that still fail — recovery
    exhausted, or an expired deadline (``ServeOptions.
    default_deadline_ms``) — land in ``failed``.
    A retried request's latency covers every attempt, backoff included:
    that *is* the latency the client experienced.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    period = None if offered_qps is None else clients / float(offered_qps)
    latencies: List[float] = []
    rejected = [0]
    failed = [0]
    lock = threading.Lock()
    t_start = monotonic()
    t_end = t_start + duration_s

    def client(c: int) -> None:
        i = 0
        local: List[float] = []
        local_rejected = 0
        local_failed = 0
        jitter_rng = random.Random(c)
        while True:
            if period is not None:
                target = t_start + (c / clients + i) * period
                wait = target - monotonic()
                if wait > 0:
                    sleep(wait)
            if monotonic() >= t_end:
                break
            seq = c + i * clients
            features = make_features(seq)
            tenant = tenants[seq % len(tenants)]
            t0 = perf_counter()
            try:
                submit_with_retries(engine, features, tenant=tenant,
                                    attempts=RETRY_ATTEMPTS,
                                    timeout_s=duration_s + 60.0,
                                    rng=jitter_rng)
            except RequestRejected:
                local_rejected += 1
                i += 1
                continue
            except (ServeError, RequestExpired):
                local_failed += 1
                i += 1
                continue
            local.append(perf_counter() - t0)
            i += 1
        with lock:
            latencies.extend(local)
            rejected[0] += local_rejected
            failed[0] += local_failed

    threads = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = monotonic() - t_start
    return LoadStep(
        offered_qps=offered_qps,
        achieved_qps=len(latencies) / elapsed if elapsed > 0 else 0.0,
        completed=len(latencies),
        rejected=rejected[0],
        duration_s=elapsed,
        p50_ms=percentile(latencies, 0.50) * 1e3 if latencies else float("nan"),
        p99_ms=percentile(latencies, 0.99) * 1e3 if latencies else float("nan"),
        mean_ms=(sum(latencies) / len(latencies)) * 1e3
        if latencies else float("nan"),
        failed=failed[0],
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
    # Bounded waits + retry on transient failures: an engine restart
    # mid-verification re-serves the request instead of sinking the
    # whole identity check behind an unbounded wait.
    sequential = [submit_with_retries(engine, f, timeout_s=120.0,
                                      rng=random.Random(0))
                  for f in features_list]
    engine.stop()
    futures = [engine.submit(f) for f in features_list]
    engine.start()
    batched = [future.result(timeout=120.0) for future in futures]
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


def _feature_factory(n: int, width: int, dtype,
                     seed: int) -> Callable[[int], np.ndarray]:
    """Deterministic per-request feature matrices from one base seed.

    A small pool is pregenerated and cycled: request features must vary
    (identical payloads would hide batching bugs that mix columns up)
    but generating thousands of fresh matrices would make the *load
    generator* the bottleneck at high offered QPS.
    """
    rng = np.random.default_rng(seed)
    pool = [np.ascontiguousarray(rng.standard_normal((n, width)),
                                 dtype=dtype) for _ in range(16)]
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
    n = dataset.n_vertices
    width = dataset.n_features

    def build_engine(batching: bool) -> ServingEngine:
        options = ServeOptions(
            max_batch_width=max_batch_width,
            max_wait_ms=max_wait_ms,
            queue_depth=queue_depth,
            batching=batching,
            max_restarts=max_restarts)
        return ServingEngine.from_checkpoint(dataset, config, checkpoint,
                                             options=options)

    saturation = {}
    for mode, batching in (("batched", True), ("no_batch", False)):
        engine = build_engine(batching)
        try:
            engine.start()
            if batching:
                verify_features = [
                    _feature_factory(n, width, engine.model.dtype,
                                     seed + 1)(i)
                    for i in range(VERIFY_REQUESTS)]
                results["identity"] = verify_batched_identity(
                    engine, verify_features)
            make_features = _feature_factory(n, width, engine.model.dtype,
                                             seed)
            best = 0.0
            for qps in qps_steps:
                step = run_load(engine, make_features, qps, duration_s,
                                clients=clients, tenants=tenants)
                row = step.as_dict()
                row["mode"] = mode
                results["rows"].append(row)
                best = max(best, step.achieved_qps)
            saturation[mode] = best
            if batching:
                results["serve_stats"] = {
                    k: v for k, v in engine.stats().items()
                    if not k.startswith("tenant_")}
                results["tenant_stats"] = {
                    k: v for k, v in engine.stats().items()
                    if k.startswith("tenant_")}
                results["health"] = engine.health()
                results["traffic"] = serve_traffic(engine)
        finally:
            engine.close()

    results["saturation"] = {
        "batched_qps": saturation.get("batched", 0.0),
        "no_batch_qps": saturation.get("no_batch", 0.0),
        "speedup": (saturation["batched"] / saturation["no_batch"]
                    if saturation.get("no_batch") else float("nan")),
    }
    return results
