"""High-throughput inference serving for trained distributed GCNs.

Training amortises setup (partitioning, plan compilation, communicator
spin-up) over hundreds of epochs; naive inference would pay all of it
per call.  This package keeps the expensive state **resident** — a
loaded :class:`~repro.core.dist_gcn.DistributedGCN`, its one compiled
SpMM plan and a warm communicator — and turns the hot path
into a queue drain:

* :class:`~repro.serve.engine.ServingEngine` — loads a checkpoint,
  owns the model + communicator on one dedicated serving thread, and
  serves feature-matrix requests submitted from any thread;
* :class:`~repro.serve.batcher.MicroBatcher` — dynamic micro-batching:
  concurrent requests are coalesced (up to ``max_batch_width`` input
  columns or ``max_wait_ms``) into **one** forward pass whose
  distributed SpMMs run once, ``k`` streams wide at each layer's narrower
  side (weight-first where a layer narrows), amortising the
  alpha-dominated exchange latency across every member; results are
  split back per-request, bit-identical to sequential execution (the
  SpMM is column-separable — see
  :meth:`repro.core.dist_gcn.DistributedGCN.forward`);
* a bounded request queue owned by the engine: a full queue rejects
  with a structured :class:`~repro.serve.engine.RequestRejected`
  instead of collapsing into unbounded latency;
* :mod:`~repro.serve.loadgen` — a single-threaded load generator (an
  open loop per offered QPS, timed from each request's due time, and a
  closed loop for saturation) reporting p50/p99 latency, achieved
  throughput and the exact per-request exchange volume
  (``repro serve --bench`` → ``BENCH_serve.json``).

The engine is **supervised**: a worker lost mid-batch fails only the
in-flight batch (each member's future raises a structured, retryable
:class:`~repro.serve.engine.ServeError`), then warm state is rebuilt in
place — bounded by ``ServeOptions.max_restarts`` — while queued
requests survive.  Requests carry optional deadlines
(``submit(..., deadline_ms=...)``) and expire with
:class:`~repro.serve.engine.RequestExpired` *before* any SpMM work.

See ``docs/serving.md`` for the lifecycle, knobs, failure semantics and
benchmark format.
"""

from .batcher import MicroBatcher
from .engine import (RequestExpired, RequestRejected, ServeError,
                     ServeOptions, ServeResult, ServingEngine)
from .loadgen import (LoadStep, prepare_checkpoint, run_load,
                      run_serve_bench, serve_traffic,
                      verify_batched_identity)

__all__ = [
    "LoadStep",
    "MicroBatcher",
    "RequestExpired",
    "RequestRejected",
    "ServeError",
    "ServeOptions",
    "ServeResult",
    "ServingEngine",
    "prepare_checkpoint",
    "run_load",
    "run_serve_bench",
    "serve_traffic",
    "verify_batched_identity",
]
