"""The serving engine: a warm compiled plan + a dedicated drain thread.

Threading model
---------------
Every communicator backend is driver-thread driven (one driver call
carries every rank's operand), so the engine gives the model and its
communicator to **one dedicated serving thread** that drains the request
queue; client threads only touch the bounded admission queue and their
future.  That makes the engine safe to call from any number of threads
without a single lock on the hot path.

Batching semantics
------------------
A request is one feature matrix of shape ``(n, f_0)`` (the model's
graph, the model's input width).  The serving thread coalesces up to
``max_batch_width`` *input* columns' worth of concurrent requests into
one batch and hands the model the ``k`` request matrices as they arrived
(``DistributedGCN.forward([x_1, ..., x_k])``); the model runs **one**
forward pass whose SpMMs are ``k`` streams wide, and the engine splits
the logits back per request.  Each layer propagates at the narrower side
of its weight (:func:`repro.core.costmodel.inference_spmm_widths`): when
layer 0 narrows, every request is projected to ``f_1`` columns block by
block *before* the batch operand is assembled, so neither the engine nor
the model ever builds an ``n x k f_0`` array.  The distributed SpMM is
column-separable and the per-stream GEMM sees exactly the operand — the
same request memory — it would see alone, so the split results are
**bit-identical** to serving each request by itself — the tests assert
this on every backend, and the load generator re-checks it per benchmark
run.

Warm state retained across requests: the loaded weights, the
communicator (worker pool, shared-memory arenas, exchange-plan LRU) and
the model's one compiled SpMM plan, which serves every batch width; its
workspaces grow to the widest batch seen and are reused by every
narrower one, so no batch ever compiles.

Failure semantics
-----------------
A lost rank mid-batch (:class:`~repro.comm.faults.WorkerFailure`, or
the process backend's :class:`~repro.comm.faults.WatchdogTimeout`)
fails **only the in-flight batch**: every member's future raises its
own :class:`ServeError` (structured, retryable, carrying the request id
and the batch composition).  The serving thread then rebuilds warm
state in place — close the dead communicator, spin up a fresh one
(its model compiles the one plan), reload the retained weights —
bounded by ``ServeOptions.max_restarts``.
Queued requests survive the restart untouched.  Requests may carry a
deadline (``submit(..., deadline_ms=...)``); expired ones are shed at
dequeue with :class:`RequestExpired` before any SpMM work.  See
``docs/serving.md`` ("Failure semantics") for the full lifecycle.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..comm import make_communicator
from ..comm.faults import WorkerFailure
from ..core.checkpoint import config_fingerprint, resolve_checkpoint
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TRACE
from .admission import AdmissionController, OverloadPolicy, RequestRejected
from .batcher import SHUTDOWN, MicroBatcher

__all__ = ["RequestExpired", "ServeError", "ServeOptions", "ServeResult",
           "ServingEngine"]

#: Tracer track name for serving spans.
SERVE_TRACK = "serve"


class ServeError(RuntimeError):
    """A serving-side failure of one request (structured, retryable).

    Every member of a failed batch gets its **own** instance — a shared
    exception object would cross-contaminate tracebacks between client
    threads — carrying the ``request_id``, the ``batch`` composition
    (the request ids that shared the coalesced forward), the underlying
    ``cause`` and whether a retry against this engine can succeed
    (``retryable``: the engine restarts after a worker loss, so
    transient failures are; permanent failures — restart budget
    exhausted, no rebuild path — are not).
    """

    def __init__(self, request_id: int, batch: Sequence[int],
                 cause: BaseException, tenant: Optional[str] = None,
                 retryable: bool = True) -> None:
        self.request_id = int(request_id)
        self.batch = tuple(int(b) for b in batch)
        self.cause = cause
        self.tenant = tenant
        self.retryable = bool(retryable)
        verdict = "retry may succeed" if retryable else "not retryable"
        super().__init__(
            f"request {self.request_id} failed serving batch "
            f"{list(self.batch)}: {type(cause).__name__}: {cause} "
            f"({verdict})")
        self.__cause__ = cause


class RequestExpired(RuntimeError):
    """A request's deadline passed before it reached the forward pass.

    Shed at dequeue — before any SpMM work — so an overloaded engine
    spends its cycles only on requests whose answer somebody still
    wants.  Not a ``TimeoutError``: the client's wait did not time out,
    the *request* did, and resubmitting with the same deadline would
    expire again under the same load (``retryable`` is False).
    """

    retryable = False

    def __init__(self, request_id: int, tenant: str,
                 waited_s: float) -> None:
        self.request_id = int(request_id)
        self.tenant = tenant
        self.waited_s = float(waited_s)
        super().__init__(
            f"request {self.request_id} (tenant {tenant!r}) expired after "
            f"{waited_s * 1e3:.1f}ms in queue; shed before execution")


#: ``stop()``/``close()`` join grace, in seconds, before escalating to
#: the backend's dead-worker teardown
STOP_GRACE_S = 10.0


def _finite_positive(value: float) -> bool:
    """Whether a deadline is usable: NaN passes a plain
    ``<= 0`` check yet sheds a request at once, and an infinite one
    never fires."""
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class ServeOptions:
    """Knobs of one serving engine (see ``docs/serving.md``).

    ``max_batch_width`` is a budget of **input columns**, not a request
    count: with input width ``f_0`` it admits up to
    ``max_batch_width // f_0`` requests per coalesced forward.  It is not
    the width any SpMM runs at — a batch of ``k`` propagates at ``k``
    times :func:`~repro.core.costmodel.inference_spmm_widths`.
    """

    max_batch_width: int = 4096
    max_wait_ms: float = 2.0
    queue_depth: int = 256
    batching: bool = True
    #: Supervised-recovery budget: worker losses tolerated (engine
    #: rebuilt in place) before the engine fails permanently.
    max_restarts: int = 1
    #: Deadline stamped on requests that do not pass their own
    #: ``deadline_ms`` to ``submit`` (``None`` = no deadline).
    default_deadline_ms: Optional[float] = None
    #: tenant -> integer priority (higher = more important) for
    #: overload shedding; unlisted tenants get priority 0.
    tenant_priorities: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        if self.max_batch_width < 1:
            raise ValueError(
                f"max_batch_width must be >= 1, got {self.max_batch_width}")
        if not (math.isfinite(self.max_wait_ms) and self.max_wait_ms >= 0):
            raise ValueError(
                f"max_wait_ms must be finite and >= 0, got {self.max_wait_ms}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.default_deadline_ms is not None \
                and not _finite_positive(self.default_deadline_ms):
            raise ValueError("default_deadline_ms must be finite and "
                             f"positive, got {self.default_deadline_ms}")


@dataclass
class ServeResult:
    """What a fulfilled request resolves to."""

    logits: np.ndarray          # (n, f_L) — owned by the caller
    request_id: int
    tenant: str
    latency_s: float            # submit -> fulfil, queue wait included
    batch_size: int             # requests coalesced into the serving batch
    batch_width: int            # input columns (k * f_0) of the serving batch


class ServeFuture:
    """Thread-safe one-shot result slot for a submitted request.

    Resolution is first-writer-wins: once fulfilled or failed, later
    ``_fulfill``/``_fail`` calls are no-ops (the guard that makes the
    close/stop/recovery races safe — whichever side resolves first
    defines the outcome the client observes).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._result: Optional[ServeResult] = None
        self._exc: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block until fulfilled; re-raises a serving-side failure."""
        if not self._event.wait(timeout):
            raise TimeoutError("serve request not fulfilled within "
                               f"{timeout}s")
        if self._exc is not None:
            raise self._exc
        assert self._result is not None
        return self._result

    def _fulfill(self, result: ServeResult) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._result = result
            self._event.set()

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._exc = exc
            self._event.set()


class _ServeRequest:
    """Internal queue entry (the batcher reads ``width``/``deadline``)."""

    __slots__ = ("request_id", "tenant", "features", "width", "t_submit",
                 "deadline", "future")

    def __init__(self, request_id: int, tenant: str, features: np.ndarray,
                 deadline: Optional[float] = None) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.features = features
        self.width = int(features.shape[1])
        self.t_submit = perf_counter()
        self.deadline = deadline            # monotonic() timestamp or None
        self.future = ServeFuture()


class ServingEngine:
    """Serve inference requests against a resident trained model.

    Build one with :meth:`from_checkpoint` (the production path: load
    trained weights, spin up the configured backend, fail loudly on a
    config/checkpoint fingerprint mismatch) or directly from a
    :class:`~repro.core.dist_gcn.DistributedGCN` you already hold (the
    test path).  Then::

        engine = ServingEngine.from_checkpoint(dataset, config, path)
        with engine:                       # start() ... close()
            future = engine.submit(features, tenant="acme")
            logits = future.result().logits

    ``submit`` is thread-safe and non-blocking: it either admits the
    request into the bounded queue or raises
    :class:`~repro.serve.admission.RequestRejected`.  Submissions made
    while the drain thread is stopped stay queued and are served in one
    coalesced batch at the next :meth:`start` — the deterministic way to
    force a specific batch composition in tests.

    ``rebuild`` (set automatically by :meth:`from_checkpoint`) is the
    recovery factory: a zero-argument callable returning a fresh
    ``(model, comm)`` pair.  With it, a worker loss mid-batch triggers
    an in-place supervised restart (see the module docstring); without
    it the engine fails permanently on the first loss.
    """

    def __init__(self, model, comm=None,
                 options: Optional[ServeOptions] = None,
                 owns_comm: bool = False,
                 checkpoint_epoch: Optional[int] = None,
                 rebuild=None) -> None:
        self.model = model
        self.comm = comm if comm is not None else model.comm
        self.options = options or ServeOptions()
        self.owns_comm = owns_comm
        self.checkpoint_epoch = checkpoint_epoch
        self.input_width = int(model.layer_dims[0])
        self.output_width = int(model.layer_dims[-1])
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(self.options.queue_depth)
        self.overload = OverloadPolicy(
            queue_limit=self.options.queue_depth,
            tenant_priorities=self.options.tenant_priorities)
        self.batcher = MicroBatcher(
            self.admission.queue,
            max_batch_width=max(self.options.max_batch_width,
                                self.input_width),
            max_wait_s=self.options.max_wait_ms / 1000.0,
            max_requests=None if self.options.batching else 1,
            on_expired=self._expire_request)
        self._ids = itertools.count()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()       # guards _closed vs submit/offer
        self._closed = False
        self._rebuild = rebuild
        # The recovery path reloads these exact arrays into the rebuilt
        # model — the serving twin of the trainer's checkpoint restore.
        self._retained_weights = [np.array(w, copy=True)
                                  for w in model.weight_state()]
        self._fault_plan = None
        self.restarts = 0
        self._failed = False
        self._stop_requested = False
        self._last_failure: Optional[str] = None
        # Incident counters exist from the start (a dashboard that only
        # learns about `serve_batch_failures_total` once a batch has
        # already failed is not observability).
        self.metrics.counter("serve_restarts_total", 0)
        self.metrics.counter("serve_batch_failures_total", 0)
        for reason in ("deadline", "overload"):
            self.metrics.counter("serve_shed_total", 0, reason=reason)

    # ------------------------------------------------------------------
    # construction from a checkpoint
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, dataset, config, checkpoint,
                        options: Optional[ServeOptions] = None
                        ) -> "ServingEngine":
        """Load trained weights and build a warm engine around them.

        ``checkpoint`` is a ``.ckpt`` file or a checkpoint directory
        (newest intact wins).  The checkpoint's plan fingerprint must
        match the *resolved* serving configuration — backend and epoch
        count are legitimately free (a model trained on ``sim`` serves
        on ``process``), but architecture/precision axes are not, and a
        mismatch raises instead of serving garbage logits.

        The engine built here is **recoverable**: it retains the
        checkpoint's weight state and the distributed graph, and a worker
        loss triggers a supervised in-place restart that builds a fresh
        communicator and model over that graph (no re-partitioning and
        no re-planning) instead of a permanent failure.
        """
        from ..core.trainer import build_setup, setup_distributed
        setup = setup_distributed(dataset, config)
        try:
            resolved = setup.config if setup.config is not None else config
            ckpt = resolve_checkpoint(
                checkpoint, expect_fingerprint=config_fingerprint(resolved))
            setup.model.load_weight_state(ckpt.weights)
        except BaseException:
            setup.comm.close()
            raise
        node_data, matrix = setup.node_data, setup.model.adjacency
        partition = setup.partition

        def rebuild():
            comm = make_communicator(resolved.n_ranks,
                                     backend=resolved.backend,
                                     machine=resolved.machine)
            try:
                fresh = build_setup(resolved, comm, node_data, matrix,
                                    partition)
            except BaseException:
                comm.close()
                raise
            return fresh.model, fresh.comm

        return cls(setup.model, comm=setup.comm, options=options,
                   owns_comm=True, checkpoint_epoch=ckpt.epoch,
                   rebuild=rebuild)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingEngine":
        """Start (or restart) the serving thread."""
        if self._closed:
            raise RuntimeError("serving engine is closed")
        if self._failed:
            raise RuntimeError(
                "serving engine has failed permanently "
                f"({self._last_failure}); build a new engine")
        if self._thread is not None:
            raise RuntimeError("serving engine is already running")
        self.batcher.reset()
        self._stop_requested = False
        self._thread = threading.Thread(target=self._serve_loop,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain everything already admitted, then stop the thread.

        The join is **bounded**: after ``STOP_GRACE_S`` the engine
        escalates to the backend's dead-worker teardown — killing the
        worker pool so the sentinel wait turns the stuck collective into a
        :class:`WorkerFailure` the serving thread can exit on — instead
        of hanging behind the 600 s watchdog.  The engine can
        :meth:`start` again after a clean stop; warm state (model,
        communicator, compiled plans) is untouched.
        """
        thread = self._thread
        if thread is None:
            return
        self._stop_requested = True
        self.admission.post_control(SHUTDOWN)
        thread.join(STOP_GRACE_S)
        if thread.is_alive():
            # The serving thread is wedged mid-collective (dead or stuck
            # worker).  Tear the worker pool down; the liveness path
            # raises WorkerFailure and _stop_requested suppresses
            # recovery, so the thread exits.
            self._escalate_teardown()
            thread.join(STOP_GRACE_S)
            if thread.is_alive():
                self._failed = True
                self._last_failure = ("serving thread did not stop within "
                                      f"2x{STOP_GRACE_S}s grace")
        self._thread = None
        if not self._failed:
            self._stop_requested = False

    def _escalate_teardown(self) -> None:
        """Kill the backend's worker pool to unwedge the serving thread.

        Process backend only (in-process backends cannot wedge behind a
        foreign OS process): SIGKILL every live worker so the serving
        thread's collective fails at once (the sentinel wait) instead
        of the watchdog timeout.
        """
        procs = getattr(self.comm, "_procs", None)
        for proc in procs or []:
            if proc.is_alive():
                proc.kill()

    def close(self) -> None:
        """Stop serving and release the communicator (if owned)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.stop()
        if self.owns_comm:
            self.comm.close()

    def __enter__(self) -> "ServingEngine":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def inject_faults(self, plan) -> None:
        """Arm a :class:`~repro.comm.FaultPlan` on the serving path.

        The plan rides the communicator's per-collective fault points
        (every SpMM exchange of a coalesced forward ticks it) and is
        re-injected into the rebuilt communicator after a supervised
        restart — specs fire once per plan instance, so a recovered
        engine is not re-killed by the fault that took it down.
        """
        self._fault_plan = plan
        self.comm.inject_faults(plan)

    def health(self) -> dict:
        """Liveness/readiness snapshot (``repro serve --health``).

        ``status`` is ``ready`` (serving, healthy), ``degraded``
        (overload policy active: shedding and/or shrunken batching
        window), ``failed`` (recovery exhausted — every queued request
        was failed and the engine will not serve again) or ``stopped``
        (closed).  ``last_failure`` names the most recent worker
        loss/batch failure, surviving recovery (a restarted engine
        reports ready *and* what it recovered from).
        """
        if self._failed:
            status = "failed"
        elif self._closed:
            status = "stopped"
        elif self.overload.degraded:
            status = "degraded"
        else:
            status = "ready"
        thread = self._thread
        return {
            "status": status,
            "live": bool(thread is not None and thread.is_alive()),
            "ready": status in ("ready", "degraded"),
            "degraded": self.overload.degraded,
            "restarts": self.restarts,
            "max_restarts": self.options.max_restarts,
            "last_failure": self._last_failure,
            "queue_depth": self.admission.depth(),
            "pressure": round(self.overload.pressure(), 4),
            "window_scale": round(self.overload.window_scale(), 4),
        }

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, features: np.ndarray, tenant: str = "default",
               deadline_ms: Optional[float] = None) -> ServeFuture:
        """Admit one inference request; returns its future.

        ``features`` must be ``(n, f_0)`` over the model's (permuted)
        vertex set; any float dtype is accepted and cast to the model
        precision here, in the caller's thread, so the serving thread
        only ever moves bits.

        ``deadline_ms`` bounds the request's total queue wait: a request
        still queued when its deadline passes is shed before any SpMM
        work and its future raises :class:`RequestExpired`.  ``None``
        falls back to ``ServeOptions.default_deadline_ms``.
        """
        if self._failed:
            raise RuntimeError(
                "serving engine has failed permanently "
                f"({self._last_failure}); build a new engine")
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[0] != self.model.dist.n \
                or features.shape[1] != self.input_width:
            raise ValueError(
                f"request features must have shape ({self.model.dist.n}, "
                f"{self.input_width}), got {features.shape}")
        if deadline_ms is None:
            deadline_ms = self.options.default_deadline_ms
        elif not _finite_positive(deadline_ms):
            raise ValueError(
                f"deadline_ms must be finite and positive, got {deadline_ms}")
        deadline = None if deadline_ms is None \
            else monotonic() + deadline_ms / 1000.0
        features = np.ascontiguousarray(features, dtype=self.model.dtype)
        tenant = str(tenant)
        self.overload.observe(self.admission.depth())
        if self.overload.should_shed(tenant):
            self.metrics.counter("serve_shed_total", 1, reason="overload")
            self.metrics.counter("serve_rejected_total", 1, tenant=tenant)
            raise RequestRejected(
                "overload_shed", depth=self.admission.depth(),
                limit=self.admission.queue_depth, tenant=tenant)
        request = _ServeRequest(next(self._ids), tenant, features,
                                deadline=deadline)
        # The closed check and the queue offer share one critical section
        # with close(): a submit that passes the check is fully admitted
        # before close() flips the flag, so stop()'s drain serves it.
        with self._lock:
            if self._closed:
                raise RuntimeError("serving engine is closed")
            try:
                self.admission.offer(request, tenant=request.tenant)
            except RequestRejected:
                self.metrics.counter("serve_rejected_total", 1,
                                     tenant=request.tenant)
                raise
        return request.future

    # ------------------------------------------------------------------
    # serving thread
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            try:
                self._execute(batch)
            except BaseException as exc:
                self._fail_batch(batch, exc)
                if isinstance(exc, WorkerFailure):
                    if not self._recover(exc):
                        return

    def _expire_request(self, request: _ServeRequest) -> None:
        """Batcher callback: fail a deadline-expired request (serving
        thread; the request never joins a batch, so no SpMM runs)."""
        waited = perf_counter() - request.t_submit
        self.metrics.counter("serve_shed_total", 1, reason="deadline")
        request.future._fail(RequestExpired(
            request.request_id, request.tenant, waited_s=waited))

    def _fail_batch(self, batch: List[_ServeRequest],
                    exc: BaseException) -> None:
        """Fail every member with its own structured, retryable error."""
        self._last_failure = f"{type(exc).__name__}: {exc}"
        ids = tuple(r.request_id for r in batch)
        retryable = isinstance(exc, WorkerFailure) and self._can_recover()
        self.metrics.counter("serve_batch_failures_total", 1)
        for request in batch:
            request.future._fail(ServeError(
                request.request_id, ids, exc, tenant=request.tenant,
                retryable=retryable))

    def _can_recover(self) -> bool:
        return (self._rebuild is not None and not self._stop_requested
                and self.restarts < self.options.max_restarts)

    def _recover(self, cause: WorkerFailure) -> bool:
        """Rebuild warm state in place after a worker loss.

        Returns True when the serving loop should continue (queued
        requests survive and are served by the rebuilt engine); False
        when recovery is impossible — the queue is drained with
        non-retryable failures and the engine is marked failed.
        """
        if not self._can_recover():
            self._fail_permanently(cause)
            return False
        self.restarts += 1
        self.metrics.counter("serve_restarts_total", 1)
        with TRACE.span("serve.restart", cat="serve", track=SERVE_TRACK,
                        args={"restart": self.restarts,
                              "cause": type(cause).__name__,
                              "rank": getattr(cause, "rank", None)}):
            try:
                # A WorkerFailure from the process backend has already
                # closed the communicator; in-process injected kills have
                # not.  Either way close() is idempotent.
                self.comm.close()
            except BaseException:
                pass
            try:
                model, comm = self._rebuild()
                model.load_weight_state(self._retained_weights)
            except BaseException as exc:
                self._fail_permanently(exc)
                return False
        self.model = model
        self.comm = comm
        self.owns_comm = True
        if self._fault_plan is not None:
            # Re-arm: specs fire once per plan instance, so the fault
            # that killed the old communicator does not re-fire here.
            comm.inject_faults(self._fault_plan)
        return True

    def _fail_permanently(self, cause: BaseException) -> None:
        """Mark the engine failed and drain the queue with structured,
        non-retryable errors (nothing may hang on a dead engine)."""
        self._failed = True
        self._last_failure = f"{type(cause).__name__}: {cause}"
        import queue as _queue

        def abort(item) -> None:
            item.future._fail(ServeError(
                item.request_id, (item.request_id,), cause,
                tenant=item.tenant, retryable=False))

        carry = self.batcher.take_carry()
        if carry is not None:
            abort(carry)
        while True:
            try:
                item = self.admission.queue.get_nowait()
            except _queue.Empty:
                break
            if item is not SHUTDOWN:
                abort(item)

    def _execute(self, batch: List[_ServeRequest]) -> None:
        k = len(batch)
        width = sum(r.width for r in batch)
        self.metrics.observe("serve_queue_depth", self.admission.depth())
        bytes0 = self.comm.events.total_bytes()
        msgs0 = self.comm.events.message_count()
        t0 = perf_counter()

        # The model takes the request matrices as they arrived: it
        # projects each one to its layer-0 SpMM width block by block, so
        # no ``n x k f_0`` operand is built here (or anywhere, when
        # layer 0 narrows).
        with TRACE.span("serve.batch", cat="serve", track=SERVE_TRACK,
                        args={"requests": k, "width": width}):
            logits = self.model.forward(
                [r.features for r in batch]).to_global()

        t1 = perf_counter()
        batch_s = t1 - t0
        d_bytes = self.comm.events.total_bytes() - bytes0
        d_msgs = self.comm.events.message_count() - msgs0

        self.metrics.counter("serve_batches_total", 1)
        self.metrics.observe("serve_batch_width", float(width))
        self.metrics.observe("serve_batch_size", float(k))
        self.metrics.observe("serve_batch_seconds", batch_s)
        # Backpressure feedback: the policy sees the post-batch queue
        # depth and latency, and its verdict resizes the next window.
        self.overload.observe(self.admission.depth())
        self.batcher.window_scale = self.overload.window_scale()

        f_out = self.output_width
        for i, request in enumerate(batch):
            out = np.ascontiguousarray(
                logits[:, i * f_out:(i + 1) * f_out])
            latency = t1 - request.t_submit
            # Per-tenant accounting rides the communicator's volume
            # hooks: the batch's exchanged bytes/messages are shared
            # evenly by its members (they travelled in one coalesced
            # payload — an even split is the only composition-stable
            # attribution).
            self.metrics.counter("serve_requests_total", 1,
                                 tenant=request.tenant)
            self.metrics.counter("tenant_comm_bytes_total", d_bytes / k,
                                 tenant=request.tenant)
            self.metrics.counter("tenant_comm_messages_total", d_msgs / k,
                                 tenant=request.tenant)
            self.metrics.observe("serve_request_seconds", latency)
            TRACE.add_span(SERVE_TRACK, "serve.request", "serve",
                           request.t_submit, t1,
                           {"tenant": request.tenant,
                            "id": request.request_id,
                            "batch_size": k})
            request.future._fulfill(ServeResult(
                logits=out, request_id=request.request_id,
                tenant=request.tenant, latency_s=latency,
                batch_size=k, batch_width=width))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Flat metrics snapshot: request/batch/latency series plus the
        warm-state counters (compiled plan, backend exchange-plan
        LRU, admission totals) and the resilience series (restart,
        batch-failure and shed counters, overload pressure)."""
        self.metrics.gauge("serve_queue_limit", self.admission.queue_depth)
        self.metrics.gauge("serve_accepted_total", self.admission.accepted)
        self.metrics.gauge("serve_pressure", self.overload.pressure())
        self.metrics.gauge("serve_degraded",
                           1.0 if self.overload.degraded else 0.0)
        for key, value in self.model.plan_stats().items():
            self.metrics.gauge(f"serve_{key}", value)
        for key, value in self.comm.cache_stats().items():
            self.metrics.gauge(f"comm_plan_cache_{key}", value)
        return self.metrics.as_dict()
