"""Inference serving: micro-batching, admission, identity, accounting,
load generation.

The load-bearing guarantee — and the reason batching is safe to enable
by default — is **bit-identity**: a coalesced batch of k requests must
produce, per request, exactly the bytes that serving each request alone
would produce, on every communicator backend.  The distributed SpMM is
column-separable and the engine runs one GEMM per stream, so equality
is exact (``np.array_equal``), not approximate.

Batch composition is nondeterministic under concurrency, so identity
tests force it: requests submitted while the drain thread is stopped
stay queued and are served as one deterministic batch at ``start()``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import queue
import time

import numpy as np
import pytest

import oracle
from repro.cli import main
from repro.comm import make_communicator
from repro.comm.faults import FaultPlan
from repro.core import DistTrainConfig, setup_distributed
from repro.core.checkpoint import (CheckpointError, CheckpointManager,
                                   read_checkpoint, resolve_checkpoint)
from repro.obs import TRACE
from repro.serve import (MicroBatcher, RequestExpired, RequestRejected,
                         ServeError, ServeOptions, ServingEngine,
                         prepare_checkpoint, run_load)
from repro.serve.batcher import SHUTDOWN
from repro.serve.engine import ServeFuture, ServeResult
from repro.serve.loadgen import verify_batched_identity

BACKENDS = ("sim", "threaded", "process")


@pytest.fixture(autouse=True)
def _reset_trace():
    TRACE.disable()
    TRACE.clear()
    yield
    TRACE.disable()
    TRACE.clear()


@pytest.fixture(scope="module")
def dataset():
    return load_small_dataset()


def load_small_dataset():
    from repro.graphs import load_dataset
    return load_dataset("reddit", scale=0.05, n_features=6, n_classes=3,
                        seed=2)


@pytest.fixture(scope="module")
def config():
    return DistTrainConfig(n_ranks=2, partitioner=None, epochs=2, hidden=8,
                           n_layers=2, backend="sim", seed=0)


@pytest.fixture(scope="module")
def checkpoint_file(dataset, config, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-ckpt") / "model.ckpt"
    return prepare_checkpoint(dataset, config, path, epochs=config.epochs)


def make_engine(dataset, config, **opts) -> ServingEngine:
    """An engine around freshly initialised (untrained) weights — the
    identity property holds for any weights, so most tests skip the
    checkpoint round-trip."""
    setup = setup_distributed(dataset, config)
    return ServingEngine(setup.model, comm=setup.comm,
                         options=ServeOptions(**opts), owns_comm=True)


def request_features(dataset, count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((dataset.n_vertices, dataset.n_features))
            for _ in range(count)]


# ----------------------------------------------------------------------
# MicroBatcher (pure unit tests: requests are anything with a .width)
# ----------------------------------------------------------------------
class _Req:
    def __init__(self, width: int) -> None:
        self.width = width


class TestMicroBatcher:
    def test_full_budget_returns_without_paying_the_window(self):
        # Four queued requests against a three-request column budget:
        # the overflowing request ends the batch immediately — a
        # saturated queue never waits out the 30 s window.
        q = queue.Queue()
        reqs = [_Req(2) for _ in range(4)]
        for r in reqs:
            q.put(r)
        batcher = MicroBatcher(q, max_batch_width=6, max_wait_s=30.0)
        from time import monotonic
        t0 = monotonic()
        assert batcher.next_batch() == reqs[:3]
        assert monotonic() - t0 < 5.0      # nowhere near the 30 s window
        q.put(SHUTDOWN)                     # flushes the carried request
        assert batcher.next_batch() == [reqs[3]]
        assert monotonic() - t0 < 5.0

    def test_window_bounds_the_wait_when_load_is_light(self):
        q = queue.Queue()
        q.put(_Req(1))
        batcher = MicroBatcher(q, max_batch_width=100, max_wait_s=0.05)
        from time import monotonic
        t0 = monotonic()
        assert len(batcher.next_batch()) == 1
        elapsed = monotonic() - t0
        assert 0.04 <= elapsed < 5.0        # paid the window, nothing more

    def test_column_budget_carries_the_overflowing_request(self):
        q = queue.Queue()
        first, second, third = _Req(3), _Req(3), _Req(3)
        for r in (first, second, third):
            q.put(r)
        batcher = MicroBatcher(q, max_batch_width=6, max_wait_s=0.0)
        assert batcher.next_batch() == [first, second]
        # The carried request leads the next batch — never dropped,
        # never reordered behind later arrivals.
        assert batcher.next_batch() == [third]

    def test_single_request_wider_than_budget_forms_its_own_batch(self):
        q = queue.Queue()
        wide = _Req(100)
        q.put(wide)
        batcher = MicroBatcher(q, max_batch_width=6, max_wait_s=0.0)
        assert batcher.next_batch() == [wide]

    def test_shutdown_flushes_the_partial_batch_first(self):
        q = queue.Queue()
        r = _Req(1)
        q.put(r)
        q.put(SHUTDOWN)
        batcher = MicroBatcher(q, max_batch_width=10, max_wait_s=30.0)
        assert batcher.next_batch() == [r]
        assert batcher.next_batch() is None
        assert batcher.next_batch() is None    # stays stopped...
        batcher.reset()                         # ...until re-armed
        q.put(SHUTDOWN)
        assert batcher.next_batch() is None

    def test_max_requests_1_disables_coalescing_and_the_window(self):
        q = queue.Queue()
        a, b = _Req(1), _Req(1)
        q.put(a)
        q.put(b)
        batcher = MicroBatcher(q, max_batch_width=10, max_wait_s=30.0,
                               max_requests=1)
        assert batcher.next_batch() == [a]
        assert batcher.next_batch() == [b]

    def test_rejects_bad_parameters(self):
        q = queue.Queue()
        with pytest.raises(ValueError):
            MicroBatcher(q, max_batch_width=0, max_wait_s=0.0)
        with pytest.raises(ValueError):
            MicroBatcher(q, max_batch_width=1, max_wait_s=-0.1)
        with pytest.raises(ValueError):
            MicroBatcher(q, max_batch_width=1, max_wait_s=0.0,
                         max_requests=0)


# ----------------------------------------------------------------------
# Admission: the engine's bounded queue
# ----------------------------------------------------------------------
class TestAdmission:
    def test_full_queue_rejects_with_structured_fields(self, dataset,
                                                       config):
        engine = make_engine(dataset, config, queue_depth=2)
        features = request_features(dataset, 3, seed=2)
        try:
            engine.submit(features[0])
            engine.submit(features[1], tenant="acme")
            with pytest.raises(RequestRejected) as excinfo:
                engine.submit(features[2], tenant="acme")
            exc = excinfo.value
            assert exc.reason == "queue_full"
            assert exc.limit == 2
            assert exc.depth == 2
            assert exc.tenant == "acme"
            assert "back off" in str(exc)
            stats = engine.stats()
            assert stats["serve_accepted_total"] == 2
            assert stats['serve_rejected_total{tenant="acme"}'] == 1.0
            assert stats["serve_queue_limit"] == 2
            assert engine.health()["queue_depth"] == 2
        finally:
            engine.close()

    def test_accepted_total_counts_every_admission(self, dataset, config):
        engine = make_engine(dataset, config)
        try:
            assert engine.stats()["serve_accepted_total"] == 0
            with engine:
                for features in request_features(dataset, 3, seed=3):
                    engine.submit(features).result(timeout=120.0)
                assert engine.stats()["serve_accepted_total"] == 3
        finally:
            engine.close()

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="queue_depth"):
            ServeOptions(queue_depth=0)


# ----------------------------------------------------------------------
# Inference-only forward (satellite: skips activation caches)
# ----------------------------------------------------------------------
class TestInferenceForward:
    def test_bit_identical_to_training_forward_when_no_layer_narrows(
            self, config):
        # [6, 8, 9]: every layer keeps the training order (A H) W.
        from repro.graphs import load_dataset
        widening = load_dataset("reddit", scale=0.05, n_features=6,
                                n_classes=9, seed=2)
        setup = setup_distributed(widening, config)
        try:
            model = setup.model
            assert oracle.association_order(model.layer_dims) \
                == oracle.PAPER_ORDER
            reference = model.forward()[-1].h_out.to_global()   # training
            inferred = model.forward(model.features).to_global()
            oracle.assert_matches_reference(inferred, reference,
                                            model.dtype, oracle.PAPER_ORDER)
        finally:
            setup.comm.close()

    def test_matches_training_forward_to_rounding_when_a_layer_narrows(
            self, dataset, config):
        # [6, 8, 3]: the output layer runs weight-first, A (H W) — the
        # same product summed in another order.
        setup = setup_distributed(dataset, config)
        try:
            model = setup.model
            assert oracle.association_order(model.layer_dims) \
                == oracle.WEIGHT_FIRST
            reference = model.forward()[-1].h_out.to_global()   # training
            inferred = model.forward(model.features).to_global()
            oracle.assert_matches_reference(inferred, reference,
                                            model.dtype, oracle.WEIGHT_FIRST)
            oracle.assert_matches_single_node(inferred, model,
                                              model.features.to_global())
        finally:
            setup.comm.close()

    def test_streams_require_explicit_features(self, dataset, config):
        setup = setup_distributed(dataset, config)
        try:
            with pytest.raises(ValueError, match="streams"):
                setup.model.forward(streams=2)
        finally:
            setup.comm.close()

    def test_dtype_mismatch_is_rejected_not_cast(self, dataset, config):
        from repro.core import DistDenseMatrix
        setup = setup_distributed(dataset, config)
        try:
            wrong = DistDenseMatrix.from_global(
                np.ones((dataset.n_vertices, dataset.n_features),
                        dtype=np.float32),
                setup.model.dist, dtype=np.float32)
            with pytest.raises(ValueError, match="dtype"):
                setup.model.forward(wrong)
        finally:
            setup.comm.close()


# ----------------------------------------------------------------------
# Batched == sequential, bit for bit, on every backend
# ----------------------------------------------------------------------
class TestBatchedIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batched_equals_sequential(self, dataset, config, backend):
        cfg = dataclasses.replace(config, backend=backend)
        engine = make_engine(dataset, cfg,
                             max_batch_width=dataset.n_features * 8)
        try:
            report = verify_batched_identity(
                engine, request_features(dataset, 5, seed=11))
            assert report["bit_identical"] is True
            assert report["sequential_batch_sizes"] == [1]
            assert report["batched_max_batch_size"] > 1
        finally:
            engine.close()

    def test_column_budget_splits_batches_without_breaking_identity(
            self, dataset, config):
        # Budget of 2 requests' columns: 5 queued requests must be served
        # as ceil(5/2) batches, all still bit-identical.
        engine = make_engine(dataset, config,
                             max_batch_width=dataset.n_features * 2)
        try:
            report = verify_batched_identity(
                engine, request_features(dataset, 5, seed=13))
            assert report["bit_identical"] is True
            assert report["batched_max_batch_size"] == 2
        finally:
            engine.close()

    def test_no_batch_mode_serves_one_request_per_forward(self, dataset,
                                                          config):
        engine = make_engine(dataset, config, batching=False,
                             max_batch_width=dataset.n_features * 8)
        try:
            futures = [engine.submit(f)
                       for f in request_features(dataset, 4, seed=5)]
            engine.start()
            results = [f.result(timeout=120.0) for f in futures]
            assert all(r.batch_size == 1 for r in results)
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Engine behaviour: rejection, accounting, restart, metrics, spans
# ----------------------------------------------------------------------
class TestServingEngine:
    def test_overload_rejects_and_counts(self, dataset, config):
        engine = make_engine(dataset, config, queue_depth=1)
        try:
            features = request_features(dataset, 2, seed=7)
            accepted = engine.submit(features[0])       # fills the queue
            with pytest.raises(RequestRejected) as excinfo:
                engine.submit(features[1], tenant="acme")
            assert excinfo.value.reason == "queue_full"
            assert excinfo.value.tenant == "acme"
            engine.start()
            assert accepted.result(timeout=120.0).batch_size == 1
            stats = engine.stats()
            assert stats['serve_rejected_total{tenant="acme"}'] == 1.0
            assert stats["serve_accepted_total"] == 1
        finally:
            engine.close()

    def test_health_and_stats_report_exactly_the_live_surface(
            self, dataset, config):
        health_keys = {"status", "live", "ready", "restarts",
                       "max_restarts", "last_failure", "queue_depth"}
        features = request_features(dataset, 1, seed=8)[0]
        engine = make_engine(dataset, config)
        try:
            stats = engine.stats()
            assert stats['serve_shed_total{reason="deadline"}'] == 0.0
            assert not {"serve_pressure", "serve_degraded"} & set(stats)
            assert [k for k in stats if k.startswith("serve_shed_total")] \
                == ['serve_shed_total{reason="deadline"}']
            health = engine.health()
            assert set(health) == health_keys
            assert (health["status"], health["ready"]) == ("ready", True)
            engine.start()
            engine.inject_faults(FaultPlan.kill(rank=0, op_index=0))
            with pytest.raises(ServeError):
                engine.submit(features).result(timeout=60.0)
            health = engine.health()
            assert set(health) == health_keys
            assert (health["status"], health["ready"]) == ("failed", False)
        finally:
            engine.close()
        engine = make_engine(dataset, config)
        engine.close()
        health = engine.health()
        assert set(health) == health_keys
        assert (health["status"], health["ready"]) == ("stopped", False)

    def test_per_tenant_accounting_splits_batch_volume_evenly(
            self, dataset, config):
        engine = make_engine(dataset, config,
                             max_batch_width=dataset.n_features * 8)
        try:
            futures = [engine.submit(f, tenant=("blue", "green")[i % 2])
                       for i, f in enumerate(
                           request_features(dataset, 4, seed=3))]
            engine.start()            # one deterministic coalesced batch
            results = [f.result(timeout=120.0) for f in futures]
            assert {r.batch_size for r in results} == {4}
            stats = engine.stats()
            for tenant in ("blue", "green"):
                label = f'{{tenant="{tenant}"}}'
                assert stats[f"serve_requests_total{label}"] == 2.0
            blue = stats['tenant_comm_bytes_total{tenant="blue"}']
            green = stats['tenant_comm_bytes_total{tenant="green"}']
            # One coalesced payload, four members: an even split is the
            # only attribution stable under batch composition.
            assert blue == green
            assert blue > 0.0
        finally:
            engine.close()

    def test_stop_start_retains_warm_plans(self, dataset, config):
        engine = make_engine(dataset, config,
                             max_batch_width=dataset.n_features * 8)
        try:
            engine.start()
            first = engine.submit(
                request_features(dataset, 1, seed=1)[0]).result(timeout=120.0)
            engine.stop()
            op = engine.model.compiled_op(0)
            grown = op.workspace_width
            misses = engine.model.plan_stats()["plan_misses"]
            engine.start()
            second = engine.submit(
                request_features(dataset, 1, seed=2)[0]).result(timeout=120.0)
            # The same plan, already grown: the second batch only hit.
            assert engine.model.compiled_op(0) is op
            assert op.workspace_width == grown > 0
            assert engine.model.plan_stats() == {
                "plans_retained": 1, "plan_misses": misses,
                "plan_hits": op.calls - misses}
            assert first.batch_width == second.batch_width
        finally:
            engine.close()

    def test_submit_after_close_raises(self, dataset, config):
        engine = make_engine(dataset, config)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(request_features(dataset, 1)[0])

    def test_bad_request_shape_is_rejected_in_the_caller(self, dataset,
                                                         config):
        engine = make_engine(dataset, config)
        try:
            with pytest.raises(ValueError, match="shape"):
                engine.submit(np.ones((3, dataset.n_features)))
            with pytest.raises(ValueError, match="shape"):
                engine.submit(np.ones(dataset.n_vertices))
        finally:
            engine.close()

    def test_metrics_and_spans_cover_the_request_path(self, dataset,
                                                      config):
        TRACE.enable()
        engine = make_engine(dataset, config,
                             max_batch_width=dataset.n_features * 8)
        try:
            futures = [engine.submit(f)
                       for f in request_features(dataset, 3, seed=9)]
            engine.start()
            for f in futures:
                f.result(timeout=120.0)
            stats = engine.stats()
        finally:
            engine.close()
        assert stats["serve_batches_total"] == 1.0
        assert stats["serve_batch_size_max"] == 3.0
        assert stats["serve_batch_width_max"] == 3.0 * dataset.n_features
        assert stats["serve_request_seconds_count"] == 3.0
        assert stats["serve_request_seconds_p99"] >= \
            stats["serve_request_seconds_p50"] > 0.0
        assert stats["serve_queue_limit"] == 256
        assert stats["serve_plans_retained"] == 1
        spans = TRACE.spans()
        names = [(track, name) for track, name, *_ in spans]
        assert names.count(("serve", "serve.batch")) == 1
        assert names.count(("serve", "serve.request")) == 3
        request_spans = [s for s in spans if s[1] == "serve.request"]
        batch_span = next(s for s in spans if s[1] == "serve.batch")
        for span in request_spans:
            assert span[3] <= batch_span[3]     # submit precedes execute
            assert span[4] >= batch_span[4]     # fulfil follows it

    def test_run_load_reports_latency_percentiles(self, dataset, config):
        engine = make_engine(dataset, config,
                             max_batch_width=dataset.n_features * 8)
        try:
            engine.start()
            features = request_features(dataset, 1, seed=4)
            step = run_load(engine, lambda i: features[0],
                            offered_qps=None, duration_s=0.3, clients=2,
                            tenants=("t0", "t1"))
        finally:
            engine.close()
        assert step.completed > 0
        assert step.achieved_qps > 0.0
        assert step.p99_ms >= step.p50_ms > 0.0


# ----------------------------------------------------------------------
# run_load: one thread, an open loop per offered QPS, a closed loop for
# saturation
# ----------------------------------------------------------------------
class _StubFuture:
    def __init__(self, engine):
        self.engine = engine

    def done(self):
        return True

    def result(self, timeout=None):
        self.engine.outstanding -= 1
        return ServeResult(logits=None, request_id=0, tenant="default",
                           latency_s=0.0, batch_size=1, batch_width=1)


class _StubEngine:
    """Serves every request in zero time, counting the requests the load
    generator holds (submitted, result not yet collected); the first
    submit sleeps ``stall_s``."""

    def __init__(self, stall_s=0.0):
        self.stall_s = stall_s
        self.outstanding = 0
        self.max_outstanding = 0
        self.sent = []                  # (features, tenant) per submit

    def submit(self, features, tenant="default"):
        if not self.sent:
            time.sleep(self.stall_s)
        self.sent.append((features, tenant))
        self.outstanding += 1
        self.max_outstanding = max(self.max_outstanding, self.outstanding)
        return _StubFuture(self)


class TestRunLoad:
    def test_open_loop_charges_a_stall_to_every_request_it_delayed(self):
        qps, duration, stall = 100.0, 0.5, 0.2
        period = 1.0 / qps
        engine = _StubEngine(stall_s=stall)
        step = run_load(engine, lambda i: i, qps, duration)
        assert step.completed == round(qps * duration) == len(engine.sent)
        assert step.rejected == step.failed == 0
        # Request i is due at i * period; request 0's submit stalls, so
        # each one due before the stall ended is sent at least
        # ``stall - i * period`` late, and (served in zero time) reports
        # at least that latency.
        delayed = [stall - i * period
                   for i in range(1, round(stall / period))]
        assert step.mean_ms * step.completed >= sum(delayed) * 1e3
        assert step.p99_ms >= delayed[0] * 1e3
        assert step.late_ms_p99 >= delayed[0] * 1e3

    def test_open_loop_sends_exactly_its_schedule(self):
        engine = _StubEngine()
        step = run_load(engine, lambda i: i, 200.0, 0.1,
                        tenants=("t0", "t1"))
        assert [f for f, _ in engine.sent] == list(range(20))
        assert [t for _, t in engine.sent] == ["t0", "t1"] * 10
        assert step.completed == 20 and step.late_ms_p99 < 100.0

    @pytest.mark.parametrize("clients", [1, 3])
    def test_closed_loop_never_exceeds_its_clients(self, clients):
        engine = _StubEngine()
        step = run_load(engine, lambda i: i, None, 0.05, clients=clients)
        assert engine.max_outstanding == clients
        assert engine.outstanding == 0          # drained at the end
        assert step.completed == len(engine.sent) > clients
        assert step.late_ms_p99 == 0.0

    def test_rejected_and_failed_requests_are_counted(self):
        class Refusing(_StubEngine):
            def submit(self, features, tenant="default"):
                if features % 2:
                    raise RequestRejected("queue_full", depth=1, limit=1)
                future = ServeFuture()
                future._fail(ServeError(features, (features,),
                                        RuntimeError("lost")))
                return future

        step = run_load(Refusing(), lambda i: i, 100.0, 0.1)
        assert (step.completed, step.rejected, step.failed) == (0, 5, 5)
        assert math.isnan(step.p50_ms)


# ----------------------------------------------------------------------
# Checkpoint loading (file, directory, fingerprint gate)
# ----------------------------------------------------------------------
class TestCheckpointServing:
    def test_serves_from_a_checkpoint_file(self, dataset, config,
                                           checkpoint_file):
        engine = ServingEngine.from_checkpoint(dataset, config,
                                               checkpoint_file)
        try:
            assert engine.checkpoint_epoch == config.epochs
            with engine:
                result = engine.submit(
                    request_features(dataset, 1)[0]).result(timeout=120.0)
            assert result.logits.shape == (dataset.n_vertices,
                                           dataset.n_classes)
        finally:
            engine.close()

    def test_serves_newest_checkpoint_from_a_directory(self, dataset,
                                                       config,
                                                       checkpoint_file,
                                                       tmp_path):
        ckpt = read_checkpoint(checkpoint_file)
        manager = CheckpointManager(tmp_path)
        manager.save(dataclasses.replace(ckpt, epoch=1))
        manager.save(ckpt)
        engine = ServingEngine.from_checkpoint(dataset, config, tmp_path)
        try:
            assert engine.checkpoint_epoch == ckpt.epoch
        finally:
            engine.close()

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            resolve_checkpoint(tmp_path)

    def test_fingerprint_mismatch_refuses_to_serve(self, dataset, config,
                                                   checkpoint_file):
        other = dataclasses.replace(config, hidden=config.hidden * 2)
        with pytest.raises(CheckpointError, match="fingerprint"):
            ServingEngine.from_checkpoint(dataset, other, checkpoint_file)

    def test_backend_is_not_part_of_the_fingerprint(self, dataset, config,
                                                    checkpoint_file):
        # Trained on sim, served on threaded: legitimately free axis.
        threaded = dataclasses.replace(config, backend="threaded")
        engine = ServingEngine.from_checkpoint(dataset, threaded,
                                               checkpoint_file)
        try:
            assert engine.checkpoint_epoch == config.epochs
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Process-backend exchange-plan cache
# ----------------------------------------------------------------------
class TestProcessPlanCacheEnv:
    def test_env_sets_capacity(self):
        from repro.comm.process import MAX_CACHED_PLANS
        comm = make_communicator(2, backend="process")
        try:
            assert comm.cache_stats()["capacity"] == MAX_CACHED_PLANS
        finally:
            comm.close()

    def test_hit_miss_counters_flow_through_serving_stats(self, dataset,
                                                          config):
        cfg = dataclasses.replace(config, backend="process")
        engine = make_engine(dataset, cfg,
                             max_batch_width=dataset.n_features * 8)
        try:
            engine.start()
            features = request_features(dataset, 2, seed=6)
            engine.submit(features[0]).result(timeout=120.0)
            engine.submit(features[1]).result(timeout=120.0)
            stats = engine.stats()
        finally:
            engine.close()
        # First request compiles the width's exchange plans (misses);
        # the second reuses them (hits).
        assert stats["comm_plan_cache_misses"] >= 1
        assert stats["comm_plan_cache_hits"] >= 1
        assert stats["comm_plan_cache_size"] <= \
            stats["comm_plan_cache_capacity"]

    def test_other_backends_report_no_cache(self):
        comm = make_communicator(2, backend="sim")
        try:
            assert comm.cache_stats() == {}
        finally:
            comm.close()


# ----------------------------------------------------------------------
# CLI: repro serve (demo + bench)
# ----------------------------------------------------------------------
class TestServeCommand:
    def test_demo_prints_summary_and_tenant_table(self, capsys):
        code = main(["serve", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "2", "--backend", "sim", "--requests", "4",
                     "--hidden", "8", "--layers", "2", "--train-epochs", "1",
                     "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving demo" in out
        assert "per-tenant accounting" in out
        assert "tenant-0" in out and "tenant-1" in out
        assert "plan_misses" in out

    def test_bench_writes_payload_with_identity_verdict(self, capsys,
                                                        tmp_path):
        out_path = tmp_path / "bench_serve.json"
        code = main(["serve", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "2", "--backend", "sim", "--bench",
                     "--quick", "--duration", "0.4", "--clients", "4",
                     "--hidden", "8", "--layers", "2", "--train-epochs", "1",
                     "--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation (batched vs no-batch)" in out
        record = json.loads(out_path.read_text())
        # The recorded header: the same keys as the checked-in baseline.
        baseline = json.loads((pathlib.Path(__file__).resolve().parents[1]
                               / "BENCH_serve.json").read_text())
        assert list(record) == list(baseline)
        assert list(record["config"]) == list(baseline["config"])
        assert set(record["serve"]) == set(baseline["serve"])
        assert record["backend"] == "sim"
        assert record["config"]["ranks"] == 2
        assert record["config"]["clients"] == 4
        assert record["config"]["duration_s"] == 0.4
        assert record["config"]["qps_steps"] == [60.0, 0]
        payload = record["serve"]
        assert payload["identity"]["bit_identical"] is True
        assert {row["mode"] for row in payload["rows"]} == \
            {"batched", "no_batch"}
        assert payload["saturation"]["no_batch_qps"] > 0.0

    @pytest.mark.parametrize("flag,value,option", [
        ("--max-wait-ms", "nan", "max_wait_ms"),
        ("--max-wait-ms", "inf", "max_wait_ms"),
        ("--deadline-ms", "nan", "default_deadline_ms"),
        ("--deadline-ms", "inf", "default_deadline_ms"),
    ])
    def test_non_finite_time_flag_exits_2(self, capsys, flag, value, option):
        code = main(["serve", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "2", "--backend", "sim", "--requests", "1",
                     "--hidden", "8", "--layers", "2", "--train-epochs", "1",
                     "--quick", flag, value])
        assert code == 2
        assert f"{option} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--output", "OUT"], ["--qps", "5"], ["--duration", "1"],
        ["--bench", "--requests", "2"], ["--bench", "--deadline-ms", "5"],
        ["--bench", "--no-batch"],
    ], ids=["output", "qps", "duration", "requests-with-bench",
            "deadline-with-bench", "no-batch-with-bench"])
    def test_flag_of_the_other_mode_exits_2(self, capsys, tmp_path,
                                            monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        code = main(["serve", "--dataset", "reddit", "--scale", "0.05",
                     "--ranks", "2", "--backend", "sim", "--hidden", "8",
                     "--layers", "2", "--train-epochs", "1", "--quick",
                     *flag])
        assert code == 2
        named = next(f for f in flag if f != "--bench")
        assert f"error: {named} " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []     # no --output file

    def test_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["serve"])
        assert args.backend == "process"
        assert args.queue_depth == 256
        assert args.max_wait_ms == 2.0
        assert not args.no_batch and not args.bench


# ----------------------------------------------------------------------
# ServeFuture error paths + the submit/close race
# ----------------------------------------------------------------------
class TestServeFuture:
    def _result(self, request_id=0):
        return ServeResult(logits=np.zeros((2, 2)), request_id=request_id,
                           tenant="t", latency_s=0.0, batch_size=1,
                           batch_width=2)

    def test_result_reraises_the_structured_failure(self):
        future = ServeFuture()
        err = ServeError(7, (7, 8), RuntimeError("boom"), tenant="acme")
        future._fail(err)
        with pytest.raises(ServeError) as excinfo:
            future.result(timeout=1.0)
        assert excinfo.value is err
        assert excinfo.value.request_id == 7
        assert excinfo.value.batch == (7, 8)
        assert excinfo.value.tenant == "acme"
        assert excinfo.value.retryable
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_unfulfilled_wait_times_out(self):
        with pytest.raises(TimeoutError, match="not fulfilled"):
            ServeFuture().result(timeout=0.01)

    def test_first_resolution_wins_fulfil_then_fail(self):
        future = ServeFuture()
        future._fulfill(self._result(1))
        future._fail(RuntimeError("late failure must be a no-op"))
        assert future.result(timeout=1.0).request_id == 1

    def test_first_resolution_wins_fail_then_fulfil(self):
        future = ServeFuture()
        err = ServeError(2, (2,), RuntimeError("boom"))
        future._fail(err)
        future._fulfill(self._result(2))
        with pytest.raises(ServeError):
            future.result(timeout=1.0)

    def test_submit_racing_close_never_strands_a_future(self, dataset,
                                                        config):
        """Every submit that wins the race against close() is fully
        admitted and served by the drain; every loser raises the closed
        error.  No future may hang in between."""
        import threading as _threading
        engine = make_engine(dataset, config)
        engine.start()
        features = request_features(dataset, 1, seed=9)[0]
        futures, errors = [], []
        lock = _threading.Lock()

        def hammer():
            while True:
                try:
                    future = engine.submit(features)
                except RequestRejected:
                    continue                  # queue full: not the race
                except RuntimeError as exc:
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    futures.append(future)

        threads = [_threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        import time as _time
        _time.sleep(0.15)
        engine.close()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert errors and all("closed" in str(e) for e in errors)
        for future in futures:
            assert future.result(timeout=30.0).logits.shape[1] == \
                dataset.n_classes


# ----------------------------------------------------------------------
# Request deadlines: shed at dequeue, before any SpMM work
# ----------------------------------------------------------------------
class TestRequestDeadlines:
    def test_expired_request_is_shed_before_any_spmm(self, dataset, config):
        engine = make_engine(dataset, config)
        TRACE.enable()
        features = request_features(dataset, 2, seed=10)
        expired = engine.submit(features[0], tenant="late", deadline_ms=20.0)
        live = engine.submit(features[1])
        import time as _time
        _time.sleep(0.06)                     # deadline passes in-queue
        messages_before = engine.comm.events.message_count()
        try:
            engine.start()
            with pytest.raises(RequestExpired) as excinfo:
                expired.result(timeout=60.0)
            assert excinfo.value.request_id == 0
            assert excinfo.value.tenant == "late"
            assert excinfo.value.waited_s >= 0.02
            assert not excinfo.value.retryable
            result = live.result(timeout=60.0)
            assert result.batch_size == 1     # expired never joined a batch
            stats = engine.stats()
        finally:
            engine.close()
        assert stats['serve_shed_total{reason="deadline"}'] == 1.0
        # Exactly one batch ran (the live request); the expired request
        # triggered no serving span and no communication.
        batch_spans = [s for s in TRACE.spans() if s[1] == "serve.batch"]
        assert len(batch_spans) == 1
        assert batch_spans[0][5]["requests"] == 1
        assert engine.stats()["serve_batches_total"] == 1.0

    def test_unexpired_deadline_serves_normally(self, dataset, config):
        engine = make_engine(dataset, config)
        try:
            engine.start()
            features = request_features(dataset, 1, seed=11)[0]
            result = engine.submit(features,
                                   deadline_ms=60_000.0).result(timeout=60.0)
            assert result.logits.shape == (dataset.n_vertices,
                                           dataset.n_classes)
            assert engine.stats()[
                'serve_shed_total{reason="deadline"}'] == 0.0
        finally:
            engine.close()

    def test_default_deadline_comes_from_options(self, dataset, config):
        engine = make_engine(dataset, config, default_deadline_ms=15.0)
        features = request_features(dataset, 1, seed=12)[0]
        future = engine.submit(features)
        import time as _time
        _time.sleep(0.05)
        try:
            engine.start()
            with pytest.raises(RequestExpired):
                future.result(timeout=60.0)
        finally:
            engine.close()

    def test_nonpositive_deadline_rejected_at_submit(self, dataset, config):
        engine = make_engine(dataset, config)
        features = request_features(dataset, 1, seed=13)[0]
        try:
            with pytest.raises(ValueError, match="deadline_ms"):
                engine.submit(features, deadline_ms=0.0)
        finally:
            engine.close()

    def test_options_validate_resilience_knobs(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ServeOptions(max_restarts=-1)
        with pytest.raises(ValueError, match="default_deadline_ms"):
            ServeOptions(default_deadline_ms=-5.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["max_wait_ms", "default_deadline_ms"])
    def test_options_reject_non_finite_times(self, field, value):
        """A NaN wait never times out and a NaN deadline sheds at once;
        an infinite one never fires."""
        with pytest.raises(ValueError, match=field):
            ServeOptions(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_deadline_rejected_at_submit(self, dataset, config,
                                                    value):
        engine = make_engine(dataset, config)
        features = request_features(dataset, 1, seed=14)[0]
        try:
            with pytest.raises(ValueError, match="deadline_ms"):
                engine.submit(features, deadline_ms=value)
        finally:
            engine.close()
