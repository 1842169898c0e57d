"""Serving chaos suite: kill ranks mid-batch, assert supervised recovery.

The serving analogue of ``test_comm_chaos.py``: inject worker losses
into a live :class:`~repro.serve.ServingEngine` and assert the failure
contract end to end —

* exactly the in-flight batch fails, every member with its **own**
  structured, retryable :class:`~repro.serve.ServeError` carrying the
  request id and the batch composition;
* the engine rebuilds warm state in place (fresh communicator, reloaded
  weights, re-warmed compiled plans) bounded by
  ``ServeOptions.max_restarts``, queued requests survive, and
  post-restart logits are **bit-identical** to an unfailed run;
* zero shared-memory segments leak on the process backend (dead or
  recovered), and ``stop()``/``close()`` stay bounded with a dead
  worker — seconds, not the 600 s watchdog.

Run standalone with ``pytest -m conformance``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.comm.faults import FaultPlan, WatchdogTimeout, WorkerFailure
from repro.core import DistTrainConfig, setup_distributed
from repro.obs import TRACE
from repro.serve import (ServeError, ServeOptions, ServingEngine,
                         prepare_checkpoint, submit_with_retries)

pytestmark = pytest.mark.conformance

#: Backends whose injected kills the serving engine must recover from.
RECOVERABLE_BACKENDS = ("sim", "threaded", "process")


@pytest.fixture(autouse=True)
def _reset_trace():
    TRACE.disable()
    TRACE.clear()
    yield
    TRACE.disable()
    TRACE.clear()


@pytest.fixture(scope="module")
def dataset():
    from repro.graphs import load_dataset
    return load_dataset("reddit", scale=0.05, n_features=6, n_classes=3,
                        seed=2)


def serve_config(backend: str) -> DistTrainConfig:
    return DistTrainConfig(n_ranks=2, partitioner=None, epochs=2, hidden=8,
                           n_layers=2, backend=backend, seed=0)


@pytest.fixture(scope="module")
def checkpoint_file(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-chaos-ckpt") / "model.ckpt"
    return prepare_checkpoint(dataset, serve_config("sim"), path, epochs=2)


def recoverable_engine(dataset, backend, checkpoint, **opts):
    """A from-checkpoint engine (the production path: retained weights +
    rebuild factory, so supervised recovery is armed)."""
    opts.setdefault("max_restarts", 1)
    return ServingEngine.from_checkpoint(
        dataset, serve_config(backend), checkpoint,
        options=ServeOptions(**opts))


def _shm_segments(comm):
    """This communicator's live shared-memory segments (see
    ``test_comm_chaos._shm_segments``)."""
    prefix = f"rpr{comm._uid}"
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        return sorted(n for n in os.listdir(shm_dir)
                      if n.startswith(prefix))
    return sorted(a.shm.name for a in comm._arenas.values())


def features_for(dataset, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dataset.n_vertices, dataset.n_features))


# ----------------------------------------------------------------------
# The headline scenario: SIGKILL a rank mid-batch on the process backend
# ----------------------------------------------------------------------
class TestKillMidBatch:
    def test_process_kill_recovers_and_serves_bit_identically(
            self, dataset, checkpoint_file):
        """A real OS worker SIGKILLed mid-batch fails exactly the
        in-flight batch with structured retryable errors; the engine
        restarts within budget, a queued request survives the restart,
        post-restart logits are bit-identical, and no shm leaks."""
        engine = recoverable_engine(dataset, "process", checkpoint_file,
                                    max_batch_width=dataset.n_features)
        TRACE.enable()
        feats = features_for(dataset, seed=3)
        try:
            engine.start()
            # Fault-free reference logits from the same engine/weights.
            ref = engine.submit(feats).result(timeout=120.0).logits.copy()

            old_comm = engine.comm
            engine.inject_faults(FaultPlan.kill(rank=1, op_index=0))
            # Force deterministic composition: with the column budget at
            # one request, A is the in-flight batch and B stays queued
            # across the restart.
            engine.stop()
            fut_a = engine.submit(feats, tenant="acme")
            fut_b = engine.submit(feats, tenant="bcme")
            t0 = time.monotonic()
            engine.start()

            with pytest.raises(ServeError) as excinfo:
                fut_a.result(timeout=120.0)
            err = excinfo.value
            assert err.request_id == 1
            assert err.batch == (1,)            # exactly the in-flight batch
            assert err.tenant == "acme"
            assert err.retryable
            assert isinstance(err.cause, WorkerFailure)

            # The queued request survives the restart and is served by
            # the rebuilt engine, bit-identical to the unfailed run.
            out_b = fut_b.result(timeout=120.0)
            assert time.monotonic() - t0 < 60.0
            assert np.array_equal(out_b.logits, ref)

            assert engine.restarts == 1
            assert engine.comm is not old_comm
            assert engine.health()["status"] == "ready"
            assert engine.health()["restarts"] == 1
            stats = engine.stats()
            assert stats["serve_restarts_total"] == 1.0
            assert stats["serve_batch_failures_total"] == 1.0
            assert _shm_segments(old_comm) == [], "dead comm leaked shm"

            # A retried request against the recovered engine succeeds.
            out_retry = submit_with_retries(engine, feats, timeout_s=120.0)
            assert np.array_equal(out_retry.logits, ref)
        finally:
            new_comm = engine.comm
            t_close = time.monotonic()
            engine.close()
            assert time.monotonic() - t_close < 30.0
        assert _shm_segments(old_comm) == []
        assert _shm_segments(new_comm) == [], "recovered comm leaked shm"
        names = [(track, name) for track, name, *_ in TRACE.spans()]
        assert ("serve", "serve.restart") in names

    @pytest.mark.parametrize("backend", ("sim", "threaded"))
    def test_in_process_kill_recovers_identically(self, dataset, backend,
                                                  checkpoint_file):
        """Same contract on the in-process backends (injected kills
        raise WorkerFailure directly instead of SIGKILLing a pid)."""
        engine = recoverable_engine(dataset, backend, checkpoint_file,
                                    batching=False)
        feats = features_for(dataset, seed=4)
        try:
            engine.start()
            ref = engine.submit(feats).result(timeout=120.0).logits.copy()
            engine.inject_faults(FaultPlan.kill(rank=1, op_index=0))
            with pytest.raises(ServeError) as excinfo:
                engine.submit(feats).result(timeout=120.0)
            assert excinfo.value.retryable
            out = engine.submit(feats).result(timeout=120.0)
            assert np.array_equal(out.logits, ref)
            assert engine.restarts == 1
        finally:
            engine.close()

    def test_restart_reuses_the_distributed_graph(self, dataset, tmp_path,
                                                  monkeypatch):
        """A supervised restart rebuilds the communicator and the model
        over the graph the engine already distributed: it runs no
        partitioner (nor the planner, which partitions to price) and
        serves the pre-fault logits."""
        import repro.core.distribute as distribute_mod
        config = DistTrainConfig(n_ranks=2, partitioner="metis_like",
                                 epochs=2, hidden=8, n_layers=2,
                                 backend="sim", seed=0)
        checkpoint = prepare_checkpoint(dataset, config,
                                        tmp_path / "model.ckpt", epochs=2)
        engine = ServingEngine.from_checkpoint(
            dataset, config, checkpoint,
            options=ServeOptions(batching=False, max_restarts=1))
        partitioned = []
        real_get_partitioner = distribute_mod.get_partitioner

        def recording(name, seed=0):
            partitioned.append(name)
            return real_get_partitioner(name, seed=seed)

        monkeypatch.setattr(distribute_mod, "get_partitioner", recording)
        feats = features_for(dataset, seed=9)
        try:
            engine.start()
            ref = engine.submit(feats).result(timeout=120.0).logits.copy()
            engine.inject_faults(FaultPlan.kill(rank=1, op_index=0))
            with pytest.raises(ServeError) as excinfo:
                engine.submit(feats).result(timeout=120.0)
            assert excinfo.value.retryable
            out = engine.submit(feats).result(timeout=120.0)
            assert engine.restarts == 1
            assert partitioned == []
            assert np.array_equal(out.logits, ref)
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Restart budget exhaustion: fail fast, fail everything, stay bounded
# ----------------------------------------------------------------------
class TestRestartBudget:
    def test_exhausted_budget_fails_engine_and_queued_requests(
            self, dataset, checkpoint_file):
        engine = recoverable_engine(dataset, "sim", checkpoint_file,
                                    max_restarts=0,
                                    max_batch_width=dataset.n_features)
        feats = features_for(dataset, seed=5)
        try:
            engine.inject_faults(FaultPlan.kill(rank=0, op_index=0))
            fut_a = engine.submit(feats)
            fut_b = engine.submit(feats)
            engine.start()

            with pytest.raises(ServeError) as exc_a:
                fut_a.result(timeout=60.0)
            assert not exc_a.value.retryable    # no budget -> no retry lie
            with pytest.raises(ServeError) as exc_b:
                fut_b.result(timeout=60.0)      # queued: drained, not hung
            assert not exc_b.value.retryable

            health = engine.health()
            assert health["status"] == "failed"
            assert health["restarts"] == 0
            assert "WorkerFailure" in health["last_failure"]
            with pytest.raises(RuntimeError, match="failed permanently"):
                engine.submit(feats)
            with pytest.raises(RuntimeError, match="failed permanently"):
                engine.start()

            t0 = time.monotonic()
            engine.stop()
            assert time.monotonic() - t0 < 30.0
        finally:
            engine.close()

    def test_engine_without_rebuild_fails_permanently(self, dataset):
        """A directly-constructed engine (no rebuild factory) cannot
        recover: the failure is structured but marked non-retryable."""
        setup = setup_distributed(dataset, serve_config("sim"))
        engine = ServingEngine(setup.model, comm=setup.comm,
                               options=ServeOptions(batching=False),
                               owns_comm=True)
        feats = features_for(dataset, seed=6)
        try:
            engine.start()
            engine.inject_faults(FaultPlan.kill(rank=0, op_index=0))
            with pytest.raises(ServeError) as excinfo:
                engine.submit(feats).result(timeout=60.0)
            assert not excinfo.value.retryable
            assert engine.health()["status"] == "failed"
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Bounded teardown with dead workers (process backend)
# ----------------------------------------------------------------------
class TestBoundedTeardown:
    def test_stop_and_close_bounded_with_dead_worker(self, dataset,
                                                     checkpoint_file):
        """SIGKILL an OS worker outside any fault plan, drive a request
        into the dead pool: detection rides the sentinel wait, the
        in-flight request fails structurally, and stop()/close() return
        in seconds — never the 600 s watchdog."""
        engine = recoverable_engine(dataset, "process", checkpoint_file,
                                    max_restarts=0, batching=False)
        feats = features_for(dataset, seed=7)
        try:
            engine.start()
            engine.submit(feats).result(timeout=120.0)
            engine.comm._procs[1].kill()
            engine.comm._procs[1].join(timeout=10.0)
            with pytest.raises(ServeError) as excinfo:
                engine.submit(feats).result(timeout=120.0)
            assert isinstance(excinfo.value.cause, WorkerFailure)
            t0 = time.monotonic()
            engine.stop()
            stop_s = time.monotonic() - t0
            assert stop_s < 30.0, f"stop() took {stop_s:.1f}s"
        finally:
            comm = engine.comm
            t0 = time.monotonic()
            engine.close()
            assert time.monotonic() - t0 < 30.0
        assert _shm_segments(comm) == []
        assert not any(p.is_alive() for p in comm._procs or [])

    def test_escalated_teardown_kills_the_worker_pool(self, dataset,
                                                      checkpoint_file):
        """The stop() escalation path: tearing down the pool leaves no
        live worker, and close() afterwards stays bounded and clean."""
        engine = recoverable_engine(dataset, "process", checkpoint_file,
                                    batching=False)
        try:
            engine.start()
            engine.submit(features_for(dataset, 8)).result(timeout=120.0)
            engine._escalate_teardown()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and \
                    any(p.is_alive() for p in engine.comm._procs or []):
                time.sleep(0.05)
            assert not any(p.is_alive() for p in engine.comm._procs or [])
        finally:
            comm = engine.comm
            t0 = time.monotonic()
            engine.close()
            assert time.monotonic() - t0 < 30.0
        assert _shm_segments(comm) == []


# ----------------------------------------------------------------------
# Watchdog timeout classification
# ----------------------------------------------------------------------
class TestWatchdogTimeout:
    def test_is_a_structured_worker_failure(self):
        """Alive-but-stuck workers surface as WatchdogTimeout — a
        WorkerFailure subclass, so one supervised-recovery net catches
        both — while the legacy RuntimeError message is preserved."""
        exc = WatchdogTimeout(1, backend="process", timeout_s=5.0,
                              detail="unresponsive ranks 1")
        assert isinstance(exc, WorkerFailure)
        assert isinstance(exc, RuntimeError)
        assert exc.rank == 1
        assert exc.timeout_s == 5.0
        assert "did not finish" in str(exc)
        assert "unresponsive ranks 1" in str(exc)
