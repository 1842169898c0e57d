"""Overlapped execution: nonblocking accounting, pipelining, calibration.

Four layers on top of the cross-backend conformance checks in
``comm_conformance.py``:

* the simulator's deferred-charge handles implement exactly the
  ``max(comm, compute)`` overlap accounting (an immediate wait reproduces
  the blocking collective's clocks bit for bit);
* the pipelined compiled operators are bit-identical to the synchronous
  path and *cheaper* on the simulated clock whenever there is compute to
  hide behind;
* the planner's pipeline-depth axis and overlap-aware ``epoch_cost``
  term (default depth keeps every prediction byte-identical to the
  pre-overlap planner);
* the per-host calibration file (``repro calibrate``) feeding the
  scorer's backend-overhead table and the plan-cache key.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm import make_communicator
from repro.comm.base import CommHandle, CompletedCommHandle, Communicator
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, DistTrainConfig, ProcessGrid,
                        epoch_cost, train_distributed)
from repro.core.engine import compile as compile_spmm
from repro.plan import (PlanCandidate, Planner, effective_message_overheads,
                        enumerate_candidates, load_message_overheads,
                        measure_message_overhead, run_calibration,
                        score_candidates, write_calibration)
from repro.plan.score import BACKEND_MESSAGE_OVERHEAD_S, PlanMatrixCache


def _problem(n=64, p=4, f=6, density=0.12, seed=3):
    rng = np.random.default_rng(seed)
    adj = sp.random(n, n, density=density, random_state=rng, format="csr")
    adj = (adj + adj.T).tocsr()
    adj.setdiag(0)
    adj.eliminate_zeros()
    dist = BlockRowDistribution.uniform(n, p)
    matrix = DistSparseMatrix(adj, dist)
    dense = DistDenseMatrix.from_global(rng.normal(size=(n, f)), dist)
    return adj, matrix, dense


# ----------------------------------------------------------------------
# Simulator overlap accounting
# ----------------------------------------------------------------------
class TestSimOverlapAccounting:
    def test_immediate_wait_equals_blocking(self):
        """post + wait with nothing in between must charge exactly what
        the blocking collective charges — including the group sync."""
        value = np.ones((128, 8))
        blocking = make_communicator(4, backend="sim")
        blocking.broadcast(value, root=0)
        nonblocking = make_communicator(4, backend="sim")
        nonblocking.ibroadcast(value, root=0).wait()
        assert nonblocking.elapsed() == blocking.elapsed()
        assert nonblocking.breakdown() == blocking.breakdown()
        np.testing.assert_array_equal(nonblocking.timeline.clocks,
                                      blocking.timeline.clocks)

    def test_overlapped_window_costs_max_of_comm_and_compute(self):
        """The charged cost of (issue, compute, wait) is max(comm, compute)
        — the cost-model honesty requirement of the sim backend."""
        value = np.ones((1000, 16))
        comm = make_communicator(2, backend="sim")
        comm.broadcast(value, root=0)
        t_comm = comm.elapsed()
        assert t_comm > 0

        for t_compute in (t_comm / 3.0, 3.0 * t_comm):
            overlapped = make_communicator(2, backend="sim")
            handle = overlapped.ibroadcast(value, root=0)
            for r in overlapped.ranks():
                overlapped.charge_seconds(r, t_compute)
            handle.wait()
            assert overlapped.elapsed() == pytest.approx(
                max(t_comm, t_compute), rel=1e-12)

    def test_test_completes_once_compute_covers_comm(self):
        comm = make_communicator(2, backend="sim")
        handle = comm.ibroadcast(np.ones((512, 8)), root=0)
        assert handle.test() is False, "no simulated time has elapsed yet"
        for r in comm.ranks():
            comm.charge_seconds(r, 1.0)     # >> the broadcast time
        assert handle.test() is True
        elapsed = comm.elapsed()
        handle.wait()
        assert comm.elapsed() == elapsed, \
            "a fully-overlapped collective charges no extra time at wait"

    def test_iexchange_matches_blocking_exchange_clocks(self):
        msgs = [(0, 1, np.ones(100)), (2, 3, np.full(300, 2.0))]
        blocking = make_communicator(4, backend="sim")
        blocking.exchange(msgs, sync_ranks=range(4))
        nonblocking = make_communicator(4, backend="sim")
        nonblocking.iexchange(msgs, sync_ranks=range(4)).wait()
        np.testing.assert_array_equal(nonblocking.timeline.clocks,
                                      blocking.timeline.clocks)


# ----------------------------------------------------------------------
# Pipelined compiled execution
# ----------------------------------------------------------------------
class TestPipelinedCompiled:
    def test_pipeline_depth_validated(self):
        _, matrix, dense = _problem()
        comm = make_communicator(4, backend="sim")
        with pytest.raises(ValueError):
            compile_spmm(matrix, comm,
                         sparsity_aware=False, pipeline_depth=0)
        op = compile_spmm(matrix, comm,
                          sparsity_aware=False, pipeline_depth=2)
        assert op.pipeline_depth == 2

    def test_pipelined_1d_oblivious_hides_broadcast_time(self):
        """On the simulator, the double-buffered CAGNET schedule must be
        bit-identical to the synchronous one and strictly cheaper (the
        broadcasts hide behind the per-step multiplies)."""
        adj, matrix, dense = _problem(n=400, p=4, f=16, density=0.05)
        sync_comm = make_communicator(4, backend="sim")
        sync = compile_spmm(matrix, sync_comm,
                            sparsity_aware=False)
        z_sync = np.array(sync(dense).to_global(), copy=True)
        t_sync = sync_comm.elapsed()

        piped_comm = make_communicator(4, backend="sim")
        piped = compile_spmm(matrix, piped_comm,
                             sparsity_aware=False, pipeline_depth=2)
        z_piped = piped(dense).to_global()
        t_piped = piped_comm.elapsed()

        np.testing.assert_array_equal(z_piped, z_sync)
        assert t_piped < t_sync, \
            f"pipelining must reduce simulated time ({t_piped} vs {t_sync})"

    def test_pipelined_15d_bit_identical_and_cheaper(self):
        adj, _, _ = _problem(n=256, p=8, f=12, density=0.08)
        grid = ProcessGrid(nranks=8, replication=2)
        dist = BlockRowDistribution.uniform(adj.shape[0], grid.nrows)
        matrix = DistSparseMatrix(adj, dist)
        dense = DistDenseMatrix.from_global(
            np.random.default_rng(0).normal(size=(adj.shape[0], 12)), dist)
        times = {}
        results = {}
        for depth in (1, 2):
            comm = make_communicator(8, backend="sim")
            op = compile_spmm(matrix, comm, algorithm="1.5d",
                              sparsity_aware=False, grid=grid,
                              pipeline_depth=depth)
            results[depth] = np.array(op(dense).to_global(), copy=True)
            times[depth] = comm.elapsed()
        np.testing.assert_array_equal(results[2], results[1])
        assert times[2] < times[1]

    def test_trainer_threads_pipeline_depth(self, tiny_dataset):
        """Training with pipeline_depth=2 is bit-identical to depth 1 on
        the simulator (losses, accuracy) — pipelining changes when
        exchanges are waited on, never what they deliver."""
        base = DistTrainConfig(n_ranks=4, algorithm="1d",
                               sparsity_aware=False, partitioner=None,
                               epochs=3, backend="sim")
        ref = train_distributed(tiny_dataset, base, eval_every=0)
        piped = train_distributed(
            tiny_dataset, dataclasses.replace(base, pipeline_depth=2),
            eval_every=0)
        assert [r.loss for r in piped.history] == \
            [r.loss for r in ref.history]
        assert piped.test_accuracy == ref.test_accuracy
        assert piped.avg_epoch_time_s < ref.avg_epoch_time_s, \
            "the overlapped epochs must be cheaper on the simulated clock"

    def test_config_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            DistTrainConfig(pipeline_depth=0)
        with pytest.raises(ValueError):
            DistTrainConfig(pipeline_depth="2")  # must be an int
        assert DistTrainConfig(pipeline_depth=2).pipeline_depth == 2


# ----------------------------------------------------------------------
# Default nonblocking fallback of the ABC
# ----------------------------------------------------------------------
class TestDefaultHandles:
    def test_base_defaults_return_completed_handles(self):
        """A backend whose runner settles every collective at once gets
        correct (eager) nonblocking semantics for free."""

        class MinimalComm(Communicator):
            backend_name = "minimal"

            def _collective(self, lower, blocking, category, *args):
                return lower(category, *args)

            def _lower_alltoallv(self, category, send, group):
                p = len(group)
                return [[send[j][i] for j in range(p)] for i in range(p)]

            def _lower_broadcast(self, category, value, root, group):
                return [value if r == root else np.array(value, copy=True)
                        for r in group]

            def _lower_allreduce(self, category, arrays, group, op):
                from repro.comm.base import reduce_stack
                result = reduce_stack(arrays, op)
                return [result.copy() for _ in group]

            def _lower_allgather(self, category, arrays, group):
                raise NotImplementedError

            def _lower_reduce(self, category, arrays, root, group, op):
                raise NotImplementedError

            def _lower_exchange(self, category, messages, sync):
                return {(s, d): payload for s, d, payload in messages}

        comm = MinimalComm(3)
        handle = comm.ibroadcast(np.arange(4.0), root=0)
        assert isinstance(handle, CompletedCommHandle)
        assert handle.test() is True
        np.testing.assert_array_equal(handle.wait()[1], np.arange(4.0))
        delivered = comm.iexchange([(0, 1, np.ones(2))]).wait()
        np.testing.assert_array_equal(delivered[(0, 1)], np.ones(2))

    def test_handle_caches_errors(self):
        class Boom(RuntimeError):
            pass

        class FailingHandle(CommHandle):
            def _finish(self):
                raise Boom("delivery failed")

        handle = FailingHandle()
        with pytest.raises(Boom):
            handle.wait()
        with pytest.raises(Boom):
            handle.wait()       # cached, not re-run
        assert handle.test() is True  # "done" (failed) is a final state


# ----------------------------------------------------------------------
# Overlap-aware cost model + planner axis
# ----------------------------------------------------------------------
class TestOverlapPlanning:
    def _matrix(self, n=96, p=4):
        rng = np.random.default_rng(1)
        adj = sp.random(n, n, density=0.1, random_state=rng, format="csr")
        adj = (adj + adj.T).tocsr()
        return adj, DistSparseMatrix(
            adj, BlockRowDistribution.uniform(n, p))

    def test_epoch_cost_default_depth_unchanged(self):
        _, matrix = self._matrix()
        dims = [32, 16, 8]
        base = epoch_cost(matrix, dims, "perlmutter", algorithm="1d",
                          sparsity_aware=False)
        explicit = epoch_cost(matrix, dims, "perlmutter", algorithm="1d",
                              sparsity_aware=False, pipeline_depth=1)
        assert base.as_dict() == explicit.as_dict()

    def test_epoch_cost_overlap_reduces_staged_variants_only(self):
        _, matrix = self._matrix()
        dims = [32, 16, 8]
        sync = epoch_cost(matrix, dims, "perlmutter", algorithm="1d",
                          sparsity_aware=False)
        piped = epoch_cost(matrix, dims, "perlmutter", algorithm="1d",
                           sparsity_aware=False, pipeline_depth=2)
        assert piped.total_s < sync.total_s
        assert piped.latency_s == sync.latency_s, \
            "latency stays on the critical path"
        # 1D sparsity-aware has a single un-staged exchange: no change.
        sa_sync = epoch_cost(matrix, dims, "perlmutter", algorithm="1d",
                             sparsity_aware=True)
        sa_piped = epoch_cost(matrix, dims, "perlmutter", algorithm="1d",
                              sparsity_aware=True, pipeline_depth=2)
        assert sa_piped.as_dict() == sa_sync.as_dict()

    def test_enumerate_pipeline_depth_axis(self):
        default = enumerate_candidates(4, backends=["sim"])
        assert all(c.pipeline_depth == 1 for c in default)
        deep = enumerate_candidates(4, backends=["sim"],
                                    pipeline_depths=(1, 2))
        depths = {(c.algorithm, c.mode, c.pipeline_depth) for c in deep}
        assert ("1d", "oblivious", 2) in depths
        # 1D SA executes identically at every depth: only one enumerated.
        assert ("1d", "sparsity_aware", 2) not in depths
        assert ("1d", "sparsity_aware", 1) in depths
        with pytest.raises(ValueError):
            enumerate_candidates(4, pipeline_depths=(0,))

    def test_scorer_prefers_pipelined_oblivious(self):
        adj, _ = self._matrix()
        cache = PlanMatrixCache(adj)
        candidates = enumerate_candidates(
            4, backends=["sim"], partitioners=[None],
            algorithms=["1d"], modes=["oblivious"], pipeline_depths=(1, 2))
        scored = score_candidates(candidates, cache, [32, 16, 8],
                                  "perlmutter")
        by_depth = {s.candidate.pipeline_depth: s.predicted_s
                    for s in scored}
        assert by_depth[2] < by_depth[1]

    def test_planner_simulates_pipelined_candidates(self, tiny_dataset):
        planner = Planner(machine="perlmutter-scaled", backends=["sim"],
                          partitioners=[None], algorithms=["1d"],
                          modes=["oblivious"], pipeline_depths=(1, 2),
                          use_cache=False)
        report = planner.plan_for_dataset(tiny_dataset, 4)
        depths = {row["depth"] for row in report.table}
        assert depths == {1, 2}
        assert report.groups_simulated == 2, \
            "depth-1 and depth-2 schedules are distinct simulated groups"
        assert report.plan.pipeline_depth in (1, 2)

    def test_plan_roundtrips_pipeline_depth(self):
        from repro.plan import ExecutionPlan
        plan = ExecutionPlan(
            algorithm="1d", sparsity_aware=False, backend="sim",
            partitioner=None, replication_factor=1, n_ranks=4,
            predicted_s=1.0, simulated_s=None, source="analytic",
            machine="perlmutter", fingerprint="x", pipeline_depth=2)
        clone = ExecutionPlan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert clone == plan


# ----------------------------------------------------------------------
# Calibration (repro calibrate)
# ----------------------------------------------------------------------
class TestCalibration:
    def test_sim_is_pinned_at_zero(self):
        result = measure_message_overhead("sim")
        assert result.per_message_s == 0.0

    def test_measure_real_backend(self):
        result = measure_message_overhead("threaded", nranks=2, rounds=5)
        assert result.per_message_s > 0.0
        assert result.messages == 5  # one logged message per broadcast pair

    def test_round_trip_and_effective_table(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert load_message_overheads() == {}
        baseline = effective_message_overheads()
        assert baseline == {**BACKEND_MESSAGE_OVERHEAD_S, "sim": 0.0}

        payload = run_calibration(backends=["sim", "threaded"], quick=True)
        target = write_calibration(payload)
        assert target == path
        table = load_message_overheads()
        assert table["threaded"] > 0.0
        effective = effective_message_overheads()
        assert effective["threaded"] == table["threaded"]
        assert effective["sim"] == 0.0, "sim stays pinned at zero"
        assert effective["process"] == BACKEND_MESSAGE_OVERHEAD_S["process"], \
            "unmeasured backends keep the shipped default"

    def test_corrupt_file_falls_back_to_defaults(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        path.write_text("{not json")
        assert load_message_overheads() == {}
        path.write_text(json.dumps({"overheads": {"threaded": -5.0,
                                                  "process": "nan?"}}))
        assert load_message_overheads() == {}, \
            "negative/non-numeric entries are rejected"

    def test_calibration_invalidates_plan_cache_key(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CALIBRATION",
                           str(tmp_path / "calibration.json"))
        planner = Planner(machine="perlmutter", use_cache=False)
        before = planner._space_signature()
        write_calibration({"version": 1, "host": "t",
                           "overheads": {"threaded": 0.5}})
        after = planner._space_signature()
        assert before != after, \
            "recalibrating must change the plan-cache key"
