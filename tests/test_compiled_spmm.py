"""Compiled-execution coverage: persistent plans vs one-shot dispatch.

The contract under test (see ``docs/performance.md``):

* for every (variant x backend) pair, the compiled operator is **bitwise
  identical** to the one-shot ``spmm`` path (compile, call once);
* repeated calls reuse the plan's workspaces with no stale-state leakage
  between epochs (calling with B after A gives exactly what a fresh run
  on B gives, and re-calling with A restores A's result bit for bit);
* float32 plans produce float32 results within single-precision tolerance
  of the float64 run, at exactly half the exchanged volume;
* the process backend's plan cache replays repeated same-shape exchanges
  correctly, and invalidates itself when an arena regrows.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.comm.faults import FaultPlan, WorkerFailure
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, ProcessGrid, spmm)
from repro.core.engine import CompiledSpmm, compile as compile_spmm
from repro.core.memory import measure_dist_matrix_bytes
from repro.graphs import gcn_normalize
from repro.graphs.generators import erdos_renyi_graph

N, F, P = 48, 6, 4
BACKENDS = ("sim", "threaded", "process")
#: (algorithm, mode, 1.5D replication factor).  1.5D runs at c = 2 (two
#: block rows, replicated prefetch) and at the degenerate c = 1 (four
#: block rows, single-member all-reduce groups).
VARIANTS = [
    pytest.param("1d", "oblivious", None, id="1d-oblivious"),
    pytest.param("1d", "sparsity_aware", None, id="1d-sparsity_aware"),
    pytest.param("1.5d", "oblivious", 2, id="1.5d-oblivious"),
    pytest.param("1.5d", "sparsity_aware", 2, id="1.5d-sparsity_aware"),
    pytest.param("1.5d", "oblivious", 1, id="1.5d-c1-oblivious"),
    pytest.param("1.5d", "sparsity_aware", 1, id="1.5d-c1-sparsity_aware"),
]


@pytest.fixture(scope="module")
def problem():
    adj = gcn_normalize(erdos_renyi_graph(N, avg_degree=6, seed=11))
    rng = np.random.default_rng(11)
    h_a = rng.normal(size=(N, F))
    h_b = rng.normal(size=(N, F))
    return adj, h_a, h_b


def _operands(algorithm, adj, dtype=np.float64, replication=2):
    """(matrix, grid, wrap(h) -> operand, unwrap(result) -> global)."""
    grid = ProcessGrid(P, replication) if algorithm == "1.5d" else None
    nblocks = grid.nrows if grid is not None else P
    dist = BlockRowDistribution.uniform(N, nblocks)
    matrix = DistSparseMatrix(adj, dist, dtype=dtype)
    return (matrix, grid,
            lambda h: DistDenseMatrix.from_global(h, dist, dtype=dtype),
            lambda z: z.to_global())


class TestCompiledMatchesUncompiled:
    """Bit-identity + repeated-call reuse on every (variant x backend)."""

    @pytest.mark.parametrize("algorithm,mode,replication", VARIANTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_and_no_stale_workspace(self, problem, algorithm,
                                                  mode, replication, backend):
        adj, h_a, h_b = problem
        matrix, grid, wrap, unwrap = _operands(algorithm, adj,
                                               replication=replication)
        sparsity_aware = mode == "sparsity_aware"

        # Reference: the uncompiled path, one fresh run per operand.
        with make_communicator(P, backend=backend) as comm:
            ref_a = unwrap(spmm(matrix, wrap(h_a), comm, algorithm=algorithm,
                                sparsity_aware=sparsity_aware, grid=grid))
            ref_b = unwrap(spmm(matrix, wrap(h_b), comm, algorithm=algorithm,
                                sparsity_aware=sparsity_aware, grid=grid))

        # Compiled: one plan, three calls (A, B, A again).
        with make_communicator(P, backend=backend) as comm:
            op = compile_spmm(matrix, comm,
                              algorithm=algorithm,
                              sparsity_aware=sparsity_aware, grid=grid)
            got_a = unwrap(op(wrap(h_a)))
            got_b = unwrap(op(wrap(h_b)))
            got_a2 = unwrap(op(wrap(h_a)))

        np.testing.assert_array_equal(got_a, ref_a)
        np.testing.assert_array_equal(got_b, ref_b)
        np.testing.assert_array_equal(got_a2, ref_a)

    @pytest.mark.parametrize("algorithm,mode,replication", VARIANTS)
    def test_same_event_stream_and_sim_timing(self, problem, algorithm, mode,
                                              replication):
        """Compiled and uncompiled runs charge the identical simulated time
        and communication volume — the plan only removes host-side work."""
        adj, h_a, _ = problem
        matrix, grid, wrap, _ = _operands(algorithm, adj,
                                          replication=replication)
        sparsity_aware = mode == "sparsity_aware"

        with make_communicator(P, backend="sim") as comm:
            spmm(matrix, wrap(h_a), comm, algorithm=algorithm,
                 sparsity_aware=sparsity_aware, grid=grid)
            spmm(matrix, wrap(h_a), comm, algorithm=algorithm,
                 sparsity_aware=sparsity_aware, grid=grid)
            t_ref = comm.elapsed()
            bytes_ref = comm.events.total_bytes()
            msgs_ref = comm.events.message_count()

        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(matrix, comm,
                              algorithm=algorithm,
                              sparsity_aware=sparsity_aware, grid=grid)
            op(wrap(h_a))
            op(wrap(h_a))
            assert comm.elapsed() == t_ref
            assert comm.events.total_bytes() == bytes_ref
            assert comm.events.message_count() == msgs_ref


class TestWorkspaceReuse:
    def test_output_workspace_is_reused_across_calls(self, problem):
        adj, h_a, h_b = problem
        matrix, _, wrap, _ = _operands("1d", adj)
        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(matrix, comm, algorithm="1d")
            z1 = op(wrap(h_a))
            blocks1 = [z1.block(i) for i in range(P)]
            z2 = op(wrap(h_b))
            for i in range(P):
                assert z2.block(i) is blocks1[i], \
                    "compiled operator must reuse its output workspace"
        assert op.calls == 2

    def test_result_is_a_view_until_next_call(self, problem):
        """The documented lifetime rule: a result is clobbered by the next
        call at any width, so epoch loops must consume (or copy) it
        first."""
        adj, h_a, h_b = problem
        matrix, _, wrap, _ = _operands("1d", adj)
        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(matrix, comm, algorithm="1d")
            z1 = op(wrap(h_a))
            kept = z1.to_global().copy()
            op(wrap(h_b[:, :F - 2]))
            assert not np.array_equal(z1.to_global(), kept), \
                "a narrower call is expected to overwrite the workspace"

    @pytest.mark.parametrize("algorithm,mode,replication", VARIANTS)
    def test_workspaces_grow_only_for_wider_operands(self, problem,
                                                     algorithm, mode,
                                                     replication):
        """One plan serves every width: the first call sizes the
        workspaces, only a wider operand regrows them, a narrower one
        runs in views of the same memory, and every result is
        C-contiguous and equal to the one-shot product."""
        adj, h_a, _ = problem
        matrix, grid, wrap, unwrap = _operands(algorithm, adj,
                                               replication=replication)
        sparsity_aware = mode == "sparsity_aware"
        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(matrix, comm, algorithm=algorithm,
                              sparsity_aware=sparsity_aware, grid=grid)
            assert (op.workspace_width, op.grows) == (0, 0)
            seen = []
            for width in (2, F, 3, F, 1):
                z = op(wrap(np.ascontiguousarray(h_a[:, :width])))
                assert all(b.flags.c_contiguous and b.shape[1] == width
                           for b in z.blocks)
                seen.append((op.workspace_width, op.grows))
                want = spmm(matrix, wrap(np.ascontiguousarray(
                    h_a[:, :width])), comm, algorithm=algorithm,
                    sparsity_aware=sparsity_aware, grid=grid)
                np.testing.assert_array_equal(unwrap(z), unwrap(want))
        assert seen == [(2, 1), (F, 2), (F, 2), (F, 2), (F, 2)]
        assert op.calls == 5

    def test_narrower_call_reuses_the_grown_memory(self, problem):
        adj, h_a, _ = problem
        matrix, _, wrap, _ = _operands("1d", adj)
        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(matrix, comm, algorithm="1d")
            wide = op(wrap(h_a)).blocks
            narrow = op(wrap(np.ascontiguousarray(h_a[:, :2]))).blocks
            flat = wide[0].base
            assert flat is not None and flat.ndim == 1
            assert all(b.base is flat for b in wide + narrow)

    def test_operand_validation(self, problem):
        """The width is free; dtype and distribution must match."""
        adj, h_a, _ = problem
        matrix, _, wrap, _ = _operands("1d", adj)
        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(matrix, comm, algorithm="1d")
            f32 = DistDenseMatrix.from_global(
                np.zeros((N, F), dtype=np.float32), matrix.dist,
                dtype=np.float32)
            with pytest.raises(ValueError, match="dtype"):
                op(f32)
            other = DistDenseMatrix.from_global(
                np.zeros((N, F)), BlockRowDistribution([N - 1, 1, 0, 0]))
            with pytest.raises(ValueError, match="distribution"):
                op(other)
            assert op.calls == 0 and comm.events.message_count() == 0

    def test_compile_defaults_and_repr(self, problem):
        adj, _, _ = problem
        matrix, _, _, _ = _operands("1d", adj)
        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(matrix, comm, algorithm="1d")
            assert isinstance(op, CompiledSpmm)
            assert op.dtype == np.float64
            assert op.algorithm == "1d"
            assert op.mode == "sparsity_aware"
            assert "workspace_width=0" in repr(op)

    def test_dtype_validation(self, problem):
        adj, _, _ = problem
        matrix, _, _, _ = _operands("1d", adj)
        with make_communicator(P, backend="sim") as comm:
            with pytest.raises(ValueError, match="floating"):
                compile_spmm(matrix, comm, dtype=np.int64)
            op = compile_spmm(matrix, comm, dtype="float32")
            assert op.dtype == np.float32

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("algorithm,mode,replication", VARIANTS)
    def test_failed_call_releases_its_operand(self, problem, algorithm,
                                              mode, replication, depth):
        """A call that dies mid-schedule keeps no reference to its
        operand (nor to any exchange result that aliases it)."""
        adj, h_a, _ = problem
        matrix, grid, wrap, _ = _operands(algorithm, adj,
                                          replication=replication)
        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(matrix, comm, algorithm=algorithm,
                              sparsity_aware=mode == "sparsity_aware",
                              grid=grid, pipeline_depth=depth)
            comm.inject_faults(FaultPlan.kill(rank=1, op_index=0))
            dense = wrap(h_a.copy())
            probe = weakref.ref(dense.block(0))
            try:
                op(dense)
            except WorkerFailure:
                pass
            else:
                pytest.fail("the injected kill did not fire")
            del dense
            gc.collect()
            assert probe() is None


class TestFloat32:
    @pytest.mark.parametrize("algorithm,mode,replication", VARIANTS)
    def test_float32_tolerance_and_dtype(self, problem, algorithm, mode,
                                         replication):
        adj, h_a, _ = problem
        sparsity_aware = mode == "sparsity_aware"
        m64, grid, wrap64, unwrap = _operands(algorithm, adj,
                                              replication=replication)
        m32, _, wrap32, _ = _operands(algorithm, adj, dtype=np.float32,
                                      replication=replication)
        with make_communicator(P, backend="sim") as comm:
            ref = unwrap(spmm(m64, wrap64(h_a), comm, algorithm=algorithm,
                              sparsity_aware=sparsity_aware, grid=grid))
        with make_communicator(P, backend="sim") as comm:
            op = compile_spmm(m32, comm, dtype=np.float32,
                              algorithm=algorithm,
                              sparsity_aware=sparsity_aware, grid=grid)
            got = unwrap(op(wrap32(h_a.astype(np.float32))))
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=2e-4, atol=2e-5)

    def test_float32_halves_exchanged_volume(self, problem):
        adj, h_a, _ = problem
        volumes = {}
        for dtype in (np.float64, np.float32):
            matrix, _, wrap, _ = _operands("1d", adj, dtype=dtype)
            with make_communicator(P, backend="sim") as comm:
                op = compile_spmm(matrix, comm, dtype=dtype,
                                  algorithm="1d")
                op(wrap(h_a.astype(dtype)))
                volumes[np.dtype(dtype).name] = comm.events.total_bytes()
        assert volumes["float64"] > 0
        assert volumes["float32"] * 2 == volumes["float64"]

    def test_float32_training_tracks_float64(self, problem):
        from repro.core import DistTrainConfig, train_distributed
        from repro.graphs import load_dataset
        ds = load_dataset("protein", scale=0.05, n_features=10, n_classes=3,
                          seed=3)
        losses = {}
        for dtype in ("float64", "float32"):
            cfg = DistTrainConfig(n_ranks=4, epochs=3, partitioner="gvb",
                                  dtype=dtype)
            result = train_distributed(ds, cfg, eval_every=0)
            losses[dtype] = np.array([h.loss for h in result.history])
            assert result.model.dtype == np.dtype(dtype)
        np.testing.assert_allclose(losses["float32"], losses["float64"],
                                   rtol=1e-4)


class TestDistGcnCompiledWiring:
    @staticmethod
    def _assert_one_plan_serves_the_schedule(cached: bool) -> None:
        from repro.core import (DistTrainConfig, epoch_spmm_widths,
                                setup_distributed)
        from repro.graphs import load_dataset
        ds = load_dataset("reddit", scale=0.05, n_features=12, n_classes=4,
                          seed=11)
        cfg = DistTrainConfig(n_ranks=4, epochs=1, partitioner=None,
                              cache_input_propagation=cached)
        setup = setup_distributed(ds, cfg)
        with setup.comm:
            model = setup.model
            op = model.compiled_op(0)
            dims = model.layer_dims
            assert all(model.compiled_op(w) is op for w in dims)
            # Compiling sized nothing: workspaces are allocated on use.
            assert (op.workspace_width, op.calls) == (0, 0)
            widths = epoch_spmm_widths(dims, cached)
            assert len(widths) == 2 * (len(dims) - 1) - (2 if cached else 0)
            model.train_epoch(0.05)
            calls = op.calls
            seen = []
            inner = model.spmm
            model.spmm = lambda dense: (seen.append(dense.width),
                                        inner(dense))[1]
            model.train_epoch(0.05)
            # Every SpMM of the epoch ran on the one plan, inside the
            # workspaces the first epoch grew to the schedule's widest
            # width (the A X panel width with the cache); the cached
            # schedule lists its widths in execution order.
            assert op.calls - calls == len(widths)
            if cached:
                assert seen == widths
            else:
                assert sorted(seen) == sorted(widths)
            assert op.workspace_width == max(widths)
            stats = model.plan_stats()
            assert stats == {"plan_hits": op.calls - op.grows,
                             "plan_misses": op.grows, "plans_retained": 1}
            assert stats["plan_misses"] >= 1

    def test_model_compiles_one_plan_for_every_width(self):
        """The trainer's default (A X kept): the cached schedule's widths
        and the A X panels all run on the one plan."""
        self._assert_one_plan_serves_the_schedule(cached=True)

    def test_paper_schedule_runs_every_layer_width_on_the_plan(self):
        """Recomputing A X every epoch propagates at every layer width,
        f_0 included, on the same plan."""
        self._assert_one_plan_serves_the_schedule(cached=False)

    def test_spmm_runs_any_width_on_the_plan(self):
        from repro.core import DistTrainConfig, setup_distributed
        from repro.graphs import load_dataset
        ds = load_dataset("reddit", scale=0.05, n_features=12, n_classes=4,
                          seed=11)
        cfg = DistTrainConfig(n_ranks=4, epochs=1, partitioner=None)
        setup = setup_distributed(ds, cfg)
        with setup.comm:
            model = setup.model
            op = model.compiled_op(0)
            odd_width = max(model.layer_dims) + 3
            ones = np.ones((model.dist.n, odd_width))
            z = model.spmm(DistDenseMatrix.from_global(ones, model.dist))
            assert z.width == odd_width
            assert (op.calls, op.workspace_width) == (1, odd_width)
            want = spmm(model.adjacency,
                        DistDenseMatrix.from_global(ones, model.dist),
                        setup.comm, algorithm=model.algorithm,
                        sparsity_aware=model.sparsity_aware).to_global()
            np.testing.assert_array_equal(z.to_global(), want)
            # Another dtype is the plan's operand error, not a fallback.
            f32 = DistDenseMatrix.from_global(ones, model.dist,
                                              dtype=np.float32)
            with pytest.raises(ValueError, match="compiled for dtype"):
                model.spmm(f32)
            assert op.calls == 1


class TestLazyFullBlocks:
    def test_sparsity_aware_never_materializes_full(self, problem):
        adj, h_a, _ = problem
        matrix, _, wrap, _ = _operands("1d", adj)
        stats = measure_dist_matrix_bytes(matrix)
        assert stats["full_blocks_materialized"] == 0
        assert stats["full_extra_bytes"] == 0
        with make_communicator(P, backend="sim") as comm:
            spmm(matrix, wrap(h_a), comm, algorithm="1d",
                 sparsity_aware=True)
        stats = measure_dist_matrix_bytes(matrix)
        assert stats["full_blocks_materialized"] == 0, \
            "the sparsity-aware path must never pay for full-width blocks"

    def test_oblivious_materializes_lazily_and_shares_buffers(self, problem):
        adj, h_a, _ = problem
        matrix, _, wrap, _ = _operands("1d", adj)
        before = measure_dist_matrix_bytes(matrix)
        with make_communicator(P, backend="sim") as comm:
            spmm(matrix, wrap(h_a), comm, algorithm="1d",
                 sparsity_aware=False)
        after = measure_dist_matrix_bytes(matrix)
        assert after["full_blocks_materialized"] > 0
        # The widened blocks share value/indptr buffers with the compacted
        # ones: the only extra cost is the remapped column-index array.
        extra = after["full_extra_bytes"]
        assert 0 < extra <= before["compact_bytes"]

    def test_full_equals_direct_slice(self, problem):
        import scipy.sparse as sp
        adj, _, _ = problem
        dist = BlockRowDistribution.uniform(N, P)
        matrix = DistSparseMatrix(adj, dist)
        for i in range(P):
            for j in range(P):
                info = matrix.block(i, j)
                lo, hi = dist.block_range(j)
                ilo, ihi = dist.block_range(i)
                direct = adj[ilo:ihi, lo:hi].toarray()
                np.testing.assert_array_equal(info.full.toarray(), direct)
                assert info.full.shape == (ihi - ilo, hi - lo)


class TestProcessPlanCache:
    def test_repeated_exchange_hits_cache_and_stays_correct(self):
        rng = np.random.default_rng(0)
        with make_communicator(3, backend="process") as comm:
            for round_ in range(4):
                send = [[rng.normal(size=(5, 2)) if i != j else None
                         for j in range(3)] for i in range(3)]
                recv = comm.alltoallv(send)
                for i in range(3):
                    for j in range(3):
                        if i != j:
                            np.testing.assert_array_equal(recv[i][j],
                                                          send[j][i])
                assert len(comm._plan_cache) == 1
                entry = next(iter(comm._plan_cache.values()))
                assert entry.primed
                if round_ == 0:
                    pid = entry.pid
                else:
                    assert entry.pid == pid, "same shape must reuse the plan"

    def test_arena_growth_invalidates_cached_plan(self):
        rng = np.random.default_rng(1)
        with make_communicator(2, backend="process") as comm:
            small = [[None, rng.normal(size=(4, 2))],
                     [rng.normal(size=(4, 2)), None]]
            comm.alltoallv(small)
            assert len(comm._plan_cache) == 1
            # A much larger same-collective payload forces the send arenas
            # to regrow, which must purge the stale small-shape plan.
            big = [[None, rng.normal(size=(4096, 8))],
                   [rng.normal(size=(4096, 8)), None]]
            recv = comm.alltoallv(big)
            np.testing.assert_array_equal(recv[0][1], big[1][0])
            # And the small shape still round-trips after re-planning.
            recv = comm.alltoallv(small)
            np.testing.assert_array_equal(recv[1][0], small[0][1])

    def test_broadcast_and_allreduce_replay(self):
        rng = np.random.default_rng(2)
        with make_communicator(3, backend="process") as comm:
            for _ in range(3):
                value = rng.normal(size=(7, 3))
                out = comm.broadcast(value.copy(), root=1)
                for z in out:
                    np.testing.assert_array_equal(z, value)
                arrays = [rng.normal(size=(6,)) for _ in range(3)]
                red = comm.allreduce([a.copy() for a in arrays])
                expected = np.stack(arrays).sum(axis=0)
                for z in red:
                    np.testing.assert_array_equal(z, expected)
            assert {k[0] for k in comm._plan_cache} == {"bc", "ar"}

    def test_allgather_and_reduce_replay(self):
        rng = np.random.default_rng(3)
        with make_communicator(3, backend="process") as comm:
            hits = []
            for _ in range(3):
                arrays = [rng.normal(size=(4, 2)) for _ in range(3)]
                out = comm.allgather([a.copy() for a in arrays])
                for i in range(3):
                    for j in range(3):
                        np.testing.assert_array_equal(out[i][j], arrays[j])
                red = comm.reduce([a.copy() for a in arrays], root=2)
                np.testing.assert_array_equal(red[2],
                                              np.stack(arrays).sum(axis=0))
                hits.append(comm.cache_stats()["hits"])
            tags = [k[0] for k in comm._plan_cache]
            assert sorted(tags) == ["ag", "red"]
            assert hits[0] < hits[1] < hits[2]

    @pytest.mark.parametrize("method", [
        "alltoallv", "ialltoallv", "broadcast", "ibroadcast", "allgather",
        "exchange", "iexchange"])
    def test_copied_bytes_equal_logged_bytes(self, method):
        """The bytes a step's worker copies move are exactly the bytes the
        EventLog records for the call."""
        rng = np.random.default_rng(4)
        operands = {
            "alltoallv": lambda: ([[
                None if i == j else rng.normal(size=(i + j, 3))
                for j in range(4)] for i in range(4)],),
            "broadcast": lambda: (rng.normal(size=(5, 7)), 2),
            "allgather": lambda: ([rng.normal(size=(i + 1, 2))
                                   for i in range(4)],),
            "exchange": lambda: ([
                (0, 3, rng.normal(size=6)), (2, 1, rng.normal(size=(2, 2))),
                (3, 0, rng.integers(0, 9, size=5)),
                (1, 1, rng.normal(size=4))],),
        }[method.removeprefix("i")]
        with make_communicator(4, backend="process") as comm:
            for _ in range(2):               # a miss, then a replay
                before = comm.events.total_bytes()
                out = getattr(comm, method)(*operands())
                if method.startswith("i"):
                    out.wait()
                logged = comm.events.total_bytes() - before
                entry = next(reversed(comm._plan_cache.values()))
                copied = sum(copy[2] for plan in entry.plans
                             for copy in plan["copies"])
                assert copied == logged > 0

    def test_cache_is_bounded(self):
        from repro.comm.process import MAX_CACHED_PLANS
        with make_communicator(2, backend="process") as comm:
            for k in range(MAX_CACHED_PLANS + 8):
                comm.broadcast(np.ones(k + 1), root=0)
            assert len(comm._plan_cache) <= MAX_CACHED_PLANS

    def test_compiled_epoch_on_process_backend(self, problem):
        """End to end: a compiled operator driving the process backend's
        replay fast path repeatedly stays bit-identical to sim."""
        adj, h_a, h_b = problem
        matrix, _, wrap, unwrap = _operands("1d", adj)
        with make_communicator(P, backend="sim") as comm:
            ref_op = compile_spmm(matrix, comm, algorithm="1d")
            refs = [unwrap(ref_op(wrap(h))) for h in (h_a, h_b, h_a)]
        with make_communicator(P, backend="process") as comm:
            op = compile_spmm(matrix, comm, algorithm="1d")
            got = [unwrap(op(wrap(h))) for h in (h_a, h_b, h_a)]
            a2a_entries = [k for k in comm._plan_cache if k[0] == "a2a"]
            assert len(a2a_entries) == 1, \
                "all epochs must share one cached exchange plan"
        for g, r in zip(got, refs):
            np.testing.assert_array_equal(g, r)
