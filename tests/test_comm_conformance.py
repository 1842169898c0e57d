"""Cross-backend conformance matrix: contract suite × property layer.

Part 1 drives every check registered in :mod:`comm_conformance` against
every backend in ``CONFORMANT_BACKENDS`` (sim, threaded, process) — the
full collective/topology/accounting/lifecycle contract.

Part 2 is the randomized equivalence net: Hypothesis generates sparse
matrices (arbitrary sparsity patterns, including empty and dense-ish
ones), feature widths, block counts and rank counts, and every registered
(algorithm × sparsity-mode) SpMM variant must produce **bitwise
identical** ``Z = M H`` on all three backends — plus a direct property
asserting the collectives themselves return bit-identical payloads.

Run standalone with ``pytest -m conformance``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import comm_conformance as cc
from repro.comm import make_communicator
from repro.comm.process import ProcessPoolCommunicator
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, ProcessGrid, spmm)
from repro.core.engine import compile as compile_spmm

pytestmark = pytest.mark.conformance

SETTINGS = dict(max_examples=8, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Part 1: the contract suite, parametrized over (backend, check)
# ----------------------------------------------------------------------
@pytest.fixture(params=cc.CONFORMANT_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture()
def make(backend):
    """Factory for tracked communicators of the backend under test."""
    created = []

    def factory(nranks=4, **kwargs):
        comm = make_communicator(nranks, backend=backend, **kwargs)
        created.append(comm)
        return comm

    yield factory
    for comm in created:
        comm.close()


@pytest.mark.parametrize("check", sorted(cc.CONTRACT_CHECKS))
def test_contract(make, check):
    cc.CONTRACT_CHECKS[check](make)


def test_registry_covers_all_backends():
    """Every factory-registered backend is in the proof net: registering a
    new backend without adding it to CONFORMANT_BACKENDS fails here."""
    from repro.comm import available_backends
    assert set(available_backends()) == set(cc.CONFORMANT_BACKENDS)
    assert len(cc.CONTRACT_CHECKS) >= 20


class TestProcessBackendSpecifics:
    """Properties only the multi-process backend guarantees."""

    def test_workers_are_distinct_processes(self):
        import os
        with make_communicator(3, backend="process") as comm:
            comm.broadcast(np.ones(4), root=0)
            pids = {p.pid for p in comm._procs}
            assert len(pids) == 3
            assert os.getpid() not in pids

    def test_delivered_payloads_are_reconstructed_from_bytes(self):
        """No aliasing can survive a process boundary: received arrays own
        fresh memory, so mutating them cannot corrupt the sender."""
        with make_communicator(3, backend="process") as comm:
            value = np.arange(6.0)
            out = comm.broadcast(value, root=0)
            out[1][:] = -1.0
            assert value[0] == 0.0
            assert out[1].base is None

    def test_close_releases_shared_memory(self):
        from multiprocessing import shared_memory
        comm = make_communicator(3, backend="process")
        comm.allreduce([np.ones(16)] * 3)
        names = [a.shm.name for a in comm._arenas.values()]
        assert names, "collective must have staged shared-memory arenas"
        comm.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_joins_workers(self):
        comm = make_communicator(2, backend="process")
        comm.barrier()
        procs = list(comm._procs)
        comm.close()
        assert all(not p.is_alive() for p in procs)
        assert comm._procs is None

    def test_worker_failure_reports_traceback_and_recovers(self):
        with make_communicator(2, backend="process") as comm:
            comm.allreduce([np.ones(4)] * 2)
            comm.iallreduce([np.ones(4)] * 2).wait()
            # Sabotage: a plan referencing a nonexistent generation of
            # rank 0's blocking and nonblocking send arenas makes the
            # worker raise; the traceback must surface in the driver and
            # the worker must stay usable afterwards.
            for kind in ("send", "send0"):
                with pytest.raises(RuntimeError, match="worker failed"):
                    comm._run_step(
                        [0, 1],
                        [comm._plan([(0, kind, "rprnope", 10**9)]),
                         comm._plan(())],
                        "test")
            # Distinct per-rank operands: a reduction that read a closed
            # (or freshly allocated) arena instead of rank 0's payload
            # cannot pass by accident.
            operands = [np.full(4, 7.0), np.full(4, 11.0)]
            for out in (comm.allreduce(operands),
                        comm.iallreduce(operands).wait()):
                for got in out:
                    np.testing.assert_array_equal(got, np.full(4, 18.0))

    def test_timeout_is_configurable(self):
        with pytest.raises(ValueError):
            ProcessPoolCommunicator(2, timeout_s=0.0)
        comm = ProcessPoolCommunicator(2, timeout_s=123.0, machine="laptop")
        try:
            assert comm.timeout_s == 123.0
        finally:
            comm.close()

    def test_close_with_inflight_handle_releases_shared_memory(self):
        """Interrupting a run with a collective in flight must not leak
        shm segments: close() drains the handle (its result stays
        readable) and unlinks every arena, including the nonblocking
        slot arenas."""
        from multiprocessing import shared_memory
        comm = make_communicator(3, backend="process")
        value = np.arange(32.0)
        handle = comm.ibroadcast(value, root=0)
        names = [a.shm.name for a in comm._arenas.values()]
        assert names, "the posted collective must have staged arenas"
        comm.close()
        out = handle.wait()
        np.testing.assert_array_equal(out[2], value)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_nonblocking_uses_second_arena_slot(self):
        """Nonblocking collectives stream through dedicated slot arenas
        (kinds 'send0'/'recv0'/'send1'/'recv1'), so an in-flight payload
        can never be clobbered by the next blocking collective's staging."""
        with make_communicator(2, backend="process") as comm:
            handle = comm.ibroadcast(np.arange(8.0), root=0)
            kinds = {kind for _, kind in comm._arenas}
            assert {"send0", "recv0"} <= kinds
            # A blocking collective while the handle is in flight stages
            # into the separate blocking arenas and drains the handle's
            # responses first (queue lockstep).
            out = comm.allreduce([np.full(4, 1.0)] * 2)
            np.testing.assert_array_equal(out[0], np.full(4, 2.0))
            np.testing.assert_array_equal(handle.wait()[1], np.arange(8.0))
            kinds = {kind for _, kind in comm._arenas}
            assert {"send", "recv"} <= kinds
            # The slots alternate: a second nonblocking op claims slot 1.
            comm.ibroadcast(np.arange(8.0), root=1).wait()
            kinds = {kind for _, kind in comm._arenas}
            assert {"send1", "recv1"} <= kinds

    def test_rejected_post_keeps_the_slot_parity(self):
        """A post that fails validation claims no nonblocking arena slot:
        the slot toggle, the in-flight handle and the event log stay as
        they were, so the next valid post still streams through the free
        slot instead of waiting out the in-flight one."""
        with make_communicator(2, backend="process") as comm:
            send = [[None, np.arange(4.0)], [np.ones(3), None]]
            first = comm.ialltoallv(send)
            before = (comm._nb_slot, list(comm._nb_handles), len(comm.events))
            with pytest.raises(ValueError):
                comm.ialltoallv([[None, None]])     # one row for two ranks
            assert (comm._nb_slot, comm._nb_handles,
                    len(comm.events)) == before
            assert not first.done
            second = comm.ialltoallv(send)
            assert not first.done, "the next post waited out the first"
            for handle in (first, second):
                recv = handle.wait()
                np.testing.assert_array_equal(recv[1][0], np.arange(4.0))
                np.testing.assert_array_equal(recv[0][1], np.ones(3))

    def test_lost_worker_closes_communicator(self):
        """A watchdog timeout leaves no chance of pairing the lost
        worker's late response with a later collective: the communicator
        is closed and further use fails loudly."""
        import os
        import signal
        comm = ProcessPoolCommunicator(2, timeout_s=0.3)
        comm.barrier()
        # A stopped worker is alive but never answers: the barrier runs
        # far past the driver's 0.3 s watchdog.
        stuck = comm._procs[1]
        os.kill(stuck.pid, signal.SIGSTOP)
        try:
            with pytest.raises(RuntimeError, match="did not finish"):
                comm.barrier()
            with pytest.raises(RuntimeError, match="closed"):
                comm.allreduce([np.ones(2)] * 2)
        finally:
            if stuck.is_alive():
                os.kill(stuck.pid, signal.SIGCONT)
        comm.close()  # still idempotent after the automatic close


# ----------------------------------------------------------------------
# Part 2: randomized SpMM equivalence properties
# ----------------------------------------------------------------------
@st.composite
def spmm_problem(draw, min_n=8, max_n=36):
    """A random symmetric sparse matrix, a dense operand, and the seeded
    width sequence one compiled plan is driven through: first use, a
    wider call (a regrow), a narrower one and a repeat of the widest."""
    return _problem(draw(st.integers(min_value=min_n, max_value=max_n)),
                    draw(st.floats(min_value=0.0, max_value=0.35)),
                    draw(st.integers(min_value=1, max_value=8)),
                    draw(st.integers(min_value=0, max_value=2**31 - 1)))


def _problem(n, density, f, seed):
    """The :func:`spmm_problem` draw for fixed parameters."""
    rng = np.random.default_rng(seed)
    mat = sp.random(n, n, density=density, random_state=rng, format="csr")
    mat = mat + mat.T
    mat.setdiag(0)
    mat.eliminate_zeros()
    wide = f + int(rng.integers(1, 5))
    widths = (f, wide, int(rng.integers(1, wide)), wide)
    h = rng.normal(size=(n, wide))
    return mat.tocsr().astype(np.float64), h, widths


def _sim_accounting(matrix, operands, grid, algorithm, mode, p, compiled):
    """``(events, clocks, breakdown)`` of running ``operands`` in order on
    a fresh simulator, uncompiled or through one compiled plan."""
    with make_communicator(p, backend="sim") as comm:
        variant = dict(algorithm=algorithm, grid=grid,
                       sparsity_aware=(mode == "sparsity_aware"))
        run = compile_spmm(matrix, comm, **variant) if compiled else \
            (lambda x: spmm(matrix, x, comm, **variant))
        for x in operands:
            run(x)
        return list(comm.events), comm.timeline.clocks.copy(), \
            comm.breakdown()


def _run_all_backends(matrix, wrap, h, widths, grid, algorithm, mode, p):
    """Run one variant on every conformant backend; return
    ``{backend: [Z at each width]}``.

    Each backend runs the uncompiled path once per width, then drives one
    compiled plan through the whole width sequence — synchronously and
    double-buffered (``pipeline_depth=2``: staged exchanges prefetched
    with nonblocking collectives).  Every compiled call must be bitwise
    identical to the uncompiled one on the same backend, whether it first
    sized the plan's workspaces, regrew them, or ran narrower inside
    them; on the simulator the compiled sequence must also leave the
    identical event log, clocks and charge breakdown.  That closes the
    (variant x backend x pipelining x width history) compiled-equivalence
    matrix over randomized inputs.
    """
    operands = [wrap(np.ascontiguousarray(h[:, :w])) for w in widths]
    results = {}
    for backend in cc.CONFORMANT_BACKENDS:
        comm = make_communicator(p, backend=backend)
        try:
            variant = dict(algorithm=algorithm, grid=grid,
                           sparsity_aware=(mode == "sparsity_aware"))
            ref = [spmm(matrix, x, comm, **variant).to_global()
                   for x in operands]
            for depth in (1, 2):
                op = compile_spmm(matrix, comm, pipeline_depth=depth,
                                  **variant)
                for call, (x, want) in enumerate(zip(operands, ref)):
                    np.testing.assert_array_equal(
                        op(x).to_global(), want,
                        err_msg=f"compiled {algorithm}/{mode} depth {depth} "
                                f"call {call} of widths {widths} diverged "
                                f"from uncompiled on {backend!r}")
                assert (op.workspace_width, op.grows) == (max(widths), 2)
        finally:
            comm.close()
        results[backend] = ref
    ref_events, ref_clocks, ref_breakdown = _sim_accounting(
        matrix, operands, grid, algorithm, mode, p, compiled=False)
    events, clocks, breakdown = _sim_accounting(
        matrix, operands, grid, algorithm, mode, p, compiled=True)
    assert events == ref_events
    np.testing.assert_array_equal(clocks, ref_clocks)
    assert breakdown == ref_breakdown
    return results


def _assert_bit_identical(results, adj, h, widths):
    baseline = results["sim"]
    for w, z in zip(widths, baseline):
        np.testing.assert_allclose(z, adj @ h[:, :w], atol=1e-10)
    for backend, zs in results.items():
        for z, want in zip(zs, baseline):
            np.testing.assert_array_equal(
                z, want, err_msg=f"backend {backend!r} diverged from sim "
                                 f"bitwise")


class TestCrossBackendSpmmProperties:
    @given(problem=spmm_problem(), p=st.integers(min_value=1, max_value=4),
           mode=st.sampled_from(["oblivious", "sparsity_aware"]))
    @settings(**SETTINGS)
    def test_1d_bit_identical(self, problem, p, mode):
        adj, h, widths = problem
        dist = BlockRowDistribution.uniform(adj.shape[0], p)
        results = _run_all_backends(
            DistSparseMatrix(adj, dist),
            lambda x: DistDenseMatrix.from_global(x, dist), h, widths,
            None, "1d", mode, p)
        _assert_bit_identical(results, adj, h, widths)

    @example(problem=_problem(24, 0.2, 3, 5), pc=(8, 2), mode="oblivious")
    @example(problem=_problem(24, 0.2, 3, 5), pc=(8, 2),
             mode="sparsity_aware")
    @given(problem=spmm_problem(),
           pc=st.sampled_from([(4, 1), (4, 2), (8, 2)]),
           mode=st.sampled_from(["oblivious", "sparsity_aware"]))
    @settings(**SETTINGS)
    def test_15d_bit_identical(self, problem, pc, mode):
        """(8, 2) is the grid where replicated prefetch runs: s = 2
        stages, so depth 2 pipelines the sparsity-aware exchanges at
        c > 1 and gives the broadcast schedule (4 entries) a window of 2
        shorter than itself.  At (4, 2), s = 1 and every SA stage runs
        blocking."""
        adj, h, widths = problem
        p, c = pc
        grid = ProcessGrid(p, c)
        dist = BlockRowDistribution.uniform(adj.shape[0], grid.nrows)
        results = _run_all_backends(
            DistSparseMatrix(adj, dist),
            lambda x: DistDenseMatrix.from_global(x, dist), h, widths,
            grid, "1.5d", mode, p)
        _assert_bit_identical(results, adj, h, widths)


class TestCrossBackendCollectiveProperties:
    """The collectives themselves return bit-identical payloads."""

    @given(p=st.integers(min_value=2, max_value=4),
           shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
           op=st.sampled_from(["sum", "max", "min"]),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_allreduce_bitwise_equal(self, p, shape, op, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=shape) for _ in range(p)]
        reference = None
        for backend in cc.CONFORMANT_BACKENDS:
            with make_communicator(p, backend=backend) as comm:
                out = comm.allreduce([a.copy() for a in arrays], op=op)
            if reference is None:
                reference = out
            else:
                for got, want in zip(out, reference):
                    np.testing.assert_array_equal(got, want)

    @given(p=st.integers(min_value=2, max_value=4),
           n=st.integers(min_value=0, max_value=40),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_alltoallv_bitwise_equal(self, p, n, seed):
        rng = np.random.default_rng(seed)
        send = [[rng.normal(size=rng.integers(0, n + 1)) if i != j else None
                 for j in range(p)] for i in range(p)]
        reference = None
        for backend in cc.CONFORMANT_BACKENDS:
            with make_communicator(p, backend=backend) as comm:
                recv = comm.alltoallv([[None if a is None else a.copy()
                                        for a in row] for row in send])
            if reference is None:
                reference = recv
            else:
                for i in range(p):
                    for j in range(p):
                        if i != j and send[j][i] is not None:
                            np.testing.assert_array_equal(recv[i][j],
                                                          reference[i][j])
