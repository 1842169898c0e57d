"""Tests for the abstract Communicator contract (repro.comm.base).

A :class:`FakeCommunicator` implements the ABC with pure data passthrough
while recording every call and its payload volume; running the real SpMM
algorithms against it asserts the *call sequences* and *byte volumes* the
paper's algorithms are supposed to produce, independent of any backend's
timing model.
"""

import numpy as np
import pytest

from repro.comm import Communicator, available_backends, make_communicator
from repro.comm.base import payload_nbytes, reduce_stack
from repro.comm.threaded import ThreadedCommunicator
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, spmm)
from repro.graphs import gcn_normalize
from repro.graphs.generators import erdos_renyi_graph


class FakeCommunicator(Communicator):
    """Minimal ABC implementation recording (op, category, nbytes) calls."""

    backend_name = "fake"

    def __init__(self, nranks):
        super().__init__(nranks)
        self.calls = []

    # -- recording helpers -------------------------------------------------
    def _log(self, op, category, nbytes):
        self.calls.append((op, category, int(nbytes)))

    def ops(self, *names):
        return [c for c in self.calls if c[0] in names]

    # -- accounting hooks (record instead of charging clocks) --------------
    def charge_spmm(self, rank, flops, category="local"):
        self._log("charge_spmm", category, 0)
        return 0.0

    def charge_elementwise(self, rank, nelements, category="local"):
        self._log("charge_elementwise", category, 0)
        return 0.0

    # -- collectives: passthrough with simulator-compatible semantics ------
    def _collective(self, lower, blocking, category, *args):
        return lower(category, *args)

    def _lower_alltoallv(self, category, send, group):
        p = len(group)
        volume = sum(payload_nbytes(send[i][j])
                     for i in range(p) for j in range(p) if i != j)
        self._log("alltoallv", category, volume)
        return [[send[j][i] for j in range(p)] for i in range(p)]

    def _lower_broadcast(self, category, value, root, group):
        self._log("broadcast", category,
                  payload_nbytes(value) * (len(group) - 1))
        return [value if r == root else np.array(value, copy=True)
                for r in group]

    def _lower_allreduce(self, category, arrays, group, op):
        self._log("allreduce", category, payload_nbytes(arrays[0]))
        result = reduce_stack(arrays, op)
        return [result.copy() if i > 0 else result
                for i in range(len(group))]

    def _lower_allgather(self, category, arrays, group):
        p = len(group)
        self._log("allgather", category,
                  sum(payload_nbytes(a) for a in arrays) * (p - 1))
        return [[np.array(arrays[j], copy=True) if j != i else arrays[i]
                 for j in range(p)] for i in range(p)]

    def _lower_reduce(self, category, arrays, root, group, op):
        self._log("reduce", category, payload_nbytes(arrays[0]))
        result = reduce_stack(arrays, op, force_float64=True)
        return [result if r == root else None for r in group]

    def _lower_exchange(self, category, messages, sync):
        volume = sum(payload_nbytes(p) for s, d, p in messages if s != d)
        self._log("exchange", category, volume)
        return {(s, d): p for s, d, p in messages}


def make_problem(n=40, p=4, f=5, seed=0):
    adj = gcn_normalize(erdos_renyi_graph(n, avg_degree=5, seed=seed))
    dist = BlockRowDistribution.uniform(n, p)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, f))
    return (adj, DistSparseMatrix(adj, dist),
            DistDenseMatrix.from_global(h, dist), h)


class TestAbstractContract:
    def test_abc_cannot_be_instantiated(self):
        with pytest.raises(TypeError):
            Communicator(4)

    def test_partial_implementation_rejected(self):
        class Partial(Communicator):
            def _lower_broadcast(self, category, value, root, group):
                return [value]

        with pytest.raises(TypeError):
            Partial(2)

    def test_base_owns_the_collective_front_end(self):
        """The ten public collectives are defined on Communicator and
        nowhere else; a backend writes one lowering per collective plus
        the runner, and nothing more is abstract."""
        from repro.comm.factory import BACKENDS
        public = {"alltoallv", "broadcast", "allreduce", "allgather",
                  "reduce", "exchange", "ialltoallv", "ibroadcast",
                  "iallreduce", "iexchange"}
        assert public <= set(vars(Communicator))
        for name in available_backends():
            cls = BACKENDS[name]
            below_base = cls.__mro__[:cls.__mro__.index(Communicator)]
            for klass in below_base:
                assert not public & set(vars(klass)), (name, klass)
        assert Communicator.__abstractmethods__ == {
            "_collective", "_lower_alltoallv", "_lower_broadcast",
            "_lower_allreduce", "_lower_allgather", "_lower_reduce",
            "_lower_exchange"}

    def test_real_backends_share_one_lowering(self):
        """threaded and process run StepLowering's six lowerings; only the
        simulator (it prices collectives) keeps lowerings of its own."""
        import inspect

        import repro.comm
        from repro.comm.lowering import StepLowering
        from repro.comm.process import ProcessPoolCommunicator
        from repro.comm.simulator import SimCommunicator
        lowerings = sorted(n for n in vars(Communicator)
                           if n.startswith("_lower_"))
        assert len(lowerings) == 6
        for cls in (ThreadedCommunicator, ProcessPoolCommunicator):
            for name in lowerings:
                assert getattr(cls, name) is vars(StepLowering)[name], \
                    (cls.__name__, name)
        modules = [m for n, m in vars(repro.comm).items()
                   if inspect.ismodule(m)
                   and m.__name__.startswith("repro.comm.")]
        assert {m.__name__.rsplit(".", 1)[1] for m in modules} >= {
            "base", "lowering", "process", "simulator", "threaded"}
        owners = {cls for m in modules for _, cls in inspect.getmembers(
                      m, inspect.isclass)
                  if issubclass(cls, Communicator) and cls is not Communicator
                  and any(n.startswith("_lower_") for n in vars(cls))}
        assert owners == {SimCommunicator, StepLowering}

    def test_fake_satisfies_the_abc(self):
        comm = FakeCommunicator(4)
        assert isinstance(comm, Communicator)
        assert comm.nranks == 4
        assert list(comm.ranks()) == [0, 1, 2, 3]

    def test_invalid_nranks_rejected(self):
        with pytest.raises(ValueError):
            FakeCommunicator(0)

    def test_resolve_ranks_validation(self):
        comm = FakeCommunicator(4)
        assert comm._resolve_ranks(None) == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            comm._resolve_ranks([0, 0])
        with pytest.raises(ValueError):
            comm._resolve_ranks([5])

    def test_default_charges_are_noops(self):
        class OnlyCollectives(FakeCommunicator):
            charge_spmm = Communicator.charge_spmm
            charge_elementwise = Communicator.charge_elementwise

        comm = OnlyCollectives(2)
        assert comm.charge_spmm(0, 1e6) == 0.0
        assert comm.charge_gemm(0, 1e6) == 0.0
        assert comm.charge_elementwise(1, 10) == 0.0
        assert comm.charge_seconds(1, 0.5) == 0.0
        assert comm.elapsed() == 0.0

    def test_parallel_for_runs_tasks_in_rank_order(self):
        comm = FakeCommunicator(3)
        order = []
        comm.parallel_for([lambda i=i: order.append(i) for i in range(3)])
        assert order == [0, 1, 2]

    def test_parallel_for_validates_task_count(self):
        comm = FakeCommunicator(3)
        with pytest.raises(ValueError):
            comm.parallel_for([lambda: None], ranks=[0, 1])


class TestPayloadNbytes:
    def test_none_is_free(self):
        assert payload_nbytes(None) == 0

    def test_array_bytes(self):
        assert payload_nbytes(np.zeros((3, 4))) == 3 * 4 * 8

    def test_scalar_and_list(self):
        assert payload_nbytes(np.float64(1.0)) == 8
        assert payload_nbytes([1, 2, 3]) > 0


class TestReduceStack:
    def test_sum_matches_numpy(self):
        arrays = [np.arange(6.0).reshape(2, 3) * k for k in range(4)]
        np.testing.assert_array_equal(reduce_stack(arrays, "sum"),
                                      np.stack(arrays).sum(axis=0))

    def test_unsupported_op(self):
        with pytest.raises(ValueError):
            reduce_stack([np.zeros(2)], "prod")


class TestCallSequences:
    """The paper's algorithms drive the expected collective sequences."""

    def test_oblivious_1d_is_p_broadcasts(self):
        _, dm, dh, _ = make_problem(p=4)
        comm = FakeCommunicator(4)
        spmm(dm, dh, comm, sparsity_aware=False)
        collectives = comm.ops("broadcast", "alltoallv", "exchange")
        assert [c[0] for c in collectives] == ["broadcast"] * 4
        assert all(c[1] == "bcast" for c in collectives)

    def test_sparsity_aware_1d_is_one_alltoallv(self):
        _, dm, dh, _ = make_problem(p=4)
        comm = FakeCommunicator(4)
        spmm(dm, dh, comm)
        collectives = comm.ops("broadcast", "alltoallv", "exchange")
        assert [c[0] for c in collectives] == ["alltoallv"]
        assert collectives[0][1] == "alltoall"
        # Packing happens before the exchange, multiplies after it.
        kinds = [c[0] for c in comm.calls]
        first_mult = kinds.index("charge_spmm")
        assert kinds.index("alltoallv") < first_mult
        assert all(k != "charge_elementwise"
                   for k in kinds[kinds.index("alltoallv"):])

    def test_recorded_alltoallv_volume_matches_nnzcols(self):
        _, dm, dh, _ = make_problem(p=4, f=5)
        comm = FakeCommunicator(4)
        spmm(dm, dh, comm)
        expected = 8 * 5 * sum(
            dm.nnz_cols(i, j).size
            for i in range(4) for j in range(4) if i != j)
        (_, _, volume), = comm.ops("alltoallv")
        assert volume == expected

    def test_broadcast_volume_dominates_sparsity_aware(self):
        """Oblivious moves >= the sparsity-aware volume (paper Sec. 4)."""
        _, dm, dh, _ = make_problem(p=4, f=5)
        fake_ob, fake_sa = FakeCommunicator(4), FakeCommunicator(4)
        spmm(dm, dh, fake_ob, sparsity_aware=False)
        spmm(dm, dh, fake_sa)
        vol_ob = sum(c[2] for c in fake_ob.ops("broadcast"))
        vol_sa = sum(c[2] for c in fake_sa.ops("alltoallv"))
        assert vol_ob >= vol_sa

    def test_results_identical_to_real_backends(self):
        adj, dm, dh, h = make_problem(p=4)
        z_fake = spmm(dm, dh, FakeCommunicator(4))
        z_sim = spmm(dm, dh, make_communicator(4))
        np.testing.assert_array_equal(z_fake.to_global(), z_sim.to_global())
        np.testing.assert_allclose(z_fake.to_global(), adj @ h, atol=1e-10)


class TestFactory:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "sim" in names and "threaded" in names

    def test_backends_table_is_the_three_shipped_backends(self):
        """``BACKENDS`` is a fixed table: each shipped name maps to its
        communicator class and nothing else is listed."""
        from repro.comm.factory import BACKENDS
        from repro.comm.process import ProcessPoolCommunicator
        from repro.comm.simulator import SimCommunicator
        assert BACKENDS == {"sim": SimCommunicator,
                            "threaded": ThreadedCommunicator,
                            "process": ProcessPoolCommunicator}
        assert available_backends() == sorted(BACKENDS)

    def test_make_sim(self):
        comm = make_communicator(4, backend="sim", machine="laptop")
        assert isinstance(comm, Communicator)
        assert comm.backend_name == "sim"
        assert type(comm).__name__ == "SimCommunicator"
        assert comm.machine.name == "laptop"

    def test_make_threaded_accepts_machine_kwarg(self):
        comm = make_communicator(2, backend="threaded", machine="laptop")
        try:
            assert isinstance(comm, ThreadedCommunicator)
            assert comm.backend_name == "threaded"
        finally:
            comm.close()

    def test_unknown_backend_lists_alternatives(self):
        with pytest.raises(ValueError, match="sim"):
            make_communicator(2, backend="carrier-pigeon")

    def test_config_rejects_unknown_backend(self):
        from repro.core import DistTrainConfig
        with pytest.raises(ValueError, match="backend"):
            DistTrainConfig(backend="nope")


class TestThreadedBackendContract:
    """The real backend honours the same contract as the simulator."""

    @pytest.fixture()
    def comm(self):
        comm = ThreadedCommunicator(4)
        yield comm
        comm.close()

    def test_broadcast_values_and_copies(self, comm):
        value = np.arange(6.0).reshape(2, 3)
        out = comm.broadcast(value, root=1)
        assert out[1] is value
        for i in (0, 2, 3):
            np.testing.assert_array_equal(out[i], value)
            assert out[i] is not value

    def test_allreduce_matches_sim_bitwise(self, comm):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=(5, 2)) for _ in range(4)]
        sim = make_communicator(4, backend="sim")
        got = comm.allreduce([a.copy() for a in arrays])
        want = sim.allreduce([a.copy() for a in arrays])
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_alltoallv_delivers_transpose(self, comm):
        send = [[np.full((1, 1), 10 * i + j) if i != j else None
                 for j in range(4)] for i in range(4)]
        recv = comm.alltoallv(send)
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert recv[i][j] is None
                else:
                    assert recv[i][j][0, 0] == 10 * j + i

    def test_exchange_and_events(self, comm):
        msgs = [(0, 1, np.ones(3)), (2, 3, np.ones(5)), (1, 1, np.ones(2))]
        delivered = comm.exchange(msgs)
        assert set(delivered) == {(0, 1), (2, 3), (1, 1)}
        # Only the two off-diagonal messages are recorded as traffic.
        assert comm.events.message_count() == 2
        assert comm.events.total_bytes() == 8 * (3 + 5)

    def test_parallel_for_runs_on_worker_threads(self, comm):
        import threading
        seen = {}

        def make(i):
            def task():
                seen[i] = threading.current_thread().name
            return task

        comm.parallel_for([make(i) for i in range(4)])
        assert sorted(seen) == [0, 1, 2, 3]
        assert len(set(seen.values())) == 4
        assert all(name.startswith("comm-rank-") for name in seen.values())

    def test_worker_exception_propagates(self, comm):
        def boom():
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            comm.parallel_for([boom] + [lambda: None] * 3)

    def test_wall_clock_timeline_advances(self, comm):
        comm.parallel_for([lambda: None] * 4)
        comm.broadcast(np.ones(4), root=0)
        assert comm.elapsed() > 0.0
        assert "bcast" in comm.breakdown()

    def test_timeout_is_configurable(self):
        import time
        comm = ThreadedCommunicator(2, timeout_s=0.2)
        try:
            with pytest.raises(RuntimeError, match="did not finish"):
                comm.parallel_for([lambda: time.sleep(1.0), lambda: None])
        finally:
            comm.close()
        with pytest.raises(ValueError):
            ThreadedCommunicator(2, timeout_s=0.0)

    def test_closed_communicator_rejects_work(self):
        comm = ThreadedCommunicator(2)
        comm.parallel_for([lambda: None] * 2)
        comm.close()
        with pytest.raises(RuntimeError):
            comm.parallel_for([lambda: None] * 2)
