"""Reusable backend-conformance harness for the ``Communicator`` contract.

The paper's equivalence claims rest on every backend executing the same
collectives with the same semantics; this module centralises that contract
as a registry of *checks* so each new backend is proven by parametrisation
instead of hand-written per-backend tests.  To put a new backend under the
full conformance net, add its registry name to :data:`CONFORMANT_BACKENDS`
— that is the promised one-line registration.

Each check is a callable ``check(make)`` where ``make(nranks, **kw)``
returns a live communicator of the backend under test (the caller owns
cleanup).  Checks assert *behaviour all backends must share*:

* collective delivery semantics (driver calling convention, results
  indexed by group position, simulator copy contract: the root/owner slot
  is the caller's object, other slots are independent buffers);
* bitwise-deterministic reductions through
  :func:`repro.comm.base.reduce_stack`;
* group topology handling (subgroups, non-sorted member order,
  validation of malformed groups and operands);
* volume accounting — identical :class:`~repro.comm.events.EventLog`
  streams regardless of how the bytes physically moved;
* the accounting hooks and the ``parallel_for`` execution contract;
* lifecycle — idempotent ``close``, context-manager support, reporting
  surviving close, and failure isolation (an exception inside a rank task
  must neither hang the communicator nor poison later operations).

Checks deliberately do **not** assert backend-specific properties such as
aliasing of delivered payloads (the simulator hands the sender's object
through; the process backend reconstructs it from bytes) — equality, not
identity, is the cross-backend contract.

``tests/test_comm_conformance.py`` drives this registry over every name
in :data:`CONFORMANT_BACKENDS` and adds the randomized SpMM equivalence
property layer on top.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np
import pytest

from repro.comm.base import reduce_stack

__all__ = ["CONFORMANT_BACKENDS", "CONTRACT_CHECKS", "contract_check"]

#: Every backend that must pass the full conformance suite.  Adding a new
#: backend to the proof net is this one line (plus its factory
#: registration in ``repro.comm``).
CONFORMANT_BACKENDS = ("sim", "threaded", "process")

#: name -> check callable ``(make) -> None``.
CONTRACT_CHECKS: Dict[str, Callable] = {}


def contract_check(fn: Callable) -> Callable:
    """Register ``fn`` as a named conformance check."""
    name = fn.__name__
    if name.startswith("check_"):
        name = name[len("check_"):]
    CONTRACT_CHECKS[name] = fn
    return fn


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Broadcast
# ----------------------------------------------------------------------
@contract_check
def check_broadcast_delivery(make):
    comm = make(4)
    value = np.arange(12.0).reshape(3, 4)
    out = comm.broadcast(value, root=1)
    assert len(out) == 4
    assert out[1] is value, "root keeps its own object"
    for i in (0, 2, 3):
        np.testing.assert_array_equal(out[i], value)
        assert out[i] is not value, "receivers get independent buffers"


@contract_check
def check_broadcast_copy_independence(make):
    comm = make(3)
    value = np.ones((2, 2))
    out = comm.broadcast(value, root=0)
    out[1][0, 0] = 99.0
    assert out[2][0, 0] == 1.0, "receiver buffers must not alias each other"
    assert value[0, 0] == 1.0, "receiver buffers must not alias the source"


@contract_check
def check_broadcast_root_validation(make):
    comm = make(4)
    with pytest.raises(ValueError):
        comm.broadcast(np.ones(2), root=2, ranks=[0, 1])


@contract_check
def check_broadcast_volume_events(make):
    comm = make(4)
    value = np.zeros((5, 3))  # 120 bytes
    comm.broadcast(value, root=0)
    events = comm.events.filtered(kind="bcast")
    assert len(events) == 3, "one logged message per non-root receiver"
    assert all(e.src == 0 and e.nbytes == value.nbytes for e in events)
    assert sorted(e.dst for e in events) == [1, 2, 3]


# ----------------------------------------------------------------------
# Allreduce
# ----------------------------------------------------------------------
@contract_check
def check_allreduce_sum_matches_reduce_stack(make):
    comm = make(4)
    arrays = [_rng(i).normal(size=(6, 2)) for i in range(4)]
    out = comm.allreduce([a.copy() for a in arrays])
    expected = reduce_stack(arrays, "sum")
    for got in out:
        np.testing.assert_array_equal(
            got, expected,
            err_msg="reductions must be bitwise identical to reduce_stack")


@contract_check
def check_allreduce_min_max(make):
    comm = make(3)
    arrays = [_rng(10 + i).normal(size=5) for i in range(3)]
    for op in ("max", "min"):
        out = comm.allreduce([a.copy() for a in arrays], op=op)
        expected = reduce_stack(arrays, op)
        for got in out:
            np.testing.assert_array_equal(got, expected)


@contract_check
def check_allreduce_dtype_coercion(make):
    comm = make(3)
    arrays = [np.arange(4, dtype=np.int64) * (i + 1) for i in range(3)]
    out = comm.allreduce(arrays)
    for got in out:
        assert got.dtype == np.float64, "integer inputs reduce in float64"
        np.testing.assert_array_equal(got, reduce_stack(arrays, "sum"))


@contract_check
def check_allreduce_results_independent(make):
    comm = make(3)
    out = comm.allreduce([np.ones(3) for _ in range(3)])
    out[0][0] = 99.0
    assert out[1][0] == 3.0 and out[2][0] == 3.0, \
        "per-rank results must be independently mutable"


@contract_check
def check_allreduce_validation(make):
    comm = make(3)
    with pytest.raises(ValueError):
        comm.allreduce([np.ones(2)] * 2)            # wrong operand count
    with pytest.raises(ValueError):
        comm.allreduce([np.ones(2), np.ones(3), np.ones(2)])  # shape mismatch
    with pytest.raises(ValueError):
        comm.allreduce([np.ones(2)] * 3, op="prod")  # unsupported op


# ----------------------------------------------------------------------
# Allgather / reduce
# ----------------------------------------------------------------------
@contract_check
def check_allgather_delivery(make):
    comm = make(4)
    arrays = [np.full((2, 2), float(i)) for i in range(4)]
    out = comm.allgather(arrays)
    for i in range(4):
        assert out[i][i] is arrays[i], "owner keeps its own object"
        for j in range(4):
            np.testing.assert_array_equal(out[i][j], arrays[j])
            if j != i:
                assert out[i][j] is not arrays[j], \
                    "gathered entries must not alias the contributions"
    with pytest.raises(ValueError):
        comm.allgather(arrays[:2])


@contract_check
def check_reduce_rooted(make):
    comm = make(4)
    arrays = [np.arange(5, dtype=np.int32) * (i + 1) for i in range(4)]
    out = comm.reduce([a.copy() for a in arrays], root=2)
    expected = reduce_stack(arrays, "sum", force_float64=True)
    for pos, got in enumerate(out):
        if pos == 2:
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, expected)
        else:
            assert got is None, "only the root slot carries the reduction"


@contract_check
def check_reduce_validation(make):
    comm = make(3)
    with pytest.raises(ValueError):
        comm.reduce([np.ones(2)] * 3, root=7)
    with pytest.raises(ValueError):
        comm.reduce([np.ones(2)] * 3, root=0, op="min")  # reduce: sum/max only


# ----------------------------------------------------------------------
# Alltoallv
# ----------------------------------------------------------------------
@contract_check
def check_alltoallv_transpose(make):
    comm = make(4)
    send = [[np.full((1, 2), 10.0 * i + j) if i != j else None
             for j in range(4)] for i in range(4)]
    recv = comm.alltoallv(send)
    for i in range(4):
        for j in range(4):
            if i == j:
                assert recv[i][j] is None
            else:
                np.testing.assert_array_equal(
                    recv[i][j], np.full((1, 2), 10.0 * j + i),
                    err_msg="recv[i][j] must be what j sent to i")


@contract_check
def check_alltoallv_sparse_pattern(make):
    """None payloads and empty arrays travel as 'nothing'."""
    comm = make(3)
    send = [[None] * 3 for _ in range(3)]
    send[0][1] = np.arange(6.0)
    send[2][1] = np.zeros((0, 4))    # empty: delivered but no traffic
    send[1][1] = np.ones(2)          # diagonal: local, no traffic
    recv = comm.alltoallv(send)
    np.testing.assert_array_equal(recv[1][0], np.arange(6.0))
    assert recv[1][2].shape == (0, 4)
    assert recv[1][1] is send[1][1]
    assert recv[0][2] is None and recv[2][0] is None
    assert comm.events.message_count() == 1, \
        "only the one non-empty off-diagonal payload is traffic"
    assert comm.events.total_bytes() == 48


@contract_check
def check_alltoallv_volume_events(make):
    comm = make(3)
    send = [[np.ones((i + j + 1,)) if i != j else None
             for j in range(3)] for i in range(3)]
    comm.alltoallv(send)
    expected = sum(8 * (i + j + 1)
                   for i in range(3) for j in range(3) if i != j)
    assert comm.events.total_bytes() == expected
    mat = comm.events.traffic_matrix(3)
    assert mat[0, 1] == 8 * 2 and mat[2, 1] == 8 * 4
    assert np.all(np.diag(mat) == 0)


@contract_check
def check_alltoallv_validation(make):
    comm = make(3)
    with pytest.raises(ValueError):
        comm.alltoallv([[None] * 3] * 2)          # wrong row count
    with pytest.raises(ValueError):
        comm.alltoallv([[None] * 2] * 3)          # ragged row


# ----------------------------------------------------------------------
# Exchange (batched point-to-point)
# ----------------------------------------------------------------------
@contract_check
def check_exchange_delivery_and_events(make):
    comm = make(4)
    msgs = [(0, 1, np.ones(3)), (2, 3, np.full(5, 2.0)), (1, 1, np.ones(2))]
    delivered = comm.exchange(msgs)
    assert set(delivered) == {(0, 1), (2, 3), (1, 1)}
    np.testing.assert_array_equal(delivered[(0, 1)], np.ones(3))
    np.testing.assert_array_equal(delivered[(2, 3)], np.full(5, 2.0))
    assert delivered[(1, 1)] is msgs[2][2], "self-messages are free passes"
    assert comm.events.message_count() == 2, \
        "self-messages and empties are not traffic"
    assert comm.events.total_bytes() == 8 * (3 + 5)


@contract_check
def check_exchange_validation(make):
    comm = make(2)
    with pytest.raises(ValueError):
        comm.exchange([(0, 5, np.ones(2))])
    with pytest.raises(ValueError):
        comm.exchange([(-1, 0, np.ones(2))])


@contract_check
def check_rejected_exchange_leaves_no_trace(make):
    """A batch rejected for a bad rank records nothing: no bytes, no
    messages and no step id — even for the valid messages before it."""
    comm = make(2)
    events = comm.events
    for post in (comm.exchange, comm.iexchange):
        for msgs, sync in (([(0, 1, np.ones(8)), (0, 5, np.ones(2))], None),
                           ([(0, 1, np.ones(8))], [0, 7])):
            before = (events.total_bytes(), events.message_count(),
                      events._step)
            with pytest.raises(ValueError):
                post(msgs, sync_ranks=sync)
            assert (events.total_bytes(), events.message_count(),
                    events._step) == before, \
                f"rejected {post.__name__} left phantom traffic"


# ----------------------------------------------------------------------
# Nonblocking collectives (handle-based)
# ----------------------------------------------------------------------
@contract_check
def check_nonblocking_broadcast_delivery(make):
    """ibroadcast delivers exactly what broadcast would, via wait()."""
    comm = make(4)
    value = np.arange(12.0).reshape(3, 4)
    handle = comm.ibroadcast(value, root=1)
    assert isinstance(handle.test(), bool), "test() is a nonblocking probe"
    out = handle.wait()
    assert len(out) == 4
    assert out[1] is value, "root keeps its own object"
    for i in (0, 2, 3):
        np.testing.assert_array_equal(out[i], value)
        assert out[i] is not value, "receivers get independent buffers"
    assert handle.test() is True, "test() is True after a completed wait"


@contract_check
def check_nonblocking_allreduce_matches_blocking(make):
    comm = make(4)
    arrays = [_rng(i).normal(size=(6, 2)) for i in range(4)]
    blocking = comm.allreduce([a.copy() for a in arrays])
    handle = comm.iallreduce([a.copy() for a in arrays])
    out = handle.wait()
    for got, want in zip(out, blocking):
        np.testing.assert_array_equal(
            got, want,
            err_msg="nonblocking reductions must be bitwise identical to "
                    "the blocking collective")
    out[0][0, 0] = 99.0
    assert out[1][0, 0] != 99.0, "per-rank results independently mutable"


@contract_check
def check_nonblocking_alltoallv_transpose(make):
    comm = make(3)
    send = [[np.full((2,), 10.0 * i + j) if i != j else None
             for j in range(3)] for i in range(3)]
    recv = comm.ialltoallv(send).wait()
    for i in range(3):
        for j in range(3):
            if i != j:
                np.testing.assert_array_equal(
                    recv[i][j], np.full((2,), 10.0 * j + i))


@contract_check
def check_nonblocking_exchange_delivery(make):
    comm = make(4)
    msgs = [(0, 1, np.ones(3)), (2, 3, np.full(5, 2.0)), (1, 1, np.ones(2))]
    delivered = comm.iexchange(msgs).wait()
    assert set(delivered) == {(0, 1), (2, 3), (1, 1)}
    np.testing.assert_array_equal(delivered[(0, 1)], np.ones(3))
    np.testing.assert_array_equal(delivered[(2, 3)], np.full(5, 2.0))


def _result_bytes(value):
    """A collective's result as nested (dtype, shape, bytes) leaves."""
    if isinstance(value, dict):
        return {key: _result_bytes(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_result_bytes(v) for v in value]
    if value is None:
        return None
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


@contract_check
def check_posted_then_waited_equals_blocking(make):
    """Each post waited at once equals its blocking twin: byte-identical
    results, the same EventLog records in one step per call and, on the
    simulator, bit-identical per-rank clocks — the two share one
    lowering."""
    arrays = [_rng(i).normal(size=(5, 3)) for i in range(4)]
    send = [[None if i == j else np.full((i + 1, 2), 10.0 * i + j)
             for j in range(4)] for i in range(4)]
    msgs = [(0, 1, np.arange(6.0)), (2, 3, np.ones((2, 2))),
            (1, 1, np.ones(2)), (3, 0, np.full(4, 3.0))]
    calls = [("broadcast", (arrays[0],), {"root": 2}),
             ("allreduce", (arrays,), {"op": "max"}),
             ("alltoallv", (send,), {"category": "halo"}),
             ("exchange", (msgs,), {"sync_ranks": range(4)})]
    blocking, posted = make(4), make(4)
    for comm in (blocking, posted):
        for r in comm.ranks():
            comm.charge_seconds(r, 1e-4 * (r + 1))
    for k, (name, args, kwargs) in enumerate(calls):
        logged = len(blocking.events)
        want = getattr(blocking, name)(*args, **kwargs)
        got = getattr(posted, "i" + name)(*args, **kwargs).wait()
        assert _result_bytes(got) == _result_bytes(want), name
        records = [[(e.kind, e.src, e.dst, e.nbytes, e.category, e.step)
                    for e in comm.events] for comm in (blocking, posted)]
        assert records[0] == records[1], name
        assert {rec[-1] for rec in records[0][logged:]} == {k}, \
            f"{name} logs one step"
        assert blocking.events._step == posted.events._step == k + 1
        if blocking.backend_name == "sim":
            assert posted.timeline.clocks.tobytes() \
                == blocking.timeline.clocks.tobytes(), name


@contract_check
def check_nonblocking_overlap_with_local_compute(make):
    """Local compute dispatched between issue and wait must neither
    deadlock nor corrupt the in-flight collective — the contract the
    pipelined compiled SpMMs rely on."""
    comm = make(4)
    value = np.arange(256.0).reshape(32, 8)
    handle = comm.ibroadcast(value, root=0)
    ran = [0] * 4

    def task_for(i):
        def task():
            ran[i] += 1
        return task

    comm.parallel_for([task_for(i) for i in range(4)])
    out = handle.wait()
    assert ran == [1, 1, 1, 1], "overlapped compute ran exactly once"
    for i in range(1, 4):
        np.testing.assert_array_equal(out[i], value)
    # The communicator is healthy afterwards: a blocking collective works.
    after = comm.allreduce([np.ones(2)] * 4)
    np.testing.assert_array_equal(after[0], np.full(2, 4.0))


@contract_check
def check_nonblocking_double_wait_idempotent(make):
    """A second wait() returns the identical result and charges nothing."""
    comm = make(3)
    handle = comm.ibroadcast(np.ones((8, 4)), root=0)
    out = handle.wait()
    bytes_after = comm.events.total_bytes()
    messages_after = comm.events.message_count()
    elapsed_after = comm.elapsed()
    again = handle.wait()
    assert again is out, "wait() must be idempotent (same result object)"
    assert comm.events.total_bytes() == bytes_after
    assert comm.events.message_count() == messages_after
    assert comm.elapsed() == elapsed_after, \
        "a second wait must not charge more time"
    assert handle.test() is True


@contract_check
def check_nonblocking_completion_before_wait(make):
    """test() polling must converge to True and leave wait() trivial."""
    comm = make(3)
    handle = comm.iallreduce([np.full(4, float(i)) for i in range(3)])
    deadline = time.time() + 30.0
    while not handle.test():
        # Simulated backends complete only as simulated compute/comm
        # elapses; charging local time drives their clocks forward.
        for r in comm.ranks():
            comm.charge_seconds(r, 1.0)
        assert time.time() < deadline, "test() never became True"
    out = handle.wait()
    np.testing.assert_array_equal(out[0], np.full(4, 3.0))


@contract_check
def check_nonblocking_rejected_when_closed(make):
    comm = make(3)
    comm.broadcast(np.ones(2), root=0)
    comm.close()
    if comm.rejects_work_when_closed:
        events_before = comm.events.message_count()
        with pytest.raises(RuntimeError):
            comm.ibroadcast(np.ones(2), root=0)
        with pytest.raises(RuntimeError):
            comm.iallreduce([np.ones(2)] * 3)
        with pytest.raises(RuntimeError):
            comm.ialltoallv([[None] * 3] * 3)
        with pytest.raises(RuntimeError):
            comm.iexchange([(0, 1, np.ones(2))])
        assert comm.events.message_count() == events_before, \
            "rejected nonblocking work must not record phantom traffic"
    else:
        out = comm.ibroadcast(np.ones(2), root=0).wait()
        np.testing.assert_array_equal(out[1], np.ones(2))


@contract_check
def check_close_drains_inflight_handles(make):
    """close() with a collective in flight must complete it: the handle's
    result stays readable afterwards and no resources leak (the process
    backend's shm segments are asserted separately)."""
    comm = make(3)
    value = np.arange(16.0)
    handle = comm.ibroadcast(value, root=0)
    comm.close()
    out = handle.wait()
    np.testing.assert_array_equal(out[1], value)
    np.testing.assert_array_equal(out[2], value)


# ----------------------------------------------------------------------
# Group topology
# ----------------------------------------------------------------------
@contract_check
def check_subgroup_collectives(make):
    comm = make(4)
    value = np.full(3, 7.0)
    out = comm.broadcast(value, root=2, ranks=[1, 2])
    assert len(out) == 2
    assert out[1] is value              # position 1 <-> rank 2 (the root)
    np.testing.assert_array_equal(out[0], value)
    for e in comm.events:
        assert e.src in (1, 2) and e.dst in (1, 2), \
            "subgroup traffic must stay inside the subgroup"

    arrays = [np.full(2, 1.0), np.full(2, 10.0), np.full(2, 100.0)]
    out = comm.allreduce(arrays, ranks=[0, 2, 3])
    for got in out:
        np.testing.assert_array_equal(got, np.full(2, 111.0))


@contract_check
def check_unordered_group_positions(make):
    """Results are indexed by *group position*, not by global rank."""
    comm = make(4)
    out = comm.broadcast(np.full(2, 5.0), root=0, ranks=[2, 0])
    assert np.all(out[1] == 5.0) and np.all(out[0] == 5.0)
    assert out[1] is not None, "position 1 holds the root (rank 0)"

    send = [[None, np.full(1, 1.0)], [np.full(1, 2.0), None]]
    recv = comm.alltoallv(send, ranks=[3, 1])
    np.testing.assert_array_equal(recv[0][1], np.full(1, 2.0))
    np.testing.assert_array_equal(recv[1][0], np.full(1, 1.0))
    assert comm.events.filtered(kind="alltoallv")[0].src in (1, 3)


@contract_check
def check_group_validation(make):
    comm = make(4)
    with pytest.raises(ValueError):
        comm.broadcast(np.ones(2), root=0, ranks=[0, 0, 1])   # duplicate
    with pytest.raises(ValueError):
        comm.allreduce([np.ones(2)] * 2, ranks=[0, 9])        # out of range
    with pytest.raises(ValueError):
        comm.parallel_for([lambda: None], ranks=[-1])


# ----------------------------------------------------------------------
# Accounting hooks / reporting
# ----------------------------------------------------------------------
@contract_check
def check_accounting_hooks(make):
    comm = make(2)
    for value in (comm.charge_spmm(0, 1e6),
                  comm.charge_gemm(1, 1e6),
                  comm.charge_elementwise(0, 1e4),
                  comm.charge_seconds(1, 0.25)):
        assert isinstance(value, float) and value >= 0.0
    assert comm.elapsed() >= 0.0


@contract_check
def check_elapsed_monotonic(make):
    comm = make(4)
    t0 = comm.elapsed()
    comm.broadcast(np.ones((64, 8)), root=0)
    t1 = comm.elapsed()
    comm.allreduce([np.ones((32, 4))] * 4)
    t2 = comm.elapsed()
    assert t0 <= t1 <= t2
    assert t2 > 0.0, "collectives with payload must consume time"
    summary = comm.stats_summary()
    assert summary["total_MB"] > 0.0
    assert set(comm.breakdown()) >= {"bcast", "allreduce"}


# ----------------------------------------------------------------------
# parallel_for / barrier
# ----------------------------------------------------------------------
@contract_check
def check_parallel_for_semantics(make):
    comm = make(4)
    ran = [0] * 4
    results = [None] * 4

    def task_for(i):
        def task():
            ran[i] += 1
            results[i] = i * i
        return task

    comm.parallel_for([task_for(i) for i in range(4)])
    assert ran == [1, 1, 1, 1], "every task runs exactly once"
    assert results == [0, 1, 4, 9]

    sub = []
    comm.parallel_for([lambda: sub.append("a"), lambda: sub.append("b")],
                      ranks=[1, 3])
    assert sorted(sub) == ["a", "b"]
    with pytest.raises(ValueError):
        comm.parallel_for([lambda: None], ranks=[0, 1])


@contract_check
def check_parallel_for_exceptions(make):
    class Boom(RuntimeError):
        pass

    comm = make(3)

    def boom():
        raise Boom("task failed")

    with pytest.raises(Boom):
        comm.parallel_for([boom, lambda: None, lambda: None])
    # The failure must not poison the communicator: later work succeeds.
    out = comm.allreduce([np.ones(2)] * 3)
    np.testing.assert_array_equal(out[0], np.full(2, 3.0))


@contract_check
def check_barrier_synchronizes(make):
    comm = make(4)
    comm.charge_seconds(0, 0.5)       # only advances simulated clocks
    synced = comm.barrier()
    clocks = comm.timeline.clocks
    assert float(np.max(clocks) - np.min(clocks)) < 1e-9
    assert synced == pytest.approx(comm.timeline.elapsed())
    comm.barrier(ranks=[1, 2])        # subgroup barrier must not hang


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
@contract_check
def check_close_is_idempotent(make):
    comm = make(3)
    comm.broadcast(np.ones(4), root=0)
    comm.close()
    comm.close()
    comm.close()


@contract_check
def check_context_manager_closes(make):
    class Boom(RuntimeError):
        pass

    with make(3) as comm:
        comm.allreduce([np.ones(2)] * 3)
    _assert_closed_behaviour(comm)

    # close() must run even when the body raises mid-collective use —
    # this is the "SpMM variant raised" lifecycle guarantee.
    with pytest.raises(Boom):
        with make(3) as comm:
            comm.broadcast(np.ones(2), root=1)
            raise Boom()
    _assert_closed_behaviour(comm)


@contract_check
def check_reporting_survives_close(make):
    comm = make(3)
    comm.broadcast(np.ones((8, 2)), root=0)
    bytes_before = comm.events.total_bytes()
    elapsed_before = comm.elapsed()
    comm.close()
    assert comm.events.total_bytes() == bytes_before
    assert comm.elapsed() == elapsed_before
    assert comm.stats_summary()["total_MB"] == pytest.approx(
        bytes_before / 1e6)
    assert "bcast" in comm.breakdown()


def _assert_closed_behaviour(comm) -> None:
    """After close: reporting works; new work is rejected by real backends."""
    comm.elapsed()
    comm.breakdown()
    if comm.rejects_work_when_closed:
        events_before = comm.events.message_count()
        with pytest.raises(RuntimeError):
            comm.broadcast(np.ones(2), root=0)
        with pytest.raises(RuntimeError):
            comm.exchange([(0, 1, np.ones(2))])
        with pytest.raises(RuntimeError):
            comm.parallel_for([lambda: None] * comm.nranks)
        assert comm.events.message_count() == events_before, \
            "rejected work must not record phantom traffic"
    else:
        out = comm.broadcast(np.ones(2), root=0)
        np.testing.assert_array_equal(out[1], np.ones(2))
