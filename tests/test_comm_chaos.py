"""Chaos conformance matrix: fault injection × every backend.

Part 1 drives every check registered in :mod:`comm_chaos` against every
backend in ``CHAOS_BACKENDS`` (sim, threaded, process) — injected kills
surface as structured ``WorkerFailure``s, faults fire once per plan,
delays charge time, and a failed communicator closes cleanly.

Part 2 is process-backend-specific: a SIGKILLed OS worker is *detected*
(at once by the sentinel wait, not after the watchdog timeout), every
shared memory segment is unlinked afterwards, teardown stays bounded with
already-dead pids, an in-flight nonblocking handle does not wedge
``close()``, and a command larger than the pipe buffer neither corrupts
nor, sent to a dead worker, blocks.

Run standalone with ``pytest -m conformance``.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pytest

import comm_chaos as cz
from repro.comm import make_communicator
from repro.comm.faults import FaultPlan, WorkerFailure
from repro.comm.process import ProcessPoolCommunicator

pytestmark = pytest.mark.conformance


# ----------------------------------------------------------------------
# Part 1: the chaos suite, parametrized over (backend, check)
# ----------------------------------------------------------------------
@pytest.fixture(params=cz.CHAOS_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture()
def make(backend):
    """Factory for tracked communicators of the backend under test."""
    created = []

    def factory(nranks=4, **kwargs):
        if backend == "process":
            kwargs.setdefault("timeout_s", 60.0)
        comm = make_communicator(nranks, backend=backend, **kwargs)
        created.append(comm)
        return comm

    yield factory
    for comm in created:
        comm.close()


@pytest.mark.parametrize("check", sorted(cz.CHAOS_CHECKS))
def test_chaos(make, check):
    cz.CHAOS_CHECKS[check](make)


def test_registry_covers_all_backends():
    """The chaos net must cover exactly the registered backends."""
    from repro.comm import available_backends
    assert set(available_backends()) == set(cz.CHAOS_BACKENDS)
    assert len(cz.CHAOS_CHECKS) >= 8


# ----------------------------------------------------------------------
# Part 2: process-backend failure semantics (real SIGKILL, shm hygiene)
# ----------------------------------------------------------------------
def _shm_segments(comm):
    """The names of this communicator's live shared-memory segments."""
    prefix = f"rpr{comm._uid}"
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        return sorted(n for n in os.listdir(shm_dir)
                      if n.startswith(prefix))
    # Fallback for platforms without a visible shm mount: the driver-side
    # arena registry (workers only ever attach, never create).
    return sorted(a.shm.name for a in comm._arenas.values())


class TestProcessFailureSemantics:
    """Detection, hygiene and teardown latency when OS workers die."""

    def test_kill_mid_epoch_detected_and_shm_unlinked(self):
        """The headline chaos scenario: a worker SIGKILLed mid-epoch is
        detected quickly (sentinel wait, not the 600 s watchdog), surfaces as
        WorkerFailure, and leaves zero shm segments behind."""
        comm = make_communicator(3, backend="process", timeout_s=120.0)
        try:
            comm.broadcast(np.ones((64, 8)), root=0)   # arenas exist now
            assert _shm_segments(comm), "expected live arenas mid-run"
            # The plan's op counter starts at injection: this kill
            # addresses the *next* collective.
            comm.inject_faults(FaultPlan.kill(rank=1, op_index=0))
            start = time.monotonic()
            with pytest.raises(WorkerFailure) as excinfo:
                comm.allreduce([np.ones((32, 4))] * 3)
            detect_s = time.monotonic() - start
            assert excinfo.value.rank == 1
            assert excinfo.value.backend == "process"
            assert detect_s < 30.0, \
                f"detection took {detect_s:.1f}s; must not wait out the " \
                f"watchdog timeout"
        finally:
            comm.close()
        assert _shm_segments(comm) == [], "shm segments leaked"
        assert comm._arenas == {}
        comm.close()                                    # idempotent
        assert not any(p.is_alive() for p in comm._procs or [])

    def test_close_tolerates_already_dead_worker(self):
        """Directly killing a worker (no fault plan, no collective in
        flight) must not make close() hang: the liveness pre-scan caps
        join grace, and the stop command to the dead rank's broken pipe
        is tolerated."""
        comm = make_communicator(3, backend="process", timeout_s=120.0)
        comm.broadcast(np.ones(16), root=0)
        comm._procs[2].kill()
        comm._procs[2].join(timeout=10.0)
        start = time.monotonic()
        comm.close()
        close_s = time.monotonic() - start
        assert close_s < 20.0, f"close() took {close_s:.1f}s with a dead pid"
        assert _shm_segments(comm) == []
        assert not any(p.is_alive() for p in comm._procs or [])

    def test_close_with_inflight_handle_and_dead_worker(self):
        """close() drains in-flight nonblocking handles; a worker dying
        under that drain must surface as WorkerFailure (or finish the
        drain) — never hang — and still unlink every segment."""
        comm = make_communicator(3, backend="process", timeout_s=120.0)
        comm.broadcast(np.ones(8), root=0)
        handle = comm.ibroadcast(np.arange(64.0), root=0)
        comm._procs[1].kill()
        start = time.monotonic()
        try:
            comm.close()
        except WorkerFailure as failure:
            assert failure.rank == 1
        close_s = time.monotonic() - start
        assert close_s < 30.0, f"close() took {close_s:.1f}s"
        assert _shm_segments(comm) == []
        comm.close()                                    # idempotent
        del handle

    def test_detection_beats_watchdog_by_orders_of_magnitude(self):
        """With the default (long) watchdog, detection is driven by the
        sentinel wait — a dead rank costs fractions of a second."""
        comm = make_communicator(2, backend="process", timeout_s=600.0)
        try:
            comm.broadcast(np.ones(4), root=0)
            comm.inject_faults(FaultPlan.kill(rank=0))
            start = time.monotonic()
            with pytest.raises(WorkerFailure):
                comm.allreduce([np.ones(4)] * 2)
            assert time.monotonic() - start < 10.0
        finally:
            comm.close()
        assert _shm_segments(comm) == []


def _big_exchange(nranks, rank, width=1, scale=1.0):
    """20 000 point-to-point messages into ``rank``: its first-dispatch
    plan pickles to ~340 KB, far past a 64 KiB pipe buffer.  At ``width``
    1 the step moves 160 KB and runs on one courier; at 8 it moves
    1.28 MB > GROUPED_COPY_MAX_BYTES, so ``rank`` gets its own plan."""
    others = [r for r in range(nranks) if r != rank]
    return [(others[k % len(others)], rank,
             np.arange(k * width, (k + 1) * width, dtype=np.float64) * scale)
            for k in range(20_000)]


@contextlib.contextmanager
def _deadline(seconds):
    """Fail (instead of hanging the suite) when a blocking write wedges."""
    import signal

    def fail(*_):
        # Not an OSError: the driver maps those to a dead worker.
        pytest.fail(f"blocked for more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_command_larger_than_pipe_buffer_round_trips(start_method):
    """A first-dispatch plan far larger than the pipe buffer reaches the
    worker intact: delivered payloads equal the simulator's bit for bit,
    on first dispatch and on replay."""
    import multiprocessing as mp
    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"start method {start_method!r} unavailable")
    comm = ProcessPoolCommunicator(3, start_method=start_method,
                                   timeout_s=120.0)
    try:
        for scale in (1.0, 3.0):        # first dispatch, then replay
            messages = _big_exchange(3, rank=1, scale=scale)
            want = make_communicator(3, backend="sim").exchange(messages)
            got = comm.exchange(messages)
            assert got.keys() == want.keys()
            for pair, value in want.items():
                assert np.array_equal(got[pair], value), pair
    finally:
        comm.close()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_command_larger_than_pipe_buffer_to_dead_worker_raises(start_method):
    """Writing a > 64 KiB plan to a SIGKILLed worker raises WorkerFailure
    instead of blocking forever: no other process holds the dead rank's
    command-pipe read end."""
    import multiprocessing as mp
    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"start method {start_method!r} unavailable")
    comm = ProcessPoolCommunicator(3, start_method=start_method,
                                   timeout_s=120.0)
    with _deadline(30.0):
        try:
            comm.broadcast(np.ones(64), root=0)        # arenas exist now
            messages = _big_exchange(3, rank=1, width=8)
            comm._kill_worker(1)
            start = time.monotonic()
            with pytest.raises(WorkerFailure) as excinfo:
                comm.exchange(messages)
            assert time.monotonic() - start < 5.0
            assert excinfo.value.rank == 1
        finally:
            comm.close()
    assert _shm_segments(comm) == [], "shm segments leaked"


_CRASHING_DRIVER = """
import sys
import numpy as np
from repro.comm.process import ProcessPoolCommunicator

comm = ProcessPoolCommunicator(4, start_method=sys.argv[1])
comm.alltoallv([[None if i == j else np.ones(8) for j in range(4)]
                for i in range(4)])
print(" ".join(str(proc.pid) for proc in comm._procs))
print(" ".join(arena.shm.name for arena in comm._arenas.values()), flush=True)
sys.stdin.read()   # parked until the test kills this driver
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_killed_driver_leaks_no_shm_segments(start_method):
    """SIGKILL a driver mid-run: once its workers are gone too, the
    resource tracker it shares with them unlinks every segment."""
    import multiprocessing as mp
    import signal
    import subprocess
    import sys
    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"start method {start_method!r} unavailable")
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        __import__("repro").__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    driver = subprocess.Popen(
        [sys.executable, "-c", _CRASHING_DRIVER, start_method],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    workers: list = []
    try:
        workers = [int(pid) for pid in driver.stdout.readline().split()]
        names = driver.stdout.readline().split()
    finally:
        driver.kill()
        driver.wait(timeout=30)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert len(workers) == 4 and len(names) == 8, (workers, names)

    def alive():
        return [n for n in names if os.path.exists(f"/dev/shm/{n}")]

    deadline = time.monotonic() + 20.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = alive()
    for name in leaked:              # never leave the machine dirty
        os.unlink(f"/dev/shm/{name}")
    assert leaked == [], f"segments outlived the killed driver: {leaked}"


def test_workers_started_before_any_segment_share_the_tracker():
    """Workers forked before the driver's first segment must still share
    its resource tracker: a private one would unlink the driver's live
    segments when its worker exits, warning about "leaked" objects."""
    import subprocess
    import sys
    script = ("import numpy as np\n"
              "from repro.comm.process import ProcessPoolCommunicator\n"
              "comm = ProcessPoolCommunicator(3)\n"
              "comm.barrier()\n"
              "comm.broadcast(np.ones(8), root=0)\n"
              "comm.close()\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        __import__("repro").__file__)))
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert "resource_tracker" not in result.stderr, result.stderr
