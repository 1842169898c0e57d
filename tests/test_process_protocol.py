"""Golden worker protocol of the process backend.

A scripted sequence of every collective runs on p = 4 — blocking and
nonblocking, payloads under and over the grouped-copy threshold
(``GROUPED_COPY_MAX_BYTES``, 1 MiB), sub-groups, singleton and empty
groups, int and float operands, and a blocking step behind two in-flight
handles.  For every script step the test records:

* the *effective* command each worker received — a ``replay`` is
  resolved to the plan it replays, arena names and generations are
  dropped and arena refs are sorted, so the record is what the worker
  executes, independent of cache state and arena naming;
* a digest of the step's result;
* the ``EventLog`` bytes and message deltas.

It compares them step by step with ``process_protocol_golden.json``.  A
refactor of the driver's staging code must keep all three identical.
Regenerate the golden (only when the protocol is meant to change) with::

    PYTHONPATH=src python tests/test_process_protocol.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

import numpy as np
import pytest

from repro.comm.process import ProcessPoolCommunicator

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "process_protocol_golden.json")
P = 4


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class _RecordingConn:
    """Forwards to a worker's command pipe, recording effective commands."""

    def __init__(self, inner, log: List[dict]) -> None:
        self._inner = inner
        self._log = log
        self._plans: Dict[int, dict] = {}

    def send(self, cmd) -> None:
        self._log.append(self._effective(cmd))
        self._inner.send(cmd)

    def _effective(self, cmd: dict) -> dict:
        if cmd["op"] == "replay":
            cmd = self._plans[cmd["pid"]]
        elif cmd["op"] == "plan" and cmd.get("pid") is not None:
            self._plans[cmd["pid"]] = cmd
        if cmd["op"] == "plan":
            cmd = {"op": "plan",
                   "arenas": sorted([owner, kind]
                                    for owner, kind, _, _ in cmd["arenas"]),
                   "copies": cmd["copies"], "reduces": cmd["reduces"],
                   "skind": cmd["skind"], "rkind": cmd["rkind"]}
        return json.loads(json.dumps(cmd))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _digest(value) -> str:
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(f"a{obj.shape}{obj.dtype.str}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, dict):
            h.update(b"d")
            for key in sorted(obj):
                h.update(repr(key).encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(f"l{len(obj)}".encode())
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    feed(value)
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# The script
# ----------------------------------------------------------------------
def _script():
    """``[(name, fn(comm) -> result)]``; handles live in a shared dict."""
    rng = np.random.default_rng(0)

    def f64(*shape):
        return rng.normal(size=shape)

    def f32(*shape):
        return rng.normal(size=shape).astype(np.float32)

    def i64(*shape):
        return rng.integers(-50, 50, size=shape)

    def a2a(make, p=P, skip=()):
        return [[None if i == j or (i, j) in skip else make(i, j)
                 for j in range(p)] for i in range(p)]

    big = 50_000          # 400 KB of float64: 3 receivers move 1.2 MB
    small_a2a = a2a(lambda i, j: f64(3 + i, 2), skip={(0, 2)})
    small_a2a[1][3] = np.zeros((0, 2))
    int_a2a = a2a(lambda i, j: i64(5 + j), p=2)
    f32_a2a = a2a(lambda i, j: f32(4, 3))
    big_a2a = a2a(lambda i, j: f64(big // 2))
    bc_small, bc_int, bc_big = f64(6, 4), i64(9), f64(big)
    ar_small = [f64(5, 3) for _ in range(P)]
    ar_int = [i64(7) for _ in range(P)]
    ar_big = [f64(40_000) for _ in range(P)]
    ar_f32 = [f32(8), f32(8)]
    ar_mixed = [f32(4), f64(4), f32(4), f64(4)]
    ag_small = [f64(2 + i, 3) for i in range(P)]
    ag_empty = [f64(3), np.zeros(0), f64(3), f64(2)]
    ag_int = [i64(4) for _ in range(3)]
    red_small = [f64(6) for _ in range(P)]
    red_int = [i64(3, 3) for _ in range(2)]
    # Sender 1 appears first, yet rank 0 hears from rank 2 before rank 1:
    # pins the receive-slab order (grouped by sender, then message order).
    p2p_small = [(1, 3, f64(4)), (2, 0, f64(5)), (1, 0, i64(6)),
                 (0, 2, f32(3)), (2, 2, f64(2)), (3, 1, np.zeros(0))]
    p2p_big = [(0, 1, f64(big)), (2, 3, f64(big)), (3, 0, f64(big))]
    p2p_sync = [(1, 2, f64(3, 3))]
    p2p_free = [(1, 1, f64(2)), (0, 3, np.zeros(0))]
    inflight_a2a = a2a(lambda i, j: f64(2, 2))
    inflight_p2p = [(3, 2, f64(7)), (0, 1, f64(7))]
    h: Dict[str, object] = {}

    def post(name, fn):
        def run(comm):
            h[name] = fn(comm)
            return None
        return run

    def wait(name):
        return lambda comm: h.pop(name).wait()

    def barrier(**kwargs):
        def run(comm):
            comm.barrier(**kwargs)   # returns a wall clock: not digested
            return None
        return run

    return [
        ("alltoallv", lambda c: c.alltoallv(small_a2a)),
        ("alltoallv replay", lambda c: c.alltoallv(small_a2a)),
        ("ialltoallv", lambda c: c.ialltoallv(small_a2a).wait()),
        ("alltoallv int subgroup", lambda c: c.alltoallv(int_a2a,
                                                         ranks=[3, 1])),
        ("alltoallv singleton", lambda c: c.alltoallv([[f64(2)]],
                                                      ranks=[2])),
        ("alltoallv nothing moves", lambda c: c.alltoallv(
            [[None] * P for _ in range(P)])),
        ("alltoallv big", lambda c: c.alltoallv(big_a2a)),
        ("ialltoallv f32", lambda c: c.ialltoallv(f32_a2a).wait()),
        ("broadcast", lambda c: c.broadcast(bc_small, root=2)),
        ("broadcast replay", lambda c: c.broadcast(bc_small, root=2)),
        ("ibroadcast courier", lambda c: c.ibroadcast(bc_small,
                                                      root=3).wait()),
        ("ibroadcast big", lambda c: c.ibroadcast(bc_big, root=0).wait()),
        ("broadcast int subgroup", lambda c: c.broadcast(
            bc_int, root=3, ranks=[1, 3])),
        ("ibroadcast int subgroup", lambda c: c.ibroadcast(
            bc_int, root=1, ranks=[2, 1, 0]).wait()),
        ("broadcast empty", lambda c: c.broadcast(np.zeros(0), root=0)),
        ("broadcast singleton", lambda c: c.broadcast(bc_small, root=1,
                                                      ranks=[1])),
        ("allreduce", lambda c: c.allreduce(ar_small)),
        ("allreduce replay", lambda c: c.allreduce(ar_small)),
        ("allreduce int max", lambda c: c.allreduce(ar_int, op="max")),
        ("allreduce mixed dtypes", lambda c: c.allreduce(ar_mixed)),
        ("iallreduce courier", lambda c: c.iallreduce(ar_small).wait()),
        ("iallreduce big", lambda c: c.iallreduce(ar_big).wait()),
        ("iallreduce f32 subgroup", lambda c: c.iallreduce(
            ar_f32, ranks=[2, 0], op="min").wait()),
        ("allreduce singleton", lambda c: c.allreduce([ar_f32[0]],
                                                      ranks=[3])),
        ("iallreduce empty", lambda c: c.iallreduce(
            [np.zeros(0)] * P).wait()),
        ("allgather", lambda c: c.allgather(ag_small)),
        ("allgather replay", lambda c: c.allgather(ag_small)),
        ("allgather one empty", lambda c: c.allgather(ag_empty)),
        ("allgather int subgroup", lambda c: c.allgather(
            ag_int, ranks=[2, 0, 3])),
        ("allgather singleton", lambda c: c.allgather([f64(3)], ranks=[0])),
        ("reduce", lambda c: c.reduce(red_small, root=1)),
        ("reduce replay", lambda c: c.reduce(red_small, root=1)),
        ("reduce int max subgroup", lambda c: c.reduce(
            red_int, root=3, ranks=[3, 0], op="max")),
        ("reduce empty", lambda c: c.reduce([np.zeros(0)] * P, root=0)),
        ("reduce singleton", lambda c: c.reduce([f64(2)], root=2,
                                                ranks=[2])),
        ("exchange", lambda c: c.exchange(p2p_small)),
        ("exchange replay", lambda c: c.exchange(p2p_small)),
        ("iexchange courier", lambda c: c.iexchange(p2p_small).wait()),
        ("iexchange big", lambda c: c.iexchange(p2p_big).wait()),
        ("exchange sync ranks", lambda c: c.exchange(
            p2p_sync, sync_ranks=[0, 3])),
        ("iexchange sync ranks", lambda c: c.iexchange(
            p2p_sync, sync_ranks=[0, 3]).wait()),
        ("exchange nothing moves", lambda c: c.exchange(p2p_free)),
        ("iexchange nothing moves", lambda c: c.iexchange(p2p_free).wait()),
        ("exchange empty group", lambda c: c.exchange([])),
        ("iexchange empty group", lambda c: c.iexchange([]).wait()),
        ("post ialltoallv", post("a", lambda c: c.ialltoallv(inflight_a2a))),
        ("post iexchange", post("b", lambda c: c.iexchange(inflight_p2p))),
        ("allreduce behind two handles", lambda c: c.allreduce(ar_small)),
        ("wait ialltoallv", wait("a")),
        ("wait iexchange", wait("b")),
        ("post ibroadcast", post("c", lambda c: c.ibroadcast(bc_small,
                                                            root=0))),
        ("post iallreduce", post("d", lambda c: c.iallreduce(ar_small))),
        ("post ialltoallv reusing a slot", post(
            "e", lambda c: c.ialltoallv(inflight_a2a))),
        ("wait iallreduce", wait("d")),
        ("wait ialltoallv reusing a slot", wait("e")),
        ("wait ibroadcast", wait("c")),
        ("barrier", barrier()),
        ("barrier subgroup", barrier(ranks=[1, 2])),
    ]


def run_script(start_method: str) -> List[dict]:
    """Run the script on a fresh communicator; one record per step."""
    comm = ProcessPoolCommunicator(P, start_method=start_method,
                                   timeout_s=120.0)
    records = []
    logs: List[List[dict]] = [[] for _ in range(P)]
    start_workers = comm._ensure_workers

    def ensure_recorded_workers() -> None:
        fresh = comm._procs is None
        start_workers()
        if fresh:
            comm._cmd_conns = [_RecordingConn(conn, log) for conn, log
                               in zip(comm._cmd_conns, logs)]

    comm._ensure_workers = ensure_recorded_workers
    try:
        for name, fn in _script():
            bytes0 = comm.events.total_bytes()
            msgs0 = comm.events.message_count()
            marks = [len(log) for log in logs]
            result = fn(comm)
            records.append({
                "step": name,
                "commands": {str(r): logs[r][marks[r]:] for r in range(P)
                             if len(logs[r]) > marks[r]},
                "result": _digest(result),
                "bytes": comm.events.total_bytes() - bytes0,
                "messages": comm.events.message_count() - msgs0,
            })
    finally:
        comm.close()
    return records


# ----------------------------------------------------------------------
# The test
# ----------------------------------------------------------------------
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_protocol_matches_golden(start_method):
    import multiprocessing as mp
    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"start method {start_method!r} unavailable")
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = run_script(start_method)
    assert [r["step"] for r in got] == [r["step"] for r in golden], \
        "script steps changed; regenerate the golden deliberately"
    for have, want in zip(got, golden):
        for field in ("commands", "result", "bytes", "messages"):
            assert have[field] == want[field], (
                f"step {have['step']!r}: {field} differs\n"
                f"  got:    {json.dumps(have[field])}\n"
                f"  golden: {json.dumps(want[field])}")


if __name__ == "__main__":
    records = run_script("fork")
    with open(GOLDEN, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r, sort_keys=True) for r in records))
        fh.write("\n]\n")
    print(f"wrote {len(records)} steps to {GOLDEN}")
