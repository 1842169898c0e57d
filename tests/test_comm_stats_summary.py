"""``Communicator.stats_summary()``: the flat volume + timing row that
``repro train`` prints and the benchmark harness records.

Every key is recomputed here from the communicator's own ground truth —
a plain sum over ``comm.events`` and ``comm.breakdown()`` — on every
backend, after one fixed traffic pattern.
"""

import numpy as np
import pytest

from repro.comm import make_communicator

P = 3
BACKENDS = ("sim", "threaded", "process")
VOLUME_KEYS = ("total_MB", "avg_MB_per_rank", "max_MB_per_rank",
               "imbalance_pct", "messages")


def run_traffic(comm) -> None:
    """Skewed all-to-allv (rank ``i`` sends ``4 (i + 1)`` float64 to each
    peer), a broadcast from rank 0, an all-reduce and a local charge."""
    send = [[None if i == j else np.ones(4 * (i + 1)) for j in range(P)]
            for i in range(P)]
    comm.alltoallv(send, category="alltoall")
    comm.broadcast(np.ones(10), root=0, category="bcast")
    comm.allreduce([np.full(6, float(r)) for r in range(P)],
                   category="allreduce")
    comm.charge_spmm(0, 1e9, category="local")


def expected_summary(comm) -> dict:
    sent = [0] * comm.nranks
    for event in comm.events:
        sent[event.src] += event.nbytes
    total = sum(sent)
    avg = total / comm.nranks
    peak = max(sent)
    out = {
        "elapsed_s": comm.elapsed(),
        "total_MB": total / 1e6,
        "avg_MB_per_rank": avg / 1e6,
        "max_MB_per_rank": peak / 1e6,
        "imbalance_pct": (peak / avg - 1.0) * 100.0 if avg else 0.0,
        "messages": float(len(comm.events)),
    }
    out.update({f"time_{cat}_s": sec for cat, sec in comm.breakdown().items()})
    return out


@pytest.fixture(scope="module")
def summaries():
    """``{backend: (stats_summary(), expected_summary())}``."""
    out = {}
    for backend in BACKENDS:
        with make_communicator(P, backend=backend) as comm:
            run_traffic(comm)
        # Reporting keeps working after close on every backend.
        out[backend] = (comm.stats_summary(), expected_summary(comm))
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_key_equals_a_sum_over_the_event_log(summaries, backend):
    got, want = summaries[backend]
    assert list(got) == list(want)
    assert got == want
    assert {"time_alltoall_s", "time_bcast_s", "time_allreduce_s"} <= set(got)


def test_volume_keys_agree_across_backends(summaries):
    rows = [{key: got[key] for key in VOLUME_KEYS}
            for got, _ in summaries.values()]
    assert rows[1:] == rows[:1] * (len(rows) - 1)


def test_volume_is_the_traffic_pattern(summaries):
    """The all-to-allv alone makes rank 2 the bottleneck sender; the
    simulator pins the whole row."""
    got, _ = summaries["sim"]
    with make_communicator(P, backend="sim") as comm:
        run_traffic(comm)
        sent = comm.events.bytes_sent_by_rank(P, category="alltoall")
        assert sent.tolist() == [2 * 4 * (i + 1) * 8 for i in range(P)]
        assert got["total_MB"] * 1e6 == comm.events.total_bytes()
    assert got["imbalance_pct"] > 0.0
    assert got["time_local_s"] > 0.0


IDLE = {"elapsed_s": 0.0, "total_MB": 0.0, "avg_MB_per_rank": 0.0,
        "max_MB_per_rank": 0.0, "imbalance_pct": 0.0, "messages": 0.0}


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_idle_communicator_reports_zeros(backend):
    with make_communicator(P, backend=backend) as comm:
        assert comm.stats_summary() == IDLE


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_returns_the_summary_to_zeros(backend):
    with make_communicator(P, backend=backend) as comm:
        run_traffic(comm)
        assert comm.stats_summary()["messages"] > 0
        comm.reset()
        assert comm.stats_summary() == IDLE
