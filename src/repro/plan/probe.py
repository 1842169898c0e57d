"""Empirical probing: time top-ranked candidates with short real SpMM runs.

The analytic scorer orders the plan space, but the alpha-beta model is a
model; the prober grounds the top-k candidates by actually executing one
epoch's worth of distributed SpMMs (at the layer widths the trainer would
use, one fewer when it caches layer 0's ``A X``) through the real :class:`~repro.core.engine.SpmmEngine`.

Probes run on the ``sim`` backend by default: its clock is the machine
model's simulated time, so probed numbers are directly comparable to the
analytic predictions and fully deterministic.  Probing on a real backend
(``threaded`` / ``process``) measures host wall-clock instead.  The probe
loop visits candidates in their (deterministic) analytic rank order and
stops when the wall-clock budget is exhausted, so a planner run never
hangs on an expensive configuration; at least one candidate is always
probed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..comm.factory import make_communicator
from ..comm.machine import MachineModel, get_machine
from ..obs.tracer import TRACE
from ..core.config import Algorithm
from ..core.costmodel import epoch_spmm_widths
from ..core.dist_matrix import DistDenseMatrix
from ..core.engine import SpmmEngine
from ..core.spmm_15d import ProcessGrid
from .score import PlanMatrixCache, ScoredCandidate
from .space import PlanCandidate

__all__ = ["ProbeResult", "probe_candidate", "probe_ranked"]


@dataclass(frozen=True)
class ProbeResult:
    """Measured cost of one candidate (seconds per epoch's SpMMs)."""

    probed_s: float
    runs: int
    backend: str
    simulated: bool

    def as_dict(self) -> Dict[str, object]:
        return {"probed_s": self.probed_s, "runs": self.runs,
                "probe_backend": self.backend, "simulated": self.simulated}


def probe_candidate(candidate: PlanCandidate,
                    matrix_cache: PlanMatrixCache,
                    layer_dims: Sequence[int],
                    machine: "str | MachineModel",
                    probe_backend: str = "sim",
                    repeats: int = 1,
                    seed: int = 0,
                    cache_input_propagation: bool = False) -> ProbeResult:
    """Time one epoch's worth of SpMMs for ``candidate`` — the schedule
    :func:`repro.core.costmodel.epoch_spmm_widths` defines.

    The candidate's *algorithm, mode, partitioner and replication factor*
    are executed for real; the communicator is the ``probe_backend`` (not
    the candidate's backend — the backend axis is ranked analytically, see
    :data:`~repro.plan.score.BACKEND_MESSAGE_OVERHEAD_S`).
    """
    machine = get_machine(machine)
    matrix = matrix_cache.matrix(candidate.partitioner, candidate.n_block_rows)
    widths = epoch_spmm_widths(layer_dims, cache_input_propagation)
    if not widths:      # a one-layer model's cached epoch runs no SpMM
        return ProbeResult(probed_s=0.0, runs=max(1, repeats),
                           backend=probe_backend,
                           simulated=probe_backend == "sim")
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    max_width = max(widths)
    # One seeded operand wide enough for every layer; each probe slices
    # the first f columns so all candidates see identical data.
    operand = np.ascontiguousarray(rng.standard_normal((n, max_width)))

    comm = make_communicator(candidate.n_ranks, backend=probe_backend,
                             machine=machine)
    simulated = probe_backend == "sim"
    span = TRACE.span("plan.probe", cat="plan",
                      args={"algorithm": candidate.algorithm,
                            "partitioner": candidate.partitioner,
                            "replication": candidate.replication_factor,
                            "n_ranks": candidate.n_ranks,
                            "pipeline_depth": candidate.pipeline_depth,
                            "probe_backend": probe_backend})
    grid = None
    if candidate.algorithm == Algorithm.ONE_POINT_FIVE_D:
        grid = ProcessGrid(nranks=candidate.n_ranks,
                           replication=candidate.replication_factor)
    with span, comm:
        engine = SpmmEngine(comm, algorithm=candidate.algorithm,
                            sparsity_aware=candidate.sparsity_aware,
                            grid=grid)
        denses = {f: DistDenseMatrix.from_global(
            np.ascontiguousarray(operand[:, :f]), matrix.dist)
            for f in sorted(set(widths))}
        # Compile the one persistent plan every width runs on, exactly as
        # the trainer does at setup time — probing measures the steady
        # state an epoch actually runs at (including the candidate's
        # pipelined schedule), and never re-pays plan setup inside the
        # timed window.
        op = engine.compile(matrix, pipeline_depth=candidate.pipeline_depth)
        # Warm-up run outside the timed window (first-touch costs on the
        # real backends; a no-op for the simulator's clocks).
        op(denses[widths[0]])
        start_sim = comm.elapsed()
        start_wall = time.perf_counter()
        for _ in range(max(1, repeats)):
            for f in widths:
                op(denses[f])
        if simulated:
            total = comm.elapsed() - start_sim
        else:
            total = time.perf_counter() - start_wall
    runs = max(1, repeats)
    return ProbeResult(probed_s=total / runs, runs=runs,
                       backend=probe_backend, simulated=simulated)


def probe_ranked(ranked: Sequence[ScoredCandidate],
                 matrix_cache: PlanMatrixCache,
                 layer_dims: Sequence[int],
                 machine: "str | MachineModel",
                 top_k: int = 3,
                 budget_s: Optional[float] = 10.0,
                 probe_backend: str = "sim",
                 repeats: int = 1,
                 seed: int = 0,
                 cache_input_propagation: bool = False
                 ) -> Dict[PlanCandidate, ProbeResult]:
    """Probe the ``top_k`` analytically best candidates within ``budget_s``.

    Candidates that differ only in backend share one probe measurement
    (the probe always runs on ``probe_backend``), so enumerating every
    backend does not multiply probing cost.  ``budget_s=None`` disables
    the wall-clock budget (fully deterministic probe count).
    """
    results: Dict[PlanCandidate, ProbeResult] = {}
    shared: Dict[Tuple, ProbeResult] = {}
    started = time.perf_counter()
    probed_groups = 0
    for scored in ranked:
        candidate = scored.candidate
        group_key = candidate.group_key()
        if group_key in shared:
            results[candidate] = shared[group_key]
            continue
        if probed_groups >= max(0, top_k):
            continue
        if budget_s is not None and probed_groups > 0 and \
                time.perf_counter() - started > budget_s:
            continue
        result = probe_candidate(
            candidate, matrix_cache, layer_dims, machine,
            probe_backend=probe_backend, repeats=repeats, seed=seed,
            cache_input_propagation=cache_input_propagation)
        shared[group_key] = result
        results[candidate] = result
        probed_groups += 1
    return results
