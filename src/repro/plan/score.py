"""Price plan candidates: run each one on the simulator.

Every candidate group (the candidate without its gradient-exchange mode,
:meth:`~repro.plan.space.PlanCandidate.group_key`) is priced by one rule:
compile its SpMM plan once, run it on a
:class:`~repro.comm.simulator.SimCommunicator` at every width of
:func:`repro.core.costmodel.epoch_spmm_widths`, and read the simulated
clock (:func:`simulate_epoch_s`).  The price of a candidate is that clock
plus the per-message host overhead of the backend that will execute the
schedule (the simulator describes the modelled machine, not the runtime)
and the gradient-exchange term.

The paper's closed forms (:func:`repro.core.costmodel.epoch_cost`) fill
the ``predicted_s`` column next to it, so the planner's table reports
model against simulator; with ``simulate=False`` they are the price.

Building the distributed matrix dominates pricing time (each partitioner x
block-row count pair needs a partition + permutation), so
:func:`score_candidates` distributes each pair once
(:func:`repro.core.distribute.distribute`) and shares it across all
candidates that agree on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.machine import MachineModel, get_machine
from ..comm.simulator import SimCommunicator
from ..core.config import Algorithm
from ..core.costmodel import (epoch_cost, epoch_spmm_widths,
                              gradient_exchange_cost)
from ..core.gradsync import default_bucket_bytes
from ..core.dist_matrix import DistDenseMatrix, DistSparseMatrix
from ..core.distribute import distribute
from ..core.engine import compile as compile_spmm
from ..core.spmm_15d import ProcessGrid
from ..obs.tracer import TRACE
from .calibrate import load_message_overheads
from .space import PlanCandidate

__all__ = ["BACKEND_MESSAGE_OVERHEAD_S", "ScoredCandidate",
           "backend_overhead_s", "effective_message_overheads",
           "score_candidates", "simulate_epoch_s"]

#: Crude per-message *host* overhead of each communicator backend, added on
#: top of the machine model's communication cost.  ``sim`` replays the
#: schedule in-process (no runtime overhead beyond the model); ``threaded``
#: pays queue/condition-variable handoffs; ``process`` pays IPC + shared
#: memory arena bookkeeping per message.  These are the *fallback*
#: guesses: ``repro calibrate`` measures the real numbers on the current
#: host and :func:`effective_message_overheads` overlays them (see
#: :mod:`repro.plan.calibrate`).
BACKEND_MESSAGE_OVERHEAD_S: Dict[str, float] = {
    "sim": 0.0,
    "threaded": 2.0e-5,
    "process": 2.0e-4,
}


def effective_message_overheads() -> Dict[str, float]:
    """The overhead table the planner actually uses: shipped defaults
    overlaid with this host's measured calibration (``repro calibrate``).
    ``sim`` stays pinned at zero — its runtime is not part of the
    modelled schedule."""
    table = dict(BACKEND_MESSAGE_OVERHEAD_S)
    table.update(load_message_overheads())
    table["sim"] = 0.0
    return table


def _estimated_messages_per_epoch(candidate: PlanCandidate,
                                  n_spmms: int) -> float:
    """Rough per-epoch message count used to charge backend overhead.

    1D runs an all-to-allv (p * (p-1) pairs) per SpMM; 1.5D runs
    ``stages`` staged broadcasts across ``p`` ranks plus the replica
    all-reduce.  ``n_spmms`` is the epoch's SpMM count, as in
    :func:`epoch_cost`.
    """
    p = candidate.n_ranks
    if p <= 1:
        return 0.0
    if candidate.algorithm == Algorithm.ONE_POINT_FIVE_D:
        c = candidate.replication_factor
        stages = max(1, p // (c * c))
        per_spmm = stages * p + (p * math.log2(c) if c > 1 else 0.0)
    else:
        per_spmm = p * (p - 1)
    return float(n_spmms) * per_spmm


def backend_overhead_s(candidate: PlanCandidate, layer_dims: Sequence[int],
                       backend: str,
                       overheads: Optional[Dict[str, float]] = None,
                       cache_input_propagation: bool = False) -> float:
    """Predicted per-epoch host overhead of running ``candidate`` on
    ``backend``.

    ``overheads`` defaults to :func:`effective_message_overheads` (the
    calibrated table when this host has one).  The epoch's SpMMs are
    those :func:`~repro.core.costmodel.epoch_spmm_widths` lists.
    """
    if overheads is None:
        overheads = effective_message_overheads()
    per_message = overheads.get(backend, 1.0e-4)
    n_spmms = len(epoch_spmm_widths(layer_dims, cache_input_propagation))
    return per_message * _estimated_messages_per_epoch(candidate, n_spmms)


def simulate_epoch_s(candidate: PlanCandidate,
                     matrix: DistSparseMatrix,
                     layer_dims: Sequence[int],
                     machine: "str | MachineModel",
                     seed: int = 0,
                     cache_input_propagation: bool = False) -> float:
    """Simulated seconds of one epoch's SpMMs for ``candidate`` — the
    schedule :func:`repro.core.costmodel.epoch_spmm_widths` defines.

    The candidate's algorithm, mode, replication factor and pipeline
    depth are compiled over ``matrix`` (distributed by its partitioner)
    into the one persistent plan the trainer would run; the backend that
    executes it is priced by :func:`backend_overhead_s`.  The operand is
    seeded, so the price is deterministic.
    """
    widths = epoch_spmm_widths(layer_dims, cache_input_propagation)
    if not widths:      # a one-layer model's cached epoch runs no SpMM
        return 0.0
    # One seeded operand wide enough for every layer; each width slices
    # its first f columns so all candidates see identical data.
    operand = np.random.default_rng(seed).standard_normal(
        (matrix.shape[0], max(widths)))
    grid = None
    if candidate.algorithm == Algorithm.ONE_POINT_FIVE_D:
        grid = ProcessGrid(nranks=candidate.n_ranks,
                           replication=candidate.replication_factor)
    comm = SimCommunicator(candidate.n_ranks, machine=machine)
    span = TRACE.span("plan.simulate", cat="plan",
                      args={"algorithm": candidate.algorithm,
                            "partitioner": candidate.partitioner,
                            "replication": candidate.replication_factor,
                            "n_ranks": candidate.n_ranks,
                            "pipeline_depth": candidate.pipeline_depth})
    with span, comm:
        denses = {f: DistDenseMatrix.from_global(
            np.ascontiguousarray(operand[:, :f]), matrix.dist)
            for f in sorted(set(widths))}
        op = compile_spmm(matrix, comm, algorithm=candidate.algorithm,
                          sparsity_aware=candidate.sparsity_aware, grid=grid,
                          pipeline_depth=candidate.pipeline_depth)
        start = comm.elapsed()
        for f in widths:
            op(denses[f])
        return comm.elapsed() - start


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate with its per-epoch prices (seconds): the closed-form
    prediction and, when the group was run, the simulated one."""

    candidate: PlanCandidate
    predicted_s: float
    simulated_s: Optional[float]
    communication_s: float
    compute_s: float
    overhead_s: float

    @property
    def price_s(self) -> float:
        """The rank key: the simulated price, else the closed form."""
        return self.predicted_s if self.simulated_s is None \
            else self.simulated_s

    def as_dict(self) -> Dict[str, object]:
        row = self.candidate.as_dict()
        row["predicted_s"] = self.predicted_s
        row["simulated_s"] = self.simulated_s
        return row


def score_candidates(candidates: Sequence[PlanCandidate],
                     adjacency,
                     layer_dims: Sequence[int],
                     machine: "str | MachineModel",
                     backend: str = "sim",
                     cache_input_propagation: bool = False,
                     simulate: bool = True,
                     seed: int = 0,
                     distributed: Optional[Dict] = None
                     ) -> List[ScoredCandidate]:
    """Rank candidates over the raw ``adjacency`` by their price on
    ``backend``, ascending.

    With ``simulate`` every group runs once on the simulator
    (:func:`simulate_epoch_s`); otherwise the closed form is the price
    and nothing executes.  Infeasible candidates (more block rows than
    vertices) are dropped.  Ties are broken by the candidate's
    deterministic sort key, so the returned ranking is stable across
    runs.  ``cache_input_propagation`` prices the trainer's cached
    schedule (``2 L - 2`` SpMMs at the narrow side,
    :func:`~repro.core.costmodel.epoch_spmm_widths`) instead of the
    paper's.

    Each ``(partitioner, nblocks)`` pair is distributed once, normalised
    at float64, into ``distributed`` (a fresh dict when ``None``): the
    :func:`~repro.core.distribute.distribute` result per pair, so a
    caller can read the partitions it priced.
    """
    machine = get_machine(machine)
    if distributed is None:
        distributed = {}
    overheads = effective_message_overheads()
    scored: List[ScoredCandidate] = []
    # Both prices ignore the gradient exchange; share them across the
    # candidates that differ only in grad_overlap.
    group_memo: Dict[Tuple, Tuple[object, Optional[float]]] = {}
    for candidate in candidates:
        if candidate.n_block_rows > adjacency.shape[0]:
            continue
        group = candidate.group_key()
        if group not in group_memo:
            key = (candidate.partitioner, candidate.n_block_rows)
            if key not in distributed:
                distributed[key] = distribute(
                    adjacency, *key, seed=seed, normalize=True,
                    dtype=np.float64)
            matrix = distributed[key][0]
            cost = epoch_cost(matrix, layer_dims, machine,
                              algorithm=candidate.algorithm,
                              sparsity_aware=candidate.sparsity_aware,
                              nranks=candidate.n_ranks,
                              replication=candidate.replication_factor,
                              pipeline_depth=candidate.pipeline_depth,
                              cache_input_propagation=cache_input_propagation)
            sim_s = simulate_epoch_s(
                candidate, matrix, layer_dims, machine, seed=seed,
                cache_input_propagation=cache_input_propagation) \
                if simulate else None
            group_memo[group] = (cost, sim_s)
        cost, sim_s = group_memo[group]
        overhead = backend_overhead_s(
            candidate, layer_dims, backend, overheads=overheads,
            cache_input_propagation=cache_input_propagation)
        # Gradient-exchange term, outside the group memo.  A synchronous
        # candidate reduces per layer with nothing hidden; an overlapped
        # one fuses into the trainer's buckets and hides all but the last
        # behind the backward-pass compute.
        grad_bucket = default_bucket_bytes(
            backend, machine, candidate.n_ranks) \
            if candidate.grad_overlap else 0
        grad_s = gradient_exchange_cost(
            layer_dims, machine, candidate.n_ranks,
            bucket_bytes=grad_bucket,
            overlap=candidate.grad_overlap,
            compute_s=cost.compute_s / 2.0)
        scored.append(ScoredCandidate(
            candidate=candidate,
            predicted_s=cost.total_s + grad_s + overhead,
            simulated_s=None if sim_s is None
            else sim_s + grad_s + overhead,
            communication_s=cost.communication_s + grad_s,
            compute_s=cost.compute_s,
            overhead_s=overhead,
        ))
    scored.sort(key=lambda s: (s.price_s, s.candidate.sort_key()))
    return scored
