"""Price plan candidates: run each one on the simulator.

Every candidate group (the backend-independent execution,
:meth:`~repro.plan.space.PlanCandidate.group_key`) is priced by one rule:
compile its SpMM plan once, run it on a
:class:`~repro.comm.simulator.SimCommunicator` at every width of
:func:`repro.core.costmodel.epoch_spmm_widths`, and read the simulated
clock (:func:`simulate_epoch_s`).  The price of a candidate is that clock
plus a per-message host-overhead term that differentiates the
communicator backends (the simulator describes the modelled machine, not
the runtime that executes the schedule) and the gradient-exchange term.

The paper's closed forms (:func:`repro.core.costmodel.epoch_cost`) fill
the ``predicted_s`` column next to it, so the planner's table reports
model against simulator; with ``simulate=False`` they are the price.

Building the distributed matrix dominates pricing time (each partitioner x
block-row count pair needs a partition + permutation), so
:class:`PlanMatrixCache` shares those matrices across all candidates that
agree on them.
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
from ..core.gradsync import bucket_bytes_for_overhead
from ..core.dist_matrix import (BlockRowDistribution, DistDenseMatrix,
                                DistSparseMatrix)
from ..core.engine import compile as compile_spmm
from ..core.spmm_15d import ProcessGrid
from ..graphs.adjacency import (gcn_normalize, permutation_from_parts,
                                symmetric_permutation)
from ..obs.tracer import TRACE
from ..partition import get_partitioner
from .calibrate import load_message_overheads
from .space import PlanCandidate

__all__ = ["BACKEND_MESSAGE_OVERHEAD_S", "PlanMatrixCache", "ScoredCandidate",
           "backend_overhead_s", "effective_message_overheads",
           "score_candidates", "simulate_epoch_s"]

#: Crude per-message *host* overhead of each communicator backend, added on
#: top of the machine model's communication cost.  ``sim`` replays the
#: schedule in-process (no runtime overhead beyond the model); ``threaded``
#: pays queue/condition-variable handoffs; ``process`` pays IPC + shared
#: memory arena bookkeeping per message.  These are the *fallback*
#: guesses: ``repro calibrate`` measures the real numbers on the current
#: host and :func:`effective_message_overheads` overlays them (see
#: :mod:`repro.plan.calibrate`).  Consequence of the defaults: with no
#: calibration file, ``backend="auto"`` always resolves to ``sim`` (zero
#: overhead on an otherwise backend-independent cost); a real backend is
#: only chosen when the user pins it or calibrates.
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


class PlanMatrixCache:
    """Build-once cache of distributed matrices per (partitioner, nblocks).

    The planner evaluates many candidates that share a data distribution;
    partitioning is by far the most expensive part of scoring, so the
    cache keys the permuted, normalised :class:`DistSparseMatrix` by the
    ``(partitioner, nblocks)`` pair.
    """

    def __init__(self, adjacency, seed: int = 0,
                 normalize: bool = True) -> None:
        self._raw = adjacency.tocsr()
        self._normalized = gcn_normalize(self._raw) if normalize \
            else self._raw.astype(np.float64)
        self.seed = seed
        self._cache: Dict[Tuple[Optional[str], int], DistSparseMatrix] = {}
        self._partitions: Dict[Tuple[str, int], object] = {}

    @property
    def n_vertices(self) -> int:
        return self._raw.shape[0]

    def matrix(self, partitioner: Optional[str],
               nblocks: int) -> DistSparseMatrix:
        """The normalised adjacency distributed over ``nblocks`` block rows
        under ``partitioner`` (``None`` = natural block distribution)."""
        if nblocks > self.n_vertices:
            raise ValueError(
                f"cannot distribute {self.n_vertices} vertices over "
                f"{nblocks} block rows")
        key = (partitioner, nblocks)
        if key not in self._cache:
            if partitioner is None:
                matrix_csr = self._normalized
                dist = BlockRowDistribution.uniform(self.n_vertices, nblocks)
            else:
                part = get_partitioner(partitioner, seed=self.seed).partition(
                    self._raw, nblocks)
                self._partitions[(partitioner, nblocks)] = part
                perm = permutation_from_parts(part.parts, nblocks)
                matrix_csr = symmetric_permutation(self._normalized, perm)
                dist = BlockRowDistribution.from_partition(part.part_sizes())
            self._cache[key] = DistSparseMatrix(matrix_csr, dist)
        return self._cache[key]

    def partition_result(self, partitioner: Optional[str], nblocks: int):
        """The memoized :class:`~repro.partition.base.PartitionResult` for
        a (partitioner, nblocks) pair this cache already partitioned, or
        ``None`` — lets the trainer reuse the planner's partitioning work
        instead of repeating it (partitioners are seed-deterministic, so
        reuse is bit-identical to recomputation)."""
        if partitioner is None:
            return None
        return self._partitions.get((partitioner, nblocks))


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
                       overheads: Optional[Dict[str, float]] = None,
                       cache_input_propagation: bool = False) -> float:
    """Predicted per-epoch host overhead of the candidate's backend.

    ``overheads`` defaults to :func:`effective_message_overheads` (the
    calibrated table when this host has one).  The epoch's SpMMs are
    those :func:`~repro.core.costmodel.epoch_spmm_widths` lists.
    """
    if overheads is None:
        overheads = effective_message_overheads()
    per_message = overheads.get(candidate.backend, 1.0e-4)
    n_spmms = len(epoch_spmm_widths(layer_dims, cache_input_propagation))
    return per_message * _estimated_messages_per_epoch(candidate, n_spmms)


def simulate_epoch_s(candidate: PlanCandidate,
                     matrix_cache: PlanMatrixCache,
                     layer_dims: Sequence[int],
                     machine: "str | MachineModel",
                     seed: int = 0,
                     cache_input_propagation: bool = False) -> float:
    """Simulated seconds of one epoch's SpMMs for ``candidate`` — the
    schedule :func:`repro.core.costmodel.epoch_spmm_widths` defines.

    The candidate's algorithm, mode, partitioner, replication factor and
    pipeline depth are compiled into the one persistent plan the trainer
    would run; its backend is not (see :func:`backend_overhead_s`).  The
    operand is seeded, so the price is deterministic.
    """
    widths = epoch_spmm_widths(layer_dims, cache_input_propagation)
    if not widths:      # a one-layer model's cached epoch runs no SpMM
        return 0.0
    matrix = matrix_cache.matrix(candidate.partitioner, candidate.n_block_rows)
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
                     matrix_cache: PlanMatrixCache,
                     layer_dims: Sequence[int],
                     machine: "str | MachineModel",
                     cache_input_propagation: bool = False,
                     simulate: bool = True,
                     seed: int = 0) -> List[ScoredCandidate]:
    """Rank candidates by price, ascending.

    With ``simulate`` every group runs once on the simulator
    (:func:`simulate_epoch_s`); otherwise the closed form is the price
    and nothing executes.  Infeasible candidates (more block rows than
    vertices) are dropped.  Ties are broken by the candidate's
    deterministic sort key, so the returned ranking is stable across
    runs.  ``cache_input_propagation`` prices the trainer's cached
    schedule (``2 L - 2`` SpMMs at the narrow side,
    :func:`~repro.core.costmodel.epoch_spmm_widths`) instead of the
    paper's.
    """
    machine = get_machine(machine)
    overheads = effective_message_overheads()
    scored: List[ScoredCandidate] = []
    # Both prices are backend-independent; share them across the
    # candidates that differ only in backend.
    group_memo: Dict[Tuple, Tuple[object, Optional[float]]] = {}
    for candidate in candidates:
        if candidate.n_block_rows > matrix_cache.n_vertices:
            continue
        group = candidate.group_key()
        if group not in group_memo:
            matrix = matrix_cache.matrix(candidate.partitioner,
                                         candidate.n_block_rows)
            cost = epoch_cost(matrix, layer_dims, machine,
                              algorithm=candidate.algorithm,
                              sparsity_aware=candidate.sparsity_aware,
                              nranks=candidate.n_ranks,
                              replication=candidate.replication_factor,
                              pipeline_depth=candidate.pipeline_depth,
                              cache_input_propagation=cache_input_propagation)
            sim_s = simulate_epoch_s(
                candidate, matrix_cache, layer_dims, machine, seed=seed,
                cache_input_propagation=cache_input_propagation) \
                if simulate else None
            group_memo[group] = (cost, sim_s)
        cost, sim_s = group_memo[group]
        overhead = backend_overhead_s(
            candidate, layer_dims, overheads=overheads,
            cache_input_propagation=cache_input_propagation)
        # Gradient-exchange term: backend-dependent (the wait-free
        # trainer fuses into buckets sized from the backend's calibrated
        # per-message overhead), so it lives outside the group memo.  A
        # synchronous candidate reduces per layer with nothing hidden; an
        # overlapped one fuses and hides all but the last bucket behind
        # the backward-pass compute.
        grad_bucket = bucket_bytes_for_overhead(
            overheads.get(candidate.backend, 0.0)) \
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
