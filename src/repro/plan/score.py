"""Price plan candidates: run the trainer's own epoch on the simulator.

Every candidate is priced by one rule (:func:`sim_epoch`): build the
model the trainer would build for it
(:func:`repro.core.trainer.build_setup`) on a
:class:`~repro.comm.simulator.SimCommunicator`, run one
``train_epoch`` and read the simulated clock.  Its price is that clock
plus the per-message host overhead of the backend that will execute the
schedule times the epoch's exact message count (the simulator describes
the modelled machine, not the runtime).

The paper's closed forms (:func:`repro.core.costmodel.epoch_cost`, with
its gradient-exchange term) fill the ``predicted_s`` column next to it,
so the planner's table reports model against simulator; with
``simulate=False`` they are the price and nothing executes.

Building the distributed matrix dominates pricing time (each partitioner x
block-row count pair needs a partition + permutation), so
:func:`score_candidates` distributes each pair once
(:func:`repro.core.distribute.distribute`) and shares it across all
candidates that agree on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.machine import MachineModel, get_machine
from ..comm.simulator import SimCommunicator
from ..core.config import DistTrainConfig, training_layer_dims
from ..core.costmodel import epoch_cost
from ..core.dist_matrix import DistSparseMatrix
from ..core.distribute import distribute
from ..core.trainer import build_setup, resolve_grad_bucket_bytes
from ..graphs.features import NodeData
from ..obs.tracer import TRACE
from .calibrate import load_message_overheads
from .space import PlanCandidate

__all__ = ["BACKEND_MESSAGE_OVERHEAD_S", "ScoredCandidate",
           "effective_message_overheads", "score_candidates", "sim_epoch"]

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


def _training_config(candidate: PlanCandidate, layer_dims: Sequence[int],
                     machine: MachineModel, backend: str, seed: int,
                     cache_input_propagation: bool) -> DistTrainConfig:
    """The concrete config training ``candidate`` on ``backend`` runs."""
    dims = [int(d) for d in layer_dims]
    n_layers = len(dims) - 1
    hidden = dims[1] if n_layers > 1 else 1
    if n_layers < 1 or training_layer_dims(dims[0], dims[-1], hidden,
                                           n_layers) != dims:
        raise ValueError(
            f"layer_dims {dims} is not a GCN the trainer builds "
            "([f_0] + [hidden] * (L - 1) + [classes])")
    return DistTrainConfig(**candidate.as_config_kwargs(), hidden=hidden,
                           n_layers=n_layers, machine=machine,
                           backend=backend, seed=seed,
                           cache_input_propagation=cache_input_propagation)


def _stand_in(n: int, layer_dims: Sequence[int], seed: int) -> NodeData:
    """Seeded node data of the shapes the trainer's model reads: ``(n,
    f_0)`` features, labels whose largest class is ``f_L - 1`` and an
    all-true training mask.  The simulated clock does not depend on the
    values."""
    classes = int(layer_dims[-1])
    none = np.zeros(n, dtype=bool)
    return NodeData(
        features=np.random.default_rng(seed).random((n, int(layer_dims[0]))),
        labels=(classes - 1 - np.arange(n)) % classes,
        train_mask=np.ones(n, dtype=bool), val_mask=none, test_mask=none)


def sim_epoch(config: DistTrainConfig, matrix: DistSparseMatrix,
              node_data: NodeData) -> Tuple[float, int]:
    """Simulated seconds and exact message count of one training epoch
    of the model :func:`repro.core.trainer.build_setup` builds for the
    concrete ``config`` over ``matrix``, on a simulator of
    ``config.machine``.

    With ``config.cache_input_propagation`` the layer-0 cache is primed
    from the features operand
    (:meth:`~repro.core.dist_gcn.DistributedGCN.prime_input_propagation`)
    instead of computing ``A X``: the epoch after it is the one training
    repeats.  ``config.backend`` is the runtime being priced; it sizes
    the gradient buckets, not the communicator.
    """
    span = TRACE.span("plan.simulate", cat="plan",
                      args={"algorithm": config.algorithm,
                            "partitioner": config.partitioner,
                            "replication": config.replication_factor,
                            "n_ranks": config.n_ranks,
                            "pipeline_depth": config.pipeline_depth,
                            "grad_overlap": config.grad_overlap})
    comm = SimCommunicator(config.n_ranks, machine=config.machine)
    with span, comm:
        model = build_setup(config, comm, node_data, matrix).model
        if model.cache_input_propagation:
            model.prime_input_propagation(model.features)
        start = comm.elapsed()
        model.train_epoch(config.learning_rate)
        return comm.elapsed() - start, comm.events.message_count()


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate with its per-epoch prices (seconds): the closed-form
    prediction and, when it was run, the simulated one."""

    candidate: PlanCandidate
    predicted_s: float
    simulated_s: Optional[float]

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

    With ``simulate`` every candidate runs one training epoch on the
    simulator (:func:`sim_epoch`); otherwise the closed form is the
    price and nothing executes.  ``layer_dims`` must be a GCN the
    trainer builds (``training_layer_dims``).  Infeasible candidates
    (more block rows than vertices) are dropped.  Ties are broken by the
    candidate's deterministic sort key, so the returned ranking is stable
    across runs.  ``cache_input_propagation`` prices the trainer's cached
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
    per_message = effective_message_overheads().get(backend, 1.0e-4)
    stand_in: Optional[NodeData] = None
    scored: List[ScoredCandidate] = []
    for candidate in candidates:
        if candidate.n_block_rows > adjacency.shape[0]:
            continue
        key = (candidate.partitioner, candidate.n_block_rows)
        if key not in distributed:
            distributed[key] = distribute(
                adjacency, *key, seed=seed, dtype=np.float64)
        matrix = distributed[key][0]
        config = _training_config(candidate, layer_dims, machine, backend,
                                  seed, cache_input_propagation)
        predicted_s = epoch_cost(
            matrix, layer_dims, machine,
            algorithm=candidate.algorithm,
            sparsity_aware=candidate.sparsity_aware,
            nranks=candidate.n_ranks,
            replication=candidate.replication_factor,
            pipeline_depth=candidate.pipeline_depth,
            grad_exchange=True, grad_overlap=candidate.grad_overlap,
            grad_bucket_bytes=resolve_grad_bucket_bytes(config),
            cache_input_propagation=cache_input_propagation).total_s
        simulated_s = None
        if simulate:
            if stand_in is None:
                stand_in = _stand_in(adjacency.shape[0], layer_dims, seed)
            seconds, messages = sim_epoch(config, matrix, stand_in)
            simulated_s = seconds + per_message * messages
        scored.append(ScoredCandidate(candidate=candidate,
                                      predicted_s=predicted_s,
                                      simulated_s=simulated_s))
    scored.sort(key=lambda s: (s.price_s, s.candidate.sort_key()))
    return scored
