"""The autotuning planner: enumerate, price, cache, decide.

This is the module that closes the paper's loop: instead of the user
hand-picking ``algorithm`` / ``sparsity_aware`` / ``partitioner`` /
``replication_factor``, :class:`Planner` searches that space for a
concrete graph, machine and communicator backend —

1. :func:`~repro.plan.space.enumerate_candidates` spans the engine
   registry x partitioners x valid 1.5D replication factors x candidate
   rank counts;
2. :func:`~repro.plan.score.score_candidates` prices every candidate
   by running one epoch of the trainer's model for it on the simulator,
   adds the host overhead of the backend that will run it for that
   epoch's messages, and ranks the space by that price (the closed-form
   :func:`~repro.core.costmodel.epoch_cost` fills the ``predicted_s``
   column beside it);
3. the winning :class:`ExecutionPlan` plus the full ranked table are
   persisted in the :class:`~repro.plan.cache.PlanCache`, so a repeat
   run with the same matrix/machine/space simulates nothing.

:func:`resolve_config` is the bridge the trainer uses: it turns a
:class:`~repro.core.config.DistTrainConfig` with ``"auto"`` fields into a
fully concrete one (training with the resolved config is bit-identical to
configuring those values by hand — the planner only *selects*, it never
changes execution).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..comm.factory import available_backends
from ..comm.machine import MachineModel, get_machine
from ..core.config import (AUTO, Algorithm, DistTrainConfig,
                           training_layer_dims)
from ..core.engine import mode_name
from ..graphs.datasets import GraphDataset
from ..partition.base import PartitionResult
from .cache import PlanCache, matrix_fingerprint, plan_key
from .score import score_candidates
from .space import (DEFAULT_GRAD_OVERLAPS, DEFAULT_PARTITIONERS,
                    DEFAULT_PIPELINE_DEPTHS, DEFAULT_REPLICATION_CANDIDATES,
                    PlanCandidate, enumerate_candidates)

__all__ = ["EmptyPlanSpace", "ExecutionPlan", "PlanReport", "Planner",
           "plan_for_dataset", "planner_constraints", "resolve_config"]


class EmptyPlanSpace(ValueError):
    """No candidate of the planner's space runs at the requested rank
    counts (or every one that does was marked dead)."""


@dataclass(frozen=True, kw_only=True)
class ExecutionPlan(PlanCandidate):
    """The plan point the planner chose, with what it was priced on: the
    backend that will execute it, its prices and where they came from."""

    backend: str
    predicted_s: float
    simulated_s: Optional[float]
    source: str                  # "analytic" | "simulated" | "cache"
    machine: str
    fingerprint: str

    def as_dict(self) -> Dict[str, object]:
        """The persisted record (every field; :meth:`from_dict` inverts
        it)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  source: Optional[str] = None) -> "ExecutionPlan":
        plan = cls(**payload)
        return plan if source is None else dataclasses.replace(plan,
                                                               source=source)


@dataclass
class PlanReport:
    """Outcome of one planner invocation (the ``repro tune`` payload)."""

    plan: ExecutionPlan
    table: List[Dict[str, object]]
    candidates_priced: int
    cache_hit: bool
    key: str
    cache_path: Optional[str] = None
    #: The partition the winner was priced on (``None`` on cache hits and
    #: for a plan without partitioner); lets callers reuse the planner's
    #: partitioning work.
    partition: Optional[PartitionResult] = None


class Planner:
    """Searches the plan space for the cheapest training configuration.

    Parameters
    ----------
    machine:
        Machine preset name or :class:`~repro.comm.machine.MachineModel`
        the simulator (and the closed forms) price candidates on.
    backend:
        The communicator backend that will execute the plan.  It is not
        searched: it prices the per-message host overhead and the
        gradient bucket of every candidate.
    partitioners / algorithms / modes / replication_candidates:
        Plan-space axes; ``None`` means the full default axis
        (:data:`~repro.plan.space.DEFAULT_PARTITIONERS`, every trainable
        engine variant).
    probe:
        Price every candidate by running the trainer's epoch for it on
        the simulator (default).  ``False`` ranks by the closed forms and
        runs nothing.
    seed:
        Shared by partitioner tie-breaking, the priced models' weights
        and their stand-in node data.
    cache_input_propagation:
        Plan for the trainer's cached schedule (layer 0's ``A X`` computed
        once, ``2L - 2`` narrow-side SpMMs per epoch) instead of the
        paper's ``2L``;
        :func:`resolve_config` passes the config's value, so ``--auto``
        ranks what will actually run.
    cache / use_cache / cache_read_only:
        A :class:`~repro.plan.cache.PlanCache` (or ``None`` for the
        default location), whether to consult/fill it, and whether this
        planner may only read it (used by ``train --auto`` resolution so
        training never writes plans, but still reuses ``repro tune``'s).
    """

    def __init__(self, machine: "str | MachineModel" = "perlmutter-scaled",
                 *,
                 backend: str = "sim",
                 partitioners: Optional[Sequence[Optional[str]]] = None,
                 algorithms: Optional[Sequence[str]] = None,
                 modes: Optional[Sequence[str]] = None,
                 replication_candidates: Sequence[int]
                 = DEFAULT_REPLICATION_CANDIDATES,
                 pipeline_depths: Sequence[int] = DEFAULT_PIPELINE_DEPTHS,
                 grad_overlaps: Sequence[bool] = DEFAULT_GRAD_OVERLAPS,
                 probe: bool = True,
                 seed: int = 0,
                 cache_input_propagation: bool = False,
                 cache: Optional[PlanCache] = None,
                 use_cache: bool = True,
                 cache_read_only: bool = False) -> None:
        self.machine = get_machine(machine)
        if backend not in available_backends():
            raise ValueError(f"unknown communicator backend {backend!r}; "
                             f"available: {available_backends()}")
        self.backend = backend
        self.partitioners = None if partitioners is None else tuple(partitioners)
        self.algorithms = None if algorithms is None else tuple(algorithms)
        self.modes = None if modes is None else tuple(modes)
        self.replication_candidates = tuple(replication_candidates)
        self.pipeline_depths = tuple(pipeline_depths)
        self.grad_overlaps = tuple(grad_overlaps)
        self.probe = probe
        self.seed = seed
        self.cache_input_propagation = bool(cache_input_propagation)
        self.use_cache = use_cache
        self.cache_read_only = cache_read_only
        self.cache = cache if cache is not None else \
            (PlanCache() if use_cache else None)

    # ------------------------------------------------------------------
    def _space_signature(self) -> Dict[str, object]:
        """Everything (besides matrix/machine/dims/ranks) that changes the
        *search space* or its prices — part of the cache key.  Defaulted
        axes are expanded to their resolved contents (and the
        backend-overhead constants are included) so registering a new
        variant or recalibrating the overhead table invalidates cached
        plans instead of silently serving a space that never saw the
        change.  The pricing rule (``probe``) is part of the key too: a
        closed-form ranking is never served to a planner that
        simulates."""
        from ..core.engine import available_spmm_variants
        from .score import effective_message_overheads
        return {
            "backend": self.backend,
            "partitioners": self.partitioners if self.partitioners is not None
            else DEFAULT_PARTITIONERS,
            "algorithms": self.algorithms,
            "modes": self.modes,
            "variants": tuple(available_spmm_variants()),
            "replications": self.replication_candidates,
            "pipeline_depths": self.pipeline_depths,
            "grad_overlaps": self.grad_overlaps,
            # The *effective* table (defaults overlaid with this host's
            # measured calibration): running `repro calibrate` changes
            # the scoring inputs, so it must invalidate cached plans.
            "backend_overheads": tuple(sorted(
                effective_message_overheads().items())),
            "seed": self.seed,
            "cache_input_propagation": self.cache_input_propagation,
            "probe": self.probe,
        }

    # ------------------------------------------------------------------
    def plan(self, adjacency, layer_dims: Sequence[int],
             n_ranks: "int | Sequence[int]") -> PlanReport:
        """Plan distributed training of a GCN with ``layer_dims`` over the
        (raw, unnormalised) ``adjacency`` for the candidate ``n_ranks``."""
        rank_counts = [n_ranks] if isinstance(n_ranks, int) else list(n_ranks)
        fingerprint = matrix_fingerprint(adjacency)
        key = plan_key(fingerprint, self.machine, layer_dims, rank_counts,
                       self._space_signature())
        dead_ranks: set = set()
        if self.cache is not None:
            dead_ranks = {p for backend, p
                          in self.cache.dead_configs(fingerprint)
                          if backend == self.backend}

        if self.use_cache and self.cache is not None:
            record = self.cache.get(key)
            # A record is served unless its winning configuration was
            # marked dead since (a rank loss on this backend at its
            # n_ranks — elastic restart records it; the stale winner must
            # be re-planned, not served).
            if record is not None:
                plan = ExecutionPlan.from_dict(record["plan"], source="cache")
                if plan.n_ranks not in dead_ranks:
                    return PlanReport(plan=plan, table=list(record["table"]),
                                      candidates_priced=0, cache_hit=True,
                                      key=key,
                                      cache_path=str(self.cache.path))

        n_vertices = adjacency.shape[0]
        candidates = enumerate_candidates(
            rank_counts,
            partitioners=self.partitioners,
            algorithms=self.algorithms,
            modes=self.modes,
            replication_candidates=self.replication_candidates,
            n_vertices=n_vertices,
            pipeline_depths=self.pipeline_depths,
            grad_overlaps=self.grad_overlaps,
        )
        candidates = [c for c in candidates if c.n_ranks not in dead_ranks]
        # distribute() results of this call only, keyed (partitioner,
        # nblocks): nothing outlives the plan but the winner's partition.
        distributed: Dict = {}
        ranked = score_candidates(
            candidates, adjacency, layer_dims, self.machine,
            backend=self.backend,
            cache_input_propagation=self.cache_input_propagation,
            simulate=self.probe, seed=self.seed, distributed=distributed)
        if not ranked:
            excluded = ", after excluding dead configurations" \
                if dead_ranks else ""
            raise EmptyPlanSpace(
                "the plan space is empty for this matrix/rank combination "
                f"(n_ranks={rank_counts}, n_vertices={n_vertices}"
                f"{excluded})")

        best = ranked[0]
        plan = ExecutionPlan(
            **dataclasses.asdict(best.candidate),
            backend=self.backend,
            predicted_s=best.predicted_s,
            simulated_s=best.simulated_s,
            source="simulated" if self.probe else "analytic",
            machine=self.machine.name,
            fingerprint=fingerprint,
        )
        table = [{"rank": rank, **scored.as_dict(),
                  "chosen": "*" if rank == 1 else ""}
                 for rank, scored in enumerate(ranked, start=1)]

        if self.use_cache and self.cache is not None and \
                not self.cache_read_only:
            self.cache.put(key, {"plan": plan.as_dict(), "table": table,
                                 "layer_dims": [int(d) for d in layer_dims]})
        return PlanReport(plan=plan, table=table,
                          candidates_priced=len(ranked) if self.probe
                          else 0,
                          cache_hit=False, key=key,
                          cache_path=str(self.cache.path) if self.cache else None,
                          partition=distributed[best.candidate.partitioner,
                                                best.candidate.n_block_rows][2])

    def plan_for_dataset(self, dataset: GraphDataset,
                         n_ranks: "int | Sequence[int]",
                         hidden: int = 16, n_layers: int = 3) -> PlanReport:
        """Plan for a :class:`~repro.graphs.datasets.GraphDataset` and the
        GCN architecture the trainer would build on it."""
        dims = training_layer_dims(dataset.node_data.n_features,
                                   dataset.node_data.n_classes,
                                   hidden, n_layers)
        return self.plan(dataset.adjacency, dims, n_ranks)


def plan_for_dataset(dataset: GraphDataset, n_ranks: "int | Sequence[int]",
                     machine: "str | MachineModel" = "perlmutter-scaled",
                     hidden: int = 16, n_layers: int = 3,
                     **planner_kwargs) -> PlanReport:
    """Convenience wrapper: plan with a fresh :class:`Planner`."""
    planner = Planner(machine=machine, **planner_kwargs)
    return planner.plan_for_dataset(dataset, n_ranks, hidden=hidden,
                                    n_layers=n_layers)


def planner_constraints(config: DistTrainConfig) -> Dict[str, object]:
    """The :class:`Planner` keyword arguments a training config implies:
    every ``"auto"`` axis free (``algorithm="auto"`` frees the family,
    the sparsity mode and the replication factor), every pinned axis
    pinned, and the machine, backend, pipeline depth, gradient-exchange
    overlap, layer-0 cache and seed the run executes with.  Shared by
    :func:`resolve_config` and the trainer's elastic re-plan."""
    constraints: Dict[str, object] = dict(
        machine=config.machine,
        backend=config.backend,
        pipeline_depths=[config.pipeline_depth],
        grad_overlaps=[config.grad_overlap],
        cache_input_propagation=config.cache_input_propagation,
        seed=config.seed)
    if config.algorithm != AUTO:
        constraints.update(
            algorithms=[config.algorithm],
            modes=[mode_name(config.sparsity_aware)],
            replication_candidates=[config.replication_factor]
            if config.algorithm == Algorithm.ONE_POINT_FIVE_D else [1])
    if config.partitioner != AUTO:
        constraints["partitioners"] = [config.partitioner]
    return constraints


def resolve_config(dataset: GraphDataset, config: DistTrainConfig,
                   **planner_kwargs
                   ) -> Tuple[DistTrainConfig, Optional[ExecutionPlan],
                              Optional[PartitionResult]]:
    """Resolve ``"auto"`` fields of a training config into concrete values.

    Fields the user pinned stay pinned — the planner only searches the
    ``"auto"`` axes (:func:`planner_constraints`) and prices them on the
    config's backend, which resolution never changes.  Configs without
    any ``"auto"`` field are returned unchanged.

    Resolution consults the plan cache **read-only** — so ``train
    --auto`` after a ``repro tune`` of the same dataset, machine and
    constraints trains exactly the plan tune reported — and otherwise
    prices the space on the simulator like ``repro tune`` does, without
    writing the cache, keeping
    :func:`~repro.core.trainer.train_distributed` free of write side
    effects.

    Returns ``(resolved_config, plan, partition)``: ``partition`` is the
    :class:`~repro.partition.base.PartitionResult` the plan was priced on
    (``None`` on a plan-cache hit or without partitioner), so the trainer
    can skip re-partitioning.
    """
    if not config.needs_planning:
        return config, None, None
    planner = Planner(**planner_constraints(config), cache_read_only=True,
                      **planner_kwargs)
    report = planner.plan_for_dataset(dataset, config.n_ranks,
                                      hidden=config.hidden,
                                      n_layers=config.n_layers)
    resolved = dataclasses.replace(config, **report.plan.as_config_kwargs())
    return resolved, report.plan, report.partition
